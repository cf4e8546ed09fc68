"""Golden digests of whole simulations: every strategy with both
partitioners, the three fedsa_gcl ablations, and three fedsa_gcl variants
that reach the client kernels' edge cases (isolated nodes with lam = 0,
sparse labels, no propagation).

Each case pins the SHA-256 of ``MetricsLog.to_csv_text()``, of
``repr(log.aggregation_log)`` and of ``repr(log.trace)`` (the delivery
trace). A refactor or optimization must leave all three unchanged; a change
that provably alters float summation order may re-pin only after showing
that the old and new accuracy curves agree to 1e-9.

The one re-pin so far: a fedsa_gcl round builds all its cluster models in
one BLAS product instead of one row-by-row sum per cluster. That changed the
``aggregation_log`` digest of six fedsa_gcl louvain cases (later weights
move through the confidences by at most 5e-16); every metrics CSV, every
trace, every member tuple and every other case stayed equal. The pins hold
on one BLAS thread and on the default count (``test_one_blas_thread``).

Every case was pinned anew when ``generate_sbm`` moved from one draw per
node pair to geometric skips: a new graph for the same config, so a change
of simulated behaviour, not of summation order. ``ROW_BY_ROW_LOGS`` holds
what the row-by-row round gives on the new graph.

Every louvain case was pinned anew again when Louvain's local moving went
from full passes until no node moves to fast local moving (one FIFO queue
per level): new clients from the same graph, so again a change of simulated
behaviour. The balanced cases kept their digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from fedgraphsim import sim
from fedgraphsim.config import DatasetSpec, ExperimentConfig, Perturbation
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.kernels import FglHyper
from fedgraphsim.sim import make_server, run_simulation
from oracles import FedSaGclServerRef

SEED = 5

# Config overrides by variant name; any other name is an ablation flag.
# edge_sparsity_lam0 leaves every client with isolated nodes, so propagation
# hits empty rows and the uniform reset, and 33 of its 120 LSCs are unclamped.
# k_buffer8 starts trips with an empty mailbox while a message is waiting
# for a later trip of the same client, which reading the mailbox without
# emptying it gets wrong. fedbuff's k_buffer7 (7 does not divide the 6 normal
# clients' uploads per time unit) takes that path on a baseline strategy:
# counted by wrapping sim.train_trips, 17 of its 120 trips start, after their
# client's first trip, with an empty mailbox (16 of them after the client had
# read a message), where every other fedbuff case has none. Its digests were
# computed before the training step moved its output layer to the train rows.
VARIANTS = {
    "edge_sparsity_lam0": dict(
        perturbation=Perturbation("edge_sparsity", 0.6), hyper=FglHyper(lam=0.0)
    ),
    "label_sparsity": dict(perturbation=Perturbation("label_sparsity", 0.5)),
    "k_steps0": dict(hyper=FglHyper(k_steps=0)),
    "k_buffer8": dict(k_buffer=8),
    "k_buffer7": dict(k_buffer=7),
}


def golden_cfg(strategy, partitioner, ablation=None):
    kw = dict(
        dataset=DatasetSpec("sbm", sbm=SbmConfig((40, 40, 40), 0.15, 0.01, 6, 0.5, 3)),
        n_clients=8,
        partitioner=partitioner,
        strategy=strategy,
        k_buffer=3,
        lr=0.3,
        hidden_dim=8,
        max_trips=120,
        edge_fraction=0.25,
        lag_range=(2, 3),
        mask_ratios=(0.4, 0.2, 0.4),
    )
    kw.update(VARIANTS.get(ablation, {ablation: True} if ablation else {}))
    return ExperimentConfig(**kw)


def digests(strategy, partitioner, ablation=None):
    log = run_simulation(golden_cfg(strategy, partitioner, ablation), SEED)
    return (
        hashlib.sha256(log.to_csv_text().encode()).hexdigest(),
        hashlib.sha256(repr(log.aggregation_log).encode()).hexdigest(),
        hashlib.sha256(repr(log.trace).encode()).hexdigest(),
    )


GOLDEN = {
    ("fedsa_gcl", "louvain", None): (
        "7a0998f48bb9e3f9cfa55d79aece8f765294f3433651c1709daf155d96d1b06f",
        "47e4df98b83b40830991d36815675223a04f50891b6d899611e529636debd218",
        "62004afc1ede882298ec8fc857ad85af6a6dff5868c641ad92b7aca2f6a46783",
    ),
    ("fedsa_gcl", "balanced", None): (
        "0f349dfedf348f6d4227694f864b304a1518d612698de2965c2156972d731ce3",
        "a8bd95058e8a241d853bdcc014414c1c9ef6f096209ebf624717cb9bc4eec6bf",
        "da5bb11c64235e235bafc8d7b5884472de2cd5f72d489463fb9c07b4dba7adfc",
    ),
    ("fedavg_sync", "louvain", None): (
        "f7900943c8574351c756d77bc34a1fd4c363b1ced4e12b689daa27be12006c24",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedavg_sync", "balanced", None): (
        "b69d7321d0be098ef0b3043e225d546be96de4f9a9549ef2abc11699f950a0d6",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedbuff", "louvain", None): (
        "5a01259c7ecc6567ec9d4e3f10bdf11708ef27af8f7719c5aabdcc72c315cc3c",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedbuff", "balanced", None): (
        "05f4aaf2804874ecba19b802f4bb6996712ea6339f3c9c00717b9927ff678014",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedasync", "louvain", None): (
        "710001e155f96b735baebd2631341095678bf97752d43d642b5e7830933ecb45",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedasync", "balanced", None): (
        "388d7c7345fe8ddbeeab0713712237557724e6f682e8d9f672f881808f561447",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedsa_gcl", "louvain", "disable_sfm_clustering"): (
        "76441bc62e785821514613f8432a5df0442774c58b81833db0d196cdd6170012",
        "d536eff1a60b77a1f1fa4b67d14d8449836b19b62898efe9393e8ef991e8e64a",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_clustercast"): (
        "7ba89ff02ac6bd71f1d4f8c542f53210fba4a4b90d5c94198c6231805d0b6051",
        "1ac25d2671a6594fdcce202e35cca60bebe04f305bfe4ff5f43ec26b59c3098f",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_staleness"): (
        "7a0998f48bb9e3f9cfa55d79aece8f765294f3433651c1709daf155d96d1b06f",
        "21ada74cc86fac204e1d16f467221394df8a79a1dff5c4a55f464aa3312e99f6",
        "6487bc4de21d66a2d928184b6f9e41e6655295a1c14852acadd5329a72ce1e07",
    ),
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"): (
        "57b54cfb32e5e762690c4d1aa63a26f351b81316cf3f23e998fcfbac593a5c31",
        "a16fa121227300ce28c52a0b43c723e87ea6529d15b84f0e01722094ce9d8c95",
        "38213201e4464731b3550cf0dd3895c7734b0b87d95a48eebf82ba1197a11f41",
    ),
    ("fedsa_gcl", "louvain", "label_sparsity"): (
        "a619de2f0d47634168191143754c6a3d0a4737b848ea0b5b60984f94e1984020",
        "1a8a118328c7fe87b92b0aa411a69c623a382ac214715d3537d6f72430d3ecee",
        "da5bb11c64235e235bafc8d7b5884472de2cd5f72d489463fb9c07b4dba7adfc",
    ),
    ("fedsa_gcl", "louvain", "k_steps0"): (
        "7a0998f48bb9e3f9cfa55d79aece8f765294f3433651c1709daf155d96d1b06f",
        "7bed50edcd440f5d12355b11b8187ba05a35c16118f55d740d4e7ce41ce3bcd1",
        "62004afc1ede882298ec8fc857ad85af6a6dff5868c641ad92b7aca2f6a46783",
    ),
    ("fedsa_gcl", "louvain", "k_buffer8"): (
        "8a3ed8bcd9e380b5f00e8e6bca5ca57ef8d78576db6ab152f629d76d66d5e503",
        "20e341131aaa03ef8d820091a0601f791fb34f2db418cf67e24a76aaee769a1b",
        "d4977fff1f1454f2af2a887ec58fe506a83f3bdf996dd93d363e9abc82adfeb6",
    ),
    ("fedbuff", "louvain", "k_buffer7"): (
        "bbefecf10264c9ca94d1b009076e318c96392cbb2e16bf6d53bc62f60c59fbd1",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "5f22ece78ea1795a92daea22cf60f146699e5994832b6a80926818212e7399f8",
    ),
}


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: "-".join(filter(None, c)))
def test_golden_digests(case):
    assert digests(*case) == GOLDEN[case]


def test_one_blas_thread():
    """A re-pinned case run in a child process on one BLAS thread gives the
    same digests as the default thread count of this process."""
    case = ("fedsa_gcl", "louvain", None)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), str(here), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    code = f"import json, test_golden; print(json.dumps(test_golden.digests(*{case!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert tuple(json.loads(out.splitlines()[-1])) == GOLDEN[case]


@pytest.mark.skipif("OPENBLAS_CORETYPE" not in os.environ,
                    reason="on the default kernel test_golden_digests checks all three digests")
def test_golden_csv_and_trace_digests():
    """Every golden's metrics CSV and delivery trace, on an OpenBLAS kernel
    picked by OPENBLAS_CORETYPE. The aggregation_log digests are left out:
    the fedsa_gcl round's one product rounds apart on some kernels."""
    for case, (csv, _, trace) in GOLDEN.items():
        got = digests(*case)
        assert (got[0], got[2]) == (csv, trace), case


def _openblas_with_dynamic_arch() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name") == "scipy-openblas" and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", "")


needs_dynamic_arch = pytest.mark.skipif(
    not _openblas_with_dynamic_arch(),
    reason="numpy's BLAS is not scipy-openblas built with DYNAMIC_ARCH, "
           "so OPENBLAS_CORETYPE cannot pick its kernel")


def _child_pytest(kernel: str, files: tuple, select: str) -> None:
    """Run the tests of ``files`` that ``select`` (a ``-k`` expression) picks in
    one child pytest process on OpenBLAS's ``kernel``: all pass, none skip."""
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), str(here), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel}
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            *(str(here / f) for f in files), "-k", select]
    out = subprocess.run(args, env=env, cwd=here.parent, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert " passed" in out.stdout and "skipped" not in out.stdout, out.stdout[-3000:]


@needs_dynamic_arch
def test_haswell_kernel_in_a_child_process():
    """One child pytest process on OpenBLAS's Haswell (AVX2) kernel runs the
    trip kernel's batch-against-loop and train-row exactness tests and the
    goldens' CSV and trace digests."""
    _child_pytest("Haswell", ("test_gcn.py", "test_golden.py"),
                  "batch or train_row or csv_and_trace")


@needs_dynamic_arch
@pytest.mark.parametrize("kernel", ["Sandybridge", "Prescott"])
def test_older_kernel_digests_in_a_child_process(kernel):
    """One child pytest process on OpenBLAS's Sandybridge (AVX) or Prescott
    (SSE) kernel runs the trip kernel's batch-against-loop and train-row
    exactness tests and the goldens' CSV and trace digests."""
    _child_pytest(kernel, ("test_gcn.py", "test_golden.py"),
                  "batch or train_row or csv_and_trace")


# The aggregation_log digests of the re-pinned cases before the re-pin to one
# product per round, which the row-by-row reference round (tests/oracles.py)
# still gives. Re-pinned again, with GOLDEN, for Louvain's fast local moving.
ROW_BY_ROW_LOGS = {
    ("fedsa_gcl", "louvain", None):
        "a5b6284b0a5773673dc7af2eb5416a8372b03f3c9bd9f602ad8eaaacf60e1acd",
    ("fedsa_gcl", "louvain", "disable_clustercast"):
        "9476a27f64ac6c57078162abdfd146aa38cb11254199c7fe78ad635449e2a869",
    ("fedsa_gcl", "louvain", "disable_staleness"):
        "66a61af461872bcf369ad6a89c1a47f4209ff2e598b81a96d9ffb75937bfff5e",
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"):
        "137669f5ce4cbc103f8ab9040312e6786f9092c4781f53f44f2eced02de052de",
    ("fedsa_gcl", "louvain", "label_sparsity"):
        "4f204d277ce1ab3ef58c4d0d0dbad3ae2e175757480863f0238760c82beafc03",
    ("fedsa_gcl", "louvain", "k_steps0"):
        "95ced0149c235c138599b8ed3c53a8d284566dd86810515af5e284dac192bba2",
}


def reference_server(*args):
    s = make_server(*args)
    return FedSaGclServerRef(s.k, s.hyper, s.kb.known.size, s.use_clustering, s.use_broadcast)


@pytest.mark.parametrize("case", ROW_BY_ROW_LOGS, ids=lambda c: "-".join(filter(None, c)))
def test_the_row_by_row_round_gives_the_digests_before_the_re_pin(monkeypatch, case):
    monkeypatch.setattr(sim, "make_server", reference_server)
    csv, log, trace = digests(*case)
    assert (csv, log, trace) == (GOLDEN[case][0], ROW_BY_ROW_LOGS[case], GOLDEN[case][2])


def test_round_one_logs_as_the_row_by_row_round(monkeypatch):
    """Until a cluster model feeds back into training, the run logs bit for
    bit what the row-by-row reference round logs. Later rounds keep their
    members; their weights move by rounding only, through the confidences of
    clients trained from the models."""
    cfg = golden_cfg("fedsa_gcl", "louvain")
    log = run_simulation(cfg, SEED)
    monkeypatch.setattr(sim, "make_server", reference_server)
    ref = run_simulation(cfg, SEED)
    first = [entry for entry in ref.aggregation_log if entry[0] == 1]
    assert len(first) == cfg.k_buffer
    assert log.aggregation_log[: len(first)] == first
    assert [e[:3] for e in log.aggregation_log] == [e[:3] for e in ref.aggregation_log]
    for got, want in zip(log.aggregation_log, ref.aggregation_log):
        npt.assert_allclose(got[3], want[3], rtol=1e-12, atol=0.0)
    assert log.to_csv_text() == ref.to_csv_text() and log.trace == ref.trace
