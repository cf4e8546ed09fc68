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
        "bea7abaa5a7e76e2de9b7f2bb617fce9eb0e82acd4077fa79f344c7e79642123",
        "895fea2ae9ab2498dd95e2079d0ecb146b1154241a3228ef5ade437eec11e5a7",
        "94e7240709774cf22a5c371448183b4b9f7ad78af774694523ae11690f7314bf",
    ),
    ("fedsa_gcl", "balanced", None): (
        "0f349dfedf348f6d4227694f864b304a1518d612698de2965c2156972d731ce3",
        "a8bd95058e8a241d853bdcc014414c1c9ef6f096209ebf624717cb9bc4eec6bf",
        "da5bb11c64235e235bafc8d7b5884472de2cd5f72d489463fb9c07b4dba7adfc",
    ),
    ("fedavg_sync", "louvain", None): (
        "238aa3984f6702574ed57cd829dc3b2be49922cb818c90273ddc905f22cd2645",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedavg_sync", "balanced", None): (
        "b69d7321d0be098ef0b3043e225d546be96de4f9a9549ef2abc11699f950a0d6",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedbuff", "louvain", None): (
        "4f3ccb3523043f0cce557ea8c90846583ade293a336a658e591834964e901806",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedbuff", "balanced", None): (
        "05f4aaf2804874ecba19b802f4bb6996712ea6339f3c9c00717b9927ff678014",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedasync", "louvain", None): (
        "460f451c6e8e34f629c7d34ad5e61041b6039b2de9fc995edd9537bb164fd8f8",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedasync", "balanced", None): (
        "388d7c7345fe8ddbeeab0713712237557724e6f682e8d9f672f881808f561447",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedsa_gcl", "louvain", "disable_sfm_clustering"): (
        "01ef2e4b7be804eba9a6d9ecca6831200ffd38c7744693d72c91c915d6688a75",
        "d536eff1a60b77a1f1fa4b67d14d8449836b19b62898efe9393e8ef991e8e64a",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_clustercast"): (
        "06643c87c910e3b9a92928d66ee85440afb311600baa23c354cb87181d05bb15",
        "6f6b5512d14011806e1478e9010d9e5c00ac47f65c8108013799fdf0e3c16cc1",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_staleness"): (
        "230314a98cdd18896dfb59c04234661b2603f4d20b930004ea4d3fc97cbe6a59",
        "f574f44fa81489d5445d3cd5fc4c6fa47c1cdd282e5fc93372c998bab4f4189e",
        "e3adeabd894896c5a1e0984f4f821d515c242ecda205694e197190406b1e4090",
    ),
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"): (
        "dc73823ee365d024053c48166ecc4af3c7fff52698ee09eda28b51a97bffec50",
        "9aec1dc3b963f0980cb0f909c63322b494c972d2748c36151fcb511089dd5d6e",
        "c5ee12956993dc5cb620cf31c48659aee15e75dc3c55ca08e1656205e953357a",
    ),
    ("fedsa_gcl", "louvain", "label_sparsity"): (
        "514b2cece5bd28ff8bafc0ef1a28a074691d2b06b88dc76d3414b5a5019aea78",
        "64338f18e8d0403058b9e7803796ba9658e5f8ebb02f23f39d0278542f00facb",
        "1040484ba4d4a0beb6caa020630038498b4093cc291c296aceccbd9963c42d57",
    ),
    ("fedsa_gcl", "louvain", "k_steps0"): (
        "7c3a48cf01a182c50d78b925b5911f1ccb0c5fa659bfd2f2f97e7eed81c0afdf",
        "33b75796cc3fe20553dae93999ca68e99221e46549299b86be4696995b7754de",
        "401c7fe904589071eb2d514abaa7e9347ef3b7572ae47e321039de98d3d72817",
    ),
    ("fedsa_gcl", "louvain", "k_buffer8"): (
        "e4b06582be10f9f52a13ba08e1b67cba8a0e728b6404226eef33cf7db8f78756",
        "96fcf526691bcafa3f10b7ad956a045e231877767d1333fe2373a46807adf8fd",
        "d4977fff1f1454f2af2a887ec58fe506a83f3bdf996dd93d363e9abc82adfeb6",
    ),
    ("fedbuff", "louvain", "k_buffer7"): (
        "bd1cfe6075b23163cba105aeb4fa3ca84e3150da1a67b710ba77a2ba9e981eb4",
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
# still gives.
ROW_BY_ROW_LOGS = {
    ("fedsa_gcl", "louvain", None):
        "c41b90ae056fb5ce6f8b23c51982f0264f2dbd35daa1cb2c11dbd1bacd2bd4f0",
    ("fedsa_gcl", "louvain", "disable_clustercast"):
        "d232b40868f279a7229d25f60d6ee6218a57c5c18a1d47dc926a1a8f5edf99d2",
    ("fedsa_gcl", "louvain", "disable_staleness"):
        "ea34ac82d0ca117593f85e607aaf585c6510f48446869c5037bc67086af8dbe8",
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"):
        "9f0ff97776ca783f6b8ae402e4552e77d8f64272b0d9753341c38cf4bc352342",
    ("fedsa_gcl", "louvain", "label_sparsity"):
        "f7248dc973963b73f4ceba85c0d398dac1184897da67fb4551b640b3f6766ac9",
    ("fedsa_gcl", "louvain", "k_steps0"):
        "a76781601a37b5a32ba3ee0e282228198ee6c05cb8ab86dbe1a2b576c3d5cff7",
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
