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
        "9ae97e468aeb57c6e7727ab42697c61f1e9fd484a347e0ecff5dd0a17caa48ec",
        "bafb67d6e60b22eef4a9dd30a261308725206ef125ee5f45158ddd518098ff30",
        "c45382095c31de27aeb23787691f70abf009e7cca6d0436fc9a73fa39f24e35e",
    ),
    ("fedsa_gcl", "balanced", None): (
        "84c8f43ef5d7a9a95326112ca15a74db8ba3547adb82ca3db958b72abf414ab7",
        "52dfde5b503fad0d1de2b5c9d958ac71693eabcd917d05b8158a01b688453a37",
        "da5bb11c64235e235bafc8d7b5884472de2cd5f72d489463fb9c07b4dba7adfc",
    ),
    ("fedavg_sync", "louvain", None): (
        "4c35ed1b9744465be17fcad5efc26d01564415ee1207c8e5ac10c38692ed7faa",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedavg_sync", "balanced", None): (
        "ab6a486df251e2a514791cdb7bb145972ff444e4c179712f1b277cfb441b2113",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "eaee46f8149df9da0cbf7d20ecb0021f4e505145f7a4608cccec8055c87c5dc4",
    ),
    ("fedbuff", "louvain", None): (
        "c2f1b9eedb67e428751be2603cec827aec7aa3364ff37f710c92cdebe70d98e0",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedbuff", "balanced", None): (
        "65dc5fe6c1b0c0775d8487f66967584af14fc3333e4e19540e49b7312b732ffa",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "71bb4df5eaf78670903e68e3966617d2dc7cd351e7e60428ea7ce2ed550a7823",
    ),
    ("fedasync", "louvain", None): (
        "7b9c19753e9df0b2bfa74407ffcb240c16d9e0136686510e06da4a11cbad10e1",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedasync", "balanced", None): (
        "e36b0c3e680edf9141b5e3f9de41313ad849a7cef9c70836049e1fb3d7283684",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "922458efdcd8291298fda43332d3f24219ddcd131584fd5ff5302454daba8816",
    ),
    ("fedsa_gcl", "louvain", "disable_sfm_clustering"): (
        "5ca04fffd7be2587426301547929d778a10f5e2eb08ab53975b6c776a9b744ca",
        "d536eff1a60b77a1f1fa4b67d14d8449836b19b62898efe9393e8ef991e8e64a",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_clustercast"): (
        "bd838864f8ab8aedecb255f4dd0bda004473ac18e9fc801a2825333ef5b1d9b6",
        "0d89194b2a2254cd973493998231aab255e4dca2d010f26bf2034b0a5ebeabfd",
        "c5f30c8cbe8336053b9ae4c4a4ad8091d1d17e18e390f7d54e2f194d2fb78211",
    ),
    ("fedsa_gcl", "louvain", "disable_staleness"): (
        "32b2c842eb8ec33ec268b7d3dae1636eb3b3418c860cc20e0ab17e4db3783bfc",
        "ec265e473eef52ea1f7482682f1e438651810e7f35c6096c69adbfdda998a6a1",
        "c45382095c31de27aeb23787691f70abf009e7cca6d0436fc9a73fa39f24e35e",
    ),
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"): (
        "d21de211142b0f98bb0bc016e28069a135720a001016e3f4cbfc29f26aa6d3b1",
        "f2c5c92778b5e4a6ecc438b3ba8ac6d9bf463a3ba2f41ea639321cf730f06fa1",
        "fa4935e15d3bbf9cf9d4c21dbac2b7a2cef8f4ca1dcff8a97ee75392b88071e1",
    ),
    ("fedsa_gcl", "louvain", "label_sparsity"): (
        "447c084e5d57fc2268ccf49ccae44696fa65244648ab8a5ca634099b73f11057",
        "b1cec06cc453088c43cba4855401d2b2a6a26ca8f32d7d23a56535772998421e",
        "e3590f1fcf315221e9b33ab6a88094436ba0dab3796497481e065467b4b5ce8c",
    ),
    ("fedsa_gcl", "louvain", "k_steps0"): (
        "bd526c9fbb795d4a0651984842c99b2451d81efe9ae665ca803066ee0716a199",
        "7765bc03f394f7425aaaa2eee88651fc37b388294512689864ab6c545f3b2e6c",
        "c45382095c31de27aeb23787691f70abf009e7cca6d0436fc9a73fa39f24e35e",
    ),
    ("fedsa_gcl", "louvain", "k_buffer8"): (
        "da0ebe3599b9717abff6ec31a57ed99e6659609baeb728b48e331353f4f6e137",
        "5c6f4ad3163e5d1f1d101aecddb74c6de0cd5ad71f233724e3744e3c8386f9b1",
        "d4977fff1f1454f2af2a887ec58fe506a83f3bdf996dd93d363e9abc82adfeb6",
    ),
    ("fedbuff", "louvain", "k_buffer7"): (
        "227c2d89a6f445f75683576dc3cad4876957189702bb0d3ac17f30a448301477",
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
    (SSE) kernel checks the goldens' CSV and trace digests; the padded trip
    kernel is not always the per-client loop bit for bit there, so no batch test runs."""
    _child_pytest(kernel, ("test_golden.py",), "test_golden_csv_and_trace_digests")


# The aggregation_log digests of the re-pinned cases before the re-pin, which
# the row-by-row reference round (tests/oracles.py) still gives.
ROW_BY_ROW_LOGS = {
    ("fedsa_gcl", "louvain", None):
        "64c240b1e608325bb725b9d9d184e23cca5f27b70aa91fadb78ecd81109a6777",
    ("fedsa_gcl", "louvain", "disable_clustercast"):
        "a001095ff7cfa4c8c5339c3914f01f28d8a29ce0eaf4ecc61663de3c8c95413c",
    ("fedsa_gcl", "louvain", "disable_staleness"):
        "b519aa6006fd2e8343d1808ce458f7408d3079cced58ef09cf50c64475054c7a",
    ("fedsa_gcl", "louvain", "edge_sparsity_lam0"):
        "20b18ba6c270c5b937073d16d7325a5815ff005bcd4837f96b415af310dd10ef",
    ("fedsa_gcl", "louvain", "label_sparsity"):
        "b4a0dbf4fe00af7c087eda612303873276c6ad9999a95c041673ab718e1a1fb3",
    ("fedsa_gcl", "louvain", "k_steps0"):
        "607203d7983daddff495b7d349847dc3fa230c85bd4a7391829b3430ceb43362",
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
