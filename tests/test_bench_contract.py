"""The benchmark's traced path runs for every strategy, counts the bytes each
upload carries, and its run check still catches a wrong mean accuracy.

perfbench's own smoke test traces only fedsa_gcl, yet its protocol counters
read every upload's ``params`` and ``sfm`` whatever the strategy; a baseline
upload's ``sfm`` is empty. This runs ``perfbench/run.py``'s ``benchmark``
with tracing on a tiny config of each strategy, importing the harness by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedgraphsim.protocol import Strategy
from fedgraphsim.sim import run_simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_harness():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports tracer and workloads
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_harness()


def tiny(strategy: str):
    return run.Workload(
        f"tiny_{strategy}",
        "contract test: SBM 2x50 nodes, 4 clients, 20 trips",
        {
            "dataset": {"kind": "sbm", "blocks": [50, 50], "intra_prob": 0.2,
                        "inter_prob": 0.01, "feature_dim": 8, "seed": 0},
            "run": {"n_clients": 4, "k_buffer": 2, "lr": 0.3, "max_trips": 20,
                    "strategy": strategy},
        },
        (),
    )


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_traced_benchmark_runs_for_every_strategy(strategy):
    result, notes = run.benchmark(tiny(strategy), 3, 0.01, trace=True)
    assert result["failed"] == 0, notes
    assert result["correct"], notes
    metrics = result["metrics"]
    assert metrics["protocol.bytes_up"]["value"] > 0
    assert metrics["protocol.server_receive.calls"]["value"] == 20


@pytest.mark.parametrize("strategy", [s.value for s in Strategy])
def test_bytes_up_are_the_uploaded_payload(strategy):
    """``protocol.bytes_up`` is each upload's parameters, plus a classes x
    classes fingerprint under fedsa_gcl; a baseline run computes none."""
    workload = tiny(strategy)
    result, notes = run.benchmark(workload, 3, 0.01, trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    f, h, c = 8, workload.config().hidden_dim, 2  # the two SBM blocks are the classes
    params = 8 * (h * (f + 1 + c) + c)
    sfm = 8 * c * c if strategy == "fedsa_gcl" else 0
    uploads = metrics["protocol.server_receive.calls"]
    assert metrics["protocol.bytes_up"] == uploads * (params + sfm), notes
    if strategy != "fedsa_gcl":
        assert metrics["kernels.compute_sfm.s"] == 0


def test_check_log_reads_the_replayed_snapshots():
    """``check_log`` compares every trip's ``mean_acc`` with the mean of its
    replayed accuracy vector: a correct run has no problem, and a mean shifted
    by 1e-9 on one trip is flagged at that trip."""
    cfg = tiny("fedsa_gcl").config()
    log = run_simulation(cfg, 1)
    assert run.check_log(log, cfg) == []
    log.records[12].mean_acc += 1e-9
    assert run.check_log(log, cfg) == ["trip 13: mean_acc is not the mean of all_accs"]
