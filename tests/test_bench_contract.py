"""The benchmark's traced path runs for every strategy.

perfbench's own smoke test traces only fedsa_gcl, yet its protocol counters
read every upload's parameters and fingerprint whatever the strategy. This
runs ``perfbench/run.py``'s ``benchmark`` with tracing on a tiny config of
each strategy, importing the harness by path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedgraphsim.protocol import Strategy

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
