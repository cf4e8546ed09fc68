"""Smoke test of the benchmark harness on a tiny config.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the program sources on sys.path
from fedgraphsim import kernels, protocol, sim
from tracer import Tracer
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    "smoke test: SBM 2x50 nodes, 4 clients, 20 trips",
    {
        "dataset": {"kind": "sbm", "blocks": [50, 50], "intra_prob": 0.2,
                    "inter_prob": 0.01, "feature_dim": 8, "seed": 0},
        "run": {"n_clients": 4, "k_buffer": 2, "lr": 0.3, "max_trips": 20},
    },
    (),
)


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    return TINY.name


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric(tiny, trace, section, capsys):
    code = run.main(["--workload", tiny, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 * run.MIN_TRACED_PAIRS if trace else run.SETUP_SEEDS + 1)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "sha256(MetricsLog.to_csv_text())" in out


def test_workloads_match_the_declaration():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    declared = {m["name"] for m in SPEC["per_layer"]}
    for workload in run.WORKLOADS.values():
        assert set(workload.moves) <= declared, workload.name


def test_traced_run_matches_untraced_and_restores_bindings():
    cfg = TINY.config()
    plain = sim.run_simulation(cfg, 5)
    originals = (kernels.cosine_similarity, protocol.cosine_similarity, sim.client_trip)
    tracer = Tracer([*run.TRACED, "kernels.no_such_function"])
    with tracer:
        assert protocol.cosine_similarity is kernels.cosine_similarity
        assert protocol.cosine_similarity is not originals[1]
        traced = sim.run_simulation(cfg, 5)
    assert (kernels.cosine_similarity, protocol.cosine_similarity, sim.client_trip) == originals
    assert traced.to_csv_text() == plain.to_csv_text()
    assert tracer.absent == ["kernels.no_such_function"]
    stats = tracer.summary()
    assert stats["protocol.client_trip"]["calls"] == cfg.max_trips
    # run_simulation is the root span, so the self times add up to its duration
    total_self = sum(s["s"] for s in stats.values())
    assert total_self == pytest.approx(stats["sim.run_simulation"]["total_s"], rel=1e-9)


def test_check_log_flags_wrong_trip_count():
    cfg = TINY.config()
    log = sim.run_simulation(cfg, 1)
    assert run.check_log(log, cfg) == []
    log.records.pop()
    assert run.check_log(log, cfg) == ["19 trips, expected 20"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "server_bound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
