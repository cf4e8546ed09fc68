import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedgraphsim
from fedgraphsim.config import ConfigError, DatasetSpec, ExperimentConfig
from fedgraphsim.experiments import (
    aggregate_seeds,
    run_experiment,
    summarize_logs,
    trips_to_target,
)
from fedgraphsim.graphs import SbmConfig
from fedgraphsim.sim import MetricsLog, TripRecord


def fake_log(means, initial=0.1):
    records = [
        TripRecord(i + 1, i + 1, 0, m, m, (m,)) for i, m in enumerate(means)
    ]
    return MetricsLog(
        records=records,
        seed=0,
        config_hash="x",
        strategy="fedsa_gcl",
        initial_accs=(initial,),
        initial_mean_acc=initial,
        durations=(1,),
    )


def sbm_cfg(**kw):
    base = dict(
        dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12), 0.5, 0.05, 4, 0.3, 5)),
        n_clients=2,
        partitioner="balanced",
        strategy="fedsa_gcl",
        lr=0.05,
        hidden_dim=8,
        max_trips=15,
        edge_fraction=0.0,
        mask_ratios=(0.5, 0.0, 0.5),
        seeds=(0,),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestTripsToTarget:
    def test_first_hit(self):
        log = fake_log([0.2, 0.5, 0.75, 0.8])
        assert trips_to_target(log, 0.75) == 3

    def test_never_reached(self):
        log = fake_log([0.2, 0.5])
        assert trips_to_target(log, 0.9) is None

    def test_initial_already_satisfies(self):
        log = fake_log([0.2, 0.5], initial=0.95)
        assert trips_to_target(log, 0.9) == 0

    def test_monotone_in_target(self):
        log = fake_log([0.1, 0.4, 0.4, 0.6, 0.9])
        prev = -1
        for target in (0.05, 0.3, 0.5, 0.8, 0.95):
            got = trips_to_target(log, target)
            cur = math.inf if got is None else got
            assert cur >= prev
            prev = cur

    def test_target_validation(self):
        with pytest.raises(ValueError):
            trips_to_target(fake_log([0.5]), 0.0)


class TestAggregateSeeds:
    def test_constant_values(self):
        row = aggregate_seeds([3, 3, 3], "m")
        assert row.mean == 3.0 and row.ci95_half == 0.0 and row.n_seeds == 3

    def test_single_sample(self):
        row = aggregate_seeds([1.0], "m")
        assert row.mean == 1.0 and row.ci95_half == 0.0

    def test_t_interval_hand_computed(self):
        row = aggregate_seeds([1, 2, 3, 4, 5], "m")
        # t_{0.975, 4} = 2.776, s = 1.5811
        assert row.mean == 3.0
        assert row.ci95_half == pytest.approx(2.776 * 1.5811 / math.sqrt(5), abs=2e-3)
        assert row.ci95_half == pytest.approx(1.963, abs=2e-3)


class TestRunExperiment:
    def test_single_seed_outputs(self, tmp_path):
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(3,), target_accuracy=0.2)
        logs = run_experiment(cfg)
        assert len(logs) == 1
        out = tmp_path / "out"
        csv = (out / "metrics_seed3.csv").read_text().splitlines()
        assert len(csv) == 1 + cfg.max_trips  # header + one row per trip
        summary = (out / "summary.csv").read_text()
        assert "final_mean_accuracy" in summary
        assert "trips_to_target" in summary
        row = [l for l in summary.splitlines() if l.startswith("final_mean")][0]
        assert float(row.split(",")[2]) == 0.0  # single-seed half-width

    def test_repeated_seed_zero_halfwidth(self, tmp_path):
        # a config names each seed once, so the seed is repeated over experiments
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(7,))
        with pytest.raises(ConfigError, match="must be distinct"):
            sbm_cfg(seeds=(7, 7))
        finals = [run_experiment(cfg)[0].records[-1].mean_acc for _ in range(5)]
        row = aggregate_seeds(finals, "final")
        assert row.ci95_half == 0.0

    def test_differing_seeds_match_hand_interval(self, tmp_path):
        cfg = sbm_cfg(output_dir=str(tmp_path / "out"), seeds=(0, 1, 2, 3, 4))
        logs = run_experiment(cfg)
        finals = [lg.records[-1].mean_acc for lg in logs]
        row = aggregate_seeds(finals, "final")
        n = 5
        mean = sum(finals) / n
        sd = math.sqrt(sum((f - mean) ** 2 for f in finals) / (n - 1))
        assert row.mean == pytest.approx(mean, rel=1e-12)
        assert row.ci95_half == pytest.approx(2.776 * sd / math.sqrt(n), rel=1e-3)

    def test_summary_not_reached_uses_budget(self):
        logs = [fake_log([0.2, 0.3]), fake_log([0.2, 0.9])]
        rows = summarize_logs(logs, target=0.85)  # the unreached run counts its 2 trips
        by_name = {r.metric: r for r in rows}
        assert by_name["trips_to_target"].mean == pytest.approx((2 + 2) / 2)
        assert by_name["trips_to_target_reached"].mean == 1.0


class TestAblationTraces:
    def test_disable_sfm_clustering_forces_singletons(self, tmp_path):
        cfg = sbm_cfg(
            output_dir=str(tmp_path / "out"),
            n_clients=3,
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 5)),
            disable_sfm_clustering=True,
            max_trips=30,
        )
        (log,) = run_experiment(cfg)
        assert log.aggregation_log
        assert all(len(entry[2]) == 1 for entry in log.aggregation_log)

    def test_disable_clustercast_no_broadcasts(self, tmp_path):
        cfg = sbm_cfg(
            output_dir=str(tmp_path / "out"),
            n_clients=3,
            dataset=DatasetSpec("sbm", sbm=SbmConfig((12, 12, 12), 0.5, 0.05, 4, 0.3, 5)),
            disable_clustercast=True,
            max_trips=30,
        )
        (log,) = run_experiment(cfg)
        trace_path = tmp_path / "out" / "trace_seed0.log"
        assert trace_path.exists()
        assert "kind=broadcast" not in trace_path.read_text()

    def test_disable_staleness_zeroes_alpha(self):
        cfg = sbm_cfg(disable_staleness=True)
        assert cfg.resolved_hyper().alpha == 0.0
        assert cfg.hyper.alpha == 0.5  # raw config untouched


def test_import_leaves_scipy_stats_and_csgraph_unloaded():
    """``scipy.sparse.csgraph`` (balanced_partition) loads on first use, and
    ``scipy.stats`` never, not even for aggregate_seeds' t quantile: together
    they double the memory of a process that imports fedgraphsim."""
    src = str(Path(fedgraphsim.__file__).resolve().parents[1])
    code = ("import sys, fedgraphsim; fedgraphsim.aggregate_seeds([0.5, 0.7]); "
            "print(sorted({'scipy.stats', 'scipy.sparse.csgraph'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
