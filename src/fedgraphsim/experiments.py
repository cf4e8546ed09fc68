"""Multi-seed experiment orchestration and derived metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .sim import MetricsLog, run_simulation


@dataclass
class SummaryRow:
    """Mean and 95% t-interval half-width of one metric over seeds."""

    metric: str
    mean: float
    ci95_half: float
    n_seeds: int


def aggregate_seeds(values, metric: str = "") -> SummaryRow:
    """t-distribution 95% interval; a single sample gets half-width 0."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need at least one value")
    n = len(values)
    mean = float(np.mean(values))
    if n == 1:
        return SummaryRow(metric, mean, 0.0, 1)
    sd = float(np.std(values, ddof=1))
    from scipy.special import stdtrit  # on use: ~6 MiB RSS, where scipy.stats takes ~50
    half = float(stdtrit(n - 1, 0.975) * sd / math.sqrt(n))
    return SummaryRow(metric, mean, half, n)


def trips_to_target(log: MetricsLog, target: float) -> int | None:
    """Smallest trip count whose mean accuracy reaches the target.

    Returns 0 when the initial model already satisfies the target and None
    when the log never reaches it.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must lie in (0, 1]")
    if log.initial_mean_acc >= target:
        return 0
    for rec in log.records:
        if rec.mean_acc >= target:
            return rec.trip
    return None


def summarize_logs(logs: list[MetricsLog], target: float | None) -> list[SummaryRow]:
    """Final-accuracy summary plus, when a target is set, trips-to-target.

    A run that never reaches the target contributes its own trip count (its
    budget: every run stops at max_trips) to the trips-to-target mean; the
    reached count is reported alongside.
    """
    finals = [log.final_mean_acc for log in logs]
    rows = [aggregate_seeds(finals, "final_mean_accuracy")]
    if target is not None:
        raw = [trips_to_target(log, target) for log in logs]
        filled = [len(log.records) if r is None else r for log, r in zip(logs, raw)]
        rows.append(aggregate_seeds(filled, "trips_to_target"))
        rows.append(
            SummaryRow(
                "trips_to_target_reached",
                float(sum(r is not None for r in raw)),
                0.0,
                len(raw),
            )
        )
    return rows


def write_summary(rows: list[SummaryRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("metric,mean,ci95_half,n_seeds\n")
        for r in rows:
            f.write(f"{r.metric},{r.mean!r},{r.ci95_half!r},{r.n_seeds}\n")


def run_experiment(cfg: ExperimentConfig) -> list[MetricsLog]:
    """One simulation per configured seed, each stored by ``MetricsLog.write``,
    and a summary table, all in cfg.output_dir."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    logs = []
    for seed in cfg.seeds:
        log = run_simulation(cfg, seed)
        log.write(outdir)
        logs.append(log)
    rows = summarize_logs(logs, cfg.target_accuracy)
    write_summary(rows, outdir / "summary.csv")
    return logs
