"""Multi-seed experiment orchestration and derived metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .sim import MetricsLog, build_graph, run_simulation

# The 0.975 quantile of Student's t with 1-30 degrees of freedom, scipy's float
# ``scipy.special.stdtrit(df, 0.975)`` for each, so that a run of up to 31 seeds
# does not load ``scipy.special`` (about 18 MiB RSS and 274 modules).
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


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
    if n <= len(T975) + 1:
        t = T975[n - 2]
    else:
        from scipy.special import stdtrit  # on use; scipy.stats would take ~65 MiB
        t = float(stdtrit(n - 1, 0.975))
    half = float(t * sd / math.sqrt(n))
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
    """One simulation per configured seed, all on one graph, each stored by
    ``MetricsLog.write``, and a summary table, all in cfg.output_dir."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    logs, graph = [], build_graph(cfg)
    for seed in cfg.seeds:
        log = run_simulation(cfg, seed, graph)
        log.write(outdir)
        logs.append(log)
    rows = summarize_logs(logs, cfg.target_accuracy)
    write_summary(rows, outdir / "summary.csv")
    return logs
