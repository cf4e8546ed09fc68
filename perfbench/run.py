"""Benchmark of the fedgraphsim simulator.

Runs one named workload (see workloads.py) through the public API,
``config_from_sections`` and ``sim.run_simulation(cfg, seed)``, in this one
process on one BLAS thread. It checks every run's outputs and prints every
metric by name with its unit. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload server_bound --seed 1 --seconds 20 --trace 0

``--trace 0`` times set-up alone for some simulation seeds made from
``--seed``, then repeats untraced runs of the others for ``--seconds`` and
reports the end-to-end metrics (see ``measure_end_to_end``).
``--trace 1`` alternates untraced and traced runs of the first simulation
seed for ``--seconds`` and reports the per-layer metrics as medians over the
traced runs. ``--workload all`` runs every workload in a child process of
its own and prints one table.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: the benchmark measures
# the single-threaded simulator, and BLAS threads only add noise on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "fedgraphsim" / "__init__.py").is_file():
    sys.exit("perfbench: no fedgraphsim sources under src/; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fedgraphsim  # noqa: E402
from fedgraphsim import partition, sim  # noqa: E402

if not Path(fedgraphsim.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported fedgraphsim from {fedgraphsim.__file__}, not from src/")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_SEEDS = 8  # simulation seeds per invocation whose set-up is timed
RUN_SEEDS = 4  # of those, the ones run in full
MIN_TRACED_PAIRS = 2  # per-layer metrics have no bound, so two traced runs do
MEAN_ACC_TOLERANCE = 1e-12
# Median time of probe() on the host the benchmark was defined on (2-core
# Xeon KVM guest, Python 3.11) when that host is not slowed by others.
PROBE_REFERENCE_S = 13.5e-6
PROBES_BEFORE_RUN = 200

END_TO_END = {
    "setup_s": "s",
    "trips_per_s": "trips/s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "final_mean_acc": "fraction",
    "mean_acc_auc": "fraction",
}

# Functions traced in the simulation, and the statistics reported for each:
# "s" self time, "total_s" inclusive time, "calls" span count.
TRACED = {
    "graphs.generate_sbm": ("s",),
    "partition.louvain_partition": ("s",),
    "partition.extract_subgraphs": ("s",),
    "sim.prepare_clients": ("s", "total_s"),
    "sim.run_simulation": ("s", "total_s"),
    "protocol.client_trip": ("s", "total_s"),
    "gcn.train_epoch": ("s", "calls"),
    "gcn.forward": ("s", "calls"),
    "gcn.evaluate": ("s", "calls", "total_s"),
    "kernels.compute_sfm": ("s",),
    "kernels.label_propagation": ("s",),
    "kernels.compute_lsc": ("s",),
    "kernels.blend_local": ("s", "calls"),
    "protocol.server_receive": ("s", "calls", "total_s"),
    "kernels.cluster_set": ("s", "calls"),
    "kernels.cosine_similarity": ("s", "calls"),
    "kernels.staleness_weights": ("s",),
    "kernels.aggregate_models": ("s", "calls"),
}
_STAT_UNIT = {"s": "s", "total_s": "s", "calls": "count"}

PER_LAYER = {
    **{f"{fn}.{stat}": _STAT_UNIT[stat] for fn, stats in TRACED.items() for stat in stats},
    "gcn.forward.per_trip": "1/trip",
    "kernels.aggregate_models.models": "count",
    "protocol.client_trip.share": "fraction",
    "gcn.evaluate.share": "fraction",
    "protocol.server_receive.share": "fraction",
    "protocol.rounds": "count",
    "protocol.deliveries.personal": "count",
    "protocol.deliveries.broadcast": "count",
    "protocol.deliveries.baseline": "count",
    "protocol.cluster_size.mean": "count",
    "protocol.cluster_size.max": "count",
    "protocol.bytes_up": "bytes",
    "protocol.bytes_down": "bytes",
    "partition.balanced_partition.s": "s",
    "partition.balanced_partition.failed": "count",
    "partition.balanced_partition.modularity": "Q",
    "partition.louvain.modularity": "Q",
    "partition.louvain_clients.modularity": "Q",
    "partition.networkx_louvain.modularity": "Q",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def check_log(log, cfg) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    if len(log.records) != cfg.max_trips:
        problems.append(f"{len(log.records)} trips, expected {cfg.max_trips}")
    for r in log.records:
        if abs(r.mean_acc - float(np.mean(r.all_accs))) > MEAN_ACC_TOLERANCE:
            problems.append(f"trip {r.trip}: mean_acc is not the mean of all_accs")
            break
    return problems


def payload_bytes(params) -> int:
    """Bytes of the arrays held by a parameter set, each buffer counted once."""
    arrays = [v for v in vars(params).values() if isinstance(v, np.ndarray)]
    owners = {id(a) for a in arrays}
    return sum(a.nbytes for a in arrays if a.base is None or id(a.base) not in owners)


class Runs:
    """The runs of one benchmark invocation: attempted, failed, and why."""

    def __init__(self, workload: Workload, seed: int):
        self.cfg = workload.config()
        # Simulation seeds made from the workload seed. The work depends on
        # the seed, so the end-to-end metrics summarize over these seeds.
        self.seeds = [seed * SETUP_SEEDS + i for i in range(SETUP_SEEDS)]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}

    def simulate(self, tracer: Tracer, seed: int):
        """One run under ``tracer``; returns (log, start, end) or None if it failed."""
        self.attempted += 1
        try:
            with tracer:
                start = time.perf_counter()
                log = sim.run_simulation(self.cfg, seed)
                end = time.perf_counter()
        except Exception as exc:  # a failed run is counted, not fatal
            return self._fail(f"seed {seed}: run raised {type(exc).__name__}: {exc}")
        problems = check_log(log, self.cfg)
        digest = hashlib.sha256(log.to_csv_text().encode()).hexdigest()
        first = self.digests.setdefault(seed, digest)
        if digest != first:
            problems.append(f"digest {digest} differs from {first}")
        if problems:
            return self._fail(f"seed {seed}: " + "; ".join(problems))
        return log, start, end

    def set_up(self, seed: int):
        """``sim.prepare_clients`` alone; returns (start, end) or None if it raised."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            sim.prepare_clients(self.cfg, seed)
            return start, time.perf_counter()
        except Exception as exc:  # a failed set-up is counted, not fatal
            return self._fail(f"seed {seed}: set-up raised {type(exc).__name__}: {exc}")

    def _fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)
        return None


def repeat_for(seconds: float, at_least: int, once) -> None:
    """Call ``once`` at least ``at_least`` times, then while the next call fits in ``seconds``."""
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        once()
        took.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(took) >= at_least and elapsed + statistics.median(took) > seconds:
            return


def probe() -> float:
    """Host time of a fixed pure-Python loop.

    On a shared VM the speed at which this process runs changes by up to
    1.5x in phases of seconds to minutes, while the work done stays the same.
    Probes interleaved with the run measure that speed where the run is.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300):
        total += i * i
    return time.perf_counter() - start


def measure_end_to_end(runs: Runs, seconds: float) -> dict:
    """End-to-end metrics of untraced runs; empty if any seed never succeeded.

    First the set-up of seeds RUN_SEEDS.. is timed alone. Then full runs cycle
    through the first RUN_SEEDS seeds for the rest of ``seconds``; the first
    seed always runs twice, so its digest is compared. Per seed, a metric is
    the median over that seed's runs. Over the seeds, ``setup_s`` is the mean
    over all SETUP_SEEDS seeds: set-up cost is bimodal in the seed (Louvain
    takes about 1.3 s or 2.5-3.7 s on client_bound), and a median would jump
    between the modes. The other metrics are medians over the seeds run in
    full, which ignore the odd seed with unusually large clusters; ``wall_s``
    is ``setup_s`` plus the post-setup time.

    Host times are scaled to the reference speed: they are multiplied by
    PROBE_REFERENCE_S over the median of the probes taken around a set-up, or
    before a run and after each of its trips (probe time itself is not
    counted). This removes most of the drift of a shared host; the raw times
    of the same seed spread by about 25% from one invocation to the next.
    The only hooks are a span on ``sim.prepare_clients`` and one on
    ``sim.client_trip``.
    """
    began = time.perf_counter()
    setups = {seed: [] for seed in runs.seeds}
    per_seed = {seed: [] for seed in runs.seeds[:RUN_SEEDS]}
    for seed in runs.seeds[RUN_SEEDS:]:
        probes = [probe() for _ in range(PROBES_BEFORE_RUN)]
        done = runs.set_up(seed)
        probes += [probe() for _ in range(PROBES_BEFORE_RUN)]
        if done is not None:
            setups[seed].append((done[1] - done[0]) * PROBE_REFERENCE_S / statistics.median(probes))
    calls = 0

    def once():
        nonlocal calls
        seed = runs.seeds[calls % RUN_SEEDS]
        calls += 1
        probes = [probe() for _ in range(PROBES_BEFORE_RUN)]
        tracer = Tracer(
            ["sim.prepare_clients", "sim.client_trip"],
            {"sim.client_trip": lambda args, kwargs, result: probes.append(probe())},
        )
        done = runs.simulate(tracer, seed)
        if done is None:
            return
        log, start, end = done
        scale = PROBE_REFERENCE_S / statistics.median(probes)
        setup_end = tracer.span_end[tracer.span_target.index(0)]
        accs = [r.mean_acc for r in log.records]
        post_setup = (end - setup_end - sum(probes[PROBES_BEFORE_RUN:])) * scale
        setups[seed].append((setup_end - start) * scale)
        per_seed[seed].append({
            "post_setup_s": post_setup,
            "trips_per_s": len(accs) / post_setup,
            "final_mean_acc": accs[-1],
            "mean_acc_auc": float(np.mean(accs)),
        })

    repeat_for(seconds - (time.perf_counter() - began), RUN_SEEDS + 1, once)
    if not all(setups.values()) or not all(per_seed.values()):
        return {}
    typical = [
        {k: statistics.median(run[k] for run in seed_runs) for k in seed_runs[0]}
        for seed_runs in per_seed.values()
    ]
    values = {k: statistics.median(t[k] for t in typical) for k in typical[0]}
    values["setup_s"] = statistics.fmean(statistics.median(s) for s in setups.values())
    values["wall_s"] = values["setup_s"] + values.pop("post_setup_s")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


class ProtocolCounts:
    """Simulated traffic seen at ``server_receive``: uploads in, deliveries out."""

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.rounds: set[int] = set()
        self.deliveries = {"personal": 0, "broadcast": 0, "baseline": 0}
        self.bytes_up = 0
        self.bytes_down = 0

    def observe(self, args, kwargs, deliveries) -> None:
        upload = args[1]
        self.bytes_up += payload_bytes(upload.params) + upload.sfm.nbytes
        for _, msg in deliveries:
            if self.strategy != "fedsa_gcl":
                kind = "baseline"
            else:
                kind = "personal" if msg.cluster_lsc is None else "broadcast"
            self.deliveries[kind] += 1
            self.rounds.add(msg.round)
            self.bytes_down += payload_bytes(msg.params)


def measure_layers(runs: Runs, seconds: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from alternating untraced and traced runs, and notes.

    Values are medians over the traced runs; empty if no pair succeeded.
    """
    seen = {}
    samples = []

    def keep(name):
        def observer(args, kwargs, result):
            seen[name] = (args, result)
        return observer

    def once():
        counts = ProtocolCounts(runs.cfg.strategy.value)
        models = []
        tracer = Tracer(TRACED, {
            "protocol.server_receive": counts.observe,
            "kernels.aggregate_models": lambda args, kwargs, result: models.append(len(args[0])),
            "graphs.generate_sbm": keep("graph"),
            "partition.louvain_partition": keep("louvain"),
        })
        # Alternate which run of the pair goes first, so the slower first run
        # of the process does not bias trace.overhead_s.
        seed = runs.seeds[0]
        if len(samples) % 2:
            traced, untraced = runs.simulate(tracer, seed), runs.simulate(Tracer([]), seed)
        else:
            untraced, traced = runs.simulate(Tracer([]), seed), runs.simulate(tracer, seed)
        if untraced is None or traced is None:
            return
        log, start, end = traced
        stats = tracer.summary()
        sample = {}
        for fn, wanted in TRACED.items():
            for stat in wanted:
                sample[f"{fn}.{stat}"] = stats.get(fn, {}).get(stat, 0)
        post_setup = (
            sample["sim.run_simulation.total_s"] - sample["sim.prepare_clients.total_s"]
        )
        for fn in ("protocol.client_trip", "gcn.evaluate", "protocol.server_receive"):
            sample[f"{fn}.share"] = sample[f"{fn}.total_s"] / post_setup
        sizes = [len(entry[2]) for entry in getattr(log, "aggregation_log", [])]
        sample.update({
            "gcn.forward.per_trip": sample["gcn.forward.calls"] / len(log.records),
            "kernels.aggregate_models.models": sum(models),
            "protocol.rounds": len(counts.rounds),
            **{f"protocol.deliveries.{k}": v for k, v in counts.deliveries.items()},
            "protocol.cluster_size.mean": float(np.mean(sizes)) if sizes else 0.0,
            "protocol.cluster_size.max": max(sizes, default=0),
            "protocol.bytes_up": counts.bytes_up,
            "protocol.bytes_down": counts.bytes_down,
            "trace.overhead_s": (end - start) - (untraced[2] - untraced[1]),
            "trace.spans": len(tracer.span_start),
        })
        samples.append(sample)
        seen["absent"] = tracer.absent

    repeat_for(seconds, MIN_TRACED_PAIRS, once)
    if not samples:
        return {}, []
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    quality, notes = partition_quality(seen, runs.seeds[0])
    values.update(quality)
    notes += [f"absent (reported as 0): {name}" for name in seen["absent"]]
    notes.append("protocol.bytes_*: computed from float64 array sizes "
                 "(params up and down, SFM up), no headers")
    return values, notes


def partition_quality(seen: dict, seed: int) -> tuple[dict, list[str]]:
    """Balanced partition time and failure, and modularity of each partition.

    Uses the graph, client count and partition seed of the last traced run.
    """
    import networkx as nx

    graph = seen["graph"][1]
    _, n_clients, part_seed = seen["louvain"][0][:3]
    notes = []
    out = {
        "partition.louvain_clients.modularity":
            partition.modularity(graph, seen["louvain"][1].client_of),
    }
    tracer = Tracer(["partition.balanced_partition"])
    balanced = None
    with tracer:
        if not tracer.absent:
            try:
                balanced = partition.balanced_partition(graph, n_clients, part_seed)
            except Exception as exc:  # the failure is the measurement
                notes.append(
                    f"partition.balanced_partition failed: {type(exc).__name__}: {exc}"
                )
    stats = tracer.summary().get("partition.balanced_partition", {"total_s": 0.0})
    out["partition.balanced_partition.s"] = stats["total_s"]
    out["partition.balanced_partition.failed"] = int(balanced is None)
    out["partition.balanced_partition.modularity"] = (
        partition.modularity(graph, balanced.client_of) if balanced is not None else 0.0
    )
    # Modularity of Louvain's own communities, before they are merged or split
    # into n_clients groups: this is what networkx's Louvain is comparable to.
    passes: list[float] = []
    partition.louvain_partition(graph, n_clients, part_seed, modularity_trace=passes)
    out["partition.louvain.modularity"] = passes[-1] if passes else 0.0
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.node_count))
    nx_graph.add_edges_from(graph.edges.tolist())
    comm_of = np.zeros(graph.node_count, dtype=np.int64)
    for c, members in enumerate(nx.community.louvain_communities(nx_graph, seed=seed)):
        comm_of[list(members)] = c
    out["partition.networkx_louvain.modularity"] = partition.modularity(graph, comm_of)
    return out, notes


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable notes."""
    runs = Runs(workload, seed)
    if trace:
        units = PER_LAYER
        values, notes = measure_layers(runs, seconds)
    else:
        units = END_TO_END
        values, notes = measure_end_to_end(runs, seconds), []
    notes.insert(0, f"runs attempted={runs.attempted} succeeded={runs.attempted - runs.failed} "
                    f"failed={runs.failed}")
    notes[1:1] = [
        f"simulation seed {sim_seed}: sha256(MetricsLog.to_csv_text())={digest}"
        for sim_seed, digest in runs.digests.items()
    ]
    notes += [f"failure: {p}" for p in runs.problems]
    result = {
        "correct": runs.failed == 0 and bool(values),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }
    return result, notes


def run_all(args) -> int:
    """Each workload in its own child process, so each has its own peak RSS."""
    results = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            ok = False
            continue
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    names = list(PER_LAYER if args.trace else END_TO_END)
    print(f"\n{'metric':40}" + "".join(f"{w:>16}" for w in results))
    for row in ("attempted", "failed"):
        print(f"{'runs ' + row:40}" + "".join(f"{r[row]:>16}" for r in results.values()))
    for name in names:
        cells = "".join(
            f"{r['metrics'][name]['value']:>16.6g}" if name in r["metrics"] else f"{'-':>16}"
            for r in results.values()
        )
        unit = (PER_LAYER if args.trace else END_TO_END)[name]
        print(f"{name + ' [' + unit + ']':40}{cells}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    print(environment())
    print(f"workload {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    print(f"config {json.dumps(workload.sections, sort_keys=True)}")
    print(f"layer metrics this workload is meant to move: {', '.join(workload.moves)}")
    result, notes = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    for note in notes:
        print(note)
    for name, metric in result["metrics"].items():
        print(f"{name:42} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
