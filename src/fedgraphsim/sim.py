"""Deterministic discrete-event driver: stragglers, client trips, metrics.

Time is abstract and integer-valued; it only sequences events. A normal
client finishes a trip in 1 unit; an edge (straggler) client takes lag x
n_clients units (lag drawn per client from ``lag_range``), while every normal
client finishes one trip per unit. The event loop is single-threaded and
fully determined by the experiment config and seed.
"""

from __future__ import annotations

import heapq
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig, Key
from .gcn import ModelParams, RunMemo, forward_batch, init_params
from .graphs import Graph, generate_sbm, load_graph, read_text
from .partition import (
    CommunityAssignment,
    balanced_partition,
    extract_subgraphs,
    louvain_partition,
    sparsify_edges,
    sparsify_labels,
)
from .protocol import (
    ClientState,
    FedAsyncServer,
    FedAvgSyncServer,
    FedBuffServer,
    FedSaGclServer,
    Server,
    Strategy,
    client_trip,
    format_trace,
    server_receive,
    train_trips,
)


class Event(NamedTuple):
    """Completion of one client trip; (time, client_id) is unique and orders events."""

    completion_time: int
    client_id: int


def assign_latencies(
    n_clients: int, edge_fraction: float, lag_range: tuple, seed: int
) -> np.ndarray:
    """Each client's trip duration (int64); a duration above 1 marks a straggler.

    floor(edge_fraction * n) seeded clients take c * n_clients time units per
    trip, with c drawn uniformly from {lo..hi} (one draw each, in ascending
    client order); the others take 1. edge_fraction and lag_range = (lo, hi)
    meet the [run] rules of config.SCHEMA."""
    lo, hi = int(lag_range[0]), int(lag_range[1])
    rng = np.random.default_rng(seed)
    n_edge = int(np.floor(edge_fraction * n_clients))
    durations = np.ones(n_clients, dtype=np.int64)
    if n_edge:
        chosen = np.sort(rng.choice(n_clients, size=n_edge, replace=False))
        durations[chosen] = rng.integers(lo, hi + 1, size=n_edge) * n_clients
    return durations


CSV_HEADER = "trip,time,client_id,client_acc,mean_acc"
SIDECAR_FIELDS = tuple(Key("sidecar", name, kind) for name, kind in (
    ("seed", int), ("config_hash", str), ("strategy", str), ("initial_mean_acc", float),
    ("durations", list), ("trips", int)))


class AccuracyReplay:
    """A run's initial accuracy vector and one (client id, accuracy) pair per
    trip; ``at(trip)`` applies the pairs from a cursor and returns a copy."""

    def __init__(self, initial: np.ndarray):
        self.initial, self.ids, self.accs = initial.copy(), array("q"), array("d")
        self.trip, self.cursor = 0, initial.copy()

    def at(self, trip: int) -> np.ndarray:
        if trip < self.trip:  # a backward read restarts
            self.trip, self.cursor = 0, self.initial.copy()
        for i in range(self.trip, trip):
            self.cursor[self.ids[i]] = self.accs[i]
        self.trip = trip
        return self.cursor.copy()


@dataclass(slots=True)
class TripRecord:
    """One completed trip. ``all_accs`` replays every client's accuracy after
    it from the run's shared ``AccuracyReplay`` (None without one, as after
    ``MetricsLog.read``): a fresh array per read, O(clients) in trip order and
    O(trip) backward. The replay holds no record, so no cycle keeps a log."""

    trip: int
    time: int
    client_id: int
    client_acc: float
    mean_acc: float
    replay: AccuracyReplay | None = None

    @property
    def all_accs(self) -> np.ndarray | None:
        return None if self.replay is None else self.replay.at(self.trip)


@dataclass
class MetricsLog:
    """Per-trip accuracy time series plus run metadata and protocol traces; a
    run keeps one (client id, accuracy) pair per trip, not a snapshot."""

    records: list[TripRecord]
    seed: int
    config_hash: str
    strategy: str
    initial_accs: tuple
    initial_mean_acc: float
    durations: tuple
    trace: list[str] = field(default_factory=list)
    aggregation_log: list = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.trip},{r.time},{r.client_id},{r.client_acc!r},{r.mean_acc!r}"
            )
        return "\n".join(lines) + "\n"

    @property
    def final_mean_acc(self) -> float:
        return self.records[-1].mean_acc if self.records else self.initial_mean_acc

    def sidecar(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "strategy": self.strategy,
            "initial_mean_acc": self.initial_mean_acc,
            "final_mean_acc": self.final_mean_acc,
            "durations": list(int(d) for d in self.durations),
            "trips": len(self.records),
        }

    def write(self, outdir) -> None:
        """Store the run in the directory outdir, as ``metrics_seed{seed}.csv``
        (``to_csv_text``), its ``.json`` sidecar and ``trace_seed{seed}.log``
        (``trace``, one line each); ``read`` and ``read_runs`` read them."""
        sidecar = json.dumps(self.sidecar(), indent=2, sort_keys=True) + "\n"
        for name, text in ((f"metrics_seed{self.seed}.csv", self.to_csv_text()),
                           (f"metrics_seed{self.seed}.json", sidecar),
                           (f"trace_seed{self.seed}.log", "".join(f"{t}\n" for t in self.trace))):
            with open(Path(outdir) / name, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)

    @classmethod
    def read(cls, csv_path) -> "MetricsLog":
        """A log as ``write`` stored it: the CSV and the ``.json`` sidecar beside
        it (the initial per-client accuracies, trace and aggregation_log come back
        empty, and its records replay nothing).
        A sidecar that is not a JSON object with the SIDECAR_FIELDS, each of its
        type, or a CSV other than CSV_HEADER and the sidecar's ``trips`` rows of
        five numbers, raises ConfigError naming the file (and the line or field)."""
        sidecar_path = Path(csv_path).with_suffix(".json")
        try:
            with open(sidecar_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
        except ValueError as exc:
            raise ConfigError(f"{sidecar_path}: not a JSON object: {exc}") from None
        if not isinstance(meta, dict):
            raise ConfigError(f"{sidecar_path}: not a JSON object")
        names = [row.name for row in SIDECAR_FIELDS]
        if missing := [name for name in names if name not in meta]:
            raise ConfigError(f"{sidecar_path}: no {', '.join(missing)} in the sidecar")
        for row in SIDECAR_FIELDS:
            if not row.ok(meta[row.name]):
                raise ConfigError(f"{sidecar_path}: {row.refuse(meta[row.name])}")
        records = []
        lines = read_text(csv_path, ConfigError).splitlines()
        if lines[:1] != [CSV_HEADER]:
            raise ConfigError(f"{csv_path}: line 1: not the header {CSV_HEADER}")
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                trip, time, cid, acc, mean = line.split(",")
                records.append(TripRecord(int(trip), int(time), int(cid), float(acc), float(mean)))
            except ValueError:
                raise ConfigError(f"{csv_path}: line {lineno}: not {CSV_HEADER}") from None
        seed, config_hash, strategy, initial, durations, trips = (meta[name] for name in names)
        if len(records) != trips:
            raise ConfigError(f"{csv_path}: {len(records)} trips, the sidecar says {trips}")
        return cls(records, seed, config_hash, strategy, (), initial, tuple(durations))


def read_runs(outdir) -> dict:
    """The runs ``MetricsLog.write`` stored in the directory outdir, as
    {CSV path: log} in path order. No ``metrics_seed*.csv`` file, a malformed
    run (see ``MetricsLog.read``) or runs of different configs (sidecar
    ``config_hash``) raise ConfigError."""
    outdir = Path(outdir)
    runs = {path: MetricsLog.read(path) for path in sorted(outdir.glob("metrics_seed*.csv"))}
    if not runs:
        raise ConfigError(f"no metrics_seed*.csv files in {outdir}")
    configs: dict[str, str] = {}  # config hash -> its first sidecar
    for path, lg in runs.items():
        configs.setdefault(lg.config_hash, path.with_suffix(".json").name)
    if len(configs) > 1:
        named = ", ".join(f"{h} ({name})" for h, name in configs.items())
        raise ConfigError(f"the runs in {outdir} come from different configs: {named}")
    return runs


def _derived_seeds(seed: int) -> dict:
    words = np.random.SeedSequence(seed).generate_state(5)
    names = ("partition", "masks", "perturb", "latency", "params")
    return {name: int(w) for name, w in zip(names, words)}


def partition_graph(graph: Graph, method: str, n_clients: int, seed: int) -> CommunityAssignment:
    """Split graph into n_clients by the [run] partitioner method; more clients
    than nodes raises ConfigError naming both counts. Each partitioner is
    called by its module-level name with positional (graph, n_clients, seed):
    a tracer that rebinds module attributes and reads those arguments needs
    both, and a function reached through a table would escape it."""
    if n_clients > graph.node_count:
        raise ConfigError(f"{n_clients} clients is more than the graph's {graph.node_count} nodes")
    if method == "louvain":
        return louvain_partition(graph, n_clients, seed)
    return balanced_partition(graph, n_clients, seed)


def build_graph(cfg: ExperimentConfig) -> Graph:
    """The config's graph, by the module-level names a tracer rebinds."""
    d = cfg.dataset
    return generate_sbm(d.sbm) if d.kind == "sbm" else load_graph(d.path)


def prepare_clients(cfg: ExperimentConfig, seed: int, graph: Graph | None = None):
    """The per-client datasets, each client's trip duration and the initial
    model. ``graph`` (``build_graph(cfg)`` if None) is split by
    ``partition_graph``, so a tracer of ``partition.louvain_partition`` sees
    this call's partition."""
    sub = _derived_seeds(seed)
    graph = build_graph(cfg) if graph is None else graph
    assignment = partition_graph(graph, cfg.partitioner, cfg.n_clients, sub["partition"])
    clients = extract_subgraphs(graph, assignment, cfg.mask_ratios, sub["masks"])
    pert = cfg.perturbation
    sparsify = {"label_sparsity": sparsify_labels, "edge_sparsity": sparsify_edges}
    if pert is not None and pert.kind in sparsify:
        perturb = sparsify[pert.kind]
        clients = [perturb(cd, pert.rate, sub["perturb"] + cd.client_id) for cd in clients]
    durations = assign_latencies(cfg.n_clients, cfg.edge_fraction, cfg.lag_range, sub["latency"])
    initial = init_params(graph.feature_dim, cfg.hidden_dim, graph.num_classes, sub["params"])
    return clients, durations, initial


def make_server(
    cfg: ExperimentConfig, clients_data, active, initial: ModelParams
) -> Server:
    """The server for cfg.strategy, given only the settings it uses; active
    flags the clients with training nodes, initial is the starting model."""
    hyper = cfg.resolved_hyper()
    if cfg.strategy == Strategy.FEDSA_GCL:
        return FedSaGclServer(
            cfg.resolved_k(),
            hyper,
            len(clients_data),
            use_clustering=not cfg.disable_sfm_clustering,
            use_broadcast=not cfg.disable_clustercast,
        )
    if cfg.strategy == Strategy.FEDAVG_SYNC:
        return FedAvgSyncServer(
            {
                cd.client_id: int(cd.masks.train.size)
                for cd, act in zip(clients_data, active)
                if act
            }
        )
    if cfg.strategy == Strategy.FEDBUFF:
        return FedBuffServer(cfg.resolved_k())
    return FedAsyncServer(initial, hyper.alpha)


@np.errstate(over="raise", invalid="raise", divide="raise")
def run_simulation(cfg: ExperimentConfig, seed: int | None = None,
                   graph: Graph | None = None) -> MetricsLog:
    """Run one seeded simulation to cfg.max_trips completed client trips.

    A config that yields no client with training nodes, or a client without
    test nodes (the first is named), raises ConfigError before any operator is
    built. Then the run's ``gcn.RunMemo`` joins the clients' plans once
    (``Join.build``); every kernel call of the run, lone or not, gathers its
    operators' rows from that join, and the initial model is scored on all
    clients in one ``gcn.forward_batch``. The run writes nothing into its
    ``ClientData``, so prepared clients can serve several runs.
    Event loop: pop the events of the earliest time in client order, at most as
    many as trips are left and as the server takes uploads before one can
    deliver to a client other than its sender; they read their messages from
    the server's mailboxes and train as one batch (``train_trips``, scored
    under the server's ``hyper``, which alone reads the scoring operators), in
    kernel calls of clients of one node, train and test count, in client order.
    A call reuses the layout of any earlier call of the run (the initial
    scoring's included) of the same clients in the same order. Then, trip by
    trip, finish the trip (``client_trip``: the upload, and the client's test
    accuracy as its kernel call scored it) and log that accuracy, hand the
    upload to the server, trace each delivery by its kind, and schedule the
    client's next trip. So only a batch's last upload can reach its other
    clients, and the run is the one-event-at-a-time loop bit for bit; a
    delivery to a batch client that has not uploaded yet raises RuntimeError.
    When the server waits for its round (fedavg_sync), the round's deliveries
    schedule the next trips of their recipients, all waiting; otherwise the
    client is re-scheduled at once. Only clients with training nodes are ever
    scheduled.
    A run that diverges raises ConfigError too: numpy's overflow, invalid and
    divide-by-zero raise, and become a ConfigError naming the trips reached,
    ``[run] lr``, ``[dataset] feature_noise`` and graph files.
    Set-up splits ``graph``, a new ``build_graph(cfg)`` if None.
    """
    if seed is None:
        seed = cfg.seeds[0]
    trips = 0
    try:
        clients_data, durations, initial = prepare_clients(cfg, seed, graph)
        active = [cd.masks.train.size > 0 for cd in clients_data]
        if not any(active):
            raise ConfigError("no client has any training nodes (see mask_train, "
                              "n_clients and the label_sparsity rate)")
        empty = [cd for cd in clients_data if cd.masks.test.size == 0]
        if empty:
            raise ConfigError(f"every client needs a nonempty test mask (see mask_test): client "
                              f"{empty[0].client_id} of {empty[0].graph.node_count} nodes, "
                              f"split by the {cfg.partitioner} partitioner, has none")
        memo = RunMemo(clients_data)  # the run's join, every kernel call's layout, the workspace
        server = make_server(cfg, clients_data, active, initial)
        clients = [ClientState(cd.client_id, cd, initial.copy()) for cd in clients_data]
        scored = forward_batch([(c.params, c.data) for c in clients], memo)
        cached = np.array([acc for _, acc in scored])
        log = MetricsLog(records=[], seed=seed, config_hash=cfg.config_hash(),
                         strategy=cfg.strategy.value, initial_accs=tuple(cached.tolist()),
                         initial_mean_acc=float(cached.mean()),
                         durations=tuple(int(d) for d in durations))
        replay = AccuracyReplay(cached)
        # a sorted list is already a heap
        heap = sorted(Event(int(durations[cid]), cid) for cid, act in enumerate(active) if act)
        while trips < cfg.max_trips and heap:
            now = heap[0].completion_time
            room = min(server.uploads_to_reach_others(), cfg.max_trips - trips)
            batch = []
            while heap and heap[0].completion_time == now and len(batch) < room:
                batch.append(clients[heapq.heappop(heap).client_id])
            trained = train_trips(batch, server.mailboxes, cfg.lr, memo, server.hyper,
                                  server.reads_sfm)
            pending = {client.client_id for client in batch}
            for client in batch:
                cid = client.client_id
                pending.remove(cid)
                upload, cached[cid] = client_trip(client, trained)
                trips += 1
                acc, mean = float(cached[cid]), float(cached.sum() / cached.size)
                replay.ids.append(cid)
                replay.accs.append(acc)
                log.records.append(TripRecord(trips, now, cid, acc, mean, replay))
                deliveries = server_receive(server, upload)
                for d_cid, d_msg in deliveries:
                    if d_cid in pending:
                        raise RuntimeError(f"a delivery reached client {d_cid} within its batch")
                    log.trace.append(format_trace(d_msg.round, d_msg.kind, d_cid))
                # the round's delivery releases its recipients, all of them waiting
                ready = [d_cid for d_cid, _ in deliveries] if server.waits_for_round else [cid]
                for r_cid in ready:
                    heapq.heappush(heap, Event(now + int(durations[r_cid]), r_cid))
    except FloatingPointError as exc:
        raise ConfigError(
            f"the run diverged after {trips} of {cfg.max_trips} trips ({exc}); "
            "see [run] lr and [dataset] feature_noise, or a graph file's features") from None
    log.aggregation_log = list(server.aggregation_log)
    return log
