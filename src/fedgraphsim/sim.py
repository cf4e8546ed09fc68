"""Deterministic discrete-event driver: stragglers, client trips, metrics.

Time is abstract and integer-valued; it only sequences events. A normal
client finishes a trip in 1 unit; an edge (straggler) client takes a whole
multiple of one global cycle (n_clients trips). The event loop is
single-threaded and fully determined by the experiment config and seed.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ConfigError, ExperimentConfig
from .gcn import ModelParams, accuracy, evaluate, init_params
from .graphs import generate_sbm, load_graph
from .partition import (
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
)


class Event(NamedTuple):
    """Completion of one client trip; (time, client_id) is unique and orders events."""

    completion_time: int
    client_id: int


@dataclass
class LatencyProfile:
    durations: np.ndarray
    is_edge: np.ndarray


def assign_latencies(
    n_clients: int, edge_fraction: float, lag_range: tuple, seed: int
) -> LatencyProfile:
    """Flag floor(edge_fraction * n) seeded clients as stragglers.

    Edge clients take c * n_clients time units per trip with c drawn
    uniformly from {lo..hi} (one draw per edge client, in ascending client
    order); normal clients take 1. edge_fraction and lag_range = (lo, hi)
    meet the [run] rules of config.SCHEMA.
    """
    lo, hi = int(lag_range[0]), int(lag_range[1])
    rng = np.random.default_rng(seed)
    n_edge = int(np.floor(edge_fraction * n_clients))
    is_edge = np.zeros(n_clients, dtype=bool)
    if n_edge:
        chosen = np.sort(rng.choice(n_clients, size=n_edge, replace=False))
        is_edge[chosen] = True
    durations = np.ones(n_clients, dtype=np.int64)
    if n_edge:
        lags = rng.integers(lo, hi + 1, size=n_edge)
        durations[np.flatnonzero(is_edge)] = lags * n_clients
    return LatencyProfile(durations, is_edge)


@dataclass
class TripRecord:
    trip: int
    time: int
    client_id: int
    client_acc: float
    mean_acc: float
    all_accs: np.ndarray | None  # every client's accuracy after this trip


@dataclass
class MetricsLog:
    """Per-trip accuracy time series plus run metadata and protocol traces."""

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
        lines = ["trip,time,client_id,client_acc,mean_acc"]
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

    def write(self, csv_path, sidecar_path=None) -> None:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.to_csv_text())
        if sidecar_path is not None:
            with open(sidecar_path, "w", encoding="utf-8") as f:
                json.dump(self.sidecar(), f, indent=2, sort_keys=True)
                f.write("\n")

    @classmethod
    def read(cls, csv_path, sidecar_path) -> "MetricsLog":
        """A log as ``write`` stored it; the accuracy snapshots and the
        initial per-client accuracies are not stored and come back empty."""
        with open(sidecar_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
        with open(csv_path, "r", encoding="utf-8") as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        records = [
            TripRecord(int(trip), int(time), int(cid), float(acc), float(mean), None)
            for trip, time, cid, acc, mean in rows
        ]
        return cls(
            records,
            meta["seed"],
            meta["config_hash"],
            meta["strategy"],
            (),
            meta["initial_mean_acc"],
            tuple(meta["durations"]),
        )


def _derived_seeds(seed: int) -> dict:
    words = np.random.SeedSequence(seed).generate_state(5)
    names = ("partition", "masks", "perturb", "latency", "params")
    return {name: int(w) for name, w in zip(names, words)}


def prepare_clients(cfg: ExperimentConfig, seed: int):
    """Build the per-client datasets, straggler profile, and initial model."""
    sub = _derived_seeds(seed)
    if cfg.dataset.kind == "sbm":
        graph = generate_sbm(cfg.dataset.sbm)
    else:
        graph = load_graph(cfg.dataset.path)
    if cfg.n_clients > graph.node_count:
        raise ConfigError(
            f"n_clients = {cfg.n_clients} is more than the graph's {graph.node_count} nodes"
        )
    if cfg.partitioner == "louvain":
        assignment = louvain_partition(graph, cfg.n_clients, sub["partition"])
    else:
        assignment = balanced_partition(graph, cfg.n_clients, sub["partition"])
    clients = extract_subgraphs(graph, assignment, cfg.mask_ratios, sub["masks"])
    pert = cfg.perturbation
    sparsify = {"label_sparsity": sparsify_labels, "edge_sparsity": sparsify_edges}
    if pert is not None and pert.kind in sparsify:
        perturb = sparsify[pert.kind]
        clients = [perturb(cd, pert.rate, sub["perturb"] + cd.client_id) for cd in clients]
    latency = assign_latencies(
        cfg.n_clients, cfg.edge_fraction, cfg.lag_range, sub["latency"]
    )
    initial = init_params(
        graph.feature_dim, cfg.hidden_dim, graph.num_classes, sub["params"]
    )
    return clients, latency, initial


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


def run_simulation(cfg: ExperimentConfig, seed: int | None = None) -> MetricsLog:
    """Run one seeded simulation to cfg.max_trips completed client trips.

    Event loop: pop the earliest (time, client_id) event, move any
    pending download into the client's mailbox, execute the trip, take that
    client's local test accuracy from the trip's soft labels and snapshot
    the cached accuracy vector, hand the upload to the server, and schedule
    the client's next trip. When the server waits for its round
    (fedavg_sync), a client's next trip is scheduled only once that round's
    delivery reaches it; otherwise the client is re-scheduled at once. Only
    clients with training nodes are ever scheduled. A config that yields no
    such client, or a client without test nodes, raises ConfigError.
    """
    if seed is None:
        seed = cfg.seeds[0]
    clients_data, latency, initial = prepare_clients(cfg, seed)
    active = [cd.masks.train.size > 0 for cd in clients_data]
    if not any(active):
        raise ConfigError(
            "no client has any training nodes (see mask_train, n_clients and "
            "the label_sparsity rate)"
        )
    if any(cd.masks.test.size == 0 for cd in clients_data):
        raise ConfigError("every client needs a nonempty test mask (see mask_test)")

    server = make_server(cfg, clients_data, active, initial)
    clients = [ClientState(cd.client_id, cd, initial.copy()) for cd in clients_data]
    cached = np.array(
        [evaluate(c.params, c.data, "test") for c in clients], dtype=np.float64
    )
    initial_accs = tuple(cached.tolist())
    initial_mean = float(cached.mean())

    log = MetricsLog(
        records=[],
        seed=seed,
        config_hash=cfg.config_hash(),
        strategy=cfg.strategy.value,
        initial_accs=initial_accs,
        initial_mean_acc=initial_mean,
        durations=tuple(int(d) for d in latency.durations),
    )
    # a sorted list is already a heap
    heap = sorted(Event(int(latency.durations[cid]), cid) for cid, act in enumerate(active) if act)
    gated: set[int] = set()
    trips = 0
    hyper = cfg.resolved_hyper()
    while trips < cfg.max_trips and heap:
        ev = heapq.heappop(heap)
        now, cid = ev.completion_time, ev.client_id
        client = clients[cid]
        client.mailbox = server.mailboxes.pop(cid, None)
        upload = client_trip(client, hyper, cfg.lr)
        trips += 1
        cached[cid] = accuracy(client.soft, client.data, client.data.masks.test)
        mean = float(cached.mean())
        log.records.append(
            TripRecord(trips, now, cid, float(cached[cid]), mean, cached.copy())
        )
        deliveries = server_receive(server, upload)
        for d_cid, d_msg in deliveries:
            if cfg.strategy == Strategy.FEDSA_GCL:
                kind = "personal" if d_msg.cluster_lsc is None else "broadcast"
            else:
                kind = "baseline"
            log.trace.append(format_trace(d_msg.round, kind, d_cid, d_msg.round))
        if server.waits_for_round:  # the round's delivery releases its clients
            gated.add(cid)
            ready = [d_cid for d_cid, _ in deliveries if d_cid in gated]
            gated.difference_update(ready)
        else:
            ready = [cid]
        for r_cid in ready:
            heapq.heappush(heap, Event(now + int(latency.durations[r_cid]), r_cid))
    log.aggregation_log = list(server.aggregation_log)
    return log
