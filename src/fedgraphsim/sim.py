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
from .gcn import accuracy, evaluate, init_params
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
    ServerState,
    Strategy,
    client_trip,
    format_trace,
    server_receive,
)


class Event(NamedTuple):
    """Completion of one client trip; ordered by (time, client_id, seq)."""

    completion_time: int
    client_id: int
    seq: int


def next_event_order(events) -> list[Event]:
    """Total order used by the scheduler."""
    return sorted(events)


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
    order); normal clients take 1.
    """
    lo, hi = int(lag_range[0]), int(lag_range[1])
    if not 0.0 <= edge_fraction <= 1.0:
        raise ValueError("edge_fraction must lie in [0, 1]")
    if not 1 <= lo <= hi:
        raise ValueError("lag range must satisfy 1 <= lo <= hi")
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
    all_accs: tuple


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

    def sidecar(self) -> dict:
        final_mean = self.records[-1].mean_acc if self.records else self.initial_mean_acc
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "strategy": self.strategy,
            "initial_mean_acc": self.initial_mean_acc,
            "final_mean_acc": final_mean,
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
    if cfg.perturbation is not None:
        kind, rate = cfg.perturbation.kind, cfg.perturbation.rate
        if kind == "label_sparsity":
            clients = [
                sparsify_labels(cd, rate, sub["perturb"] + cd.client_id)
                for cd in clients
            ]
        elif kind == "edge_sparsity":
            clients = [
                sparsify_edges(cd, rate, sub["perturb"] + cd.client_id)
                for cd in clients
            ]
        else:
            raise ValueError(f"unknown perturbation {kind!r}")
    latency = assign_latencies(
        cfg.n_clients, cfg.edge_fraction, cfg.lag_range, sub["latency"]
    )
    initial = init_params(
        graph.feature_dim, cfg.hidden_dim, graph.num_classes, sub["params"]
    )
    return clients, latency, initial


def run_simulation(cfg: ExperimentConfig, seed: int | None = None) -> MetricsLog:
    """Run one seeded simulation to cfg.max_trips completed client trips.

    Event loop: pop the earliest (time, client_id, seq) event, move any
    pending download into the client's mailbox, execute the trip, take that
    client's local test accuracy from the trip's soft labels and snapshot
    the cached accuracy vector, hand the upload to the server, and schedule
    the client's next trip. Under fedavg_sync a client waits for the round
    broadcast before its next trip is scheduled; all other strategies
    re-schedule immediately. A config that yields no client with training
    nodes, or a client without test nodes, raises ConfigError.
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

    k_threshold = cfg.resolved_k()
    server = ServerState(
        strategy=cfg.strategy,
        k_threshold=k_threshold,
        hyper=cfg.resolved_hyper(),
        expected_clients=tuple(
            cd.client_id for cd, act in zip(clients_data, active) if act
        ),
        train_sizes={cd.client_id: int(cd.masks.train.size) for cd in clients_data},
        global_params=initial,
        use_clustering=not cfg.disable_sfm_clustering,
        use_broadcast=not cfg.disable_clustercast,
    )
    clients = [
        ClientState(cd.client_id, cd, initial.copy(), tau=0, active=act)
        for cd, act in zip(clients_data, active)
    ]
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
    heap: list[Event] = []
    seq = 0
    for c in clients:
        if c.active:
            heapq.heappush(heap, Event(int(latency.durations[c.client_id]), c.client_id, seq))
            seq += 1
    gated: set[int] = set()
    trips = 0
    hyper = cfg.resolved_hyper()
    sync = cfg.strategy == Strategy.FEDAVG_SYNC
    while trips < cfg.max_trips and heap:
        ev = heapq.heappop(heap)
        now, cid = ev.completion_time, ev.client_id
        client = clients[cid]
        client.mailbox = server.mailboxes.pop(cid, None)
        upload = client_trip(client, hyper, cfg.lr)
        trips += 1
        if upload is not None:  # else the params and their accuracy are unchanged
            cached[cid] = accuracy(client.soft, client.data, client.data.masks.test)
        mean = float(cached.mean())
        log.records.append(
            TripRecord(
                trips, now, cid, float(cached[cid]), mean, tuple(cached.tolist())
            )
        )
        if sync and client.active:
            gated.add(cid)
        if upload is not None:
            deliveries = server_receive(server, upload)
            for d_cid, d_msg in deliveries:
                if cfg.strategy == Strategy.FEDSA_GCL:
                    kind = "personal" if d_msg.cluster_lsc is None else "broadcast"
                else:
                    kind = "baseline"
                log.trace.append(format_trace(d_msg.round, kind, d_cid, d_msg.round))
                if d_cid in gated:
                    gated.discard(d_cid)
                    heapq.heappush(
                        heap,
                        Event(now + int(latency.durations[d_cid]), d_cid, seq),
                    )
                    seq += 1
        if client.active and not sync:
            heapq.heappush(
                heap, Event(now + int(latency.durations[cid]), cid, seq)
            )
            seq += 1
    log.aggregation_log = list(server.aggregation_log)
    return log
