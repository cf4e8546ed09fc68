"""Client trips and one server class per strategy for semi-asynchronous
federated training.

Each server holds only its own strategy's state; ``receive`` turns one
upload into (client id, download) deliveries that name their ``kind``, and
``server_receive`` posts them to ``Server.mailboxes``, the run's one mailbox.
A batch of trips starts when ``train_trips`` takes its clients' messages out,
and each trip ends in ``client_trip``. Messages are values: nothing writes
to one once it is built. ``FedSaGclServer``, the main strategy, scores each
upload's fingerprint and confidence in its aggregation round, once K uploads
are queued, and keeps every client's latest in a ``KnowledgeBase`` whose row
c is client c: each uploader gets a personalized model averaged over its
similarity cluster with staleness-aware weights, and cluster members that
did not upload receive the same model as a broadcast carrying the cluster
confidence and their own, which they blend into their local model before the
next training step. The baselines are ``FedAvgSyncServer`` (synchronous
FedAvg), ``FedBuffServer`` (FedBuff-style buffered semi-async) and
``FedAsyncServer`` (FedAsync-style per-upload mixing).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

import numpy as np

from .gcn import BATCH_ROWS, ModelParams, train_batch
from .kernels import (
    FglHyper,
    LscValue,
    aggregate_models,
    blend_local,
    compute_lsc,
    compute_sfm,
    cosine_block,
    cosine_similarity,  # noqa: F401  (perfbench/test_harness.py patches it here)
    label_propagation,
    staleness_factors,
)
from .partition import ClientData


class Strategy(str, Enum):
    FEDSA_GCL = "fedsa_gcl"
    FEDAVG_SYNC = "fedavg_sync"
    FEDBUFF = "fedbuff"
    FEDASYNC = "fedasync"


FEDASYNC_BETA = 0.5


@dataclass(eq=False)
class UploadMessage:
    """Client -> server: trained params, the round stamp of the model version
    the client last received (0 initially), the params' soft labels on the
    client's subgraph ``data``, and the sender. Nothing writes to a message
    once it is built: a fedsa_gcl round scores its uploads itself
    (``upload_stats``), so the baselines never pay for that."""

    params: ModelParams
    tau: int
    soft: np.ndarray
    data: ClientData
    client_id: int

    @cached_property
    def sfm(self) -> np.ndarray:
        """This upload's fingerprint alone. No simulation path reads it;
        perfbench's traced byte count reads ``sfm.nbytes`` of every upload,
        whatever the strategy."""
        return compute_sfm(self.soft, [self.data])[0]


def upload_stats(uploads: list[UploadMessage], hyper: FglHyper) -> tuple[list, list]:
    """The uploads' fingerprints and confidences (``LscValue``) under hyper's
    lam and k_steps, in ``uploads`` order: one kernel call per kind and run
    of uploads, as many as the trip kernel's BATCH_ROWS rule allows (joining
    a large client's operators costs more than the calls it saves)."""
    sfms, lscs = [], []
    per_run = max(1, BATCH_ROWS // max((len(m.soft) for m in uploads), default=1))
    for run in (uploads[i : i + per_run] for i in range(0, len(uploads), per_run)):
        soft = np.concatenate([m.soft for m in run]) if len(run) > 1 else run[0].soft
        datas = [m.data for m in run]
        sfms += compute_sfm(soft, datas)
        lscs += compute_lsc(label_propagation(soft, datas, hyper.lam, hyper.k_steps), datas)
    return sfms, lscs


@dataclass(eq=False)
class DownloadMessage:
    """Server -> client. cluster_lsc present means ClusterCast broadcast,
    blended on receipt with ``local_lsc``, the recipient's own clamped
    confidence; absent means direct delivery (replace). ``kind`` is
    fedsa_gcl's "personal" (to an uploader) or "broadcast" (to a cluster
    member that did not upload), or "baseline" from the other servers."""

    params: ModelParams
    round: int
    cluster_lsc: float | None = None
    kind: str = "baseline"
    local_lsc: float | None = None


class KnowledgeBase:
    """The fedsa_gcl knowledge base as row arrays: row c holds client c's
    latest upload (``known`` flags the clients that have one), its flat
    parameter vector in ``params``, its flattened fingerprint in ``sfm`` with
    the row norm cached in ``sfm_norm``, and its ``tau`` and clamped
    confidence ``lsc``. The first ``put`` fixes the row widths."""

    def __init__(self, n_clients: int):
        self.known = np.zeros(n_clients, dtype=bool)

    def put(self, uploads: list[UploadMessage], sfms: list, lscs: list[LscValue]) -> np.ndarray:
        """Copy the uploads, one per client, with their fingerprints and
        confidences into their clients' rows and return their client ids.
        ValueError for an id outside [0, n_clients)."""
        ids = np.fromiter((m.client_id for m in uploads), dtype=np.int64, count=len(uploads))
        n = self.known.size
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise ValueError(f"client id {bad[0]} outside [0, {n})")
        if not self.known.any():
            self.dims = uploads[0].params.dims
            self.params = np.zeros((n, uploads[0].params.vec.size))
            self.sfm = np.zeros((n, sfms[0].size))
            self.sfm_norm, self.tau, self.lsc = np.zeros(n), np.zeros(n), np.zeros(n)
        sfms = [np.ravel(v) for v in sfms]
        self.params[ids] = [m.params.vec for m in uploads]
        self.sfm[ids] = sfms
        self.sfm_norm[ids] = [np.linalg.norm(v) for v in sfms]
        self.tau[ids] = [m.tau for m in uploads]
        self.lsc[ids] = [v.clamped for v in lscs]
        self.known[ids] = True
        return ids


@dataclass(eq=False)
class ClientState:
    """A client's local model and protocol state: ``tau`` is the round of the
    last message it read."""

    client_id: int
    data: ClientData
    params: ModelParams
    tau: int = 0


Deliveries = list[tuple[int, DownloadMessage]]


class Server:
    """The round counter, undelivered mailboxes and aggregation log that
    every strategy's server has. The log holds one (round, client_id, cluster
    member tuple, weight tuple) per personalized aggregation (none under the
    baselines). ``waits_for_round``: a client starts its next trip only once
    the current round's delivery reaches it."""

    waits_for_round = False

    def __init__(self):
        self.round = 0
        self.mailboxes: dict[int, DownloadMessage] = {}
        self.aggregation_log: list = []

    def receive(self, msg: UploadMessage) -> Deliveries:
        """Take one upload; return the deliveries it triggers, if any."""
        raise NotImplementedError

    def uploads_to_reach_others(self) -> float:
        """How many more uploads it takes before one can deliver to a client
        other than its sender (as many same-time trips can train as a batch)."""
        raise NotImplementedError


class FedSaGclServer(Server):
    """fedsa_gcl: one aggregation round per K queued uploads, over the
    knowledge base ``kb`` of every client's latest upload, one row per
    client id in [0, n_clients)."""

    def __init__(
        self,
        k: int,
        hyper: FglHyper,
        n_clients: int,
        use_clustering: bool = True,
        use_broadcast: bool = True,
    ):
        super().__init__()
        self.k, self.hyper = k, hyper
        self.use_clustering, self.use_broadcast = use_clustering, use_broadcast
        self.queue: list[UploadMessage] = []
        self.kb = KnowledgeBase(n_clients)

    def uploads_to_reach_others(self) -> float:
        return self.k - len(self.queue)

    def receive(self, msg: UploadMessage) -> Deliveries:
        """Queue the upload; once K are queued, run one aggregation round.

        The round takes the whole queue. It scores each client's latest
        upload in it, in ascending ids, once (``upload_stats``, in batches),
        puts them into the knowledge base and makes their clients the
        uploaded set U. One |U| x N block of fingerprint cosines (uploaders
        against every known client, ascending ids) then gives both the
        clusters and the broadcast choice. Uploader i's cluster I_i is i plus
        every client with similarity >= theta; its personalized model is the
        staleness-weighted average of I_i's parameter rows, delivered without
        cluster confidence. Every s in some I_i \\ U receives the cluster
        model of its most similar uploader (ties to the lower uploader id)
        together with that cluster's summed clamped confidence and s's own
        (its row, as s has nothing queued). Staleness is fixed for the
        round, so each distinct member set gets one row of weights (in order
        of first appearance), and one product per round, weights times the
        known clients' parameter rows, builds every cluster model. Uploaders
        with equal sets share one ``ModelParams``, each with its own log
        entry and delivery.
        """
        self.queue.append(msg)
        if len(self.queue) < self.k:
            return []
        self.round += 1
        t = self.round
        latest = {m.client_id: m for m in sorted(self.queue, key=lambda m: m.client_id)}
        uploads = list(latest.values())
        kb = self.kb
        u_ids = kb.put(uploads, *upload_stats(uploads, self.hyper))
        self.queue.clear()
        ids = np.flatnonzero(kb.known)  # every known client, ascending
        own = ids == u_ids[:, None]
        member = own
        if self.use_clustering:
            sims = cosine_block(kb.sfm[u_ids], kb.sfm[ids], kb.sfm_norm[u_ids], kb.sfm_norm[ids])
            member = own | (sims >= self.hyper.theta)
        stale = staleness_factors(kb.lsc[ids], kb.tau[ids], t, self.hyper.alpha)
        sets = {}  # distinct member set -> (its weight row, its member flags)
        of = [sets.setdefault(m.tobytes(), (len(sets), m))[0] for m in member]
        weights = np.zeros((len(sets), ids.size))
        logged, lsc_sums = [], []
        for row, (_, in_cluster) in zip(weights, sets.values()):
            members = np.flatnonzero(in_cluster)
            u = stale[members]
            w = u / u.sum()
            row[members] = w
            rows = ids[members]
            logged.append((tuple(rows.tolist()), tuple(w.tolist())))
            lsc_sums.append(sum(kb.lsc[rows].tolist()))
        models = [ModelParams.from_vector(v, kb.dims) for v in weights @ kb.params[ids]]
        deliveries = []
        for i, j in zip(u_ids.tolist(), of):
            self.aggregation_log.append((t, i, *logged[j]))
            deliveries.append((i, DownloadMessage(models[j], t, None, "personal")))
        if self.use_broadcast and self.use_clustering:  # singletons reach no one
            reach = member & ~own.any(axis=0)
            targets = np.flatnonzero(reach.any(axis=0))
            sources = np.where(reach, sims, -np.inf)[:, targets].argmax(axis=0)
            for s, k in zip(ids[targets].tolist(), sources.tolist()):
                j, lsc = of[k], float(kb.lsc[s])  # s's own clamped confidence
                deliveries.append((s, DownloadMessage(models[j], t, lsc_sums[j], "broadcast", lsc)))
        return deliveries


class FedAvgSyncServer(Server):
    """fedavg_sync: once every active client has uploaded, send all of them
    the mean weighted by ``train_sizes`` (client id -> train-node count of
    each active client)."""

    waits_for_round = True

    def __init__(self, train_sizes: dict[int, int]):
        super().__init__()
        self.expected = sorted(train_sizes)
        sizes = np.array([train_sizes[c] for c in self.expected], dtype=np.float64)
        self.weights = sizes / sizes.sum()
        self.buffer: dict[int, UploadMessage] = {}

    def uploads_to_reach_others(self) -> float:
        return sum(c not in self.buffer for c in self.expected)

    def receive(self, msg: UploadMessage) -> Deliveries:
        self.buffer[msg.client_id] = msg
        if not all(c in self.buffer for c in self.expected):
            return []
        self.round += 1
        model = aggregate_models(
            [self.buffer[c].params for c in self.expected], self.weights
        )
        self.buffer.clear()
        return [(c, DownloadMessage(model, self.round)) for c in self.expected]


class FedBuffServer(Server):
    """fedbuff: once K uploads are buffered, send their uniform mean to the
    clients that sent them."""

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.buffer: list[UploadMessage] = []

    def uploads_to_reach_others(self) -> float:
        return self.k - len(self.buffer)

    def receive(self, msg: UploadMessage) -> Deliveries:
        self.buffer.append(msg)
        if len(self.buffer) < self.k:
            return []
        self.round += 1
        buf = self.buffer
        weights = np.full(len(buf), 1.0 / len(buf))
        model = aggregate_models([m.params for m in buf], weights)
        recipients = sorted({m.client_id for m in buf})
        self.buffer = []
        return [(c, DownloadMessage(model, self.round)) for c in recipients]


class FedAsyncServer(Server):
    """fedasync: mix each upload into ``global_params`` with coefficient
    FEDASYNC_BETA * (staleness + 1)^(-alpha), and reply to the uploader."""

    def __init__(self, initial: ModelParams, alpha: float):
        super().__init__()
        self.global_params, self.alpha = initial, alpha

    def uploads_to_reach_others(self) -> float:
        return float("inf")  # every reply goes to its sender

    def receive(self, msg: UploadMessage) -> Deliveries:
        if msg.params.dims != (g := self.global_params).dims:
            raise ValueError("parameter sets must share dims")
        staleness = self.round - msg.tau
        mix = FEDASYNC_BETA * (staleness + 1.0) ** (-self.alpha)
        self.round += 1
        self.global_params = ModelParams.from_vector(
            (1.0 - mix) * g.vec + mix * msg.params.vec, g.dims
        )
        return [(msg.client_id, DownloadMessage(self.global_params, self.round))]


def server_receive(server: Server, msg: UploadMessage) -> Deliveries:
    """Hand one upload to the server and post each resulting delivery to its
    recipient's mailbox (capacity 1, latest wins); returns the deliveries."""
    deliveries = server.receive(msg)
    for cid, d in deliveries:
        server.mailboxes[cid] = d
    return deliveries


def train_trips(states: list[ClientState], mailboxes: dict[int, DownloadMessage], lr: float,
                layouts: dict | None = None) -> Iterator:
    """Take each client's message out of ``mailboxes``, then train all of them
    as one batch; return the batch, a lazy iterator of (state, (trained
    params, soft labels)) in ``states`` order for ``client_trip``.

    A message (at most the latest per client) is read first: a direct
    delivery replaces the local params, a broadcast is blended in weighted
    by the cluster and local confidences it carries; either updates tau to
    the message round. Then the clients' training epochs, each followed by
    the forward pass of the trained model, run as ``gcn.train_batch``: each
    kernel call inside the ``client_trip`` of its first client, so a trip
    still holds its training. ``layouts`` is the run's memo of batch layouts
    (``gcn._blocks``). Training on an empty train mask raises ValueError.
    """
    for state in states:
        msg = mailboxes.pop(state.client_id, None)
        if msg is None:
            continue
        if msg.cluster_lsc is None:
            state.params = msg.params
        else:
            state.params = blend_local(msg.params, state.params, msg.cluster_lsc, msg.local_lsc)
        state.tau = msg.round
    return zip(states, train_batch([(s.params, s.data) for s in states], lr, layouts))


def client_trip(state: ClientState, batch: Iterator) -> UploadMessage:
    """Finish a client's trip from the next entry of its ``train_trips`` batch
    (a batch's trips finish in its order, else RuntimeError): the trained
    params become the local model and, with the soft labels, the returned
    upload."""
    owner, (params, soft) = next(batch)
    if owner is not state:
        raise RuntimeError(f"client {state.client_id} finished its trip out of batch order")
    state.params = params
    return UploadMessage(params, state.tau, soft, state.data, state.client_id)


def format_trace(round_: int, kind: str, dst: int) -> str:
    """One delivery line for trace dumps; its ``tau`` is the message round."""
    return f"t={round_} kind={kind} src=server dst={dst} tau={round_}"
