"""Client trips and one server class per strategy for semi-asynchronous
federated training.

Each server holds only its own strategy's state; ``receive`` turns one
upload into (client id, download) deliveries, which ``server_receive`` also
posts to the recipients' mailboxes. ``FedSaGclServer``, the main strategy,
aggregates once K uploads are queued: each uploader gets a personalized
model averaged over its similarity cluster with staleness-aware weights, and
cluster members that did not upload receive the same model as a broadcast
carrying the cluster confidence, which they blend into their local model
before the next training step. The baselines are ``FedAvgSyncServer``
(synchronous FedAvg), ``FedBuffServer`` (FedBuff-style buffered semi-async)
and ``FedAsyncServer`` (FedAsync-style per-upload mixing).
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
    weighted_row_sum,
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
    the client last received (0 initially) and the params' soft labels. The
    fingerprint ``sfm`` and confidence ``lsc`` are computed when a fedsa_gcl
    round needs them (``fill_stats``, in batches) or on first read (a batch of
    one), so the baselines never pay for them; as nothing changes
    ``soft``, ``data`` or ``hyper`` after the trip, each is the same either way."""

    params: ModelParams
    tau: int
    soft: np.ndarray
    data: ClientData
    hyper: FglHyper
    client_id: int

    @cached_property
    def sfm(self) -> np.ndarray:
        fill_stats([self], ("sfm",))
        return vars(self)["sfm"]

    @cached_property
    def lsc(self) -> LscValue:
        fill_stats([self], ("lsc",))
        return vars(self)["lsc"]


def fill_stats(uploads: list[UploadMessage], names=("sfm", "lsc")) -> None:
    """Give the uploads their missing ``sfm`` and ``lsc``: one kernel call per
    kind and run of uploads, as many as the trip kernel's BATCH_ROWS rule allows
    (joining a large client's operators costs more than the calls it saves). A
    value already read is kept; two uploads of one client are two entries.
    ValueError if the uploads lacking ``lsc`` differ in (lam, k_steps)."""
    for name in names:
        todo = [m for m in uploads if name not in vars(m)]
        if name == "lsc" and len({(m.hyper.lam, m.hyper.k_steps) for m in todo}) > 1:
            raise ValueError("the uploads in one batch must share lam and k_steps")
        per_run = max(1, BATCH_ROWS // max((len(m.soft) for m in todo), default=1))
        for run in (todo[i : i + per_run] for i in range(0, len(todo), per_run)):
            soft = np.concatenate([m.soft for m in run]) if len(run) > 1 else run[0].soft
            datas = [m.data for m in run]
            if name == "sfm":
                values = compute_sfm(soft, datas)
            else:
                lam, k_steps = run[0].hyper.lam, run[0].hyper.k_steps
                values = compute_lsc(label_propagation(soft, datas, lam, k_steps), datas)
            for m, value in zip(run, values):
                vars(m)[name] = value


@dataclass(eq=False)
class DownloadMessage:
    """Server -> client. cluster_lsc present means ClusterCast broadcast
    (blend on receipt); absent means direct personalized delivery (replace)."""

    params: ModelParams
    round: int
    cluster_lsc: float | None = None


KB_INITIAL_ROWS = 16


class KnowledgeBaseRows:
    """The fedsa_gcl knowledge base as row arrays, one row per client id.

    A client's row holds its latest upload: its flat parameter vector in
    ``params``, its flattened fingerprint in ``sfm`` with the row norm cached
    in ``sfm_norm``, and its ``tau`` and clamped confidence ``lsc``. Rows are
    handed out in order of first upload, so ``row_of`` lists the client ids
    in row order, and the arrays double in capacity when a new id finds them
    full.
    """

    def __init__(self):
        self.row_of: dict[int, int] = {}
        self.sfm_norm = self.tau = self.lsc = np.zeros(0)

    def put(self, msg: UploadMessage) -> None:
        """Copy the upload into its client's row, adding a row for a new id."""
        if not self.row_of:  # the first upload fixes the row widths
            self.dims = msg.params.dims
            self.params = np.zeros((0, msg.params.vec.size))
            self.sfm = np.zeros((0, msg.sfm.size))
        row = self.row_of.setdefault(msg.client_id, len(self.row_of))
        if row == self.tau.size:
            more = max(row, KB_INITIAL_ROWS)
            for name in ("params", "sfm", "sfm_norm", "tau", "lsc"):
                old = getattr(self, name)
                new = np.zeros_like(old, shape=(more,) + old.shape[1:])
                setattr(self, name, np.concatenate([old, new]))
        sfm = np.ravel(msg.sfm)
        self.params[row] = msg.params.vec
        self.sfm[row] = sfm
        self.sfm_norm[row] = np.linalg.norm(sfm)
        self.tau[row] = msg.tau
        self.lsc[row] = msg.lsc.clamped


@dataclass(eq=False)
class ClientState:
    """A client's local model and protocol state. ``upload`` is the last
    upload, made with the current ``params`` (None before the first trip);
    ``trained`` the batch ``train_trips`` put it in, until ``client_trip``."""

    client_id: int
    data: ClientData
    params: ModelParams
    mailbox: DownloadMessage | None = None
    tau: int = 0
    upload: UploadMessage | None = None
    trained: Iterator | None = None


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
    knowledge base ``kb`` of every client's latest upload."""

    def __init__(
        self,
        k: int,
        hyper: FglHyper,
        use_clustering: bool = True,
        use_broadcast: bool = True,
    ):
        super().__init__()
        self.k, self.hyper = k, hyper
        self.use_clustering, self.use_broadcast = use_clustering, use_broadcast
        self.queue: list[UploadMessage] = []
        self.kb = KnowledgeBaseRows()

    def uploads_to_reach_others(self) -> float:
        return self.k - len(self.queue)

    def receive(self, msg: UploadMessage) -> Deliveries:
        """Queue the upload; once K are queued, run one aggregation round.

        The round moves the whole queue into the knowledge base and makes its
        clients the uploaded set U. One |U| x N block of fingerprint cosines
        (uploaders against every known client, ascending ids) then gives both
        the clusters and the broadcast choice. Uploader i's cluster I_i is i
        plus every client with similarity >= theta; its personalized model is
        the staleness-weighted row sum over I_i's parameter rows, delivered
        without cluster confidence. Every s in some I_i \\ U receives the
        cluster model of its most similar uploader (ties to the lower
        uploader id) together with that cluster's summed clamped confidence.
        The queue's missing fingerprints and confidences are computed in
        batches (``fill_stats``). Staleness is fixed for the round, so each
        distinct member set is aggregated once into one ``ModelParams`` that
        its uploaders share, each with its own log entry and delivery.
        """
        self.queue.append(msg)
        if len(self.queue) < self.k:
            return []
        self.round += 1
        t = self.round
        fill_stats(self.queue)
        for m in self.queue:
            self.kb.put(m)
        u_ids = np.array(sorted({m.client_id for m in self.queue}))
        self.queue.clear()
        kb = self.kb
        ids = np.fromiter(kb.row_of, dtype=np.int64, count=len(kb.row_of))
        cols = np.argsort(ids)  # rows in ascending client id
        col_ids = ids[cols]
        own = col_ids == u_ids[:, None]
        member = own
        if self.use_clustering:
            u_rows = [kb.row_of[i] for i in u_ids.tolist()]
            sims = cosine_block(
                kb.sfm[u_rows], kb.sfm[cols], kb.sfm_norm[u_rows], kb.sfm_norm[cols]
            )
            member = own | (sims >= self.hyper.theta)
        stale = staleness_factors(kb.lsc[cols], kb.tau[cols], t, self.hyper.alpha)
        deliveries, models, lsc_sums, clusters = [], [], [], {}
        for i, in_cluster in zip(u_ids.tolist(), member):
            key = in_cluster.tobytes()
            if key not in clusters:
                members = np.flatnonzero(in_cluster)
                u = stale[members]
                weights = u / u.sum()
                rows = cols[members]
                model = ModelParams.from_vector(weighted_row_sum(kb.params[rows], weights), kb.dims)
                clusters[key] = (model, sum(kb.lsc[rows].tolist()),
                                 tuple(col_ids[members].tolist()), tuple(weights.tolist()))
            model_i, lsc_sum, *logged = clusters[key]
            self.aggregation_log.append((t, i, *logged))
            deliveries.append((i, DownloadMessage(model_i, t, None)))
            models.append(model_i)
            lsc_sums.append(lsc_sum)
        if self.use_broadcast and self.use_clustering:  # singletons reach no one
            reach = member & ~own.any(axis=0)
            targets = np.flatnonzero(reach.any(axis=0))
            sources = np.where(reach, sims, -np.inf)[:, targets].argmax(axis=0)
            for s, k in zip(col_ids[targets].tolist(), sources.tolist()):
                deliveries.append((s, DownloadMessage(models[k], t, lsc_sums[k])))
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
        return [(c, DownloadMessage(model, self.round, None)) for c in self.expected]


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
        return [(c, DownloadMessage(model, self.round, None)) for c in recipients]


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
        return [(msg.client_id, DownloadMessage(self.global_params, self.round, None))]


def server_receive(server: Server, msg: UploadMessage) -> Deliveries:
    """Hand one upload to the server and post each resulting delivery to its
    recipient's mailbox (capacity 1, latest wins); returns the deliveries."""
    deliveries = server.receive(msg)
    for cid, d in deliveries:
        server.mailboxes[cid] = d
    return deliveries


def train_trips(states: list[ClientState], lr: float) -> None:
    """Open each client's mailbox, then train all of them as one batch.

    The mailbox (at most the latest message) is consumed first: a direct
    delivery replaces the local params, a broadcast is blended in weighted
    by cluster vs local confidence; either updates tau to the message round.
    The local confidence is the one of ``state.upload``, made with the
    current params at the end of the last trip. Only uploaders are cluster
    members, so a broadcast to a client that has not uploaded raises
    ValueError. Then the clients' training epochs, each followed by the
    forward pass of the trained model, run as ``gcn.train_batch``: each
    kernel call inside the ``client_trip`` of its first client, so a trip
    still holds its training. Training on an empty train mask raises
    ValueError.
    """
    for state in states:
        msg, state.mailbox = state.mailbox, None
        if msg is None:
            continue
        if msg.cluster_lsc is None:
            state.params = msg.params
        elif state.upload is None:
            raise ValueError(f"client {state.client_id} got a broadcast before uploading")
        else:
            state.params = blend_local(
                msg.params, state.params, msg.cluster_lsc, state.upload.lsc.clamped
            )
        state.tau = msg.round
    batch = zip(states, train_batch([(s.params, s.data) for s in states], lr))
    for state in states:
        state.trained = batch


def client_trip(state: ClientState, hyper: FglHyper, lr: float) -> UploadMessage:
    """One download-train-upload cycle for a client: its batch from
    ``train_trips`` (a batch of one if it has none; a batch's trips finish in
    its order), whose trained params and soft labels make the upload, also
    kept in ``state.upload``."""
    if state.trained is None:
        train_trips([state], lr)
    owner, (params, soft) = next(state.trained)
    if owner is not state:
        raise RuntimeError(f"client {state.client_id} finished its trip out of batch order")
    state.params, state.trained = params, None
    state.upload = UploadMessage(state.params, state.tau, soft, state.data, hyper, state.client_id)
    return state.upload


def format_trace(round_: int, kind: str, dst: int, tau: int) -> str:
    """One delivery line for trace dumps."""
    return f"t={round_} kind={kind} src=server dst={dst} tau={tau}"
