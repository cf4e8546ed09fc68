"""Server and client state machines for semi-asynchronous federated training.

The main strategy aggregates once K uploads are queued: each uploader gets a
personalized model averaged over its similarity cluster with staleness-aware
weights, and cluster members that did not upload receive the same model as a
broadcast carrying the cluster confidence, which they blend into their local
model before the next training step. Three baselines share the message types:
synchronous FedAvg, FedBuff-style buffered semi-async, and FedAsync-style
per-upload mixing.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gcn import (
    ModelParams,
    evaluate,
    forward,
    params_from_bytes,
    params_to_bytes,
    train_epoch,
)
from .kernels import (
    FglHyper,
    KnowledgeBaseEntry,
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
    """Client -> server: trained params plus fingerprint, confidence, and the
    round stamp of the model version the client last received (0 initially)."""

    params: ModelParams
    tau: int
    sfm: np.ndarray
    lsc: LscValue
    client_id: int


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
class ServerState:
    """Server state for every strategy.

    ``knowledge_base`` keeps each client's latest upload as an entry; under
    fedsa_gcl, ``kb_rows`` holds the same uploads as row arrays for the
    batched aggregation round, and is None under the baselines.
    """

    strategy: Strategy
    k_threshold: int
    hyper: FglHyper
    knowledge_base: dict[int, KnowledgeBaseEntry] = field(default_factory=dict)
    round: int = 0
    upload_queue: deque = field(default_factory=deque)
    mailboxes: dict[int, DownloadMessage] = field(default_factory=dict)
    expected_clients: tuple = ()
    train_sizes: dict[int, int] = field(default_factory=dict)
    global_params: ModelParams | None = None
    use_clustering: bool = True
    use_broadcast: bool = True
    sync_buffer: dict[int, UploadMessage] = field(default_factory=dict)
    fedbuff_buffer: list = field(default_factory=list)
    # one (round, client_id, cluster member tuple, weight tuple) per
    # personalized aggregation, for traces and invariant checks
    aggregation_log: list = field(default_factory=list)
    kb_rows: KnowledgeBaseRows | None = None

    def __post_init__(self):
        if self.k_threshold < 1:
            raise ValueError("buffer threshold K must be >= 1")
        if self.strategy == Strategy.FEDSA_GCL:
            self.kb_rows = KnowledgeBaseRows()


@dataclass(eq=False)
class ClientState:
    client_id: int
    data: ClientData
    params: ModelParams
    mailbox: DownloadMessage | None = None
    tau: int = 0
    active: bool = True


def kb_update(state: ServerState, msg: UploadMessage) -> None:
    """Replace the client's knowledge-base entry (and row) with the upload."""
    state.knowledge_base[msg.client_id] = KnowledgeBaseEntry(
        msg.client_id, msg.params, msg.sfm, msg.lsc, msg.tau
    )
    if state.kb_rows is not None:
        state.kb_rows.put(msg)


def _deliver(state: ServerState, deliveries):
    for cid, msg in deliveries:
        state.mailboxes[cid] = msg  # capacity 1, latest wins
    return deliveries


def server_step(state: ServerState) -> list[tuple[int, DownloadMessage]]:
    """One semi-async aggregation round; no-op below the buffer threshold.

    Drains the whole queue into the uploaded set U and updates the knowledge
    base. One |U| x N block of fingerprint cosines (uploaders against every
    known client, ascending ids) then gives both the clusters and the
    broadcast choice. Uploader i's cluster I_i is i plus every client with
    similarity >= theta; its personalized model is the staleness-weighted
    row sum over I_i's parameter rows, delivered without cluster confidence.
    Every s in some I_i \\ U receives the cluster model of its most similar
    uploader (ties to the lower uploader id) together with that cluster's
    summed clamped confidence.
    """
    if state.strategy != Strategy.FEDSA_GCL:
        raise ValueError("server_step only drives the fedsa_gcl strategy")
    if len(state.upload_queue) < state.k_threshold:
        return []
    state.round += 1
    t = state.round
    uploaded = set()
    while state.upload_queue:
        msg = state.upload_queue.popleft()
        kb_update(state, msg)
        uploaded.add(msg.client_id)
    kb = state.kb_rows
    ids = np.fromiter(kb.row_of, dtype=np.int64, count=len(kb.row_of))
    cols = np.argsort(ids)  # rows in ascending client id
    col_ids = ids[cols]
    u_ids = np.array(sorted(uploaded))
    own = col_ids == u_ids[:, None]
    member = own
    if state.use_clustering:
        u_rows = [kb.row_of[i] for i in u_ids.tolist()]
        sims = cosine_block(
            kb.sfm[u_rows], kb.sfm[cols], kb.sfm_norm[u_rows], kb.sfm_norm[cols]
        )
        member = own | (sims >= state.hyper.theta)
    stale = staleness_factors(kb.lsc[cols], kb.tau[cols], t, state.hyper.alpha)
    deliveries = []
    models, lsc_sums = [], []
    for i, in_cluster in zip(u_ids.tolist(), member):
        members = np.flatnonzero(in_cluster)
        u = stale[members]
        weights = u / u.sum()
        rows = cols[members]
        model_i = ModelParams.from_vector(
            weighted_row_sum(kb.params[rows], weights), kb.dims
        )
        state.aggregation_log.append(
            (t, i, tuple(col_ids[members].tolist()), tuple(weights.tolist()))
        )
        deliveries.append((i, DownloadMessage(model_i, t, None)))
        models.append(model_i)
        lsc_sums.append(sum(kb.lsc[rows].tolist()))
    if state.use_broadcast and state.use_clustering:  # singletons reach no one
        reach = member & ~own.any(axis=0)
        targets = np.flatnonzero(reach.any(axis=0))
        sources = np.where(reach, sims, -np.inf)[:, targets].argmax(axis=0)
        for s, k in zip(col_ids[targets].tolist(), sources.tolist()):
            deliveries.append((s, DownloadMessage(models[k], t, lsc_sums[k])))
    return _deliver(state, deliveries)


def baseline_step(
    state: ServerState, incoming: UploadMessage
) -> list[tuple[int, DownloadMessage]]:
    """Process one upload under a baseline strategy; returns deliveries.

    fedavg_sync waits for all expected clients, aggregates with train-size
    weights, and broadcasts to everyone. fedbuff aggregates the buffer
    uniformly once K uploads accumulate and replies only to buffered
    clients. fedasync mixes each upload into the global model immediately,
    attenuated by polynomial staleness, and replies to the uploader.
    """
    if state.strategy == Strategy.FEDSA_GCL:
        raise ValueError("baseline_step does not drive the fedsa_gcl strategy")
    kb_update(state, incoming)
    deliveries: list[tuple[int, DownloadMessage]] = []

    if state.strategy == Strategy.FEDAVG_SYNC:
        state.sync_buffer[incoming.client_id] = incoming
        expected = sorted(state.expected_clients)
        if expected and all(c in state.sync_buffer for c in expected):
            state.round += 1
            sizes = np.array(
                [state.train_sizes[c] for c in expected], dtype=np.float64
            )
            weights = sizes / sizes.sum()
            state.global_params = aggregate_models(
                [state.sync_buffer[c].params for c in expected], weights
            )
            state.sync_buffer.clear()
            deliveries = [
                (c, DownloadMessage(state.global_params, state.round, None))
                for c in expected
            ]
    elif state.strategy == Strategy.FEDBUFF:
        state.fedbuff_buffer.append(incoming)
        if len(state.fedbuff_buffer) >= state.k_threshold:
            state.round += 1
            buf = state.fedbuff_buffer
            weights = np.full(len(buf), 1.0 / len(buf))
            state.global_params = aggregate_models([m.params for m in buf], weights)
            recipients = sorted({m.client_id for m in buf})
            state.fedbuff_buffer = []
            deliveries = [
                (c, DownloadMessage(state.global_params, state.round, None))
                for c in recipients
            ]
    elif state.strategy == Strategy.FEDASYNC:
        if state.global_params is None:
            raise ValueError("fedasync needs an initial global model")
        staleness = state.round - incoming.tau
        mix = FEDASYNC_BETA * (staleness + 1.0) ** (-state.hyper.alpha)
        state.round += 1
        state.global_params = aggregate_models(
            [state.global_params, incoming.params], [1.0 - mix, mix]
        )
        deliveries = [
            (
                incoming.client_id,
                DownloadMessage(state.global_params, state.round, None),
            )
        ]
    return _deliver(state, deliveries)


def server_receive(
    state: ServerState, msg: UploadMessage
) -> list[tuple[int, DownloadMessage]]:
    """Route one upload to the strategy's aggregation step."""
    if state.strategy == Strategy.FEDSA_GCL:
        state.upload_queue.append(msg)
        return server_step(state)
    return baseline_step(state, msg)


def client_trip(
    state: ClientState, hyper: FglHyper, lr: float
) -> UploadMessage | None:
    """One download-train-upload cycle for a client.

    The mailbox (at most the latest message) is consumed first: a direct
    delivery replaces the local params, a broadcast is blended in weighted
    by cluster vs freshly computed local confidence; either updates tau to
    the message round. Then one training epoch runs, and the fingerprint and
    confidence of the post-training model are computed for the upload.
    An empty train mask deactivates the client (returns None, no upload).
    """
    if state.data.masks.train.size == 0:
        state.active = False
        return None
    msg = state.mailbox
    state.mailbox = None
    if msg is not None:
        if msg.cluster_lsc is None:
            state.params = msg.params
        else:
            soft = forward(state.params, state.data)
            propagated = label_propagation(
                soft, state.data, hyper.lam, hyper.k_steps
            )
            local_lsc = compute_lsc(propagated, state.data)
            state.params = blend_local(
                msg.params, state.params, msg.cluster_lsc, local_lsc.clamped
            )
        state.tau = msg.round
    state.params = train_epoch(state.params, state.data, lr)
    soft = forward(state.params, state.data)
    sfm = compute_sfm(soft, state.data)
    propagated = label_propagation(soft, state.data, hyper.lam, hyper.k_steps)
    lsc = compute_lsc(propagated, state.data)
    return UploadMessage(state.params, state.tau, sfm, lsc, state.client_id)


def encode_upload(msg: UploadMessage) -> bytes:
    """[u32 client_id][u64 tau][params blob][u32 C][C^2 f64 SFM][f64 lsc_raw]"""
    c = msg.sfm.shape[0]
    return (
        struct.pack("<IQ", msg.client_id, msg.tau)
        + params_to_bytes(msg.params)
        + struct.pack("<I", c)
        + np.ascontiguousarray(msg.sfm, dtype="<f8").tobytes()
        + struct.pack("<d", msg.lsc.raw)
    )


def decode_upload(buf: bytes) -> UploadMessage:
    client_id, tau = struct.unpack_from("<IQ", buf, 0)
    params, used = params_from_bytes(buf, 12)
    pos = 12 + used
    (c,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    sfm = (
        np.frombuffer(buf, dtype="<f8", count=c * c, offset=pos)
        .astype(np.float64)
        .reshape(c, c)
    )
    pos += c * c * 8
    (lsc_raw,) = struct.unpack_from("<d", buf, pos)
    return UploadMessage(params, tau, sfm, LscValue.from_raw(lsc_raw), client_id)


def encode_download(msg: DownloadMessage) -> bytes:
    """[u64 round][u8 has_lsc][optional f64][params blob]"""
    head = struct.pack("<QB", msg.round, 1 if msg.cluster_lsc is not None else 0)
    if msg.cluster_lsc is not None:
        head += struct.pack("<d", msg.cluster_lsc)
    return head + params_to_bytes(msg.params)


def decode_download(buf: bytes) -> DownloadMessage:
    rnd, has_lsc = struct.unpack_from("<QB", buf, 0)
    pos = 9
    lsc = None
    if has_lsc:
        (lsc,) = struct.unpack_from("<d", buf, pos)
        pos += 8
    params, _ = params_from_bytes(buf, pos)
    return DownloadMessage(params, rnd, lsc)


def format_trace(round_: int, kind: str, dst: int, tau: int) -> str:
    """One delivery line for trace dumps."""
    return f"t={round_} kind={kind} src=server dst={dst} tau={tau}"
