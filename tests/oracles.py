"""Naive double-loop reference implementations used as independent oracles.

Everything here is deliberately written with plain Python loops over edges
and entries, independent of the vectorized library code it checks. The
exception is the bit-exact section: earlier array versions of the client
kernels, of the event loop and of the fedsa_gcl server round, copied as
they were, which the current ones must match exactly (the round's models
within summation rounding, ``assert_within_sum_error``); and
``loss_and_grads``, the loss that the library's training step never computes.
"""

import heapq
import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from fedgraphsim import gcn, sim
from fedgraphsim.config import ExperimentConfig
from fedgraphsim.gcn import PARAM_FIELDS, ModelParams, evaluate, softmax_rows
from fedgraphsim.graphs import Csr, Graph, NodeMasks, SbmConfig, degrees, index_dtype
from fedgraphsim.kernels import ENTROPY_OFFSET, LscValue, cosine_block, staleness_factors
from fedgraphsim.partition import ClientData, TripPlan, modularity, spmm
from fedgraphsim.protocol import (
    ClientState,
    DownloadMessage,
    FedSaGclServer,
    Strategy,
    UploadMessage,
    client_trip,
    format_trace,
    server_receive,
    train_trips,
)


LOG_CLAMP = 1e-12
# Gradients share the parameter container (same shapes, entrywise layout).
Gradients = ModelParams


def loss_and_grads(p: ModelParams, cd: ClientData) -> tuple[float, Gradients]:
    """Mean train-mask cross-entropy and its analytic gradients, from the
    library's kernel call for the one client (row 0 of its gradients; training
    never needs the loss); the loss reads the train rows of the library's soft labels."""
    (block,) = gcn._blocks([(p, cd)])
    grads, train = Gradients.from_vector(block.gradients()[0], p.dims), cd.masks.train
    picked = np.clip(gcn.forward(p, cd)[train, cd.graph.labels[train]], LOG_CLAMP, None)
    return float(-np.mean(np.log(picked))), grads


def make_client_data(
    node_count, edges, num_classes, rng=None, feature_dim=None, train=None
) -> ClientData:
    """Small ClientData for kernel tests; features random, labels cyclic."""
    rng = rng or np.random.default_rng(0)
    feature_dim = feature_dim or 3
    features = rng.normal(size=(node_count, feature_dim))
    labels = np.arange(node_count) % num_classes
    g = Graph(node_count, np.array(edges, dtype=np.int64).reshape(-1, 2),
              features, labels, num_classes, feature_dim)
    ids = np.arange(node_count)
    if train is None:
        train = ids
    masks = NodeMasks(np.asarray(train), np.zeros(0, int), ids)
    return ClientData(g, ids, masks, 0)


def sbm_ref(cfg: SbmConfig) -> Graph:
    """``generate_sbm``'s procedure with explicit loops: the same geometric gaps,
    drawn one at a time in Python ints (so never clipped), first over the
    intra-block slots and then over the inter-block ones, each numbered row by
    row; a hit is placed by walking the rows; then the features, from the same
    stream."""
    block_of = [b for b, size in enumerate(cfg.block_sizes) for _ in range(size)]
    n = len(block_of)
    ends = [sum(cfg.block_sizes[: b + 1]) for b in block_of]
    rng = np.random.default_rng(cfg.seed)
    row_edges = [[] for _ in range(n)]
    for p, first, stop in ((cfg.intra_prob, lambda i: i + 1, lambda i: ends[i]),
                           (cfg.inter_prob, lambda i: ends[i], lambda i: n)):
        slots = sum(stop(i) - first(i) for i in range(n))
        if p == 0 or slots == 0:
            continue
        pos, row, row_start = -1, 0, 0
        while True:
            pos += int(rng.geometric(p))
            if pos >= slots:
                break
            while pos >= row_start + stop(row) - first(row):
                row_start += stop(row) - first(row)
                row += 1
            row_edges[row].append((row, first(row) + pos - row_start))
    edges = [e for row in row_edges for e in row]
    features = np.zeros((n, cfg.feature_dim))
    for i, b in enumerate(block_of):
        features[i, b % cfg.feature_dim] = 1.0
    features += rng.normal(0.0, cfg.feature_noise, size=(n, cfg.feature_dim))
    return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), features,
                 np.array(block_of), max(2, len(cfg.block_sizes)), cfg.feature_dim)


def random_soft(rng, n, c) -> np.ndarray:
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def degrees_ref(node_count, edges):
    d = [0] * node_count
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d


def sfm_ref(soft, edges, degs) -> np.ndarray:
    c = soft.shape[1]
    out = np.zeros((c, c))
    for u, v in edges:
        w = degs[u] * degs[v]
        for a in range(c):
            for b in range(c):
                out[a, b] += w * soft[u, a] * soft[v, b]
                out[a, b] += w * soft[v, a] * soft[u, b]
    return out


def gcn_adjacency_ref(node_count, edges) -> np.ndarray:
    """Dense GCN-normalized adjacency with self-loops, entry by entry."""
    degs = degrees_ref(node_count, edges)
    adj = np.zeros((node_count, node_count))
    for i in range(node_count):
        adj[i, i] = 1.0 / (degs[i] + 1)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0 / math.sqrt((degs[u] + 1) * (degs[v] + 1))
    return adj


def gcn_forward_ref(p: ModelParams, cd: ClientData):
    """The GCN forward pass associated hidden-wide, A_hat (X W0) and
    (A_hat h) W1, without the symmetry of A_hat: z0, A_hat h, soft labels."""
    adj = gcn_adjacency_ref(cd.graph.node_count, cd.graph.edges.tolist())
    z0 = adj @ (cd.graph.features @ p.w0) + p.b0
    ah = adj @ np.maximum(z0, 0.0)
    return z0, ah, softmax_rows(ah @ p.w1 + p.b1)


def gcn_loss_and_grads_ref(p: ModelParams, cd: ClientData):
    """Mean train-mask cross-entropy and its gradients by the chain rule in
    the hidden-wide order: dW1 = (A_hat h)^T dZ1, dH = A_hat (dZ1 W1^T),
    dW0 = X^T (A_hat dZ0)."""
    adj = gcn_adjacency_ref(cd.graph.node_count, cd.graph.edges.tolist())
    train, y = cd.masks.train, cd.graph.labels
    z0, ah, probs = gcn_forward_ref(p, cd)
    loss = float(-np.mean(np.log(np.clip(probs[train, y[train]], LOG_CLAMP, None))))
    d_z1 = np.zeros_like(probs)
    d_z1[train] = probs[train]
    d_z1[train, y[train]] -= 1.0
    d_z1 /= train.size
    d_z0 = adj @ (d_z1 @ p.w1.T) * (z0 > 0.0)
    d_w0 = cd.graph.features.T @ (adj @ d_z0)
    return loss, ModelParams(d_w0, d_z0.sum(axis=0), ah.T @ d_z1, d_z1.sum(axis=0))


def cosine_ref(a, b) -> float:
    fa = [float(x) for x in np.ravel(a)]
    fb = [float(x) for x in np.ravel(b)]
    dot = sum(x * y for x, y in zip(fa, fb))
    na = math.sqrt(sum(x * x for x in fa))
    nb = math.sqrt(sum(x * x for x in fb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def label_propagation_loop_ref(soft, edges, degs, lam, k_steps) -> np.ndarray:
    n, c = soft.shape
    neighbors = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    current = soft.copy()
    for _ in range(k_steps):
        nxt = np.zeros_like(current)
        for i in range(n):
            for j in range(c):
                acc = lam * soft[i, j]
                for nb in neighbors[i]:
                    acc += (1 - lam) * current[nb, j] / math.sqrt(degs[i] * degs[nb])
                nxt[i, j] = acc
            s = float(nxt[i].sum())
            if s == 0.0:
                nxt[i] = 1.0 / c
            else:
                nxt[i] = nxt[i] / s
        current = nxt
    return current


def lsc_loop_ref(propagated, degs) -> float:
    total = 0.0
    for i in range(propagated.shape[0]):
        plogp = 0.0
        for p in propagated[i]:
            if p > 0:
                plogp += p * math.log(p)
        total += degs[i] * (math.exp(-1.0) + plogp)
    return total


def as_scipy(m) -> sp.csr_matrix:
    """A plain CSR (``partition.Csr``: a trip plan's operator, a joined block
    diagonal, a layout's ``adj_t``) as a scipy matrix on the same arrays, so a
    reference's product, ``.toarray`` or ``.nnz`` is scipy's own."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


# Bit-exact references: the client kernels before spmm, the single gradient
# buffer and the in-place updates, copied verbatim (the sparse products go
# through csr_matrix.dot). The current kernels must equal them bit for bit.


def softmax_rows_ref(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward_cached_ref(p: ModelParams, cd: ClientData):
    z0 = cd.plan.ax @ p.w0 + p.b0
    h = np.maximum(z0, 0.0)
    z1 = as_scipy(cd.plan.adj).dot(h @ p.w1) + p.b1
    return z0, h, softmax_rows_ref(z1)


def loss_and_grads_ref(p: ModelParams, cd: ClientData):
    train = cd.masks.train
    z0, h, probs = forward_cached_ref(p, cd)
    y = cd.graph.labels
    picked = np.clip(probs[train, y[train]], LOG_CLAMP, None)
    loss = float(-np.mean(np.log(picked)))

    d_z1 = np.zeros_like(probs)
    d_z1[train] = probs[train]
    d_z1[train, y[train]] -= 1.0
    d_z1 /= train.size
    g = as_scipy(cd.plan.adj).dot(d_z1)
    d_w1 = h.T @ g
    d_b1 = d_z1.sum(axis=0)
    d_z0 = (g @ p.w1.T) * (z0 > 0.0)
    d_w0 = cd.plan.ax.T @ d_z0
    d_b0 = d_z0.sum(axis=0)
    return loss, ModelParams(d_w0, d_b0, d_w1, d_b1)


def train_epoch_ref(p: ModelParams, cd: ClientData, lr: float) -> ModelParams:
    return ModelParams.from_vector(p.vec - lr * loss_and_grads_ref(p, cd)[1].vec, p.dims)


# The per-client trip kernels as they were before trips trained in batches,
# copied verbatim (renamed): the batched kernels must equal them bit for bit.


def _softmax_rows_per_client(z: np.ndarray) -> np.ndarray:
    """Row softmax with per-row max subtraction."""
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _check_shapes_per_client(p: ModelParams, cd: ClientData):
    g = cd.graph
    if p.w0.shape[0] != g.feature_dim or p.w1.shape[1] != g.num_classes:
        raise ValueError(
            f"params for (feature, hidden, classes) {p.dims} do not match data "
            f"({g.feature_dim}, {g.num_classes})"
        )


def _forward_cached_per_client(p: ModelParams, cd: ClientData):
    """Forward pass keeping the intermediates needed by backprop."""
    z0 = cd.plan.ax @ p.w0 + p.b0
    h = np.maximum(z0, 0.0)
    z1 = spmm(cd.plan.adj, h @ p.w1)
    z1 += p.b1
    return z0, h, _softmax_rows_per_client(z1)


def forward_per_client(p: ModelParams, cd: ClientData) -> np.ndarray:
    """Soft labels: one probability row per local node."""
    _check_shapes_per_client(p, cd)
    return _forward_cached_per_client(p, cd)[2]


def _gradients_per_client(p: ModelParams, cd: ClientData, z0, h, probs) -> ModelParams:
    """Gradients of the mean train-mask cross-entropy, from the forward
    intermediates, written into one fresh vector laid out as ``p.vec``."""
    train, y = cd.masks.train, cd.graph.labels
    if train.size == 0:
        raise ValueError("cannot train with an empty train mask")
    d_z1 = np.zeros_like(probs)
    d_z1[train] = probs[train]
    d_z1[train, y[train]] -= 1.0
    d_z1 /= train.size
    g = spmm(cd.plan.adj, d_z1)
    grads = ModelParams.from_vector(np.empty_like(p.vec), p.dims)
    np.matmul(h.T, g, out=grads.w1)
    d_z1.sum(axis=0, out=grads.b1)
    d_z0 = g @ p.w1.T
    d_z0 *= z0 > 0.0
    np.matmul(cd.plan.ax.T, d_z0, out=grads.w0)
    d_z0.sum(axis=0, out=grads.b0)
    return grads


def train_epoch_per_client(p: ModelParams, cd: ClientData, lr: float) -> ModelParams:
    """One full-batch gradient step (= one local epoch = one trip's training)."""
    _check_shapes_per_client(p, cd)
    step = _gradients_per_client(p, cd, *_forward_cached_per_client(p, cd)).vec
    step *= lr
    np.subtract(p.vec, step, out=step)
    return ModelParams.from_vector(step, p.dims)


# The kernel call's gradient step as it was before its output layer ran on
# the train rows only, copied verbatim but for the train rows, their labels and
# count, read from the members' ClientData (a function of the call): softmax,
# dZ1 and g = A_hat dZ1 over every row of the call's layout. The train-row step
# must equal it bit for bit on the same layout, whatever BLAS kernel runs.


def gradients_full_rows(block, datas) -> np.ndarray:
    """Each member's gradients, in one fresh array laid out as ``block.vecs``;
    ``datas`` holds the members' ClientData in order."""
    lay = block.layout
    w, c = gcn._fields(block.vecs, block.dims), block.dims[2]
    z0 = lay.ax @ w[0]
    z0 += w[1]
    h = np.maximum(z0, 0.0)
    z1 = spmm(lay.plan.adj, (h @ w[2]).reshape(-1, c)).reshape(h.shape[:-1] + (-1,))
    z1 += w[3]
    probs = z1 - z1.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    d_z1 = np.zeros_like(probs)
    flat = d_z1.reshape(-1, c)
    n, t = datas[0].graph.node_count, datas[0].masks.train.size
    train = np.concatenate([cd.masks.train + k * n for k, cd in enumerate(datas)])
    labels = np.concatenate([cd.graph.labels[cd.masks.train] for cd in datas])
    flat[train] = probs.reshape(-1, c)[train]
    flat[train, labels] -= 1.0
    d_z1 /= t
    g = spmm(lay.plan.adj, flat).reshape(d_z1.shape)
    grads = np.empty_like(block.vecs)
    g_w0, g_b0, g_w1, g_b1 = gcn._fields(grads, block.dims)
    np.matmul(np.swapaxes(h, -1, -2), g, out=g_w1)
    d_z1.sum(axis=-2, out=g_b1[..., 0, :])
    d_z0 = g @ np.swapaxes(w[2], -1, -2)
    d_z0 *= z0 > 0.0
    np.matmul(np.swapaxes(lay.ax, -1, -2), d_z0, out=g_w0)
    d_z0.sum(axis=-2, out=g_b0[..., 0, :])
    return grads


def run_simulation_one_event_at_a_time(cfg: ExperimentConfig, seed: int):
    """The event loop as it was before same-time trips trained in batches:
    each popped event opens its mailbox and runs its whole trip (a batch of
    one) before the next event pops. Returns the log, whose records replay
    nothing, and every client's accuracy after each trip, copied eagerly."""
    clients_data, durations, initial = sim.prepare_clients(cfg, seed)
    for cd, plan in zip(clients_data, TripPlan.build_all(clients_data)):
        cd.plan = plan
    active = [cd.masks.train.size > 0 for cd in clients_data]
    server = sim.make_server(cfg, clients_data, active, initial)
    clients = [ClientState(cd.client_id, cd, initial.copy()) for cd in clients_data]
    cached = np.array(
        [evaluate(c.params, c.data, "test") for c in clients], dtype=np.float64
    )
    log = sim.MetricsLog(
        records=[],
        seed=seed,
        config_hash=cfg.config_hash(),
        strategy=cfg.strategy.value,
        initial_accs=tuple(cached.tolist()),
        initial_mean_acc=float(cached.mean()),
        durations=tuple(int(d) for d in durations),
    )
    heap = sorted(
        sim.Event(int(durations[cid]), cid) for cid, act in enumerate(active) if act
    )
    gated: set[int] = set()
    trips, snapshots = 0, []
    while trips < cfg.max_trips and heap:
        ev = heapq.heappop(heap)
        now, cid = ev.completion_time, ev.client_id
        client = clients[cid]
        trained = train_trips([client], server.mailboxes, cfg.lr, hyper=server.hyper,
                              sfm=server.reads_sfm)
        upload, _ = client_trip(client, trained)
        trips += 1
        cached[cid] = evaluate(upload.params, client.data, "test")
        mean = float(cached.sum() / cached.size)
        log.records.append(sim.TripRecord(trips, now, cid, float(cached[cid]), mean))
        snapshots.append(cached.copy())
        deliveries = server_receive(server, upload)
        for d_cid, d_msg in deliveries:
            if cfg.strategy == Strategy.FEDSA_GCL:
                kind = "personal" if d_msg.cluster_lsc is None else "broadcast"
            else:
                kind = "baseline"
            log.trace.append(format_trace(d_msg.round, kind, d_cid))
        if server.waits_for_round:  # the round's delivery releases its clients
            gated.add(cid)
            ready = [d_cid for d_cid, _ in deliveries if d_cid in gated]
            gated.difference_update(ready)
        else:
            ready = [cid]
        for r_cid in ready:
            heapq.heappush(heap, sim.Event(now + int(durations[r_cid]), r_cid))
    log.aggregation_log = list(server.aggregation_log)
    return log, snapshots


def weighted_row_sum_ref(rows: np.ndarray, weights) -> np.ndarray:
    """sum_j weights[j] * rows[j], adding the scaled rows one after another."""
    acc = np.zeros(rows.shape[1])
    for w, row in zip(weights, rows):
        acc = acc + w * row
    return acc


def assert_within_sum_error(got, want, weights, rows):
    """Two float64 evaluations of weights @ rows, in any summation order, agree
    entry by entry to twice the forward error bound of one: each lies within
    gamma_n * (|weights| @ |rows|) of the exact sum, gamma_n = n u / (1 - n u)
    for n terms and unit roundoff u = 2**-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 3.1). The last factor covers
    the rounding of that bound's own product."""
    n = len(weights)
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    bound = 2.0 * gamma / (1.0 - gamma) * (np.abs(weights) @ np.abs(rows))
    assert np.all(np.abs(np.asarray(got) - want) <= bound)


class FedSaGclServerRef(FedSaGclServer):
    """The fedsa_gcl round as it was before each round built all its cluster
    models in one product: every upload enters the knowledge base on its own,
    with the fingerprint and confidence it carries, every uploader's model is
    the row-by-row sum of its cluster's weighted rows, and a broadcast carries
    its recipient's knowledge-base confidence."""

    def receive(self, msg: UploadMessage):
        self.queue.append(msg)
        if len(self.queue) < self.k:
            return []
        self.round += 1
        t = self.round
        for m in self.queue:
            self.kb.put([m])
        u_ids = np.array(sorted({m.client_id for m in self.queue}))
        self.queue.clear()
        kb = self.kb
        ids = np.flatnonzero(kb.known)
        own = ids == u_ids[:, None]
        member = own
        if self.use_clustering:
            sims = cosine_block(
                kb.sfm[u_ids], kb.sfm[ids], kb.sfm_norm[u_ids], kb.sfm_norm[ids]
            )
            member = own | (sims >= self.hyper.theta)
        stale = staleness_factors(kb.lsc[ids], kb.tau[ids], t, self.hyper.alpha)
        deliveries = []
        models, lsc_sums = [], []
        for i, in_cluster in zip(u_ids.tolist(), member):
            members = np.flatnonzero(in_cluster)
            u = stale[members]
            weights = u / u.sum()
            rows = ids[members]
            model_i = ModelParams.from_vector(
                weighted_row_sum_ref(kb.params[rows], weights), kb.dims
            )
            self.aggregation_log.append(
                (t, i, tuple(rows.tolist()), tuple(weights.tolist()))
            )
            deliveries.append((i, DownloadMessage(model_i, t, None, "personal")))
            models.append(model_i)
            lsc_sums.append(sum(kb.lsc[rows].tolist()))
        if self.use_broadcast and self.use_clustering:  # singletons reach no one
            reach = member & ~own.any(axis=0)
            targets = np.flatnonzero(reach.any(axis=0))
            sources = np.where(reach, sims, -np.inf)[:, targets].argmax(axis=0)
            for s, k in zip(ids[targets].tolist(), sources.tolist()):
                deliveries.append(
                    (s, DownloadMessage(models[k], t, lsc_sums[k], "broadcast", kb.lsc[s].item()))
                )
        return deliveries


def accuracy_ref(probs, cd: ClientData, mask) -> float:
    pred = np.argmax(probs[mask], axis=1)
    return float(np.mean(pred == cd.graph.labels[mask]))


def label_propagation_ref(soft, cd: ClientData, lam, k_steps) -> np.ndarray:
    if k_steps == 0:
        return soft.copy()
    prop = as_scipy(cd.plan.prop)
    c = soft.shape[1]
    current = soft
    for _ in range(k_steps):
        mixed = lam * soft + (1.0 - lam) * prop.dot(current)
        sums = mixed.sum(axis=1, keepdims=True)
        dead = sums[:, 0] == 0.0
        if np.any(dead):
            mixed[dead] = 1.0 / c
            sums = mixed.sum(axis=1, keepdims=True)
        current = mixed / sums
    return current


def compute_lsc_ref(propagated, cd: ClientData) -> float:
    d = cd.plan.deg
    p = propagated
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(np.sum(d * (ENTROPY_OFFSET + plogp.sum(axis=1))))


def compute_sfm_ref(soft, cd: ClientData) -> np.ndarray:
    one_way = soft.T @ as_scipy(cd.plan.edge_w).dot(soft)
    return one_way + one_way.T


def upload_stats_ref(soft, cd: ClientData, lam, k_steps) -> tuple:
    """The fingerprint and confidence (``LscValue``) of one client's soft labels."""
    lsc = compute_lsc_ref(label_propagation_ref(soft, cd, lam, k_steps), cd)
    return compute_sfm_ref(soft, cd), LscValue.from_raw(lsc)


# Scipy-built references: the set-up operators as scipy's csr_matrix built
# them before the library built its own CSR arrays, copied as they were. The
# library's must equal them array for array (a @ P entry for entry).


def normalized_adjacency_ref(g: Graph) -> sp.csr_matrix:
    n = g.node_count
    inv = 1.0 / np.sqrt(degrees(g).astype(np.float64) + 1.0)
    diag = np.arange(n, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([u, v, diag])
    cols = np.concatenate([v, u, diag])
    vals = inv[rows] * inv[cols]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def propagation_matrix_ref(g: Graph) -> sp.csr_matrix:
    n = g.node_count
    d = degrees(g).astype(np.float64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = 1.0 / np.sqrt(d[rows] * d[cols])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def edge_weights_ref(g: Graph) -> sp.csr_matrix:
    deg, (u, v) = degrees(g).astype(np.float64), g.edges.T
    return sp.csr_matrix((deg[u] * deg[v], (u, v)), shape=(g.node_count,) * 2)


def adjacency_ref(g: Graph) -> sp.csr_matrix:
    ends = np.concatenate([g.edges, g.edges[:, ::-1]]).T
    return sp.csr_matrix((np.ones(ends.shape[1]), tuple(ends)), shape=(g.node_count,) * 2)


def coarsen_ref(a, mapping) -> sp.csr_matrix:
    """A Louvain level coarsened to its communities, P.T @ A @ P."""
    n_level = a.shape[0]
    p = sp.csr_matrix((np.ones(n_level), (np.arange(n_level), mapping)))
    return (p.T @ as_scipy(a) @ p).tocsr()


def community_weights_ref(a, at) -> sp.csr_matrix:
    """a @ P, P the node -> community indicator of ``at``: the product each row
    block of a Louvain level is coarsened through."""
    n = len(at)
    return as_scipy(a) @ sp.csr_matrix((np.ones(n), at, np.arange(n + 1)), shape=(n, n))


def trip_plan_ref(g: Graph) -> TripPlan:
    """One graph's trip plan built on its own by scipy, which TripPlan.build_all
    must equal bit for bit."""
    adj = normalized_adjacency_ref(g)
    return TripPlan(adj, adj.dot(g.features), propagation_matrix_ref(g),
                    degrees(g).astype(np.float64), edge_weights_ref(g))


def csr_mismatches(m, ref, name: str = "csr") -> list[str]:
    """The parts in which two CSRs (a ``Csr`` or a scipy matrix) differ: the
    shape, or the dtype or bits of indptr, indices or data."""
    bad = [f"{name}.shape"] if m.shape != ref.shape else []
    for part in ("indptr", "indices", "data"):
        x, y = getattr(m, part), getattr(ref, part)
        if x.dtype != y.dtype or x.tobytes() != y.tobytes():
            bad.append(f"{name}.{part}")
    return bad


def plan_mismatches(plan: TripPlan, ref: TripPlan) -> list[str]:
    """The parts in which two trip plans differ, compared bit for bit, dtypes
    and shapes too."""
    bad = [b for name in ("adj", "prop", "edge_w")
           for b in csr_mismatches(getattr(plan, name), getattr(ref, name), name)]
    for name in ("ax", "deg"):
        x, y = getattr(plan, name), getattr(ref, name)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            bad.append(name)
    return bad


# The kernel calls' operators as they were joined before a call gathered them
# from its run's joined plan: ``block_diag`` of the members' plans, copied
# verbatim. A call's gathered operators must equal it array for array.


def block_diag(mats: list[Csr]) -> Csr:
    """Square CSR blocks on one diagonal, back to back (a lone block is itself), each
    row's values in order, as one ``Csr`` with int32 indices while they fit."""
    if len(mats) == 1:  # a lone client's kernel call runs on its own operators, copying none
        return mats[0]
    n = np.array([m.shape[0] for m in mats])
    nnz = np.cumsum([0] + [m.data.size for m in mats])
    index = index_dtype(n.sum(), nnz[-1])
    starts, nnz = (np.cumsum(n) - n).astype(index), nnz.astype(index)
    indptr = np.concatenate([m.indptr[:-1] for m in mats] + [nnz[-1:]], dtype=index)
    indptr[:-1] += np.repeat(nnz[:-1], n)
    indices = np.concatenate([m.indices for m in mats], dtype=index) + starts.repeat(np.diff(nnz))
    data = np.concatenate([m.data for m in mats])
    return Csr(data, indices, indptr, (int(n.sum()),) * 2)


def call_plan_ref(datas) -> TripPlan:
    """The members' plans joined as a kernel call's: each operator by
    ``block_diag``, ``ax`` and ``deg`` back to back (a lone member's own)."""
    plans = [cd.plan for cd in datas]
    if len(plans) == 1:
        return plans[0]
    ops = {name: [getattr(p, name) for p in plans]
           for name in ("adj", "ax", "prop", "deg", "edge_w")}
    return TripPlan(block_diag(ops["adj"]), np.concatenate(ops["ax"]), block_diag(ops["prop"]),
                    np.concatenate(ops["deg"]), block_diag(ops["edge_w"]))


def staleness_ref(lscs_clamped, taus, t, alpha):
    u = [l * (t - tau) ** (-alpha) for l, tau in zip(lscs_clamped, taus)]
    s = sum(u)
    return [x / s for x in u]


def aggregate_ref(params_list, weights) -> ModelParams:
    out = []
    for name in PARAM_FIELDS:
        arrs = [getattr(p, name) for p in params_list]
        acc = np.zeros_like(arrs[0])
        flat_acc = acc.reshape(-1)
        for w, arr in zip(weights, arrs):
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                flat_acc[idx] += w * flat[idx]
        out.append(acc)
    return ModelParams(*out)


def blend_ref(server_p, local_p, cluster_lsc, local_lsc) -> ModelParams:
    a = cluster_lsc / (cluster_lsc + local_lsc)
    return aggregate_ref([server_p, local_p], [a, 1.0 - a])


def modularity_ref(node_count, edges, comm_of) -> float:
    m = len(edges)
    if m == 0:
        return 0.0
    degs = degrees_ref(node_count, edges)
    intra = sum(1 for u, v in edges if comm_of[u] == comm_of[v])
    comm_deg = {}
    for v in range(node_count):
        comm_deg[comm_of[v]] = comm_deg.get(comm_of[v], 0) + degs[v]
    return intra / m - sum((d / (2 * m)) ** 2 for d in comm_deg.values())


def _louvain_local_move_ref(adj, k, m2, comm, rng):
    """Fast local moving over dict adjacency: a FIFO queue of every node in one
    shuffled order; a node that moves queues, in ascending id, each neighbour
    outside its new community that is not queued. Stops when the queue is empty."""
    n = len(adj)
    comm_k = np.zeros(n)
    np.add.at(comm_k, comm, k)
    queue = deque(rng.permutation(n).tolist())
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.remove(v)
        b = comm[v]
        k_v = k[v]
        w_to = {}
        for u, w in adj[v].items():
            c = comm[u]
            w_to[c] = w_to.get(c, 0.0) + w
        comm_k[b] -= k_v
        stay_gain = w_to.get(b, 0.0) - k_v * comm_k[b] / m2
        best_c, best_gain = b, stay_gain
        for c in sorted(w_to):
            if c == b:
                continue
            gain = w_to[c] - k_v * comm_k[c] / m2
            if gain > best_gain:
                best_c, best_gain = c, gain
        comm[v] = best_c
        comm_k[best_c] += k_v
        if best_c != b:
            for u in sorted(adj[v]):
                if u not in queued and comm[u] != best_c:
                    queue.append(u)
                    queued.add(u)


def _louvain_coarsen_ref(adj, loops, comm):
    """Communities as super-nodes; returns (adj, loops, mapping)."""
    ids = sorted(set(comm.tolist()))
    remap = {c: i for i, c in enumerate(ids)}
    mapping = np.array([remap[c] for c in comm], dtype=np.int64)
    new_adj = [dict() for _ in ids]
    new_loops = np.zeros(len(ids))
    for v, nbrs in enumerate(adj):
        cv = mapping[v]
        new_loops[cv] += loops[v]
        for u, w in nbrs.items():
            if u < v:
                continue
            cu = mapping[u]
            if cu == cv:
                new_loops[cv] += w
            else:
                new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
                new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
    return new_adj, new_loops, mapping


def louvain_ref(g: Graph, seed: int, modularity_trace=None) -> np.ndarray:
    """Two-phase Louvain on dict-of-dict adjacency, self-loops kept apart.

    The same seeded visit order and queue, ascending candidate scan and
    strict-gain rule as partition._louvain_communities, written with plain
    loops; modularity_trace gets one value per level.
    """
    n = g.node_count
    membership = np.arange(n, dtype=np.int64)
    if g.edge_count == 0:
        return membership
    rng = np.random.default_rng(seed)
    adj = [dict() for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = adj[u].get(v, 0.0) + 1.0
        adj[v][u] = adj[v].get(u, 0.0) + 1.0
    loops = np.zeros(n)
    while True:
        n_level = len(adj)
        k = np.array([sum(d.values()) for d in adj]) + 2.0 * loops
        m2 = float(k.sum())
        comm = np.arange(n_level, dtype=np.int64)
        _louvain_local_move_ref(adj, k, m2, comm, rng)
        if modularity_trace is not None:
            modularity_trace.append(modularity(g, comm[membership]))
        if len(set(comm.tolist())) == n_level:
            break
        adj, loops, mapping = _louvain_coarsen_ref(adj, loops, comm)
        membership = mapping[membership]
    ids = {c: i for i, c in enumerate(sorted(set(membership.tolist())))}
    return np.array([ids[c] for c in membership], dtype=np.int64)


def _bfs_distances_ref(adj_sorted, start, n) -> np.ndarray:
    dist = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    q = deque([start])
    while q:
        v = q.popleft()
        for u in adj_sorted[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def _spread_seeds_ref(adj_sorted, n, n_clients, rng) -> list[int]:
    """Farthest-point seeds: the first is the BFS-farthest node from a random
    start (unreachable nodes first, ties to the lowest id); each further seed
    maximizes the minimum BFS distance over every earlier seed's array."""

    def farthest(dist_arrays):
        mindist = np.min(np.stack(dist_arrays), axis=0)
        unreached = np.flatnonzero(mindist < 0)
        if unreached.size:
            return int(unreached[0])
        return int(np.argmax(mindist))

    start = int(rng.integers(n))
    seeds = [farthest([_bfs_distances_ref(adj_sorted, start, n)])]
    dists = [_bfs_distances_ref(adj_sorted, seeds[0], n)]
    while len(seeds) < n_clients:
        masked = [np.where(d < 0, np.iinfo(np.int64).max, d) for d in dists]
        mindist = np.min(np.stack(masked), axis=0)
        mindist[seeds] = -1
        nxt = int(np.argmax(mindist))
        seeds.append(nxt)
        dists.append(_bfs_distances_ref(adj_sorted, nxt, n))
    return seeds


def balanced_ref(g: Graph, n_clients: int, seed: int) -> np.ndarray:
    """partition.balanced_partition's client_of, written with plain loops.

    Python BFS per seed, every earlier seed's distances re-stacked for each
    new seed, and for each claim a scan of all clients for the smallest
    (size, client id).
    """
    n = g.node_count
    nbrs = [set() for _ in range(n)]
    for u, v in g.edges.tolist():
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    adj_sorted = [sorted(s) for s in nbrs]
    rng = np.random.default_rng(seed)
    seeds = _spread_seeds_ref(adj_sorted, n, n_clients, rng)
    client_of = np.full(n, -1, dtype=np.int64)
    # per client: lazy max-heap of (-attachment, node) plus current counts
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(n_clients)]
    attach: list[dict[int, int]] = [dict() for _ in range(n_clients)]
    sizes = [0] * n_clients
    lowest_unclaimed = 0
    claimed = 0

    def claim(cid: int, node: int):
        nonlocal claimed
        client_of[node] = cid
        sizes[cid] += 1
        claimed += 1
        attach[cid].pop(node, None)
        for u in adj_sorted[node]:
            if client_of[u] < 0:
                cnt = attach[cid].get(u, 0) + 1
                attach[cid][u] = cnt
                heapq.heappush(heaps[cid], (-cnt, u))

    for cid, s in enumerate(seeds):
        claim(cid, s)
    while claimed < n:
        cid = min(range(n_clients), key=lambda c: (sizes[c], c))
        node = -1
        heap = heaps[cid]
        while heap:
            neg_cnt, cand = heapq.heappop(heap)
            if client_of[cand] < 0 and attach[cid].get(cand) == -neg_cnt:
                node = cand
                break
        if node < 0:
            while client_of[lowest_unclaimed] >= 0:
                lowest_unclaimed += 1
            node = lowest_unclaimed
        claim(cid, node)
    # clients numbered by their lowest node id
    order = sorted(range(n_clients), key=lambda c: int(np.flatnonzero(client_of == c)[0]))
    relabel = np.empty(n_clients, dtype=np.int64)
    relabel[order] = np.arange(n_clients)
    return relabel[client_of]


# The partition step's helpers as they were before the one-accumulator move,
# the heap coalescing and the pruned seed search, copied verbatim (renamed):
# the current ones must give the same result.


def move_ref(v, nbrs, wts, k, m2, comm, comm_k) -> bool:
    """Move v to the neighbour community of largest gain (ascending id scan), if
    strictly above its stay gain; updates comm and comm_k, True when v moved."""
    b, k_v = comm[v], k[v]
    w_to: dict[int, float] = {}
    for u, w in zip(nbrs[v], wts[v]):
        c = comm[u]
        w_to[c] = w_to.get(c, 0.0) + w
    comm_k[b] -= k_v
    best_c, best_gain = b, w_to.pop(b, 0.0) - k_v * comm_k[b] / m2
    for c in sorted(w_to):
        gain = w_to[c] - k_v * comm_k[c] / m2
        if gain > best_gain:
            best_c, best_gain = c, gain
    comm[v] = best_c
    comm_k[best_c] += k_v
    return best_c != b


def coalesce_ref(groups: list[list[int]], n_clients: int) -> list[list[int]]:
    """Merge or split node groups until exactly n_clients remain.

    Too many groups: repeatedly merge the smallest group into the smallest
    remaining one (ties broken by lowest contained node id). Too few:
    repeatedly split the largest group in half by ascending node id.
    """
    groups = [sorted(grp) for grp in groups]
    while len(groups) > n_clients:
        order = sorted(range(len(groups)), key=lambda i: (len(groups[i]), groups[i][0]))
        small, target = order[0], order[1]
        groups[target] = sorted(groups[target] + groups[small])
        del groups[small]
    while len(groups) < n_clients:
        order = sorted(range(len(groups)), key=lambda i: (-len(groups[i]), groups[i][0]))
        big = groups[order[0]]
        half = (len(big) + 1) // 2
        groups[order[0]] = big[:half]
        groups.append(big[half:])
    return groups


def spread_seeds_ref(a, n_clients: int, rng) -> list[int]:
    """Farthest-point seed selection, robust to the random starting node.

    The node farthest in hops from a random start is the first seed; each
    further seed maximizes the running minimum hop distance to the seeds so
    far (chosen seeds held at -1). An unreached node is at distance inf, and
    np.argmax takes the first maximum: unreached nodes win, ties go to the
    lowest id.
    """
    from scipy.sparse.csgraph import shortest_path  # imported on use: ~10 MiB RSS
    a, n = as_scipy(a), a.shape[0]
    start = rng.integers(n)
    seeds = [int(np.argmax(shortest_path(a, unweighted=True, indices=start)))]
    mindist = np.full(n, np.inf)
    while len(seeds) < n_clients:
        mindist = np.minimum(mindist, shortest_path(a, unweighted=True, indices=seeds[-1]))
        mindist[seeds[-1]] = -1
        seeds.append(int(np.argmax(mindist)))
    return seeds


def all_set_partitions(items):
    """Every partition of a list into nonempty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def random_params(rng, f, h, c, scale=1.0) -> ModelParams:
    return ModelParams(
        rng.normal(scale=scale, size=(f, h)),
        rng.normal(scale=scale, size=h),
        rng.normal(scale=scale, size=(h, c)),
        rng.normal(scale=scale, size=c),
    )


def batch_client(rng, n, q, f=6, c=3, edges=None, h=5):
    """A client of n nodes on a random graph (or the given edges), half its
    nodes training, with random params; every client of a batch shares f, h, c."""
    cd = make_client_data(
        n, random_graph_edges(rng, n, q) if edges is None else edges, num_classes=c,
        rng=rng, feature_dim=f, train=np.sort(rng.choice(n, size=max(1, n // 2), replace=False)),
    )
    return random_params(rng, f, h, c), cd


def random_graph_edges(rng, n, p=0.5):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges
