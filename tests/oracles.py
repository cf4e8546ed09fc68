"""Naive double-loop reference implementations used as independent oracles.

Everything here is deliberately written with plain Python loops over edges
and entries, independent of the vectorized library code it checks.
"""

import heapq
import math
from collections import deque

import numpy as np

from fedgraphsim.gcn import LOG_CLAMP, PARAM_FIELDS, ModelParams, softmax_rows
from fedgraphsim.graphs import Graph, NodeMasks
from fedgraphsim.partition import ClientData, modularity


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


def label_propagation_ref(soft, edges, degs, lam, k_steps) -> np.ndarray:
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


def lsc_ref(propagated, degs) -> float:
    total = 0.0
    for i in range(propagated.shape[0]):
        plogp = 0.0
        for p in propagated[i]:
            if p > 0:
                plogp += p * math.log(p)
        total += degs[i] * (math.exp(-1.0) + plogp)
    return total


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
    """One shuffled pass of greedy moves over dict adjacency; True if any moved."""
    n = len(adj)
    comm_k = np.zeros(n)
    np.add.at(comm_k, comm, k)
    moved = False
    for v in rng.permutation(n):
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
            moved = True
    return moved


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

    The same seeded visit order, ascending candidate scan and strict-gain
    rule as partition._louvain_communities, written with plain loops.
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
        while True:
            moved = _louvain_local_move_ref(adj, k, m2, comm, rng)
            if modularity_trace is not None:
                modularity_trace.append(modularity(g, comm[membership]))
            if not moved:
                break
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


def random_graph_edges(rng, n, p=0.5):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges
