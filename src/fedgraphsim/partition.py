"""Splitting a global graph into client subgraphs, plus robustness perturbations."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.csgraph import shortest_path

from .graphs import (
    Graph,
    NodeMasks,
    degrees,
    normalized_adjacency,
    propagation_matrix,
    split_masks,
)


@dataclass
class CommunityAssignment:
    """Node -> client map; every client id in [0, num_clients) owns >= 1 node."""

    client_of: np.ndarray
    num_clients: int

    def __post_init__(self):
        self.client_of = np.asarray(self.client_of, dtype=np.int64)
        counts = np.bincount(self.client_of, minlength=self.num_clients)
        if counts.size != self.num_clients or counts.min() < 1:
            raise ValueError("every client must own at least one node")


@dataclass(frozen=True)
class TripPlan:
    """The operators every trip of one client reuses: ``adj`` (A_hat, the
    GCN-normalized adjacency), ``ax`` (A_hat @ X), ``prop`` (label
    propagation's P), ``deg`` (float raw degrees) and ``edge_w`` (upper
    triangle, d_u * d_v at each edge (u, v))."""

    adj: sp.csr_matrix
    ax: np.ndarray
    prop: sp.csr_matrix
    deg: np.ndarray
    edge_w: sp.csr_matrix

    @classmethod
    def build_all(cls, graphs: list[Graph]) -> list["TripPlan"]:
        """Each graph's plan (all share one feature_dim) from one block-diagonal
        pass that cuts each graph's rows out of the joined operators: bit for bit
        its plan alone, as every stored value comes from its own nodes' degrees,
        no edge joins two blocks and A_hat X is computed row by row."""
        starts = np.cumsum([0] + [g.node_count for g in graphs])
        edges = np.concatenate([g.edges + s for g, s in zip(graphs, starts.tolist())])
        # canonical already (each graph's edges are, and the offsets grow), so
        # a Graph's sort and checks would only repeat work
        joined = SimpleNamespace(node_count=int(starts[-1]), edges=edges, edge_count=len(edges))
        adj, deg, (u, v) = normalized_adjacency(joined), degrees(joined).astype(float), edges.T
        w = sp.csr_matrix((deg[u] * deg[v], (u, v)), shape=adj.shape)
        ax = adj.dot(np.concatenate([g.features for g in graphs]))
        prop = propagation_matrix(joined)

        def block(m: sp.csr_matrix, s: int, e: int) -> sp.csr_matrix:
            lo, hi = m.indptr[s], m.indptr[e]
            parts = (m.data[lo:hi], m.indices[lo:hi] - s, m.indptr[s : e + 1] - lo)
            return sp.csr_matrix(parts, shape=(e - s, e - s))

        return [
            cls(block(adj, s, e), ax[s:e], block(prop, s, e), deg[s:e], block(w, s, e))
            for s, e in zip(starts[:-1].tolist(), starts[1:].tolist())
        ]


def block_diag(mats: list[sp.csr_matrix], rows: int | None = None):
    """Square CSR blocks on one diagonal, back to back (a lone block is itself)
    or block k at k * ``rows`` (rows past a block's own are empty), each row's
    values in order. Returns the joined matrix and each block row's joined row."""
    if len(mats) == 1 and rows is None:
        return mats[0], np.arange(mats[0].shape[0])
    n = np.array([m.shape[0] for m in mats])
    span = n if rows is None else np.full(n.size, rows)
    nnz = np.cumsum([0] + [m.data.size for m in mats])
    index = sp.get_index_dtype(maxval=max(span.sum(), nnz[-1]))  # so scipy scans no index
    starts, nnz = (np.cumsum(span) - span).astype(index), nnz.astype(index)
    real = np.arange(n.sum()) + np.repeat(starts - np.cumsum(n) + n, n)  # the blocks' rows
    indptr = np.append(np.repeat(nnz[1:], span), nnz[-1])  # a padded row is empty
    indptr[real] = np.concatenate([m.indptr[:-1] for m in mats]) + np.repeat(nnz[:-1], n)
    indices = np.concatenate([m.indices for m in mats]) + np.repeat(starts, np.diff(nnz))
    data = np.concatenate([m.data for m in mats])
    return sp.csr_matrix((data, indices, indptr), shape=(int(span.sum()),) * 2), real


def spmm(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a float64 CSR ``a`` and a 2-D float64 ``x``, as a new array.

    On tiny client subgraphs scipy's dispatch costs twice the product, so this
    calls the kernel ``csr_matrix.dot`` ends in (``_matmul_multivector``) with
    the same arguments and a fresh zero output: ``a @ x`` bit for bit. The
    kernel is private to scipy and there is no fallback: if a scipy release
    changes it, tests/test_partition.py::TestSpmm fails.
    """
    (m, n), k = a.shape, x.shape[1]
    y = np.zeros((m, k))
    csr_matvecs(m, n, k, a.indptr, a.indices, a.data, x.ravel(), y.ravel())
    return y


@dataclass(eq=False)
class ClientData:
    """One client's induced subgraph with masks, the local -> global id map
    and its trip plan, built on first use (a perturbation makes a new one)."""

    graph: Graph
    global_ids: np.ndarray
    masks: NodeMasks
    client_id: int

    @cached_property
    def plan(self) -> TripPlan:
        return TripPlan.build_all([self.graph])[0]


def modularity(g: Graph, comm_of: np.ndarray) -> float:
    """Newman modularity (resolution 1) of a partition of g."""
    m = g.edge_count
    if m == 0:
        return 0.0
    comm_of = np.asarray(comm_of)
    deg = degrees(g).astype(np.float64)
    intra = np.count_nonzero(comm_of[g.edges[:, 0]] == comm_of[g.edges[:, 1]])
    deg_per_comm = np.bincount(comm_of, weights=deg)
    return intra / m - float(np.sum((deg_per_comm / (2.0 * m)) ** 2))


def _local_move(nbrs, wts, k, m2, comm, rng):
    """One pass of greedy modularity moves over all nodes in shuffled order.

    nbrs[v] and wts[v] list v's neighbours (self excluded) and edge weights;
    k, comm and the community degree totals are plain lists, so the loop
    indexes no numpy scalar. Returns True when at least one node moved. comm
    is updated in place; every accepted move strictly increases modularity.
    """
    comm_k = np.bincount(comm, weights=k, minlength=len(k)).tolist()
    moved = False
    for v in rng.permutation(len(k)).tolist():
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
        moved = moved or best_c != b
    return moved


def _adjacency(g: Graph) -> sp.csr_matrix:
    """Symmetric CSR adjacency of g, weight 1 per edge, indices sorted per row."""
    ends = np.concatenate([g.edges, g.edges[:, ::-1]]).T
    return sp.csr_matrix((np.ones(ends.shape[1]), tuple(ends)), shape=(g.node_count,) * 2)


def _neighbour_lists(a: sp.csr_matrix):
    """Per-node neighbour and weight lists of a CSR level, its diagonal left out."""
    a = a - sp.diags(a.diagonal(), format="csr")
    ptr, idx, w = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    spans = list(zip(ptr, ptr[1:]))
    return [idx[i:j] for i, j in spans], [w[i:j] for i, j in spans]


def _louvain_communities(g: Graph, seed: int, modularity_trace=None) -> np.ndarray:
    """Two-phase Louvain to convergence; returns community id per node.

    Each level is one symmetric weighted CSR whose diagonal holds twice the
    self-loop weight, so a node's degree k is its row sum; coarsening is
    P.T @ A @ P with P the node -> community indicator.
    """
    n = g.node_count
    membership = np.arange(n, dtype=np.int64)
    if g.edge_count == 0:
        return membership
    rng = np.random.default_rng(seed)
    a = _adjacency(g)
    while True:
        n_level = a.shape[0]
        k = np.asarray(a.sum(axis=1)).ravel().tolist()
        m2 = float(sum(k))
        nbrs, wts = _neighbour_lists(a)
        comm = list(range(n_level))
        while True:
            moved = _local_move(nbrs, wts, k, m2, comm, rng)
            if modularity_trace is not None:
                modularity_trace.append(modularity(g, np.array(comm)[membership]))
            if not moved:
                break
        if len(set(comm)) == n_level:
            break
        mapping = np.unique(comm, return_inverse=True)[1]
        p = sp.csr_matrix((np.ones(n_level), (np.arange(n_level), mapping)))
        a = (p.T @ a @ p).tocsr()
        membership = mapping[membership]
    return np.unique(membership, return_inverse=True)[1].astype(np.int64)


def _coalesce(groups: list[list[int]], n_clients: int) -> list[list[int]]:
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


def _groups_to_assignment(groups, node_count, n_clients) -> CommunityAssignment:
    groups = sorted((sorted(grp) for grp in groups), key=lambda grp: grp[0])
    client_of = np.full(node_count, -1, dtype=np.int64)
    for cid, grp in enumerate(groups):
        client_of[grp] = cid
    return CommunityAssignment(client_of, n_clients)


def louvain_partition(
    g: Graph, n_clients: int, seed: int, modularity_trace: list | None = None
) -> CommunityAssignment:
    """Louvain communities coalesced into exactly n_clients clients.

    Node visit order within each local-moving pass is shuffled by the seed
    (one rng.permutation per pass); a node scans its neighbour communities
    in ascending id and moves only on a strictly larger gain, so it stays on
    a tie. The result does not depend on summation order: every edge weight,
    degree and 2m is an integer-valued float below 2**53, so each sum is
    exact, and each gain is w - (k_v * tot_c) / 2m in float64. When
    modularity_trace is given, the partition's modularity on the original
    graph is appended after every pass (monotone nondecreasing).
    """
    if not 1 <= n_clients <= g.node_count:
        raise ValueError("n_clients must be in [1, node_count]")
    comm = _louvain_communities(g, seed, modularity_trace)
    groups = [np.flatnonzero(comm == c).tolist() for c in range(comm.max() + 1)]
    return _groups_to_assignment(_coalesce(groups, n_clients), g.node_count, n_clients)


def _spread_seeds(a: sp.csr_matrix, n_clients: int, rng) -> list[int]:
    """Farthest-point seed selection, robust to the random starting node.

    The node farthest in hops from a random start is the first seed; each
    further seed maximizes the running minimum hop distance to the seeds so
    far (chosen seeds held at -1). An unreached node is at distance inf, and
    np.argmax takes the first maximum: unreached nodes win, ties go to the
    lowest id.
    """
    n = a.shape[0]
    start = rng.integers(n)
    seeds = [int(np.argmax(shortest_path(a, unweighted=True, indices=start)))]
    mindist = np.full(n, np.inf)
    while len(seeds) < n_clients:
        mindist = np.minimum(mindist, shortest_path(a, unweighted=True, indices=seeds[-1]))
        mindist[seeds[-1]] = -1
        seeds.append(int(np.argmax(mindist)))
    return seeds


def balanced_partition(g: Graph, n_clients: int, seed: int) -> CommunityAssignment:
    """Size-balanced locality partition (Metis stand-in).

    Multi-source growth from spread seeds. Once every client holds its seed,
    claim step i goes to client i % n_clients: round robin is exactly the
    rule "grow the client with the fewest nodes, ties to the lower client
    id", and it keeps all client sizes within 1 of each other. A client
    claims the unclaimed frontier node most strongly attached to it (most
    neighbors already inside, ties to the lowest node id), or the lowest-id
    unclaimed node when its frontier is empty; attachment-priority claiming
    keeps clients inside dense regions.
    """
    if not 1 <= n_clients <= g.node_count:
        raise ValueError("n_clients must be in [1, node_count]")
    n = g.node_count
    a = _adjacency(g)
    adj_sorted = _neighbour_lists(a)[0]
    seeds = _spread_seeds(a, n_clients, np.random.default_rng(seed))
    client_of = np.full(n, -1, dtype=np.int64)
    # per client: lazy max-heap of (-attachment, node) plus current counts
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(n_clients)]
    attach: list[dict[int, int]] = [dict() for _ in range(n_clients)]
    lowest_unclaimed = 0

    def claim(cid: int, node: int):
        client_of[node] = cid
        attach[cid].pop(node, None)
        for u in adj_sorted[node]:
            if client_of[u] < 0:
                cnt = attach[cid].get(u, 0) + 1
                attach[cid][u] = cnt
                heapq.heappush(heaps[cid], (-cnt, u))

    for cid, s in enumerate(seeds):
        claim(cid, s)
    for step in range(n - n_clients):
        cid = step % n_clients
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
    groups = [np.flatnonzero(client_of == c).tolist() for c in range(n_clients)]
    return _groups_to_assignment(groups, n, n_clients)


def extract_subgraphs(
    g: Graph, a: CommunityAssignment, ratios: tuple, seed: int
) -> list[ClientData]:
    """Induced subgraph per client (cross-client edges dropped), with masks.

    Local node ids follow ascending global id; masks come from split_masks
    with per-client seed offset seed + client_id. One stable sort by client
    groups the nodes and the intra-client edges, which keep their order.
    """
    if a.client_of.shape[0] != g.node_count:
        raise ValueError("assignment does not cover the graph")
    cl = a.client_of
    starts = np.concatenate([[0], np.cumsum(np.bincount(cl, minlength=a.num_clients))])
    nodes = np.argsort(cl, kind="stable")  # by client, ascending id within one
    local_of = np.empty(g.node_count, dtype=np.int64)
    local_of[nodes] = np.arange(g.node_count) - starts[cl[nodes]]
    ends = cl[g.edges]
    edges = g.edges[ends[:, 0] == ends[:, 1]]
    edge_cl = cl[edges[:, 0]]
    order = np.argsort(edge_cl, kind="stable")
    edge_starts = np.searchsorted(edge_cl[order], np.arange(1, a.num_clients))
    node_groups = np.split(nodes, starts[1:-1])
    edge_groups = np.split(local_of[edges[order]], edge_starts)
    out = []
    for cid, (ids, local_edges) in enumerate(zip(node_groups, edge_groups)):
        local = Graph(
            ids.size,
            local_edges,
            g.features[ids],
            g.labels[ids],
            g.num_classes,
            g.feature_dim,
        )
        masks = split_masks(local, ratios, seed + cid)
        out.append(ClientData(local, ids, masks, cid))
    return out


def sparsify_labels(cd: ClientData, drop_rate: float, seed: int) -> ClientData:
    """Remove floor(drop_rate * |train|) uniformly chosen train nodes."""
    train = cd.masks.train
    n_drop = int(np.floor(drop_rate * train.size))
    if n_drop == 0:
        return cd
    rng = np.random.default_rng(seed)
    dropped = rng.choice(train, size=n_drop, replace=False)
    kept = np.setdiff1d(train, dropped)
    masks = NodeMasks(kept, cd.masks.val.copy(), cd.masks.test.copy())
    return ClientData(cd.graph, cd.global_ids, masks, cd.client_id)


def sparsify_edges(cd: ClientData, drop_rate: float, seed: int) -> ClientData:
    """Remove floor(drop_rate * m) uniformly chosen undirected edges."""
    g = cd.graph
    n_drop = int(np.floor(drop_rate * g.edge_count))
    if n_drop == 0:
        return cd
    rng = np.random.default_rng(seed)
    dropped = rng.choice(g.edge_count, size=n_drop, replace=False)
    keep = np.ones(g.edge_count, dtype=bool)
    keep[dropped] = False
    thinned = Graph(
        g.node_count,
        g.edges[keep],
        g.features,
        g.labels,
        g.num_classes,
        g.feature_dim,
    )
    return ClientData(thinned, cd.global_ids, cd.masks, cd.client_id)


def save_assignment(a: CommunityAssignment, path) -> None:
    """Dump one `<global_id> <client_id>` line per node."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for gid, cid in enumerate(a.client_of):
            f.write(f"{gid} {cid}\n")
