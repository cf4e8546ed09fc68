"""Splitting a global graph into client subgraphs, plus robustness perturbations."""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .graphs import (
    FALLBACK_WARNING,
    Csr,
    Graph,
    NodeMasks,
    coo_to_csr,
    degrees,
    index_dtype,
    normalized_adjacency,
    propagation_matrix,
    sparsetools,
    split_masks,
)

csr_matvecs, csc_matvecs = sparsetools.csr_matvecs, sparsetools.csc_matvecs
csr_matmat = sparsetools.csr_matmat

log = logging.getLogger("fedgraphsim")


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
    """The operators a client's trips, or a kernel call of several clients, reuse:
    ``adj`` (A_hat, the GCN-normalized adjacency), ``ax`` (A_hat @ X), ``prop``
    (label propagation's P), ``deg`` (float raw degrees) and ``edge_w`` (upper
    triangle, d_u * d_v at each edge (u, v)), the operators as plain ``Csr``."""

    adj: Csr
    ax: np.ndarray
    prop: Csr
    deg: np.ndarray
    edge_w: Csr


@dataclass(frozen=True, eq=False)
class Join:
    """Clients' plans joined as one: ``plan`` has client c's rows from ``starts[c]``
    and ``labels`` each row's label. A run's ``gcn.RunMemo`` builds one for its
    clients, and each kernel call gathers its members' rows from it."""

    plan: TripPlan
    starts: np.ndarray
    labels: np.ndarray

    @classmethod
    def build(cls, clients) -> "Join":
        """The clients' (all of one feature_dim) plans from one block-diagonal
        pass: client c's rows are bit for bit its plan alone, as every stored
        value comes from its own nodes' degrees, no edge joins two blocks and
        A_hat X is row by row."""
        graphs = [cd.graph for cd in clients]
        starts = np.cumsum([0] + [g.node_count for g in graphs])
        edges = np.concatenate([g.edges + s for g, s in zip(graphs, starts.tolist())])
        # canonical already (each graph's edges are, and the offsets grow), so
        # a Graph's sort and checks would only repeat work
        joined = SimpleNamespace(node_count=int(starts[-1]), edges=edges, edge_count=len(edges))
        adj, deg, (u, v) = normalized_adjacency(joined), degrees(joined).astype(float), edges.T
        w = coo_to_csr(u, v, deg[u] * deg[v], joined.node_count)
        ax = spmm(adj, np.concatenate([g.features for g in graphs]))
        prop = propagation_matrix(joined)
        return cls(TripPlan(adj, ax, prop, deg, w), starts,
                   np.concatenate([g.labels for g in graphs]))


def take_rows(m: Csr, rows: np.ndarray, shift: np.ndarray, width: int) -> Csr:
    """The rows ``rows`` of m as a new ``Csr`` of ``width`` columns, each row's
    values in order and its columns less its ``shift`` (m's index dtype)."""
    lens = m.indptr[rows + 1] - m.indptr[rows]
    indptr = np.cumsum(np.append(0, lens), dtype=m.indptr.dtype)
    take = np.repeat(m.indptr[rows] - indptr[:-1], lens) + np.arange(indptr[-1])
    return Csr(m.data[take], m.indices[take] - np.repeat(shift, lens), indptr, (rows.size, width))


def spmm(a: Csr, x: np.ndarray, transposed: bool = False) -> np.ndarray:
    """``a @ x`` for a float64 CSR ``a`` and a 2-D float64 ``x``, as a new array.

    On ``a``'s arrays (a ``Csr`` or a scipy matrix) this calls the kernel a scipy
    ``a.dot`` (``a.T.dot``, CSC, if ``transposed``) ends in (``_matmul_multivector``)
    with a fresh zero output, bit for bit, skipping scipy's dispatch (twice the product
    on tiny client subgraphs): ``csr_matvecs`` (``csc_matvecs``) of the extension
    ``scipy.sparse._sparsetools``, which ``graphs.load_sparsetools`` loads without
    ``scipy.sparse``. The kernels are private to scipy and there is no fallback: if a
    scipy release changes them, tests/test_partition.py::TestSpmm fails.
    """
    (m, n), mul = (a.shape[::-1], csc_matvecs) if transposed else (a.shape, csr_matvecs)
    y = np.zeros((m, x.shape[1]))
    mul(m, n, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), y.ravel())
    return y


@dataclass(eq=False)
class ClientData:
    """One client's induced subgraph with masks and the local -> global id map.
    Equal only to itself, so a run's memo can key it by identity; a run reads it
    and writes nothing into it (a perturbation makes a new one)."""

    graph: Graph
    global_ids: np.ndarray
    masks: NodeMasks
    client_id: int


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


def _move(v, nbrs, wts, k, m2, comm, comm_k, acc) -> bool:
    """Move v to the lowest-id neighbour community of largest gain, if strictly
    above its stay gain; updates comm and comm_k, True when v moved. acc, zeros
    indexed by community id, sums v's weight to each in neighbour order (nonzero
    means seen: weights are positive) and is zeroed again. The first-seen scan
    takes a higher gain, or an equal one of lower id unless the best is the stay."""
    b, k_v, seen = comm[v], k[v], []
    for u, w in zip(nbrs[v], wts[v]):
        c = comm[u]
        if acc[c]:
            acc[c] += w
        else:
            acc[c] = w
            seen.append(c)
    comm_k[b] -= k_v
    best_c, best_gain = b, acc[b] - k_v * comm_k[b] / m2
    for c in seen:  # b itself, if seen, gains exactly its stay gain and is never taken
        gain = acc[c] - k_v * comm_k[c] / m2
        if gain > best_gain or gain == best_gain and best_c != b and c < best_c:
            best_c, best_gain = c, gain
        acc[c] = 0.0
    comm[v] = best_c
    comm_k[best_c] += k_v
    return best_c != b


def _local_move(nbrs, wts, k, m2, rng) -> list:
    """Fast local moving (Traag, Waltman and van Eck, arXiv 1810.08473) from every
    node alone; returns the community id per node.

    nbrs[v], wts[v] list v's neighbours (self excluded) and edge weights, and k (an
    array) the degrees. A FIFO queue starts with every node in one shuffled order;
    ``_move`` takes the nodes off it in turn, and a node that moves appends each
    neighbour outside its new community that is not queued, in nbrs[v] order. The
    level ends when the queue is empty, each move having strictly raised modularity.
    """
    n, k = len(nbrs), k.tolist()
    comm, comm_k, acc = list(range(n)), list(k), [0.0] * n
    queue, queued = deque(rng.permutation(n).tolist()), [True] * n
    while queue:
        v = queue.popleft()
        queued[v] = False
        if _move(v, nbrs, wts, k, m2, comm, comm_k, acc):
            c = comm[v]
            for u in nbrs[v]:
                if not queued[u] and comm[u] != c:
                    queued[u] = True
                    queue.append(u)
    return comm


BLOCK_ROWS = 1024  # rows per block of Louvain's per-entry temporaries


def _row_blocks(a: Csr):
    """a's rows in blocks of BLOCK_ROWS: each block's first row and the block, a ``Csr``
    of views of a's data and indices (a block's per-entry temporaries stay that size)."""
    for s in range(0, a.shape[0], BLOCK_ROWS):
        e = min(s + BLOCK_ROWS, a.shape[0])
        lo, hi = a.indptr[s], a.indptr[e]
        yield s, Csr(a.data[lo:hi], a.indices[lo:hi], a.indptr[s : e + 1] - lo, (e - s, a.shape[1]))


def _rows(a: Csr) -> np.ndarray:
    """The row of each stored entry of a CSR."""
    return np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))


def _community_weights(a: Csr, comm: np.ndarray) -> Csr:
    """a @ P for any row block a of a level, P the level's node -> community indicator:
    each row's total weight to each community it touches, by scipy's ``csr_matmat`` with
    its column order (not sorted), which depends on that row alone. P holds one entry
    per row, so the product holds at most as many entries as a."""
    (rows, n), index = a.shape, a.indices.dtype
    indptr, indices, data = np.empty_like(a.indptr), np.empty_like(a.indices), np.empty_like(a.data)
    csr_matmat(rows, n, a.indptr, a.indices, a.data, np.arange(n + 1, dtype=index),
               comm.astype(index), np.ones(n), indptr, indices, data)
    return Csr(data[: indptr[-1]], indices[: indptr[-1]], indptr, (rows, n))


def _coarsen(a: Csr, mapping: np.ndarray) -> Csr:
    """P.T @ a @ P, P the node -> community indicator of ``mapping``: each row block's
    a @ P entries (``_community_weights``), added at their rows' communities
    (duplicates summed, columns ascending). A converged level's row touches one or two
    communities, so those entries are far fewer than a's. Exact, as every weight is an
    integer-valued float, so the order of the sums cannot matter."""
    rows, cols, vals = [], [], []
    for s, block in _row_blocks(a):
        ap = _community_weights(block, mapping)
        rows.append(np.repeat(mapping[s : s + block.shape[0]], np.diff(ap.indptr)))
        cols.append(ap.indices.copy())  # not views, which keep the block's buffers
        vals.append(ap.data.copy())
    return coo_to_csr(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                      int(mapping.max()) + 1)


def _adjacency(g: Graph) -> Csr:
    """Symmetric CSR adjacency of g, weight 1 per edge, columns ascending per row: each
    row's lower neighbours come first (the edges turned round), then its upper ones."""
    index, ends = index_dtype(g.node_count, 2 * g.edge_count), g.edges.T
    rows = np.concatenate([ends[1], ends[0]], dtype=index)
    return coo_to_csr(rows, np.concatenate([ends[0], ends[1]], dtype=index), None, g.node_count)


def _neighbour_lists(a: Csr):
    """Per-node neighbour and weight lists of a CSR level, its diagonal left out.
    The lists share one int per node and one float per distinct weight, and when every
    weight is 1.0, as at level 0, the rows of one length share one list ``[1.0] * d``.
    The other lists are cut row by row from an object array of one row block's shared
    objects, so no temporary holds an object per stored entry of the whole level."""
    diag = a.indices == _rows(a)
    if diag.any():  # a coarse level: at most one diagonal entry per row
        cut = np.cumsum(np.bincount(a.indices[diag], minlength=a.shape[0]))
        indptr = (a.indptr - np.concatenate([[0], cut])).astype(a.indptr.dtype)
        a = Csr(a.data[~diag], a.indices[~diag], indptr, a.shape)

    def lists(objects):  # per-row lists of objects(block), an object array per row block
        out = []
        for _, block in _row_blocks(a):
            row_objects, ends = objects(block), block.indptr.tolist()
            out += [row_objects[i:j].tolist() for i, j in zip(ends, ends[1:])]
        return out

    nodes = np.arange(a.shape[0]).astype(object)
    nbrs = lists(lambda block: nodes[block.indices])
    if np.all(a.data == 1.0):
        lengths = np.diff(a.indptr).tolist()
        ones = {d: [1.0] * d for d in set(lengths)}
        return nbrs, [ones[d] for d in lengths]
    values = np.unique(a.data)
    floats = values.astype(object)
    return nbrs, lists(lambda block: floats[np.searchsorted(values, block.data)])


def _louvain_communities(g: Graph, seed: int, modularity_trace=None) -> np.ndarray:
    """Two-phase Louvain to convergence; returns community id per node.

    Each level is one symmetric weighted CSR whose diagonal holds twice the
    self-loop weight, so a node's degree k is its row sum; coarsening is
    P.T @ A @ P with P the node -> community indicator (``_coarsen``).
    """
    n = g.node_count
    membership = np.arange(n, dtype=np.int64)
    if g.edge_count == 0:
        return membership
    rng = np.random.default_rng(seed)
    a = _adjacency(g)
    while True:
        n_level = a.shape[0]
        k = np.bincount(_rows(a), weights=a.data, minlength=n_level)
        nbrs, wts = _neighbour_lists(a)
        comm = _local_move(nbrs, wts, k, float(k.sum()), rng)
        del nbrs, wts  # only the level is coarsened
        if modularity_trace is not None:
            modularity_trace.append(modularity(g, np.array(comm)[membership]))
        if len(set(comm)) == n_level:
            break
        mapping = np.unique(comm, return_inverse=True)[1].astype(a.indices.dtype)
        a = _coarsen(a, mapping)
        membership = mapping[membership]
    return np.unique(membership, return_inverse=True)[1].astype(np.int64)


def _coalesce(groups: list[list[int]], n_clients: int) -> list[list[int]]:
    """Merge or split node groups until exactly n_clients remain.

    Too many groups: repeatedly merge the smallest group into the smallest
    remaining one (ties broken by lowest contained node id). Too few:
    repeatedly split the largest group in half by ascending node id. Each
    phase keeps its groups in a heap keyed by (size, first node), or by
    (-size, first node); groups are disjoint, so no two keys tie.
    """
    heap = [(len(grp), grp[0], grp) for grp in map(sorted, groups)]
    heapq.heapify(heap)
    while len(heap) > n_clients:
        small, target = heapq.heappop(heap)[2], heapq.heappop(heap)[2]
        grp = sorted(target + small)
        heapq.heappush(heap, (len(grp), grp[0], grp))
    heap = [(-size, first, grp) for size, first, grp in heap]
    heapq.heapify(heap)
    while len(heap) < n_clients:
        big = heapq.heappop(heap)[2]
        half = (len(big) + 1) // 2
        for grp in (big[:half], big[half:]):
            heapq.heappush(heap, (-len(grp), grp[0], grp))
    return [grp for _, _, grp in heap]


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

    Each level's local moving visits its nodes in one order shuffled by the
    seed (one rng.permutation per level) and then by a FIFO queue: a node that
    moves queues its neighbours outside its new community that are not queued,
    and the level ends when the queue is empty (``_local_move``). A node picks
    the lowest-id neighbour community of largest gain and moves only if that
    beats its stay gain strictly, so it stays on a tie. The result does not
    depend on summation order: every edge weight, degree and 2m is an
    integer-valued float below 2**53, so each sum is exact, and each gain is
    w - (k_v * tot_c) / 2m in float64. When modularity_trace is given, the
    partition's modularity on the original graph is appended after every
    level's local moving (monotone nondecreasing).

    Working set: the level's CSR, the neighbour lists ``_move`` reads (one
    shared weight list per row length at level 0) and temporaries of one row
    block (``BLOCK_ROWS``) of the level, which the lists and coarsening each
    take in turn; a level's lists are freed before it is coarsened. None of
    this changes a partition, as every quantity is per row.
    """
    if not 1 <= n_clients <= g.node_count:
        raise ValueError("n_clients must be in [1, node_count]")
    comm = _louvain_communities(g, seed, modularity_trace)
    groups = [np.flatnonzero(comm == c).tolist() for c in range(comm.max() + 1)]
    return _groups_to_assignment(_coalesce(groups, n_clients), g.node_count, n_clients)


def _spread_seeds(a: Csr, n_clients: int, rng) -> list[int]:
    """Farthest-point seed selection, robust to the random starting node.

    The node farthest in hops from a random start is the first seed; each
    further seed maximizes the running minimum hop distance to the seeds so
    far (chosen seeds held at -1). An unreached node is at distance inf, and
    np.argmax takes the first maximum: unreached nodes win, ties go to the
    lowest id.

    Each seed's hops grow into that minimum by a breadth-first search that
    expands a node only when its distance improves. That is exact: on any
    shortest path from the seed to a node it improves, every node improves
    too, since the minimum over earlier seeds grows by at most 1 per hop, and
    a seed held at -1 is itself at distance 0 from what lies beyond it.
    """
    n = a.shape[0]

    def grow(s: int, dist: np.ndarray) -> np.ndarray:
        frontier, hops, dist[s] = np.array([s]), 0, 0
        while frontier.size:
            hops += 1
            lo, hi = a.indptr[frontier], a.indptr[frontier + 1]
            ends = np.cumsum(hi - lo)  # the frontier's rows of indices, back to back
            nbrs = a.indices[np.arange(ends[-1]) + np.repeat(hi - ends, hi - lo)]
            frontier = np.unique(nbrs[hops < dist[nbrs]])
            dist[frontier] = hops
        return dist

    seeds = [int(np.argmax(grow(rng.integers(n), np.full(n, np.inf))))]
    mindist = np.full(n, np.inf)
    while len(seeds) < n_clients:
        grow(seeds[-1], mindist)[seeds[-1]] = -1
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
    with per-client seed offset seed + client_id, and one warning counts the
    clients whose split fell back. One stable sort by client groups the nodes
    and the intra-client edges, which keep their order.
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
    out, fallbacks = [], []
    for cid, (ids, local_edges) in enumerate(zip(node_groups, edge_groups)):
        local = Graph(
            ids.size,
            local_edges,
            g.features[ids],
            g.labels[ids],
            g.num_classes,
            g.feature_dim,
        )
        masks = split_masks(local, ratios, seed + cid, fallbacks)
        out.append(ClientData(local, ids, masks, cid))
    if fallbacks:
        log.warning("%d of %d clients: %s", len(fallbacks), a.num_clients, FALLBACK_WARNING)
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
