import functools
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedgraphsim import partition
from fedgraphsim.graphs import (
    Graph,
    SbmConfig,
    coo_to_csr,
    degrees,
    generate_sbm,
    load_graph,
    normalized_adjacency,
    propagation_matrix,
    save_graph,
    split_masks,
)
from fedgraphsim.partition import (
    CommunityAssignment,
    TripPlan,
    balanced_partition,
    extract_subgraphs,
    louvain_partition,
    modularity,
    save_assignment,
    sparsify_edges,
    sparsify_labels,
    spmm,
)
from oracles import (
    adjacency_ref,
    all_set_partitions,
    as_scipy,
    balanced_ref,
    block_diag,
    coalesce_ref,
    coarsen_ref,
    community_weights_ref,
    csr_mismatches,
    edge_weights_ref,
    louvain_ref,
    modularity_ref,
    move_ref,
    normalized_adjacency_ref,
    plan_mismatches,
    propagation_matrix_ref,
    random_graph_edges,
    spread_seeds_ref,
    trip_plan_ref,
)

RATIOS = (0.4, 0.2, 0.4)


def build(node_count, edges, num_classes=2):
    rng = np.random.default_rng(0)
    return Graph(
        node_count,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        rng.normal(size=(node_count, 3)),
        np.arange(node_count) % num_classes,
        num_classes,
        3,
    )


def two_triangles():
    return build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def clique_ring(k=5, cliques=4):
    edges = []
    for c in range(cliques):
        base = c * k
        edges += [(base + i, base + j) for i in range(k) for j in range(i + 1, k)]
        nxt = ((c + 1) % cliques) * k
        edges.append((min(base, nxt), max(base, nxt)))
    return build(k * cliques, sorted(set(edges)))


def groups_of(assignment):
    return {
        frozenset(np.flatnonzero(assignment.client_of == c).tolist())
        for c in range(assignment.num_clients)
    }


class TestLouvain:
    def test_two_triangles_matches_bruteforce_optimum(self):
        g = two_triangles()
        best_q, best_parts = -2.0, None
        for part in all_set_partitions(list(range(6))):
            comm_of = {}
            for idx, blk in enumerate(part):
                for v in blk:
                    comm_of[v] = idx
            q = modularity_ref(6, g.edges.tolist(), comm_of)
            if q > best_q:
                best_q, best_parts = q, {frozenset(b) for b in part}
        a = louvain_partition(g, 2, seed=3)
        assert groups_of(a) == best_parts
        assert abs(modularity(g, a.client_of) - best_q) < 1e-12

    def test_single_client(self):
        g = two_triangles()
        a = louvain_partition(g, 1, seed=0)
        npt.assert_array_equal(a.client_of, np.zeros(6, int))

    def test_clique_ring_matches_clique_respecting_bruteforce(self):
        g = clique_ring()
        cliques = [list(range(c * 5, c * 5 + 5)) for c in range(4)]
        best_q, best_parts = -2.0, None
        for part in all_set_partitions(list(range(4))):
            comm_of = {}
            for idx, blk in enumerate(part):
                for c in blk:
                    for v in cliques[c]:
                        comm_of[v] = idx
            q = modularity_ref(20, g.edges.tolist(), comm_of)
            if q > best_q:
                best_q = q
                best_parts = {
                    frozenset(v for c in blk for v in cliques[c]) for blk in part
                }
        assert len(best_parts) == 4  # optimum keeps cliques separate
        a = louvain_partition(g, 4, seed=1)
        assert groups_of(a) == best_parts

    def test_modularity_trace_monotone(self, monkeypatch):
        """One value per level (one ``_neighbour_lists`` call each), nondecreasing."""
        levels, lists = [], partition._neighbour_lists
        monkeypatch.setattr(
            partition, "_neighbour_lists", lambda a: levels.append(a.shape[0]) or lists(a)
        )
        for seed in range(5):
            g = generate_sbm(SbmConfig((12, 12, 12), 0.5, 0.03, 4, 0.2, seed))
            trace = []
            levels.clear()
            louvain_partition(g, 3, seed=seed, modularity_trace=trace)
            assert len(trace) == len(levels) >= 1
            assert np.all(np.diff(np.array(trace)) >= -1e-12)

    def test_deterministic_under_seed(self):
        g = generate_sbm(SbmConfig((15, 15), 0.4, 0.05, 4, 0.3, 8))
        a1 = louvain_partition(g, 4, seed=11)
        a2 = louvain_partition(g, 4, seed=11)
        npt.assert_array_equal(a1.client_of, a2.client_of)

    def test_modularity_matches_reference(self):
        g = clique_ring()
        comm = np.arange(20) // 5
        assert abs(
            modularity(g, comm) - modularity_ref(20, g.edges.tolist(), comm)
        ) < 1e-12

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError):
            louvain_partition(two_triangles(), 7, seed=0)


def sbm_graphs():
    """SBM graphs of 2-5 blocks whose Louvain runs coarsen over several levels."""
    out = []
    for s in range(8):
        rng = np.random.default_rng(s)
        blocks = tuple(rng.integers(8, 40, size=rng.integers(2, 6)).tolist())
        intra, inter = rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.05)
        out.append(generate_sbm(SbmConfig(blocks, intra, inter, 4, 0.2, s)))
    return out


def graphs_with_isolated_nodes():
    """Random graphs on the first 20 of 30 nodes, relabelled by a shuffle."""
    out = []
    for s in range(4):
        rng = np.random.default_rng(100 + s)
        relabel = rng.permutation(30)
        edges = [(relabel[u], relabel[v]) for u, v in random_graph_edges(rng, 20, 0.2)]
        out.append(build(30, [(min(e), max(e)) for e in edges]))
    return out


@functools.cache
def server_bound_graph():
    """The SBM of perfbench's server_bound workload: 10 blocks of 500 nodes."""
    return generate_sbm(SbmConfig((500,) * 10, 0.03, 0.001, 16, 0.5, 0))


@st.composite
def planted_blocks(draw):
    """Blocks of 50-300 nodes plus isolated nodes, relabelled by a shuffle, so
    the coarse levels carry self-loops and integer weights above 1."""
    blocks = tuple(draw(st.lists(st.integers(50, 300), min_size=1, max_size=3)))
    intra, inter = draw(st.floats(0.02, 0.1)), draw(st.floats(0.0, 0.003))
    isolated, seed = draw(st.integers(0, 10)), draw(st.integers(0, 2**16))
    g = generate_sbm(SbmConfig(blocks, intra, inter, 2, 0.2, seed))
    relabel = np.random.default_rng(seed).permutation(g.node_count + isolated)
    return build(g.node_count + isolated, np.sort(relabel[g.edges], axis=1))


class TestLouvainMatchesLoopReference:
    """The CSR-level Louvain replays the dict-based loop reference exactly."""

    @pytest.fixture(autouse=True)
    def bounded_moves(self, monkeypatch):
        # fail, rather than hang, if a change lets the queue cycle forever:
        # at most 1,000 _move calls per node of each level
        left, lists, move = [0], partition._neighbour_lists, partition._move

        def level_lists(a):
            left[0] = 1000 * a.shape[0]
            return lists(a)

        def bounded_move(*args):
            left[0] -= 1
            assert left[0] >= 0, "Louvain's local moving did not converge"
            return move(*args)

        monkeypatch.setattr(partition, "_neighbour_lists", level_lists)
        monkeypatch.setattr(partition, "_move", bounded_move)

    @pytest.mark.parametrize(
        "graphs, seeds",
        [
            pytest.param(sbm_graphs, range(10), id="sbm"),
            pytest.param(graphs_with_isolated_nodes, range(5), id="isolated-nodes"),
            pytest.param(lambda: [build(7, [])], range(3), id="edgeless"),
            pytest.param(lambda: [server_bound_graph()], range(2), id="server-bound"),
        ],
    )
    def test_same_communities_and_trace(self, graphs, seeds):
        for g in graphs():
            for seed in seeds:
                self.check(g, seed)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(planted_blocks(), st.integers(0, 2**32 - 1))
    def test_planted_blocks(self, g, seed):
        self.check(g, seed)

    @staticmethod
    def check(g, seed):
        trace, ref_trace = [], []
        comm = partition._louvain_communities(g, seed, trace)
        npt.assert_array_equal(comm, louvain_ref(g, seed, ref_trace))
        assert comm.dtype == np.int64
        assert trace == ref_trace

    def test_sbm_cases_coarsen_over_several_levels(self, monkeypatch):
        levels = []
        lists = partition._neighbour_lists
        monkeypatch.setattr(
            partition, "_neighbour_lists", lambda a: levels.append(a.shape[0]) or lists(a)
        )
        runs = []
        for g in sbm_graphs():
            levels.clear()
            partition._louvain_communities(g, 0)
            runs.append(len(levels))
        assert min(runs) >= 3


def test_louvain_moves_each_node_a_few_times(monkeypatch):
    """A tripwire for fast local moving on an SBM of PubMed's size and sparsity
    (19,717 nodes in three blocks): summed over all levels, ``_move`` runs
    fewer than 8 times per node (full passes until no node moves ran it about
    60 times)."""
    calls, move = [0], partition._move

    def counted_move(*args):
        calls[0] += 1
        return move(*args)

    monkeypatch.setattr(partition, "_move", counted_move)
    g = generate_sbm(SbmConfig((4103, 7739, 7875), 5.1e-4, 7.1e-5, 2, 0.5, 0))
    for seed in range(3):
        calls[0] = 0
        partition._louvain_communities(g, seed)
        assert calls[0] < 8 * g.node_count, seed


def plain_lists(a):
    """The neighbour and weight lists as plain ``tolist()`` slices of the level
    less its diagonal: one object per stored entry."""
    off = a - sp.diags(a.diagonal(), format="csr")
    spans = list(zip(off.indptr.tolist(), off.indptr[1:].tolist()))
    return [off.indices[i:j].tolist() for i, j in spans], [off.data[i:j].tolist() for i, j in spans]


def test_level_0_lists_share_one_object_per_node_and_one_unit_weight():
    g = server_bound_graph()
    nbrs, wts = partition._neighbour_lists(partition._adjacency(g))
    assert sum(map(len, nbrs)) == 2 * g.edge_count
    assert len({id(u) for row in nbrs for u in row}) <= g.node_count
    assert len({id(w) for row in wts for w in row}) == 1
    assert wts[0][0] == 1.0
    # one weight list per row length, shared by every row of that length
    assert [len(row) for row in wts] == [len(row) for row in nbrs]
    assert len({id(row) for row in wts}) == len({len(row) for row in wts})


BLOCK_CUTS = (1, 3, 2**31)  # rows per block: one, a few, and one block for all


def at_each_block_cut(f):
    """f() with ``partition.BLOCK_ROWS`` at each of BLOCK_CUTS."""
    out = []
    for rows in BLOCK_CUTS:
        with mock.patch.object(partition, "BLOCK_ROWS", rows):
            out.append(f())
    return out


def test_louvain_does_not_depend_on_the_block_cut():
    g = server_bound_graph()
    first, *others = at_each_block_cut(lambda: louvain_partition(g, 200, 0).client_of)
    for other in others:
        npt.assert_array_equal(other, first)


def test_louvain_working_set_is_the_level_and_its_lists():
    """louvain_partition's traced peak on perfbench's client_bound SBM (6,000
    nodes, 206,940 stored entries) stays below 32 bytes per stored entry. The
    level's CSR takes 12 of them, the neighbour lists 8 plus their per-node
    objects, and the other temporaries are one row block's. One more array or
    object list over every entry of the level breaks the bound."""
    g = generate_sbm(SbmConfig((1500,) * 4, 0.02, 0.001, 16, 0.5, 0))
    tracemalloc.start()
    try:
        louvain_partition(g, 8, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 * g.edge_count


@st.composite
def weighted_levels(draw):
    """A symmetric weighted CSR level as Louvain coarsens to: any diagonal,
    weights from a few repeated values or all distinct."""
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    pool = [1.0, 2.0, 3.0, 0.1 + 0.2, 7.5] if draw(st.booleans()) else None
    w = rng.choice(pool, (n, n)) if pool else rng.uniform(0.5, 9.0, (n, n))
    upper = np.triu(np.where(rng.random((n, n)) < density, w, 0.0))
    return sp.csr_matrix(upper + upper.T)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_levels())
def test_neighbour_lists_equal_plain_slices(a):
    want_nbrs, want_wts = plain_lists(a)
    want_flat = [w for row in want_wts for w in row]
    for nbrs, wts in at_each_block_cut(lambda: partition._neighbour_lists(a)):
        assert nbrs == want_nbrs and wts == want_wts
        flat = [w for row in wts for w in row]
        npt.assert_array_equal(np.array(flat).view(np.int64), np.array(want_flat).view(np.int64))
        assert all(type(u) is int for row in nbrs for u in row)
        assert all(type(w) is float for w in flat)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_levels(), st.integers(0, 2**32 - 1))
def test_coarsening_does_not_depend_on_the_block_cut(a, seed):
    """Any weights, so the sums' order would show: each block's a @ P rows are
    the whole product's, in the same order."""
    rng = np.random.default_rng(seed)
    comm = rng.integers(0, rng.integers(1, a.shape[0] + 1), a.shape[0])
    mapping = np.unique(comm, return_inverse=True)[1].astype(a.indices.dtype)
    first, *others = at_each_block_cut(lambda: partition._coarsen(a, mapping))
    for other in others:
        assert csr_mismatches(other, first) == []


class TestMove:
    """``_move``'s unsorted scan picks what an ascending id scan picks: the
    lowest id of the largest gain, and the stay on a tie with it."""

    @staticmethod
    def move(v, nbrs, wts, k, comm):
        comm_k = np.bincount(comm, weights=k, minlength=len(comm)).tolist()
        acc = [0.0] * len(comm)
        moved = partition._move(v, nbrs, wts, k, sum(k), comm, comm_k, acc)
        assert acc == [0.0] * len(comm)
        return moved

    @pytest.mark.parametrize("order", [[5, 3, 1], [1, 3, 5], [3, 5, 1]])
    def test_equal_gains_go_to_the_lowest_id(self, order):
        # node 0 sits alone and touches singletons 1, 3 and 5 of equal degree:
        # the three gains are equal and above the stay gain 0
        nbrs = [order, [0], [], [0], [], [0]]
        wts = [[1.0] * 3, [1.0], [], [1.0], [], [1.0]]
        comm = list(range(6))
        assert self.move(0, nbrs, wts, [3.0, 1.0, 0.0, 1.0, 0.0, 1.0], comm)
        assert comm == [1, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("order", [[1, 2], [2, 1]])
    def test_a_gain_equal_to_the_stay_gain_stays(self, order):
        # node 0 shares community 2 with node 2 and touches node 1 in community
        # 1, a lower id: both gains are 1 - 2 * 1 / 4
        nbrs, wts = [order, [0], [0]], [[1.0, 1.0], [1.0], [1.0]]
        comm = [2, 1, 2]
        assert not self.move(0, nbrs, wts, [2.0, 1.0, 1.0], comm)
        assert comm == [2, 1, 2]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(weighted_levels(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_a_pass_of_moves_equals_the_dict_reference(self, a, unit, singletons, seed):
        # unit weights and singleton communities, as at level 0, make equal gains common
        if unit:
            a.data[:] = 1.0
        nbrs, wts = partition._neighbour_lists(a)
        k = np.asarray(a.sum(axis=1)).ravel()
        if not k.any():
            return
        n, m2, rng = a.shape[0], float(k.sum()), np.random.default_rng(seed)
        comm = list(range(n)) if singletons else rng.integers(0, rng.integers(1, n + 1), n).tolist()
        comm_k = np.bincount(comm, weights=k, minlength=n).tolist()
        ref, ref_k, k, acc = list(comm), list(comm_k), k.tolist(), [0.0] * n
        for v in rng.permutation(n).tolist():
            moved = partition._move(v, nbrs, wts, k, m2, comm, comm_k, acc)
            assert moved == move_ref(v, nbrs, wts, k, m2, ref, ref_k)
            assert comm == ref
            npt.assert_array_equal(np.array(comm_k).view(np.int64), np.array(ref_k).view(np.int64))
            assert acc == [0.0] * n


@st.composite
def coalesce_cases(draw):
    """Node groups of a few repeated sizes over shuffled ids, and a client
    count that merges most of them or splits them many times over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.choice(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)),
                       draw(st.integers(1, 40))).tolist()
    nodes = rng.permutation(sum(sizes)).tolist()
    ends = np.cumsum(sizes).tolist()
    groups = [nodes[e - size:e] for size, e in zip(sizes, ends)]
    merge = draw(st.booleans())
    n_clients = draw(st.integers(1, len(groups)) if merge else st.integers(len(groups), len(nodes)))
    return groups, n_clients


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(coalesce_cases())
def test_coalesce_equals_the_sorted_loop(case):
    groups, n_clients = case
    got = partition._coalesce([list(grp) for grp in groups], n_clients)
    assert sorted(got) == sorted(coalesce_ref(groups, n_clients))


def random_graphs():
    """Random graphs of 5-40 nodes, from sparse to dense."""
    out = []
    for s in range(12):
        rng = np.random.default_rng(200 + s)
        n = int(rng.integers(5, 41))
        out.append(build(n, random_graph_edges(rng, n, rng.uniform(0.02, 0.4))))
    return out


def graphs_with_components():
    """Three dense random blocks side by side plus 5 isolated nodes, relabelled."""
    out = []
    for s in range(4):
        rng = np.random.default_rng(300 + s)
        sizes = rng.integers(3, 12, size=3)
        n = int(sizes.sum()) + 5
        relabel = rng.permutation(n)
        edges, base = [], 0
        for size in sizes.tolist():
            edges += [(base + u, base + v) for u, v in random_graph_edges(rng, size, 0.6)]
            base += size
        out.append(build(n, [tuple(sorted(relabel[[u, v]].tolist())) for u, v in edges]))
    return out


class TestBalanced:
    def test_matches_loop_reference(self):
        server_bound = generate_sbm(SbmConfig((500,) * 10, 0.03, 0.001, 16, 0.5, 0))
        cases = [(server_bound, 30, 0)]
        for g in random_graphs() + graphs_with_isolated_nodes() + graphs_with_components():
            for n_clients in sorted({1, 2, max(1, g.node_count // 4), g.node_count}):
                cases += [(g, n_clients, seed) for seed in range(3)]
        cases += [(build(7, []), n_clients, 0) for n_clients in (1, 3, 7)]
        for g, n_clients, seed in cases:
            a = balanced_partition(g, n_clients, seed)
            npt.assert_array_equal(
                a.client_of, balanced_ref(g, n_clients, seed),
                err_msg=f"{g.node_count} nodes, {n_clients} clients, seed {seed}",
            )

    def test_seeds_equal_the_shortest_path_reference(self):
        cases = [(server_bound_graph(), 200, seed) for seed in range(3)]
        for g in random_graphs() + graphs_with_isolated_nodes() + graphs_with_components():
            for n_clients in sorted({1, 2, max(1, g.node_count // 3), g.node_count}):
                cases += [(g, n_clients, seed) for seed in range(2)]
        for g, n_clients, seed in cases:
            a = partition._adjacency(g)
            got = partition._spread_seeds(a, n_clients, np.random.default_rng(seed))
            assert got == spread_seeds_ref(a, n_clients, np.random.default_rng(seed))

    def test_path_two_contiguous_runs(self):
        g = build(10, [(i, i + 1) for i in range(9)])
        a = balanced_partition(g, 2, seed=4)
        assert groups_of(a) == {frozenset(range(5)), frozenset(range(5, 10))}

    def test_every_node_own_client(self):
        g = two_triangles()
        a = balanced_partition(g, 6, seed=0)
        assert sorted(np.bincount(a.client_of).tolist()) == [1] * 6

    def test_disjoint_triangles_zero_cut(self):
        g = two_triangles()
        a = balanced_partition(g, 2, seed=9)
        assert groups_of(a) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_sizes_within_one(self):
        rng = np.random.default_rng(0)
        for seed in range(6):
            g = generate_sbm(SbmConfig((17, 12, 9), 0.3, 0.05, 4, 0.2, seed))
            n_clients = int(rng.integers(2, 7))
            a = balanced_partition(g, n_clients, seed=seed)
            sizes = np.bincount(a.client_of, minlength=n_clients)
            assert sizes.max() - sizes.min() <= 1
            assert sizes.sum() == g.node_count


def random_clients(g, rng, n_clients):
    """g split into n_clients random node sets (each nonempty)."""
    client_of = rng.permutation(np.arange(g.node_count) % n_clients)
    return extract_subgraphs(g, CommunityAssignment(client_of, n_clients), RATIOS, 0)


def clients_of(graphs):
    """The graphs as clients, split by ``split_masks``, for ``TripPlan.build_all``."""
    return [partition.ClientData(g, np.arange(g.node_count), split_masks(g, RATIOS, i, []), i)
            for i, g in enumerate(graphs)]


class TestTripPlan:
    """build_all cuts each graph's plan out of one block-diagonal build; it
    must equal the plan built from that graph alone, bit for bit."""

    def assert_matches_alone(self, graphs):
        clients = clients_of(graphs)
        plans = TripPlan.build_all(clients)
        assert len(plans) == len(graphs)
        join = plans[0].join
        for i, (cd, plan) in enumerate(zip(clients, plans)):
            assert plan_mismatches(plan, trip_plan_ref(cd.graph)) == [], f"graph {i}"
            # the join holds the plan's rows from its start, its labels and its mask rows
            assert plan.join is join and plan.index == i
            s = join.starts[i]
            assert plan_mismatches(plan, join.plan.take(s + np.arange(cd.graph.node_count),
                                                        np.full(cd.graph.node_count, s, np.int32),
                                                        cd.graph.node_count)) == []
            npt.assert_array_equal(join.labels[s : join.starts[i + 1]], cd.graph.labels)
            for m, at in (("train", join.train_at), ("test", join.test_at)):
                npt.assert_array_equal(getattr(join, m)[at[i] : at[i + 1]], cd.masks.get(m) + s)

    def test_random_partitions(self):
        rng = np.random.default_rng(11)
        for g in random_graphs() + graphs_with_components():
            for n_clients in sorted({1, 2, max(1, g.node_count // 3), g.node_count}):
                self.assert_matches_alone([cd.graph for cd in random_clients(g, rng, n_clients)])

    def test_louvain_clients_of_an_sbm_graph(self):
        g = generate_sbm(SbmConfig((60,) * 5, 0.1, 0.005, 16, 0.5, 4))
        clients = extract_subgraphs(g, louvain_partition(g, 12, 0), RATIOS, 0)
        self.assert_matches_alone([cd.graph for cd in clients])

    def test_edgeless_and_single_node_clients(self):
        rng = np.random.default_rng(12)
        mixed = [build(1, []), build(6, []), two_triangles(), build(1, []), build(2, [(0, 1)])]
        self.assert_matches_alone(mixed)
        self.assert_matches_alone([build(1, [])])
        self.assert_matches_alone([build(4, [])] * 3)
        self.assert_matches_alone(mixed + [cd.graph for cd in random_clients(clique_ring(), rng, 7)])

    def test_clients_with_isolated_nodes(self):
        rng = np.random.default_rng(13)
        graphs = graphs_with_isolated_nodes()
        self.assert_matches_alone(graphs)
        for g in graphs:
            self.assert_matches_alone([cd.graph for cd in random_clients(g, rng, 4)])

    def test_clients_thinned_by_edge_sparsity(self):
        rng = np.random.default_rng(14)
        dropped = 0
        for g in random_graphs()[:6] + graphs_with_components():
            clients = random_clients(g, rng, 3)
            thinned = [sparsify_edges(cd, 0.6, 50 + cd.client_id) for cd in clients]
            dropped += sum(a.graph.edge_count - b.graph.edge_count for a, b in zip(clients, thinned))
            self.assert_matches_alone([cd.graph for cd in thinned])
        assert dropped > 0

    def test_lazy_plan_of_a_lone_client_matches_alone(self):
        for g in random_graphs()[:4] + [build(1, []), two_triangles()]:
            cd = partition.ClientData(g, np.arange(g.node_count), split_masks(g, RATIOS, 0), 0)
            assert plan_mismatches(cd.plan, trip_plan_ref(g)) == []

    @pytest.mark.parametrize("source", ["generate_sbm", "load_graph", "sparsify_edges"])
    def test_adjacency_equals_its_transpose_bit_for_bit(self, tmp_path, source):
        """The training step's transposed product (gcn) needs A_hat[u, v] and
        A_hat[v, u] to be the same float, and each row's columns ascending."""
        g = generate_sbm(SbmConfig((40,) * 4, 0.15, 0.01, 6, 0.5, 5))
        if source == "load_graph":
            save_graph(g, tmp_path / "g.txt")
            g = load_graph(tmp_path / "g.txt")
        clients = extract_subgraphs(g, louvain_partition(g, 5, 0), RATIOS, 0)
        if source == "sparsify_edges":
            clients = [sparsify_edges(cd, 0.5, 60 + cd.client_id) for cd in clients]
        plans = TripPlan.build_all(clients) + [cd.plan for cd in clients]
        for adj in [plan.adj for plan in plans] + [block_diag([p.adj for p in plans])]:
            n = adj.shape[0]
            rows = np.repeat(np.arange(n), np.diff(adj.indptr))
            cols = adj.indices.astype(np.int64)
            assert np.all(np.diff(rows * n + cols) > 0)  # row-major, each row ascending
            t = np.lexsort((rows, cols))  # the entries of the transpose, row-major
            assert np.array_equal(rows[t], cols) and np.array_equal(cols[t], rows)
            assert adj.data[t].tobytes() == adj.data.tobytes()


@st.composite
def small_graphs(draw):
    """Random graphs of 1-30 nodes, edgeless to complete, sparse ones with
    isolated nodes."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return build(n, random_graph_edges(rng, n, draw(st.sampled_from([0.0, 0.03, 0.2, 1.0]))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_louvain_of_small_graphs_does_not_depend_on_the_block_cut(g, seed):
    first, *others = at_each_block_cut(lambda: partition._louvain_communities(g, seed))
    for other in others:
        npt.assert_array_equal(other, first)


class TestSetUpCsrs:
    """Each set-up CSR equals the one scipy's csr_matrix builds from the same
    entries (tests/oracles.py), array for array."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(small_graphs())
    @example(build(1, []))
    @example(build(6, []))
    @example(build(6, [(1, 4)]))  # four isolated nodes
    def test_graph_operators_equal_scipys(self, g):
        assert csr_mismatches(normalized_adjacency(g), normalized_adjacency_ref(g)) == []
        assert csr_mismatches(propagation_matrix(g), propagation_matrix_ref(g)) == []
        (plan,) = TripPlan.build_all(clients_of([g]))
        assert csr_mismatches(plan.edge_w, edge_weights_ref(g)) == []
        assert csr_mismatches(partition._adjacency(g), adjacency_ref(g)) == []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(small_graphs(), st.integers(0, 2**32 - 1))
    @example(build(1, []), 0)
    @example(build(6, [(1, 4)]), 0)
    def test_coarsening_and_community_weights_equal_scipys(self, g, seed):
        """Two random coarsenings give integer weights above 1 and diagonals, as
        Louvain's coarse levels have. Scipy's coarse level is the same matrix
        with its columns unsorted; its a @ P, the product coarsening sums, is
        the same kernel's on the same arrays."""
        rng, a = np.random.default_rng(seed), partition._adjacency(g)
        for _ in range(2):
            comm = rng.integers(0, rng.integers(1, a.shape[0] + 1), a.shape[0])
            mapping = np.unique(comm, return_inverse=True)[1].astype(a.indices.dtype)
            ref = coarsen_ref(a, mapping)
            ref.sort_indices()
            coarse = at_each_block_cut(lambda: partition._coarsen(a, mapping))
            assert [csr_mismatches(c, ref) for c in coarse] == [[]] * len(BLOCK_CUTS)
            a = coarse[0]
            at = rng.integers(0, a.shape[0], a.shape[0])
            got = partition._community_weights(a, at)
            assert csr_mismatches(got, community_weights_ref(a, at)) == []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12), st.integers(0, 60), st.booleans(), st.integers(0, 2**32 - 1))
    def test_coo_to_csr_equals_scipy_with_duplicates(self, n, nnz, ones, seed):
        """Unsorted entries, duplicates summed in scipy's order: float bits too."""
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
        vals = np.ones(nnz) if ones else rng.normal(size=nnz) * 10.0 ** rng.integers(-8, 9, nnz)
        want = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        assert csr_mismatches(coo_to_csr(rows, cols, None if ones else vals, n), want) == []


def random_csr(rng, m, n, density, index_dtype):
    """Random float64 CSR with every third row empty, its indices cast to
    index_dtype."""
    dense = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    dense[::3] = 0.0
    a = sp.csr_matrix(dense)
    a.indptr = a.indptr.astype(index_dtype)
    a.indices = a.indices.astype(index_dtype)
    return a


class TestSpmm:
    """spmm calls scipy's private csr_matvecs kernel: these tests guard that
    it is still there and still equals ``a @ x`` bit for bit."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("m, n", [(1, 1), (7, 7), (16, 16), (5, 12), (12, 5), (40, 40)])
    @pytest.mark.parametrize("k", [1, 10])
    def test_equals_scipy_product(self, index_dtype, m, n, k):
        rng = np.random.default_rng(100 * m + n + k)
        a = random_csr(rng, m, n, 0.3, index_dtype)
        assert a.indices.dtype == index_dtype
        x = rng.normal(size=(n, k))
        y = spmm(a, x)
        assert y.shape == (m, k) and y.dtype == np.float64
        assert np.array_equal(y, a @ x)
        npt.assert_allclose(y, a.toarray() @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("m, n", [(1, 1), (7, 7), (16, 16), (5, 12), (12, 5), (40, 40)])
    @pytest.mark.parametrize("k", [1, 10])
    def test_transposed_equals_scipy_product(self, index_dtype, m, n, k):
        """The transposed product calls scipy's private csc_matvecs kernel."""
        rng = np.random.default_rng(100 * m + n + k)
        a = random_csr(rng, m, n, 0.3, index_dtype)
        x = rng.normal(size=(m, k))
        y = spmm(a, x, transposed=True)
        assert y.shape == (n, k) and y.dtype == np.float64
        assert y.tobytes() == (a.T @ x).tobytes()
        npt.assert_allclose(y, a.toarray().T @ x, rtol=1e-12, atol=1e-12)

    def test_empty_rows_are_zero(self):
        a = sp.csr_matrix(np.array([[0.0, 0.0], [1.5, -2.0], [0.0, 0.0]]))
        y = spmm(a, np.ones((2, 3)))
        assert np.array_equal(y, [[0.0] * 3, [-0.5] * 3, [0.0] * 3])

    def test_transposed_operand(self):
        rng = np.random.default_rng(3)
        a = random_csr(rng, 9, 6, 0.4, np.int32)
        x = rng.normal(size=(4, 6)).T  # not C-contiguous
        assert not x.flags.c_contiguous
        assert np.array_equal(spmm(a, x), a @ x)

    def test_fresh_output_leaves_operand(self):
        rng = np.random.default_rng(4)
        a = random_csr(rng, 6, 6, 0.5, np.int32)
        x = rng.normal(size=(6, 3))
        keep = x.copy()
        y = spmm(a, x)
        assert np.array_equal(x, keep) and not np.shares_memory(x, y)
        assert y.flags.c_contiguous and y.flags.writeable


class TestBlockDiag:
    """block_diag places square CSR blocks on one diagonal, back to back,
    keeping each row's stored values in order."""

    def blocks(self, sizes, seed=5):
        rng = np.random.default_rng(seed)
        return [random_csr(rng, n, n, 0.4, np.int32) for n in sizes]

    @pytest.mark.parametrize("sizes", [[1, 1], [4, 1, 7], [6, 6, 2, 9], [3, 5]])
    def test_back_to_back_equals_scipy(self, sizes):
        mats = self.blocks(sizes)
        joined = block_diag(mats)
        want = sp.block_diag(mats, format="csr")
        assert joined.shape == want.shape
        assert isinstance(joined, partition.Csr)
        assert np.array_equal(as_scipy(joined).toarray(), want.toarray())
        assert np.array_equal(joined.indptr, want.indptr)
        assert np.array_equal(joined.indices, want.indices)
        x = np.random.default_rng(1).normal(size=(sum(sizes), 3))
        starts = np.cumsum([0] + sizes)
        y = spmm(joined, x)
        for m, s, e in zip(mats, starts[:-1], starts[1:]):
            assert np.array_equal(y[s:e], spmm(m, x[s:e]))

    def test_indices_are_int32_while_they_fit(self):
        """Like scipy, block_diag picks int32 for the joined indices and
        indptr, whatever index dtype its blocks hold."""
        mats = [random_csr(np.random.default_rng(n), n, n, 0.4, np.int64) for n in (4, 7, 2)]
        joined = block_diag(mats)
        assert joined.indices.dtype == joined.indptr.dtype == np.int32
        x = np.random.default_rng(2).normal(size=(joined.shape[0], 3))
        assert np.array_equal(spmm(joined, x), sp.block_diag(mats, format="csr") @ x)

    def test_one_block_is_returned_as_it_is(self):
        (m,) = self.blocks([6])
        assert block_diag([m]) is m


class TestExtract:
    def test_single_client_equals_graph(self):
        g = two_triangles()
        a = louvain_partition(g, 1, seed=0)
        (cd,) = extract_subgraphs(g, a, RATIOS, seed=0)
        npt.assert_array_equal(cd.graph.edges, g.edges)
        npt.assert_array_equal(cd.global_ids, np.arange(6))
        npt.assert_array_equal(cd.graph.features, g.features)

    def test_triangles_by_component(self):
        g = two_triangles()
        a = balanced_partition(g, 2, seed=0)
        parts = extract_subgraphs(g, a, RATIOS, seed=0)
        assert [cd.graph.edge_count for cd in parts] == [3, 3]

    def test_cross_edge_dropped(self):
        g = build(3, [(0, 1), (1, 2)])
        a = CommunityAssignment(np.array([0, 0, 1]), 2)
        parts = extract_subgraphs(g, a, RATIOS, seed=0)
        assert parts[0].graph.edge_count == 1
        assert parts[1].graph.edge_count == 0

    def test_matches_per_client_scan(self):
        # reference: scan every node and edge once per client
        for seed in range(4):
            g = generate_sbm(SbmConfig((20, 25, 15), 0.3, 0.05, 4, 0.2, seed))
            rng = np.random.default_rng(seed)
            cl = np.concatenate([np.arange(7), rng.integers(0, 7, g.node_count - 7)])
            rng.shuffle(cl)
            parts = extract_subgraphs(g, CommunityAssignment(cl, 7), RATIOS, seed)
            for cid, cd in enumerate(parts):
                ids = [v for v in range(g.node_count) if cl[v] == cid]
                local = {v: i for i, v in enumerate(ids)}
                edges = [(local[u], local[v]) for u, v in g.edges.tolist()
                         if cl[u] == cid and cl[v] == cid]
                assert cd.client_id == cid
                npt.assert_array_equal(cd.global_ids, ids)
                assert cd.graph.edges.tolist() == [list(e) for e in edges]
                npt.assert_array_equal(cd.graph.features, g.features[ids])
                npt.assert_array_equal(cd.graph.labels, g.labels[ids])
                masks = split_masks(cd.graph, RATIOS, seed + cid)
                for which in ("train", "val", "test"):
                    npt.assert_array_equal(cd.masks.get(which), masks.get(which))

    def test_never_creates_edges_and_conserves_nodes(self):
        for seed in range(4):
            g = generate_sbm(SbmConfig((20, 20), 0.3, 0.1, 4, 0.2, seed))
            a = balanced_partition(g, 4, seed=seed)
            parts = extract_subgraphs(g, a, RATIOS, seed=seed)
            assert sum(cd.graph.node_count for cd in parts) == g.node_count
            assert sum(cd.graph.edge_count for cd in parts) <= g.edge_count
            # induced property: local degree never exceeds global degree
            gd = degrees(g)
            for cd in parts:
                ld = degrees(cd.graph)
                assert np.all(ld <= gd[cd.global_ids])


class TestSparsify:
    def make_cd(self):
        g = generate_sbm(SbmConfig((12, 12), 0.5, 0.1, 4, 0.2, 3))
        a = balanced_partition(g, 2, seed=0)
        return extract_subgraphs(g, a, (0.5, 0.0, 0.5), seed=0)[0]

    def test_zero_rate_identity(self):
        cd = self.make_cd()
        assert sparsify_labels(cd, 0.0, 1) is cd
        assert sparsify_edges(cd, 0.0, 1) is cd

    def test_label_counts(self):
        cd = self.make_cd()
        before = cd.masks.train.size
        out = sparsify_labels(cd, 0.5, 7)
        assert out.masks.train.size == before - before // 2
        npt.assert_array_equal(out.masks.val, cd.masks.val)
        npt.assert_array_equal(out.masks.test, cd.masks.test)
        assert set(out.masks.train) <= set(cd.masks.train)

    def test_full_label_drop(self):
        cd = self.make_cd()
        assert sparsify_labels(cd, 1.0, 0).masks.train.size == 0

    def test_edge_counts(self):
        cd = self.make_cd()
        m = cd.graph.edge_count
        out = sparsify_edges(cd, 0.5, 7)
        assert out.graph.edge_count == m - m // 2
        npt.assert_array_equal(out.graph.features, cd.graph.features)
        npt.assert_array_equal(out.masks.train, cd.masks.train)

    def test_full_edge_drop(self):
        cd = self.make_cd()
        out = sparsify_edges(cd, 1.0, 0)
        assert out.graph.edge_count == 0
        assert np.all(degrees(out.graph) == 0)

    def test_deterministic(self):
        cd = self.make_cd()
        a = sparsify_edges(cd, 0.4, 13)
        b = sparsify_edges(cd, 0.4, 13)
        npt.assert_array_equal(a.graph.edges, b.graph.edges)
        a = sparsify_labels(cd, 0.4, 13)
        b = sparsify_labels(cd, 0.4, 13)
        npt.assert_array_equal(a.masks.train, b.masks.train)


def load_assignment(path) -> CommunityAssignment:
    """Read the `<global_id> <client_id>` lines that save_assignment writes."""
    pairs = sorted(
        tuple(int(x) for x in line.split())
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    client_of = np.array([cid for _, cid in pairs], dtype=np.int64)
    return CommunityAssignment(client_of, int(client_of.max()) + 1)


def test_assignment_dump_round_trip(tmp_path):
    g = two_triangles()
    a = balanced_partition(g, 2, seed=0)
    path = tmp_path / "assign.txt"
    save_assignment(a, path)
    b = load_assignment(path)
    npt.assert_array_equal(a.client_of, b.client_of)
    assert b.num_clients == 2
