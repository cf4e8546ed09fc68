import itertools

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from fedgraphsim import partition
from fedgraphsim.graphs import Graph, SbmConfig, degrees, generate_sbm, split_masks
from fedgraphsim.partition import (
    CommunityAssignment,
    TripPlan,
    balanced_partition,
    block_diag,
    extract_subgraphs,
    louvain_partition,
    modularity,
    save_assignment,
    sparsify_edges,
    sparsify_labels,
    spmm,
)
from oracles import (
    all_set_partitions,
    balanced_ref,
    louvain_ref,
    modularity_ref,
    plan_mismatches,
    random_graph_edges,
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

    def test_modularity_trace_monotone(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = generate_sbm(SbmConfig((12, 12, 12), 0.5, 0.03, 4, 0.2, seed))
            trace = []
            louvain_partition(g, 3, seed=seed, modularity_trace=trace)
            assert trace, "expected at least one pass"
            diffs = np.diff(np.array(trace))
            assert np.all(diffs >= -1e-12)

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


class TestLouvainMatchesLoopReference:
    """The CSR-level Louvain replays the dict-based loop reference exactly."""

    @pytest.fixture(autouse=True)
    def bounded_passes(self, monkeypatch):
        # fail, rather than hang, if a change lets the moves cycle forever
        passes = itertools.count()
        local_move = partition._local_move

        def bounded(*args):
            assert next(passes) < 10_000, "Louvain did not converge"
            return local_move(*args)

        monkeypatch.setattr(partition, "_local_move", bounded)

    @pytest.mark.parametrize(
        "graphs, seeds",
        [
            pytest.param(sbm_graphs, range(10), id="sbm"),
            pytest.param(graphs_with_isolated_nodes, range(5), id="isolated-nodes"),
            pytest.param(lambda: [build(7, [])], range(3), id="edgeless"),
        ],
    )
    def test_same_communities_and_trace(self, graphs, seeds):
        for g in graphs():
            for seed in seeds:
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


class TestTripPlan:
    """build_all cuts each graph's plan out of one block-diagonal build; it
    must equal the plan built from that graph alone, bit for bit."""

    def assert_matches_alone(self, graphs):
        plans = TripPlan.build_all(graphs)
        assert len(plans) == len(graphs)
        for i, (g, plan) in enumerate(zip(graphs, plans)):
            assert plan_mismatches(plan, trip_plan_ref(g)) == [], f"graph {i} of {len(graphs)}"

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
    """block_diag places square CSR blocks on one diagonal, back to back or
    every ``rows`` rows, keeping each row's stored values in order."""

    def blocks(self, sizes, seed=5):
        rng = np.random.default_rng(seed)
        return [random_csr(rng, n, n, 0.4, np.int32) for n in sizes]

    @pytest.mark.parametrize("sizes", [[1, 1], [4, 1, 7], [6, 6, 2, 9], [3, 5]])
    def test_back_to_back_equals_scipy(self, sizes):
        mats = self.blocks(sizes)
        joined, real = block_diag(mats)
        assert np.array_equal(real, np.arange(sum(sizes)))
        want = sp.block_diag(mats, format="csr")
        assert joined.shape == want.shape
        assert np.array_equal(joined.toarray(), want.toarray())
        assert np.array_equal(joined.indptr, want.indptr)
        assert np.array_equal(joined.indices, want.indices)
        x = np.random.default_rng(1).normal(size=(sum(sizes), 3))
        starts = np.cumsum([0] + sizes)
        y = spmm(joined, x)
        for m, s, e in zip(mats, starts[:-1], starts[1:]):
            assert np.array_equal(y[s:e], spmm(m, x[s:e]))

    def test_padded_rows_are_empty(self):
        mats = self.blocks([4, 1, 3])
        joined, real = block_diag(mats, rows=5)
        assert real.tolist() == [0, 1, 2, 3, 5, 10, 11, 12]
        assert joined.shape == (15, 15)
        dense = joined.toarray()
        for k, m in enumerate(mats):
            n = m.shape[0]
            block = dense[5 * k : 5 * k + 5, 5 * k : 5 * k + 5]
            assert np.array_equal(block[:n, :n], m.toarray())
            assert not block[n:].any() and not block[:, n:].any()
        assert np.count_nonzero(dense) == sum(m.nnz for m in mats)

    def test_one_block_is_returned_as_it_is(self):
        (m,) = self.blocks([6])
        assert block_diag([m])[0] is m
        assert block_diag([m], rows=8)[0].shape == (8, 8)


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
