import hashlib
import logging
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fedgraphsim import graphs
from fedgraphsim.cli import main
from fedgraphsim.graphs import (
    Graph,
    GraphFormatError,
    SbmConfig,
    degrees,
    generate_sbm,
    load_graph,
    normalized_adjacency,
    save_graph,
    split_masks,
)
from oracles import as_scipy, sbm_ref


def tiny_graph(node_count, edges, num_classes=2, feature_dim=2, labels=None):
    rng = np.random.default_rng(1)
    if labels is None:
        labels = np.arange(node_count) % num_classes
    return Graph(
        node_count,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        rng.normal(size=(node_count, feature_dim)),
        labels,
        num_classes,
        feature_dim,
    )


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            tiny_graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            tiny_graph(3, [(0, 1), (1, 0)])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            tiny_graph(3, [(0, 1)], labels=np.array([0, 1, 2]), num_classes=2)

    def test_canonicalizes_edge_order(self):
        g = tiny_graph(4, [(3, 2), (1, 0)])
        npt.assert_array_equal(g.edges, [[0, 1], [2, 3]])


def canonical_ref(edges):
    """Edges as construction always canonicalized them: each row sorted, then
    the rows lexicographically."""
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


class TestEdgeCanonicalization:
    """Canonical input skips the sort; any other input is sorted or refused
    exactly as before."""

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_and_reversed_edges_are_sorted(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        edges = np.array([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        canonical = tiny_graph(n, edges).edges
        npt.assert_array_equal(canonical, canonical_ref(edges))
        flipped = np.where(rng.random(len(edges))[:, None] < 0.5, edges[:, ::-1], edges)
        for variant in (edges[rng.permutation(len(edges))], edges[::-1], flipped):
            got = tiny_graph(n, variant).edges
            npt.assert_array_equal(got, canonical_ref(variant))
            npt.assert_array_equal(got, canonical)

    @pytest.mark.parametrize(
        "edges", [[(0, 2), (0, 1), (1, 2)], [(0, 1), (2, 3), (1, 3)], [(0, 1), (3, 2)]]
    )
    def test_rows_out_of_order_in_one_column_are_sorted(self, edges):
        npt.assert_array_equal(tiny_graph(4, edges).edges, canonical_ref(edges))

    def test_canonical_edges_are_kept_as_an_owned_copy(self):
        edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3]], dtype=np.int64)
        g = tiny_graph(4, edges)
        npt.assert_array_equal(g.edges, edges)
        assert not np.shares_memory(g.edges, edges)

    @pytest.mark.parametrize(
        "edges, match",
        [
            ([(0, 1), (1, 2), (0, 1)], "duplicate"),
            ([(0, 1), (1, 0)], "duplicate"),
            ([(0, 1), (0, 1)], "duplicate"),
            ([(1, 1)], "self-loops"),
            ([(0, 1), (2, 2)], "self-loops"),
            ([(0, 1), (1, 3)], "out of range"),
            ([(-1, 1)], "out of range"),
        ],
    )
    def test_duplicates_loops_and_bad_endpoints_are_refused(self, edges, match):
        with pytest.raises(ValueError, match=match):
            tiny_graph(3, edges)

    @pytest.mark.parametrize("edges", [[], [(1, 2)], [(2, 1)]])
    def test_no_or_one_edge(self, edges):
        npt.assert_array_equal(tiny_graph(3, edges).edges, canonical_ref(edges))


class TestNormalizedAdjacency:
    def test_single_node(self):
        g = tiny_graph(1, [])
        dense = as_scipy(normalized_adjacency(g)).toarray()
        npt.assert_allclose(dense, [[1.0]])

    def test_two_nodes_one_edge(self):
        # every entry 1/sqrt(2*2) = 1/2
        g = tiny_graph(2, [(0, 1)])
        dense = as_scipy(normalized_adjacency(g)).toarray()
        npt.assert_allclose(dense, np.full((2, 2), 0.5))

    def test_triangle(self):
        g = tiny_graph(3, [(0, 1), (0, 2), (1, 2)])
        dense = as_scipy(normalized_adjacency(g)).toarray()
        npt.assert_allclose(dense, np.full((3, 3), 1.0 / 3.0))

    def test_symmetric_and_bounded_random(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 12))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = tiny_graph(n, edges)
            dense = as_scipy(normalized_adjacency(g)).toarray()
            npt.assert_array_equal(dense, dense.T)
            vals = dense[dense > 0]
            assert np.all(vals <= 1.0)
            d = degrees(g)
            assert np.all(dense.sum(axis=1) <= np.sqrt(d + 1) + 1e-12)
            # diagonal present for every node
            assert np.all(np.diag(dense) > 0)


SERVER_BOUND_SBM = SbmConfig((500,) * 10, 0.03, 0.001, 16, 0.5, 0)


class TestSbm:
    def test_two_full_blocks(self):
        g = generate_sbm(SbmConfig((3, 3), 1.0, 0.0, 4, 0.0, 5))
        assert g.edge_count == 6
        assert set(map(tuple, g.edges)) == {
            (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
        }

    def test_empty_block(self):
        g = generate_sbm(SbmConfig((4,), 0.0, 0.7, 3, 0.1, 5))
        assert g.edge_count == 0

    @pytest.mark.parametrize(
        "blocks, intra, inter",
        [
            pytest.param((50, 50), 0.3, 0.01, id="intra-above-inter"),
            pytest.param((30, 40, 25), 0.05, 0.3, id="inter-above-intra"),
            pytest.param((35, 45), 0.2, 0.2, id="equal"),
            pytest.param((25, 20, 15), 0.0, 1.0, id="intra-0-inter-1"),
            pytest.param((25, 20, 15), 1.0, 0.0, id="intra-1-inter-0"),
            # geometric() returns INT64_MAX here: one draw per stream, no hit
            pytest.param((20, 30), 5e-324, 5e-324, id="smallest-probability"),
            pytest.param((30, 20), 1.0, 5e-324, id="intra-1-inter-smallest"),
            pytest.param((1,) * 40, 0.5, 0.2, id="one-node-blocks"),  # no intra slot
            pytest.param((70,), 0.15, 0.5, id="single-block"),  # no inter slot
            pytest.param((1, 3, 1, 7, 2), 0.6, 0.25, id="mixed-small-blocks"),
            pytest.param((1,) * 4500 + (2,) * 500, 0.5, 0.0005, id="5000-blocks"),
        ],
    )
    def test_matches_independent_draw_loop(self, blocks, intra, inter):
        # the same gaps drawn one at a time and placed by walking the rows
        # (tests/oracles.py), then the features from the same stream
        cfg = SbmConfig(blocks, intra, inter, 8, 0.25, 123)
        g, ref = generate_sbm(cfg), sbm_ref(cfg)
        assert g.edge_count == ref.edge_count
        npt.assert_array_equal(g.edges, ref.edges)
        npt.assert_array_equal(g.features, ref.features)
        npt.assert_array_equal(g.labels, ref.labels)

    @pytest.mark.parametrize("block", [1, 97, 4949])
    def test_chunked_draws_match_one_draw(self, monkeypatch, block):
        # 555 expected intra hits and 62 inter ones: at 4,949 gaps a chunk every
        # stream is one chunk drawn past its end and drawn again up to it; at
        # 1 and 97 the last hits come in many chunks
        cfg = SbmConfig((50, 30, 20), 0.3, 0.02, 8, 0.25, 123)
        assert graphs.SBM_MIN_GAPS < 97
        whole = generate_sbm(cfg)
        monkeypatch.setattr(graphs, "SBM_MIN_GAPS", block)
        chunked = generate_sbm(cfg)
        npt.assert_array_equal(chunked.edges, whole.edges)
        npt.assert_array_equal(chunked.features, whole.features)

    def test_edge_counts_per_block_pair_are_binomial(self):
        # 400 seeds of one config: each block pair's edge count summed over the
        # seeds within 4.5 standard deviations of its binomial mean, and the
        # per-seed intra and inter counts with the binomial variance (a ratio
        # within 0.7-1.3, about 4 standard errors of a variance from 400 draws)
        blocks, intra, inter, seeds = (30, 20, 10), 0.45, 0.134, 400
        block_of = np.repeat(np.arange(3), blocks)
        totals = np.zeros((3, 3))
        per_seed = []
        for seed in range(seeds):
            g = generate_sbm(SbmConfig(blocks, intra, inter, 2, 0.0, seed))
            a, b = block_of[g.edges[:, 0]], block_of[g.edges[:, 1]]
            np.add.at(totals, (a, b), 1)
            per_seed.append((np.count_nonzero(a == b), np.count_nonzero(a != b)))
        sizes = np.array(blocks)
        pairs = np.triu(np.outer(sizes, sizes), 1) + np.diag(sizes * (sizes - 1) // 2)
        probs = np.where(np.eye(3, dtype=bool), intra, inter)
        mean, var = seeds * pairs * probs, seeds * pairs * probs * (1 - probs)
        upper = np.triu(np.ones((3, 3), dtype=bool))
        assert np.all(np.abs(totals - mean)[upper] <= 4.5 * np.sqrt(var[upper]))
        assert not totals[~upper].any()  # every edge has u < v, so block(u) <= block(v)
        diagonal = np.eye(3, dtype=bool)
        slots = [pairs[diagonal].sum(), pairs[upper & ~diagonal].sum()]
        for counts, n_slots, p in zip(zip(*per_seed), slots, (intra, inter)):
            ratio = np.var(counts, ddof=1) / (n_slots * p * (1 - p))
            assert 0.7 <= ratio <= 1.3, ratio

    @pytest.mark.parametrize(
        "cfg",
        [
            # perfbench's server_bound and client_bound graphs
            pytest.param(SERVER_BOUND_SBM, id="server-bound"),
            pytest.param(SbmConfig((1500,) * 4, 0.02, 0.001, 16, 0.5, 0), id="client-bound"),
            # 1,999,000 pairs and a graph of 50 KB
            pytest.param(SbmConfig((1000,) * 2, 0.001, 0.0001, 1, 0.5, 0), id="sparse"),
            # an ogbn-arxiv-sized graph of about 1.26M edges: 1.4e10 pairs
            pytest.param(SbmConfig((4240,) * 40, 0.0028, 0.000018, 1, 0.5, 0), id="large"),
        ],
    )
    def test_working_set_is_the_graphs_own_arrays(self, cfg):
        generate_sbm(cfg)
        tracemalloc.start()
        try:
            g = generate_sbm(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = g.edges.nbytes + g.features.nbytes + g.labels.nbytes
        # two copies of the graph's own arrays (the peak is inside _sbm_edges,
        # where the hits, the edge array and its write indices coexist; Graph's
        # later edge copy stays below it) and eight int64 per node (each row's
        # first slots, hit counts and column shifts); the pair sampler's draw
        # buffer exceeded it on the first three
        assert peak <= 2 * own + 64 * g.node_count

    def test_server_bound_graph_is_pinned(self):
        g = generate_sbm(SERVER_BOUND_SBM)
        assert g.edge_count == 48_661
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
            "c75d5619925a521bd92b5d124ee29a49b1dfa65ea3099aa121e8cc954ce43f0f")
        assert hashlib.sha256(g.features.tobytes()).hexdigest() == (
            "0af063dedb7ea8274f3ab7f62a35e1837b7d662044859d3c9c69c8e2329a4c6e")

    def test_pure_function_of_config(self):
        cfg = SbmConfig((10, 15), 0.4, 0.05, 6, 0.5, 99)
        g1, g2 = generate_sbm(cfg), generate_sbm(cfg)
        npt.assert_array_equal(g1.edges, g2.edges)
        npt.assert_array_equal(g1.features, g2.features)
        npt.assert_array_equal(g1.labels, g2.labels)


class TestSplitMasks:
    def test_all_train(self):
        g = tiny_graph(8, [(0, 1)])
        m = split_masks(g, (1.0, 0.0, 0.0), 3)
        npt.assert_array_equal(m.train, np.arange(8))
        assert m.val.size == 0 and m.test.size == 0

    def test_single_class_floor_sizes(self):
        g = tiny_graph(10, [], labels=np.zeros(10, int))
        m = split_masks(g, (0.2, 0.4, 0.4), 0)
        assert (m.train.size, m.val.size, m.test.size) == (2, 4, 4)

    def test_deterministic(self):
        g = tiny_graph(30, [], num_classes=3)
        m1 = split_masks(g, (0.2, 0.4, 0.4), 17)
        m2 = split_masks(g, (0.2, 0.4, 0.4), 17)
        npt.assert_array_equal(m1.train, m2.train)
        npt.assert_array_equal(m1.val, m2.val)
        npt.assert_array_equal(m1.test, m2.test)

    def test_disjoint_and_stratified(self):
        g = tiny_graph(40, [], num_classes=4)
        m = split_masks(g, (0.25, 0.25, 0.5), 2)
        allset = np.concatenate([m.train, m.val, m.test])
        assert len(set(allset.tolist())) == allset.size
        for c in range(4):
            nodes = np.flatnonzero(g.labels == c)
            for mask, ratio in ((m.train, 0.25), (m.val, 0.25), (m.test, 0.5)):
                got = np.intersect1d(mask, nodes).size
                assert abs(got - ratio * nodes.size) <= 1

    def test_small_class_falls_back(self, caplog):
        labels = np.array([0] * 8 + [1] * 2)
        g = tiny_graph(10, [], labels=labels)
        with caplog.at_level(logging.WARNING, logger="fedgraphsim"):
            m = split_masks(g, (0.5, 0.2, 0.3), 0)
        assert "unstratified" in caplog.text
        assert (m.train.size, m.val.size, m.test.size) == (5, 2, 3)

    def test_bad_ratios(self):
        g = tiny_graph(4, [])
        with pytest.raises(ValueError):
            split_masks(g, (0.9, 0.4, 0.0), 0)


class TestGraphFile:
    def test_header_dims(self, tmp_path):
        path = tmp_path / "big.graph"
        with open(path, "w") as f:
            f.write("nodes=2708 features=1433 classes=7\n")
            zeros = " ".join(["0.0"] * 1433)
            for i in range(2708):
                f.write(f"node {i} {i % 7} {zeros}\n")
            f.write("edge 0 1\n")
        g = load_graph(path)
        assert g.node_count == 2708
        assert g.feature_dim == 1433
        assert g.num_classes == 7

    def test_single_node(self, tmp_path):
        path = tmp_path / "one.graph"
        path.write_text("nodes=1 features=2 classes=2\nnode 0 1 0.5 -1.0\n")
        g = load_graph(path)
        assert g.node_count == 1 and g.edge_count == 0

    def test_dedup_and_loop_drop(self, tmp_path, caplog):
        path = tmp_path / "dirty.graph"
        lines = ["nodes=6 features=1 classes=2"]
        lines += [f"node {i} {i % 2} 0.0" for i in range(6)]
        lines += ["edge 3 5", "edge 3 5", "edge 4 4"]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="fedgraphsim"):
            g = load_graph(path)
        assert "dropped" in caplog.text
        npt.assert_array_equal(g.edges, [[3, 5]])

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("nodes=2 features=1 classes=2\nnode 0 0 0.0\nnode 1 oops 0.0\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(path)

    @pytest.mark.parametrize("edge", ["0 2", "-1 1", "5 0"])
    def test_edge_out_of_range_names_both_endpoints(self, tmp_path, edge):
        path = tmp_path / "edge.graph"
        path.write_text(f"nodes=2 features=1 classes=2\nnode 0 0 0.0\nnode 1 1 0.0\nedge {edge}\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert str(err.value) == f"{path}: line 4: edge {edge}: endpoint out of range for 2 nodes"

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "range.graph"
        path.write_text("nodes=1 features=1 classes=2\nnode 0 5 0.0\n")
        with pytest.raises(GraphFormatError, match="label 5"):
            load_graph(path)

    @pytest.mark.parametrize(
        "header",
        [
            "nodes=-1 features=1 classes=2",
            "nodes=0 features=1 classes=2",
            "nodes=2 features=-1 classes=2",
            "nodes=2 features=0 classes=2",
            "nodes=2 features=1 classes=1",
        ],
    )
    def test_header_out_of_range(self, tmp_path, header):
        path = tmp_path / "header.graph"
        path.write_text(f"{header}\nnode 0 0 0.0\nnode 1 0 0.0\n")
        with pytest.raises(GraphFormatError, match="line 1: header needs"):
            load_graph(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, tmp_path, value):
        path = tmp_path / "nan.graph"
        path.write_text(f"nodes=2 features=2 classes=2\nnode 0 0 0.0 1.0\nnode 1 1 0.5 {value}\n")
        with pytest.raises(GraphFormatError, match="line 3: features must be finite"):
            load_graph(path)

    @pytest.mark.parametrize(
        "text",
        ["nodes=-1 features=1 classes=2\n", "nodes=1 features=1 classes=2\nnode 0 0 nan\n"],
    )
    def test_cli_partition_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        out = tmp_path / "assign.txt"
        assert main(
            ["partition", "--input", str(path), "--method", "louvain", "--clients", "1",
             "--out", str(out)]
        ) == 2
        assert "line " in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "nodes=3 features=1 classes=2\nnode 0 0 0.0\nnode 1 0 0.0\n",  # a line short
            "nodes=1 features=3 classes=2\nnode 0 0 0.0 1.0\n",  # a token short
            "nodes=1 features=1 classes=2\n",  # no node line
            "nodes=2 features=3 classes=2\nnode 0 0 0.0 1.0 2.0\nedge 0 1\n",  # a wide line short
        ],
    )
    def test_header_larger_than_the_file_is_refused(self, tmp_path, text):
        path = tmp_path / "short.graph"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="line 1: header declares"):
            load_graph(path)

    def test_cli_partition_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.graph"
        path.write_bytes(b"nodes=1 features=1 classes=2\nnode 0 0 0.5 \xff\n")
        out = tmp_path / "assign.txt"
        assert main(
            ["partition", "--input", str(path), "--method", "louvain", "--clients", "1",
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err and "runtime failure" not in err
        assert not out.exists()

    def test_cli_partition_oversize_header_exits_2_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.graph"
        path.write_text("nodes=100000000000 features=100000 classes=2\nnode 0 0 0.0\n")
        out = tmp_path / "assign.txt"
        assert main(
            ["partition", "--input", str(path), "--method", "louvain", "--clients", "1",
             "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "line 1: header declares 100000000000 nodes" in err and not out.exists()

    def test_round_trip(self, tmp_path):
        g = generate_sbm(SbmConfig((6, 5), 0.6, 0.2, 3, 0.4, 21))
        path = tmp_path / "rt.graph"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.node_count == g.node_count
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.labels, g.labels)
        npt.assert_array_equal(g2.features, g.features)
