import numpy as np
import numpy.testing as npt
import pytest

from fedgraphsim import graphs
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


class TestNormalizedAdjacency:
    def test_single_node(self):
        g = tiny_graph(1, [])
        dense = normalized_adjacency(g).toarray()
        npt.assert_allclose(dense, [[1.0]])

    def test_two_nodes_one_edge(self):
        # every entry 1/sqrt(2*2) = 1/2
        g = tiny_graph(2, [(0, 1)])
        dense = normalized_adjacency(g).toarray()
        npt.assert_allclose(dense, np.full((2, 2), 0.5))

    def test_triangle(self):
        g = tiny_graph(3, [(0, 1), (0, 2), (1, 2)])
        dense = normalized_adjacency(g).toarray()
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
            dense = normalized_adjacency(g).toarray()
            npt.assert_array_equal(dense, dense.T)
            vals = dense[dense > 0]
            assert np.all(vals <= 1.0)
            d = degrees(g)
            assert np.all(dense.sum(axis=1) <= np.sqrt(d + 1) + 1e-12)
            # diagonal present for every node
            assert np.all(np.diag(dense) > 0)


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
        ],
    )
    def test_matches_independent_draw_loop(self, blocks, intra, inter):
        cfg = SbmConfig(blocks, intra, inter, 8, 0.25, 123)
        g = generate_sbm(cfg)
        # same documented procedure, reimplemented with explicit loops: one
        # draw per pair, every pair tested against its own probability
        rng = np.random.default_rng(cfg.seed)
        block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
        n = len(block_of)
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                p = cfg.intra_prob if block_of[i] == block_of[j] else cfg.inter_prob
                if rng.random() < p:
                    expected.append((i, j))
        assert g.edge_count == len(expected)
        assert list(map(tuple, g.edges)) == expected
        # the features are drawn after the pairs, from the same stream
        features = np.zeros((n, cfg.feature_dim))
        features[np.arange(n), np.array(block_of) % cfg.feature_dim] = 1.0
        features += rng.normal(0.0, cfg.feature_noise, size=(n, cfg.feature_dim))
        npt.assert_array_equal(g.features, features)

    @pytest.mark.parametrize("block", [1, 97, 4949])
    def test_chunked_draws_match_one_draw(self, monkeypatch, block):
        # 100 nodes give 4,950 pairs and rows of up to 99 pairs, so every
        # block size here splits some row between two draws
        cfg = SbmConfig((50, 30, 20), 0.3, 0.02, 8, 0.25, 123)
        assert graphs.SBM_PAIR_BLOCK >= 4950
        whole = generate_sbm(cfg)
        monkeypatch.setattr(graphs, "SBM_PAIR_BLOCK", block)
        chunked = generate_sbm(cfg)
        npt.assert_array_equal(chunked.edges, whole.edges)
        npt.assert_array_equal(chunked.features, whole.features)

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

    def test_small_class_falls_back(self):
        labels = np.array([0] * 8 + [1] * 2)
        g = tiny_graph(10, [], labels=labels)
        with pytest.warns(UserWarning, match="unstratified"):
            m = split_masks(g, (0.5, 0.2, 0.3), 0)
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

    def test_dedup_and_loop_drop(self, tmp_path):
        path = tmp_path / "dirty.graph"
        lines = ["nodes=6 features=1 classes=2"]
        lines += [f"node {i} {i % 2} 0.0" for i in range(6)]
        lines += ["edge 3 5", "edge 3 5", "edge 4 4"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="dropped"):
            g = load_graph(path)
        npt.assert_array_equal(g.edges, [[3, 5]])

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("nodes=2 features=1 classes=2\nnode 0 0 0.0\nnode 1 oops 0.0\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "range.graph"
        path.write_text("nodes=1 features=1 classes=2\nnode 0 5 0.0\n")
        with pytest.raises(GraphFormatError, match="label 5"):
            load_graph(path)

    def test_round_trip(self, tmp_path):
        g = generate_sbm(SbmConfig((6, 5), 0.6, 0.2, 3, 0.4, 21))
        path = tmp_path / "rt.graph"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.node_count == g.node_count
        npt.assert_array_equal(g2.edges, g.edges)
        npt.assert_array_equal(g2.labels, g.labels)
        npt.assert_array_equal(g2.features, g.features)
