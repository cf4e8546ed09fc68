import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgraphsim.gcn import PARAM_FIELDS
from fedgraphsim.kernels import (
    FglHyper,
    LscValue,
    aggregate_models,
    blend_local,
    cluster_set,
    compute_lsc,
    compute_sfm,
    cosine_similarity,
    label_propagation,
    staleness_weights,
)
from oracles import (
    compute_lsc_ref,
    compute_sfm_ref,
    cosine_ref,
    degrees_ref,
    label_propagation_loop_ref,
    label_propagation_ref,
    lsc_loop_ref,
    make_client_data,
    random_graph_edges,
    random_params,
    random_soft,
    sfm_ref,
)


class TestSfm:
    def test_edgeless_graph_zero(self):
        cd = make_client_data(3, [], num_classes=2)
        soft = random_soft(np.random.default_rng(0), 3, 2)
        npt.assert_array_equal(compute_sfm(soft, [cd])[0], np.zeros((2, 2)))

    def test_two_node_hand_example(self):
        cd = make_client_data(2, [(0, 1)], num_classes=2)
        soft = np.array([[1.0, 0.0], [0.0, 1.0]])
        npt.assert_allclose(compute_sfm(soft, [cd])[0], [[0, 1], [1, 0]])

    def test_triangle_uniform(self):
        cd = make_client_data(3, [(0, 1), (0, 2), (1, 2)], num_classes=2)
        soft = np.full((3, 2), 0.5)
        npt.assert_allclose(compute_sfm(soft, [cd])[0], np.full((2, 2), 6.0))

    def test_symmetric_and_quadratic_scaling(self):
        rng = np.random.default_rng(4)
        cd = make_client_data(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], num_classes=3)
        soft = random_soft(rng, 5, 3)
        s1 = compute_sfm(soft, [cd])[0]
        npt.assert_allclose(s1, s1.T, rtol=1e-12)
        s2 = compute_sfm(2.5 * soft, [cd])[0]
        npt.assert_allclose(s2, 2.5**2 * s1, rtol=1e-12)

    @pytest.mark.parametrize("n, q", [(1, 0.0), (6, 0.0), (7, 0.2), (12, 0.4), (20, 0.8)])
    def test_matches_oracle_and_exactly_symmetric(self, n, q):
        rng = np.random.default_rng(n + int(10 * q))
        edges = random_graph_edges(rng, n, q)
        cd = make_client_data(n, edges, num_classes=4, rng=rng)
        soft = random_soft(rng, n, 4)
        m = compute_sfm(soft, [cd])[0]
        npt.assert_allclose(m, sfm_ref(soft, edges, degrees_ref(n, edges)), rtol=1e-12)
        assert np.array_equal(m, m.T)
        if not edges:
            npt.assert_array_equal(m, np.zeros((4, 4)))

    def test_row_count_checked(self):
        cd = make_client_data(3, [(0, 1)], num_classes=2)
        with pytest.raises(ValueError):
            compute_sfm(np.ones((2, 2)), [cd])[0]


class TestCosine:
    def test_self_similarity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert cosine_similarity(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        ) == pytest.approx(0.0)

    def test_hand_value(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert cosine_similarity(a, b) == pytest.approx(1 / math.sqrt(2))

    def test_zero_norm_rule(self):
        assert cosine_similarity(np.zeros((2, 2)), np.ones((2, 2))) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((3, 3)), rng.random((3, 3))
        assert cosine_similarity(7.3 * a, b) == pytest.approx(
            cosine_similarity(a, b), rel=1e-12
        )


class TestClusterSet:
    def make_kb(self):
        # flattened fingerprints with pairwise cosines sim(1,2)=0.9, sim(1,3)=0.3
        v1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v2 = np.array([[0.9, math.sqrt(1 - 0.81)], [0.0, 0.0]])
        v3 = np.array([[0.3, math.sqrt(1 - 0.09)], [0.0, 0.0]])
        return {1: v1, 2: v2, 3: v3}

    def test_unreachable_threshold(self):
        kb = self.make_kb()
        assert cluster_set(1, kb, 1.01) == {1}

    def test_zero_threshold_includes_all(self):
        kb = self.make_kb()
        assert cluster_set(1, kb, 0.0) == {1, 2, 3}

    def test_threshold_filtering(self):
        kb = self.make_kb()
        assert cluster_set(1, kb, 0.5) == {1, 2}

    def test_monotone_in_theta(self):
        kb = self.make_kb()
        prev = cluster_set(1, kb, 0.0)
        for theta in (0.2, 0.5, 0.8, 1.0):
            cur = cluster_set(1, kb, theta)
            assert cur <= prev
            assert 1 in cur
            prev = cur

    def test_similarity_exactly_at_theta_is_member(self):
        # dot 3, norms 1 and 5: the cosine 3/5 is the double nearest 0.6
        v1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        v2 = np.array([[3.0, 4.0], [0.0, 0.0]])
        theta = cosine_ref(v1, v2)
        assert theta == 0.6
        kb = {1: v1, 2: v2}
        assert cluster_set(1, kb, theta) == {1, 2}
        assert cluster_set(1, kb, np.nextafter(theta, 1.0)) == {1}

    def test_zero_norm_fingerprint_joins_only_at_theta_zero(self):
        kb = {1: np.eye(2), 2: np.zeros((2, 2))}
        assert cluster_set(1, kb, 0.0) == {1, 2}
        assert cluster_set(1, kb, 1e-12) == {1}
        assert cluster_set(2, kb, 0.0) == {1, 2}
        assert cluster_set(2, kb, 1e-12) == {2}


class TestLabelPropagation:
    def test_lambda_one_identity(self):
        cd = make_client_data(4, [(0, 1), (1, 2), (2, 3)], num_classes=2)
        soft = random_soft(np.random.default_rng(0), 4, 2)
        for k in (1, 3):
            npt.assert_allclose(label_propagation(soft, [cd], 1.0, k), soft)

    def test_two_node_path(self):
        cd = make_client_data(2, [(0, 1)], num_classes=2)
        soft = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = label_propagation(soft, [cd], 0.5, 1)
        npt.assert_allclose(out, np.full((2, 2), 0.5))

    def test_isolated_node_renormalizes(self):
        cd = make_client_data(1, [], num_classes=2)
        soft = np.array([[0.3, 0.7]])
        out = label_propagation(soft, [cd], 0.5, 1)
        npt.assert_allclose(out, [[0.3, 0.7]], rtol=1e-12)

    def test_isolated_node_zero_lambda_uniform(self):
        cd = make_client_data(1, [], num_classes=4)
        out = label_propagation(np.array([[0.1, 0.2, 0.3, 0.4]]), [cd], 0.0, 2)
        npt.assert_allclose(out, [[0.25, 0.25, 0.25, 0.25]])

    def test_zero_steps_returns_input(self):
        cd = make_client_data(3, [(0, 1)], num_classes=2)
        soft = random_soft(np.random.default_rng(2), 3, 2)
        npt.assert_array_equal(label_propagation(soft, [cd], 0.3, 0), soft)

    def test_rows_always_sum_to_one(self):
        rng = np.random.default_rng(5)
        cd = make_client_data(6, [(0, 1), (1, 2), (3, 4)], num_classes=3)
        for lam in (0.0, 0.3, 0.7, 1.0):
            out = label_propagation(random_soft(rng, 6, 3), [cd], lam, 3)
            npt.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-9)


class TestLsc:
    def test_one_hot_rows(self):
        cd = make_client_data(4, [(0, 1), (1, 2), (2, 3)], num_classes=2)
        soft = np.zeros((4, 2))
        soft[:, 0] = 1.0
        want = math.exp(-1) * (1 + 2 + 2 + 1)
        got = compute_lsc(soft, [cd])[0]
        assert got.raw == pytest.approx(want, rel=1e-12)
        assert got.clamped == got.raw

    def test_two_node_uniform(self):
        cd = make_client_data(2, [(0, 1)], num_classes=2)
        got = compute_lsc(np.full((2, 2), 0.5), [cd])[0]
        assert got.raw == pytest.approx(2 * (math.exp(-1) - math.log(2)), rel=1e-9)
        assert got.raw == pytest.approx(-0.65054, abs=1e-5)
        assert got.clamped == 1e-6

    def test_all_isolated(self):
        cd = make_client_data(3, [], num_classes=2)
        got = compute_lsc(np.full((3, 2), 0.5), [cd])[0]
        assert got.raw == 0.0
        assert got.clamped == 1e-6

    def test_zero_prob_convention(self):
        cd = make_client_data(2, [(0, 1)], num_classes=3)
        soft = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        got = compute_lsc(soft, [cd])[0]
        assert np.isfinite(got.raw)


# (node count, edge probability): sparse ones leave isolated nodes
EXACT_GRAPHS = [(1, 0.0), (6, 0.0), (9, 0.1), (16, 0.1), (16, 0.3), (30, 0.05), (30, 0.4)]


def exact_case(n, q, c=3):
    """A client on a random graph and soft labels with some exact zeros."""
    rng = np.random.default_rng(10 * n + int(100 * q))
    cd = make_client_data(n, random_graph_edges(rng, n, q), num_classes=c, rng=rng)
    soft = random_soft(rng, n, c)
    soft[rng.random((n, c)) < 0.2] = 0.0
    soft[0] = np.eye(c)[0]
    return cd, soft / np.maximum(soft.sum(axis=1, keepdims=True), 1e-300)


class TestBitExact:
    """The client kernels equal their earlier array versions bit for bit
    (tests/oracles.py keeps those verbatim), and the loop oracles closely."""

    @pytest.mark.parametrize("n, q", EXACT_GRAPHS)
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k_steps", [0, 1, 2, 3])
    def test_label_propagation(self, n, q, lam, k_steps):
        cd, soft = exact_case(n, q)
        got = label_propagation(soft, [cd], lam, k_steps)
        assert np.array_equal(got, label_propagation_ref(soft, cd, lam, k_steps))
        degs = degrees_ref(n, cd.graph.edges.tolist())
        loop = label_propagation_loop_ref(soft, cd.graph.edges.tolist(), degs, lam, k_steps)
        npt.assert_allclose(got, loop, rtol=1e-12, atol=1e-15)

    def test_propagation_dead_rows_reset(self):
        # lam = 0 and isolated nodes: every isolated row sums to 0 and resets
        cd, soft = exact_case(30, 0.05)
        isolated = np.asarray(degrees_ref(30, cd.graph.edges.tolist())) == 0
        assert isolated.any() and not isolated.all()
        got = label_propagation(soft, [cd], 0.0, 2)
        assert np.array_equal(got, label_propagation_ref(soft, cd, 0.0, 2))
        assert np.array_equal(got[isolated], np.full((isolated.sum(), 3), 1 / 3))

    @pytest.mark.parametrize("n, q", EXACT_GRAPHS)
    def test_lsc_and_sfm(self, n, q):
        cd, soft = exact_case(n, q)
        assert (soft == 0.0).any()
        got = compute_lsc(soft, [cd])[0]
        assert got.raw == compute_lsc_ref(soft, cd)
        degs = degrees_ref(n, cd.graph.edges.tolist())
        assert got.raw == pytest.approx(lsc_loop_ref(soft, degs), rel=1e-12, abs=1e-15)
        assert np.array_equal(compute_sfm(soft, [cd])[0], compute_sfm_ref(soft, cd))

    def test_lsc_ignores_non_positive_and_nan_entries(self):
        cd, soft = exact_case(16, 0.3)
        soft[1, 0], soft[2, 1], soft[3, 2] = np.nan, -0.0, -0.25
        assert compute_lsc(soft, [cd])[0].raw == compute_lsc_ref(soft, cd)

    @pytest.mark.parametrize("k_steps", [0, 1, 2])
    def test_propagation_leaves_input(self, k_steps):
        cd, soft = exact_case(16, 0.3)
        keep = soft.copy()
        out = label_propagation(soft, [cd], 0.4, k_steps)
        assert np.array_equal(soft, keep)
        assert out is not soft and not np.shares_memory(out, soft)


# A client for the batched kernels: (node count, edge probability, rng seed).
STATS_CLIENTS = st.lists(
    st.tuples(st.integers(1, 14), st.sampled_from([0.0, 0.1, 0.3, 0.8]), st.integers(0, 999)),
    min_size=1,
    max_size=6,
)


def stats_case(clients, c=4):
    """Clients on random graphs and their soft labels, with exact zeros and
    now and then an all-zero row."""
    datas, softs = [], []
    for n, q, seed in clients:
        rng = np.random.default_rng(seed)
        datas.append(make_client_data(n, random_graph_edges(rng, n, q), num_classes=c, rng=rng))
        soft = random_soft(rng, n, c)
        soft[rng.random((n, c)) < 0.2] = 0.0
        soft[rng.random(n) < 0.15] = 0.0
        softs.append(soft / np.maximum(soft.sum(axis=1, keepdims=True), 1e-300))
    return datas, softs


def assert_batch_equals_each_alone(datas, softs, lam, k_steps):
    """One batched pass gives every client's oracle values bit for bit."""
    soft = np.concatenate(softs)
    sfms = compute_sfm(soft, datas)
    propagated = label_propagation(soft, datas, lam, k_steps)
    lscs = compute_lsc(propagated, datas)
    assert len(sfms) == len(lscs) == len(datas)
    start = 0
    for cd, own, sfm, lsc in zip(datas, softs, sfms, lscs):
        end = start + cd.graph.node_count
        alone = label_propagation_ref(own, cd, lam, k_steps)
        assert np.array_equal(sfm, compute_sfm_ref(own, cd))
        assert np.array_equal(propagated[start:end], alone)
        want = LscValue.from_raw(compute_lsc_ref(alone, cd))
        assert lsc.raw == want.raw and lsc.clamped == want.clamped
        start = end
    assert start == soft.shape[0]
    return propagated


class TestBatchedStats:
    """compute_sfm, label_propagation and compute_lsc on many clients at once
    equal the per-client oracles bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(STATS_CLIENTS, st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0, 1, 3]))
    def test_random_client_sets(self, clients, lam, k_steps):
        assert_batch_equals_each_alone(*stats_case(clients), lam, k_steps)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("k_steps", [0, 1, 3])
    def test_edgeless_one_node_and_isolated_clients(self, lam, k_steps):
        clients = [(5, 0.0, 1), (1, 0.0, 2), (12, 0.1, 3), (9, 0.8, 4), (1, 0.0, 5)]
        datas, softs = stats_case(clients)
        softs[0][0] = 0.0  # an edgeless node's zero row sums to 0 at any lam
        isolated = np.concatenate([cd.plan.deg for cd in datas]) == 0.0
        assert isolated[5 + 1 : 5 + 1 + 12].any() and not isolated[5 + 1 : 5 + 1 + 12].all()
        propagated = assert_batch_equals_each_alone(datas, softs, lam, k_steps)
        if k_steps:  # the zero-sum rows reset to uniform
            npt.assert_array_equal(propagated[0], np.full(4, 0.25))
            if lam == 0.0:
                npt.assert_array_equal(propagated[isolated], 0.25)

    @pytest.mark.parametrize("k_steps", [0, 2])
    def test_clients_past_one_pairwise_block(self, k_steps):
        # numpy sums more than 128 terms pairwise in halves: each client's
        # sum must still be its own, whatever its offset in the batch
        clients = [(7, 0.3, 1), (150, 0.03, 2), (1, 0.0, 3), (300, 0.01, 4), (129, 0.05, 5)]
        assert_batch_equals_each_alone(*stats_case(clients), 0.5, k_steps)

    def test_rows_must_cover_every_client(self):
        datas, softs = stats_case([(3, 0.5, 1), (4, 0.5, 2)])
        short = np.concatenate(softs)[:-1]
        for call in (
            lambda: compute_sfm(short, datas),
            lambda: label_propagation(short, datas, 0.5, 0),
            lambda: compute_lsc(short, datas),
        ):
            with pytest.raises(ValueError, match="one row per local node"):
                call()


class TestStalenessWeights:
    def test_alpha_zero_uniform(self):
        w = staleness_weights([2.0, 2.0, 2.0], [0, 3, 5], t=6, alpha=0.0)
        npt.assert_allclose(w, np.full(3, 1 / 3), rtol=1e-12)

    def test_hand_example(self):
        w = staleness_weights([1.0, 1.0], [3, 1], t=4, alpha=0.5)
        npt.assert_allclose(w, [0.63397, 0.36603], atol=1e-5)

    def test_single_entry(self):
        w = staleness_weights([1.0], [0], t=1, alpha=0.7)
        npt.assert_allclose(w, [1.0])

    def test_sum_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = int(rng.integers(4, 12))
            taus = sorted(rng.integers(0, t, size=4).tolist())
            w = staleness_weights(np.full(4, 3.0), taus, t=t, alpha=0.8)
            assert abs(w.sum() - 1.0) <= 1e-12
            # equal confidence: fresher tau (larger) gets larger weight
            for a, b in zip(w, w[1:]):
                assert a <= b + 1e-15

    def test_rejects_future_tau(self):
        with pytest.raises(ValueError):
            staleness_weights([1.0], [5], t=5, alpha=0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            staleness_weights([], [], t=3, alpha=0.5)


class TestAggregate:
    def test_identity_weight(self):
        p = random_params(np.random.default_rng(0), 2, 3, 2)
        q = aggregate_models([p], [1.0])
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_fedavg_weighting(self):
        zeros = random_params(np.random.default_rng(0), 2, 2, 2, scale=0.0)
        fours = random_params(np.random.default_rng(0), 2, 2, 2, scale=0.0)
        for name in PARAM_FIELDS:
            getattr(fours, name)[:] = 4.0
        out = aggregate_models([zeros, fours], [0.25, 0.75])
        for name in PARAM_FIELDS:
            npt.assert_allclose(getattr(out, name), 3.0)

    def test_matches_elementwise_oracle(self):
        from oracles import aggregate_ref

        rng = np.random.default_rng(9)
        params = [random_params(rng, 3, 4, 2) for _ in range(3)]
        w = rng.random(3)
        w = w / w.sum()
        got = aggregate_models(params, w)
        ref = aggregate_ref(params, w)
        for name in PARAM_FIELDS:
            npt.assert_allclose(getattr(got, name), getattr(ref, name), atol=1e-12)

    def test_rejects_bad_weights(self):
        p = random_params(np.random.default_rng(0), 2, 2, 2)
        with pytest.raises(ValueError):
            aggregate_models([p, p], [0.7, 0.7])

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            aggregate_models(
                [random_params(rng, 2, 2, 2), random_params(rng, 3, 2, 2)], [0.5, 0.5]
            )


class TestBlend:
    def test_three_to_one(self):
        rng = np.random.default_rng(1)
        srv, loc = random_params(rng, 2, 3, 2), random_params(rng, 2, 3, 2)
        out = blend_local(srv, loc, 3.0, 1.0)
        for name in PARAM_FIELDS:
            npt.assert_allclose(
                getattr(out, name),
                0.75 * getattr(srv, name) + 0.25 * getattr(loc, name),
                rtol=1e-12,
            )

    def test_equal_confidence_average(self):
        rng = np.random.default_rng(2)
        srv, loc = random_params(rng, 2, 2, 2), random_params(rng, 2, 2, 2)
        out = blend_local(srv, loc, 2.0, 2.0)
        for name in PARAM_FIELDS:
            npt.assert_allclose(
                getattr(out, name),
                (getattr(srv, name) + getattr(loc, name)) / 2,
                rtol=1e-12,
            )

    def test_fixed_point(self):
        p = random_params(np.random.default_rng(3), 2, 3, 2)
        out = blend_local(p, p, 0.9, 1.7)
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(out, name), getattr(p, name))

    def test_convexity_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            srv, loc = random_params(rng, 2, 3, 2), random_params(rng, 2, 3, 2)
            out = blend_local(srv, loc, float(rng.random()) + 1e-9, float(rng.random()))
            for name in PARAM_FIELDS:
                lo = np.minimum(getattr(srv, name), getattr(loc, name))
                hi = np.maximum(getattr(srv, name), getattr(loc, name))
                assert np.all(getattr(out, name) >= lo)
                assert np.all(getattr(out, name) <= hi)

    def test_rejects_double_zero(self):
        p = random_params(np.random.default_rng(0), 2, 2, 2)
        with pytest.raises(ValueError):
            blend_local(p, p, 0.0, 0.0)


class TestHyper:
    def test_defaults(self):
        h = FglHyper()
        assert (h.theta, h.lam, h.k_steps, h.alpha) == (0.5, 0.5, 2, 0.5)


def test_lsc_clamp_rules():
    assert LscValue.from_raw(5.0) == LscValue(5.0, 5.0)
    assert LscValue.from_raw(-2.0) == LscValue(-2.0, 1e-6)
    assert LscValue.from_raw(1e-9).clamped == 1e-6
