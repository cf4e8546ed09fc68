import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgraphsim import gcn
from fedgraphsim.gcn import (
    BATCH_ROWS,
    PARAM_FIELDS,
    ModelParams,
    RunMemo,
    accuracy,
    evaluate,
    forward,
    forward_batch,
    init_params,
    softmax_rows,
    train_batch,
    train_epoch,
)
from fedgraphsim.graphs import Graph, NodeMasks
from fedgraphsim.kernels import FglHyper
from fedgraphsim.partition import ClientData, TripPlan, sparsify_edges, sparsify_labels
from fedgraphsim.protocol import ClientState, client_trip, train_trips
from oracles import (
    accuracy_ref,
    as_scipy,
    batch_client,
    call_plan_ref,
    csr_mismatches,
    forward_cached_ref,
    forward_per_client,
    gcn_forward_ref,
    gcn_loss_and_grads_ref,
    gradients_full_rows,
    loss_and_grads,
    loss_and_grads_ref,
    make_client_data,
    plan_mismatches,
    random_graph_edges,
    random_params,
    softmax_rows_ref,
    train_epoch_per_client,
    train_epoch_ref,
)


def loss_only(p, cd):
    train = cd.masks.train
    probs = forward(p, cd)
    picked = np.clip(probs[train, cd.graph.labels[train]], 1e-12, None)
    return float(-np.mean(np.log(picked)))


def fd_gradients(p, cd, h=1e-5):
    """Central finite differences over every parameter entry."""
    grads = []
    for name in PARAM_FIELDS:
        arr = getattr(p, name)
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_only(p, cd)
            flat[idx] = keep - h
            down = loss_only(p, cd)
            flat[idx] = keep
            gflat[idx] = (up - down) / (2 * h)
        grads.append(g)
    return ModelParams(*grads)


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in PARAM_FIELDS:
        a = getattr(analytic, name).reshape(-1)
        n = getattr(numeric, name).reshape(-1)
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_rel_close(got, ref, rtol=1e-12):
    """max |got - ref| <= rtol * max |ref|, over the whole array."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


# (node count, edge probability): random graphs, some with isolated nodes,
# an edgeless graph and a single node
ORACLE_GRAPHS = [(n, q) for n in (3, 5, 9, 16, 30) for q in (0.1, 0.3, 0.7)]
ORACLE_GRAPHS += [(12, 0.0), (1, 0.0)]


def oracle_case(n, q, hidden=7):
    """A client on a random graph with half its nodes in the train mask, and
    random params."""
    rng = np.random.default_rng(1000 * n + int(100 * q))
    c = int(rng.integers(2, 5))
    cd = make_client_data(
        n, random_graph_edges(rng, n, q), num_classes=c, rng=rng, feature_dim=6,
        train=np.sort(rng.choice(n, size=max(1, n // 2), replace=False)),
    )
    return cd, random_params(rng, 6, hidden, c)


@pytest.mark.parametrize("n, q", ORACLE_GRAPHS)
def test_class_width_algebra_matches_hidden_wide_oracle(n, q):
    cd, p = oracle_case(n, q)
    ref_loss, ref_grads = gcn_loss_and_grads_ref(p, cd)
    loss, grads = loss_and_grads(p, cd)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert_rel_close(forward(p, cd), gcn_forward_ref(p, cd)[2])
    for name in PARAM_FIELDS:
        assert_rel_close(getattr(grads, name), getattr(ref_grads, name))


@pytest.mark.parametrize("hidden", [7, 64])
@pytest.mark.parametrize("n, q", ORACLE_GRAPHS)
def test_training_step_is_bit_exact(n, q, hidden):
    """The one-buffer step equals p.vec - lr * grads of the earlier
    expressions (tests/oracles.py) bit for bit, as do loss, gradients,
    soft labels and accuracy."""
    cd, p = oracle_case(n, q, hidden)
    loss, grads = loss_and_grads(p, cd)
    ref_loss, ref_grads = loss_and_grads_ref(p, cd)
    assert loss == ref_loss
    assert np.array_equal(grads.vec, ref_grads.vec)
    for lr in (0.3, 0.01):
        assert np.array_equal(train_epoch(p, cd, lr).vec, train_epoch_ref(p, cd, lr).vec)
    probs = forward(p, cd)
    assert np.array_equal(probs, forward_cached_ref(p, cd)[2])
    for mask in (cd.masks.train, cd.masks.test, np.arange(n)[::2]):
        got = accuracy(probs, cd, mask)
        assert type(got) is float and got == accuracy_ref(probs, cd, mask)


def test_softmax_rows_is_bit_exact_and_leaves_input():
    rng = np.random.default_rng(8)
    z = rng.normal(scale=30.0, size=(12, 5))
    z[3] = 0.0
    z[4, 2] = -np.inf
    keep = z.copy()
    got = softmax_rows(z)
    assert np.array_equal(got, softmax_rows_ref(keep))
    assert np.array_equal(z, keep) and not np.shares_memory(got, z)


def test_train_epoch_leaves_params():
    cd, p = oracle_case(16, 0.3)
    keep = p.vec.copy()
    out = train_epoch(p, cd, 0.3)
    assert np.array_equal(p.vec, keep)
    assert not np.shares_memory(out.vec, p.vec)
    assert out.vec.flags.c_contiguous and out.dims == p.dims


def test_fields_are_views_of_the_vector_in_layout_order():
    f, h, c = 2, 3, 4
    vec = np.arange(h * (f + 1 + c) + c, dtype=np.float64)
    p = ModelParams.from_vector(vec, (f, h, c))
    shapes = {"w0": (f, h), "b0": (h,), "w1": (h, c), "b1": (c,)}
    for name in PARAM_FIELDS:
        field = getattr(p, name)
        assert field.shape == shapes[name] and np.shares_memory(field, vec)
    npt.assert_array_equal(np.concatenate([getattr(p, n).ravel() for n in PARAM_FIELDS]), vec)
    p.b1[0] = -1.0  # a write to a field writes to the vector
    assert vec[-c] == -1.0
    q = ModelParams(p.w0, p.b0, p.w1, p.b1)
    assert np.array_equal(q.vec, vec) and not np.shares_memory(q.vec, vec)
    with pytest.raises(AttributeError):
        p.w2


class TestInit:
    def test_deterministic(self):
        p1 = init_params(5, 64, 3, seed=42)
        p2 = init_params(5, 64, 3, seed=42)
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(p1, name), getattr(p2, name))

    def test_glorot_bound(self):
        p = init_params(7, 11, 4, seed=0)
        assert np.abs(p.w0).max() <= math.sqrt(6 / (7 + 11))
        assert np.abs(p.w1).max() <= math.sqrt(6 / (11 + 4))

    def test_zero_biases(self):
        p = init_params(3, 5, 2, seed=1)
        assert not p.b0.any() and not p.b1.any()


class TestForward:
    def test_zero_output_layer_uniform(self):
        cd = make_client_data(4, [(0, 1), (2, 3)], num_classes=3)
        p = init_params(3, 4, 3, seed=0)
        p.w1[:] = 0.0
        p.b1[:] = 0.0
        probs = forward(p, cd)
        npt.assert_allclose(probs, np.full((4, 3), 1.0 / 3.0))

    def test_single_node_hand_computed(self):
        g = Graph(1, np.zeros((0, 2), int), np.array([[2.0]]), [0], 2, 1)
        ids = np.array([0])
        cd = ClientData(g, ids, NodeMasks(ids, [], ids), 0)
        p = ModelParams(
            np.array([[1.0]]), np.array([0.5]), np.array([[2.0, -1.0]]), np.array([0.0, 1.0])
        )
        # adjacency is [[1]]; hidden = relu(2*1+0.5) = 2.5; logits = (5.0, -1.5)
        z = np.array([5.0, -1.5])
        expected = np.exp(z - z.max())
        expected /= expected.sum()
        npt.assert_allclose(forward(p, cd)[0], expected, rtol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        cd = make_client_data(6, random_graph_edges(rng, 6), num_classes=4, rng=rng)
        p = init_params(3, 5, 4, seed=9)
        probs = forward(p, cd)
        npt.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-9)
        assert np.all(probs >= 0)

    def test_shape_mismatch(self):
        cd = make_client_data(3, [(0, 1)], num_classes=2)
        with pytest.raises(ValueError):
            forward(init_params(9, 4, 2, seed=0), cd)


class TestLossAndGrads:
    def test_near_one_hot_small_loss(self):
        # saturated logits on the true class: loss vanishes in the limit
        cd = make_client_data(2, [(0, 1)], num_classes=2)
        cd.graph.labels[:] = 0
        p = init_params(3, 4, 2, seed=0)
        p.w1[:] = 0.0
        p.b1[:] = 0.0
        p.b1[0] = 40.0
        loss, _ = loss_and_grads(p, cd)
        assert loss < 1e-6

    def test_uniform_loss_is_log_c(self):
        for c in (2, 3, 5):
            cd = make_client_data(4, [(0, 1), (1, 2)], num_classes=c)
            p = init_params(3, 4, c, seed=1)
            p.w1[:] = 0.0
            p.b1[:] = 0.0
            loss, _ = loss_and_grads(p, cd)
            assert abs(loss - math.log(c)) < 1e-12

    def test_gradcheck_small_graph(self):
        rng = np.random.default_rng(11)
        cd = make_client_data(4, [(0, 1), (1, 2), (2, 3)], num_classes=2, rng=rng)
        p = init_params(3, 4, 2, seed=5)
        _, grads = loss_and_grads(p, cd)
        numeric = fd_gradients(p, cd)
        assert max_rel_error(grads, numeric) < 1e-4

    def test_empty_train_mask(self):
        cd = make_client_data(3, [(0, 1)], num_classes=2, train=[])
        with pytest.raises(ValueError):
            loss_and_grads(init_params(3, 4, 2, seed=0), cd)


class TestTrainEpoch:
    def test_zero_lr_identity(self):
        cd = make_client_data(4, [(0, 1), (2, 3)], num_classes=2)
        p = init_params(3, 4, 2, seed=2)
        q = train_epoch(p, cd, lr=0.0)
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(p, name), getattr(q, name))

    def test_descent_step(self):
        cd = make_client_data(4, [(0, 1), (1, 2), (2, 3)], num_classes=2)
        p = init_params(3, 4, 2, seed=3)
        before, _ = loss_and_grads(p, cd)
        after, _ = loss_and_grads(train_epoch(p, cd, lr=0.01), cd)
        assert after < before

    def test_two_steps_match_scripted_oracle(self):
        cd = make_client_data(5, [(0, 1), (1, 2), (3, 4)], num_classes=3)
        p0 = init_params(3, 4, 3, seed=8)
        got = train_epoch(train_epoch(p0, cd, 0.05), cd, 0.05)
        # oracle: apply the finite-difference-verified gradient flow by hand
        ref = p0
        for _ in range(2):
            _, g = loss_and_grads(ref, cd)
            ref = ModelParams(
                *(getattr(ref, n) - 0.05 * getattr(g, n) for n in PARAM_FIELDS)
            )
        for name in PARAM_FIELDS:
            npt.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_descent_property_over_seeds(self):
        # small-lr full-batch step never increases the training loss
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            cd = make_client_data(
                n, random_graph_edges(rng, n, 0.5), num_classes=2, rng=rng
            )
            p = init_params(3, 4, 2, seed=seed)
            before, _ = loss_and_grads(p, cd)
            after, _ = loss_and_grads(train_epoch(p, cd, 1e-3), cd)
            assert after <= before + 1e-12


class TestEvaluate:
    def test_all_correct(self):
        cd = make_client_data(2, [(0, 1)], num_classes=2)
        cd.graph.labels[:] = 0
        p = init_params(3, 4, 2, seed=0)
        p.w1[:] = 0.0
        p.b1[:] = np.array([5.0, 0.0])
        assert evaluate(p, cd, "test") == 1.0

    def test_uniform_tie_breaks_to_class_zero(self):
        cd = make_client_data(4, [(0, 1)], num_classes=3)
        cd.graph.labels[:] = 0
        p = init_params(3, 4, 3, seed=0)
        p.w1[:] = 0.0
        p.b1[:] = 0.0
        assert evaluate(p, cd, "test") == 1.0

    def test_fractional_accuracy(self):
        cd = make_client_data(10, [], num_classes=2)
        cd.graph.labels[:] = np.array([0] * 7 + [1] * 3)
        p = init_params(3, 4, 2, seed=0)
        p.w1[:] = 0.0
        p.b1[:] = np.array([1.0, 0.0])  # predicts class 0 everywhere
        assert evaluate(p, cd, "test") == 0.7

    def test_empty_mask(self):
        cd = make_client_data(3, [(0, 1)], num_classes=2)
        cd.masks.val = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            evaluate(init_params(3, 4, 2, seed=0), cd, "val")


def test_deterministic_forward_backward():
    cd = make_client_data(5, [(0, 1), (2, 3), (3, 4)], num_classes=3)
    p = init_params(3, 4, 3, seed=4)
    l1, g1 = loss_and_grads(p, cd)
    l2, g2 = loss_and_grads(p, cd)
    assert l1 == l2
    for name in PARAM_FIELDS:
        npt.assert_array_equal(getattr(g1, name), getattr(g2, name))


# Batched kernels: every member of a batch equals the per-client loop (the
# kernels as they were, in tests/oracles.py) bit for bit.


def member_rows(soft, plan):
    """A ``train_batch`` score: each member's soft labels, its slice of ``soft``."""
    return list(soft)


def assert_batch_matches_loop(members, lr=0.3, layouts=None):
    """Train and forward the batch; every member's params and soft labels are
    the per-client loop's, and its test accuracy is ``accuracy``'s float of
    those soft labels (NaN for a member without test nodes)."""
    trained = list(train_batch(members, lr, layouts, member_rows))
    assert len(trained) == len(members)
    scored = []
    for (p, cd), (q, acc, soft) in zip(members, trained):
        ref = train_epoch_per_client(p, cd, lr)
        assert q.dims == p.dims and np.array_equal(q.vec, ref.vec)
        assert np.array_equal(soft, forward_per_client(ref, cd))
        scored.append((cd, soft, acc))
    for (p, cd), (soft, acc) in zip(members, forward_batch(members)):
        assert np.array_equal(soft, forward_per_client(p, cd))
        scored.append((cd, soft, acc))
    for cd, soft, acc in scored:
        test = cd.masks.test
        assert type(acc) is float
        assert repr(acc) == repr(accuracy(soft, cd, test) if test.size else math.nan)


def kernel_calls(monkeypatch):
    """Record the member count of every kernel call."""
    calls, real = [], gcn._Block

    def block(members):
        calls.append(len(members))
        return real(members)

    monkeypatch.setattr(gcn, "_Block", block)
    return calls


def random_batch(seed, **widths):
    rng = np.random.default_rng(seed)
    return [
        batch_client(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), **widths)
        for _ in range(int(rng.integers(2, 12)))
    ]


@pytest.mark.parametrize("seed", range(6))
def test_batch_of_random_clients_matches_per_client_loop(seed):
    assert_batch_matches_loop(random_batch(seed))


def test_batch_at_the_default_hidden_width_matches_the_loop():
    """The random batches above at feature 16 and the default hidden width
    64, where a row of ``h @ w1`` padded to a larger row count can round apart
    from its call of one (node counts not a multiple of 4, on most kernels)."""
    for seed in range(6):
        assert_batch_matches_loop(random_batch(seed, f=16, h=64, c=3))


def test_batch_with_edgeless_and_one_node_clients_matches_loop():
    rng = np.random.default_rng(3)
    members = [
        batch_client(rng, 9, 0.4),
        batch_client(rng, 12, 0.0, edges=[]),
        batch_client(rng, 1, 0.0, edges=[]),
        batch_client(rng, 20, 0.2),
        batch_client(rng, 1, 0.0, edges=[]),
    ]
    assert_batch_matches_loop(members)
    for member in members[1:3]:  # each alone, a batch of one
        assert_batch_matches_loop([member])


def test_batch_with_empty_test_masks_scores_every_other_member():
    rng = np.random.default_rng(9)
    members = [batch_client(rng, n, 0.4) for n in (8, 13, 8, 8, 1, 1)]
    # random test subsets; empty first and last in the 8-node call, first in the 1-node one
    for k, (_, cd) in enumerate(members):
        size = 0 if k in (0, 3, 4) else int(rng.integers(1, cd.graph.node_count + 1))
        cd.masks.test = np.sort(rng.choice(cd.graph.node_count, size=size, replace=False))
    p, cd = members[2]
    p.w1[:], p.b1[:] = 0.0, 0.0  # uniform soft labels: every argmax ties, to class 0
    test = cd.masks.test
    assert accuracy(forward(p, cd), cd, test) == np.mean(cd.graph.labels[test] == 0)
    assert_batch_matches_loop(members)
    for member in members[:2] + members[3:5]:  # each alone, a batch of one
        assert_batch_matches_loop([member])


@pytest.mark.parametrize("rate", [0.3, 0.8])
def test_batch_of_edge_sparsified_clients_matches_loop(rate):
    rng = np.random.default_rng(int(10 * rate))
    members = []
    for k in range(5):
        p, cd = batch_client(rng, int(rng.integers(6, 30)), 0.5)
        thinned = sparsify_edges(cd, rate, seed=k)
        assert thinned.graph.edge_count < cd.graph.edge_count
        members.append((p, thinned))
    assert_batch_matches_loop(members)


# server_bound's client order: 80 clients of 16 nodes and 120 of 31, interleaved
SERVER_BOUND_SIZES = (16, 16, 31, 31, 31) * 40


@pytest.mark.parametrize("sizes, firsts, want", [
    ((3, 17, 40, 9, 2, 40, 25), [0, 1, 2, 3, 4, 6], [1, 1, 2, 1, 1, 1]),
    # 64 x 16 and 33 x 31 rows fill BATCH_ROWS
    (SERVER_BOUND_SIZES, [0, 2, 57, 112, 160, 167], [64, 33, 33, 33, 16, 21]),
], ids=["mixed", "server_bound"])
def test_batch_of_mixed_sizes_is_one_call_per_node_count(monkeypatch, sizes, firsts, want):
    """Members of one node count share a kernel call, in member order and
    within BATCH_ROWS, and the calls run in the order of their first members,
    each when ``train_batch`` is asked for its first member; results come
    back in member order."""
    rng = np.random.default_rng(5)
    members = [batch_client(rng, n, 0.3) for n in sizes]
    calls = kernel_calls(monkeypatch)
    assert_batch_matches_loop(members)
    assert calls == want * 2  # train_batch, then forward_batch
    calls.clear()
    made = [len(calls) for _ in train_batch(members, 0.3)]
    assert made == [sum(f <= i for f in firsts) for i in range(len(members))]


def test_batch_of_one_node_count_splits_by_train_and_test_count(monkeypatch):
    """Members of one node count share a call only if they share train and test
    counts too, so a call's members all have the same shapes."""
    rng = np.random.default_rng(15)
    members = []
    for train, test in (([1, 6], 8), ([0, 2, 5], 8), ([3, 4], 8), ([2, 7], 4)):
        cd = make_client_data(8, random_graph_edges(rng, 8, 0.4), num_classes=3, rng=rng,
                              feature_dim=6, train=train)
        cd.masks.test = cd.masks.test[:test]
        members.append((random_params(rng, 6, 5, 3), cd))
    calls = kernel_calls(monkeypatch)
    assert_batch_matches_loop(members)
    assert calls == [2, 1, 1] * 2  # the 2-train members of 8 test nodes, then each other


def test_batch_straddling_the_cap_splits_into_consecutive_calls(monkeypatch):
    rng = np.random.default_rng(6)
    sizes = (300, 300, 120, 300, 300, BATCH_ROWS + 50, 120, 60)
    members = [batch_client(rng, n, 4.0 / n, f=4, c=2) for n in sizes]
    calls = kernel_calls(monkeypatch)
    assert_batch_matches_loop(members)
    # 4 x 300 rows pass the cap; a member above it runs alone
    assert calls == [3, 2, 1, 1, 1] * 2


def test_a_batch_of_one_is_a_call_of_one():
    rng = np.random.default_rng(7)
    p, cd = batch_client(rng, 15, 0.3)
    (block,) = gcn._blocks([(p, cd)])
    lay = block.layout
    assert block.vecs.shape == (1, p.vec.size) and lay.ax.shape == (1, 15, 6)
    assert np.array_equal(lay.ax[0], cd.plan.ax) and np.shares_memory(lay.ax, cd.plan.ax)
    assert lay.plan is cd.plan  # its own operators, as the upload kernels take them
    assert_batch_matches_loop([(p, cd)])
    (q, _, _), = train_batch([(p, cd)], 0.1)
    assert not np.shares_memory(q.vec, p.vec)


@st.composite
def gathered_calls(draw):
    """A kernel call's members, all of one node count (and so of one train and
    test count): from one run's join among clients of other sizes, joined in
    any order, or with plans built alone; now and then one member."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, q = draw(st.integers(1, 25)), draw(st.sampled_from([0.0, 0.1, 0.4, 1.0]))
    members = [batch_client(rng, n, q)[1] for _ in range(draw(st.sampled_from([1, 2, 3, 6])))]
    if draw(st.booleans()):  # one run's join; else each plan is built alone on first use
        run = members + [batch_client(rng, int(rng.integers(1, 30)), q)[1]
                         for _ in range(draw(st.integers(0, 4)))]
        run = [run[i] for i in rng.permutation(len(run))]
        for cd, plan in zip(run, TripPlan.build_all(run)):
            cd.plan = plan
    return members


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(gathered_calls())
def test_a_batch_gathers_the_operators_block_diag_joined(datas):
    """A call's layout gathers each operator from its members' joined plan (or
    a join of their own): array for array, dtypes and shapes, what
    ``block_diag`` of their plans gives, with the train rows of its A_hat and
    the members' labels and test rows; a lone member's are views of its plan."""
    lay = gcn._Layout(tuple(datas))
    ref, (n, f), k = call_plan_ref(datas), datas[0].plan.ax.shape, len(datas)
    assert plan_mismatches(lay.plan, ref) == []
    assert lay.ax.shape == (k, n, f)
    assert np.array_equal(lay.ax, np.stack([cd.plan.ax for cd in datas]))
    rows = np.concatenate([cd.masks.train + i * n for i, cd in enumerate(datas)])
    assert csr_mismatches(lay.adj_t, as_scipy(ref.adj)[rows], "adj_t") == []
    labels = [cd.graph.labels for cd in datas]
    train, test = ([cd.masks.get(m) for cd in datas] for m in ("train", "test"))
    assert np.array_equal(lay.labels, np.concatenate([y[t] for y, t in zip(labels, train)]))
    assert np.array_equal(lay.test, np.stack(test) + n * np.arange(k)[:, None])
    assert np.array_equal(lay.test_labels, np.stack([y[t] for y, t in zip(labels, test)]))
    if k == 1:
        assert lay.plan is datas[0].plan and np.shares_memory(lay.ax, datas[0].plan.ax)


# A run's memo of layouts (gcn._blocks): a kernel call of several members
# reuses the layout of the previous batch's call of the same ClientData in
# the same order, and no other; a lone client's layout is kept for the run.


def built_layouts(monkeypatch):
    """Record the members of every layout built."""
    built, real = [], gcn._Layout

    def layout(datas):
        built.append(datas)
        return real(datas)

    monkeypatch.setattr(gcn, "_Layout", layout)
    return built


def test_a_batch_reuses_only_the_previous_batch_layouts(monkeypatch):
    rng = np.random.default_rng(11)
    a = [batch_client(rng, 7, 0.4) for _ in range(3)]  # one kernel call
    b = [batch_client(rng, 7, 0.4) for _ in range(3)]  # a's shapes and client ids, other data
    assert {cd.client_id for _, cd in a + b} == {0}
    built, layouts = built_layouts(monkeypatch), {}
    batches = {"a": a, "reversed": a[::-1], "b": b, "lone": a[:1]}
    steps = [("a", True), ("a", False), ("reversed", True), ("b", True), ("a", True),
             ("a", False), ("lone", True), ("a", True), ("b", True), ("lone", False)]
    kept = []  # the lone layouts, in the memo from their first call on
    for name, builds in steps:
        before, datas = len(built), tuple(cd for _, cd in batches[name])
        assert_batch_matches_loop(batches[name], layouts=layouts)
        # the loop check's forward_batch builds one more layout, outside the memo
        assert built[before:-1] == ([datas] if builds else [])
        kept += [datas] if name == "lone" and builds else []
        assert list(layouts) == kept + ([] if name == "lone" else [datas])


def test_a_shared_layout_is_read_only():
    for sizes in ((9,), (6, 6)):  # a lone client's layout, then a several-member one
        rng, layouts = np.random.default_rng(12), {}
        list(train_batch([batch_client(rng, n, 0.5) for n in sizes], 0.3, layouts))
        (lay,) = layouts.values()
        plan = lay.plan
        for array in (lay.ax, lay.labels, lay.test, lay.test_labels, plan.ax, plan.deg,
                      *plan.adj[:3], *plan.prop[:3], *plan.edge_w[:3], *lay.adj_t[:3]):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_a_reused_layout_reads_no_member_labels_or_masks():
    rng = np.random.default_rng(13)
    members = [batch_client(rng, 8, 0.4) for _ in range(3)]  # one kernel call
    layouts = {}
    for _, cd in members:  # a test subset, so each member's accuracy is its own
        cd.masks.test = np.sort(rng.choice(cd.graph.node_count, size=4, replace=False))
    first = list(train_batch(members, 0.3, layouts, member_rows))
    for (_, cd), (_, acc, soft) in zip(members, first):
        assert acc == accuracy(soft, cd, cd.masks.test)
        # grouping reads the mask sizes; any read of their ids fails or moves a result
        cd.graph.labels = None
        cd.masks = NodeMasks(*(np.full(m.size, -10**9) for m in (cd.masks.train, cd.masks.val,
                                                                  cd.masks.test)))
    again = list(train_batch(members, 0.3, layouts, member_rows))
    for (q1, a1, s1), (q2, a2, s2) in zip(first, again, strict=True):
        assert np.array_equal(q1.vec, q2.vec) and np.array_equal(s1, s2) and a1 == a2


# A run's workspace (gcn.Workspace in its RunMemo): the hidden-width
# temporaries of every kernel call live in buffers that grow to the largest
# call, and nothing a call returns is a view of them.

HIDDEN = 64


def workspace_members(rng, sizes):
    return [batch_client(rng, n, 0.3, f=4, c=3, h=HIDDEN) for n in sizes]


def test_a_second_call_allocates_no_hidden_width_array():
    members = workspace_members(np.random.default_rng(21), (120, 120, 120))
    memo = RunMemo()
    first = list(train_batch(members, 0.3, memo, member_rows))
    tracemalloc.start()
    try:
        again = list(train_batch(members, 0.3, memo, member_rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below half of one hidden-width array of the call (3 members x 120 rows x
    # 64 floats, 184,320 bytes); z0, relu(z0) and dZ0 fresh per call are three
    # of them, and so is one numpy ufunc buffer (8,192 elements, 64 KiB), as
    # the bias add and the mask product each took before both ran through the
    # workspace. What stays (about 57 KiB) is the parameter rows and the
    # class-width arrays.
    assert peak < len(members) * 120 * HIDDEN * 8 // 2
    for (q1, a1, s1), (q2, a2, s2) in zip(first, again, strict=True):
        assert np.array_equal(q1.vec, q2.vec) and np.array_equal(s1, s2) and a1 == a2
    alone = list(train_batch(members, 0.3, None, member_rows))  # a workspace of its own
    for (q1, a1, s1), (q2, a2, s2) in zip(first, alone, strict=True):
        assert np.array_equal(q1.vec, q2.vec) and np.array_equal(s1, s2) and a1 == a2


def test_nothing_returned_shares_the_workspace():
    rng = np.random.default_rng(22)
    memo, members = RunMemo(), workspace_members(rng, (30, 41, 12))
    trained = list(train_batch(members, 0.3, memo, member_rows))
    scored = forward_batch(members, memo)
    states = [ClientState(i, cd, p) for i, (p, cd) in enumerate(members)]
    batch = train_trips(states, {}, 0.3, memo, FglHyper())
    uploads = [client_trip(state, batch)[0] for state in states]
    returned = [q.vec for q, _, _ in trained] + [soft for _, _, soft in trained]
    returned += [soft for soft, _ in scored]
    returned += [a for u in uploads for a in (u.params.vec, u.sfm)]
    assert set(memo.work.bufs) == {"z0", "h", "hw", "d_z0", "relu"}
    for buf in memo.work.bufs.values():
        assert not any(np.shares_memory(a, buf) for a in returned)


def test_the_workspace_grows_to_the_largest_call_only():
    rng = np.random.default_rng(23)
    calls = [(20, 20), (50, 50, 50), (9,), (25, 25, 25, 25), (70,)]  # one kernel call each
    memo, largest = RunMemo(), {"hidden": 0, "classes": 0}
    for sizes in calls:
        list(train_batch(workspace_members(rng, sizes), 0.3, memo))
        rows = sum(sizes)
        largest = {"hidden": max(largest["hidden"], rows * HIDDEN),
                   "classes": max(largest["classes"], rows * 3)}
        bufs = memo.work.bufs
        assert {name: buf.size for name, buf in bufs.items()} == {
            "z0": largest["hidden"], "h": largest["hidden"], "d_z0": largest["hidden"],
            "relu": largest["hidden"], "hw": largest["classes"]}
        assert bufs["relu"].dtype == bool


# The training step runs its output layer on the train rows only and takes
# g = A_hat dZ1 as the transposed product of A_hat's train rows. Exact, not
# close: every kernel call's gradients are the full-row step's on the same
# layout bit for bit (tests/oracles.py), and a lone client's are the
# per-client reference's.


@st.composite
def step_members(draw):
    """(params, ClientData) members of one train_batch: mixed node counts,
    1-node clients, and train masks that are a random subset, every node, or
    nodes with only their self-loop; some clients label- or edge-sparsified.
    Feature and hidden widths start at 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, h, c = draw(st.integers(1, 5)), draw(st.integers(1, 8)), draw(st.integers(2, 4))
    members = []
    for k in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from([1, 1, 2, 5, 8, 13, 21, 34]))
        kind = draw(st.sampled_from(["subset", "all", "self-loop only"]))
        train = np.arange(n) if kind == "all" else np.sort(
            rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        edges = random_graph_edges(rng, n, float(rng.uniform(0.0, 0.7)))
        if kind == "self-loop only":
            edges = [e for e in edges if not set(e) & set(train.tolist())]
        cd = make_client_data(n, edges, num_classes=c, rng=rng, feature_dim=f, train=train)
        perturb = draw(st.sampled_from([None, sparsify_labels, sparsify_edges]))
        cd = perturb(cd, 0.5, k) if perturb else cd
        members.append((random_params(rng, f, h, c), cd))
    return members


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(step_members())
def test_train_row_step_is_the_full_row_step_bit_for_bit(members):
    for block in gcn._blocks(members):
        datas = [members[i][1] for i in block.index]
        assert len({(cd.graph.node_count, cd.masks.train.size, cd.masks.test.size)
                    for cd in datas}) == 1
        grads = block.gradients()
        assert grads.tobytes() == gradients_full_rows(block, datas).tobytes()
        if len(block.index) == 1:
            (p, cd), = (members[i] for i in block.index)
            assert grads.tobytes() == loss_and_grads_ref(p, cd)[1].vec.tobytes()


def test_batch_refuses_mismatched_shapes_and_empty_train_masks():
    rng = np.random.default_rng(8)
    members = [batch_client(rng, 6, 0.5), batch_client(rng, 6, 0.5, f=4)]
    with pytest.raises(ValueError, match="do not match data"):
        forward_batch(members)
    empty = make_client_data(4, [(0, 1)], num_classes=3, rng=rng, feature_dim=6, train=[])
    members = [batch_client(rng, 6, 0.5), (random_params(rng, 6, 5, 3), empty)]
    assert len(forward_batch(members)) == 2
    with pytest.raises(ValueError, match="empty train mask"):
        list(train_batch(members, 0.1))


@pytest.mark.parametrize("f, h", [(6, 1), (1, 5), (1, 1)])
def test_width_one_batch_matches_the_loop(monkeypatch, f, h):
    """At feature or hidden width 1 (matrix-vector products) members of one
    node count share a call, and each is the loop's."""
    calls = kernel_calls(monkeypatch)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        members = [(random_params(rng, f, h, 3), batch_client(rng, n, 0.3, f=f)[1])
                   for n in rng.integers(2, 40, size=int(rng.integers(2, 8)))]
        assert_batch_matches_loop(members)
    assert max(calls) > 1
