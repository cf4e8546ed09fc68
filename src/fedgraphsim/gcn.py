"""Two-layer graph convolutional network with manual numpy backprop.

The local learner: soft labels come from
softmax_rows(A_hat @ relu(A_hat @ X @ W0 + b0) @ W1 + b1) with A_hat the
GCN-normalized adjacency of the client subgraph. One training epoch is one
full-batch gradient step on the mean cross-entropy over the train mask.

Every sparse product (``spmm``, plain CSR arrays) acts on ``classes`` columns. Forward:
z0 = (A_hat X) W0 + b0, h = relu(z0), z1 = A_hat (h W1) + b1. Backward:
g = A_hat dZ1, dW1 = h^T g, dZ0 = (g W1^T) * [z0 > 0], dW0 = (A_hat X)^T dZ0.
This holds because A_hat and X are fixed per client, so A_hat X is computed
once (in the client's ``TripPlan``), and A_hat is symmetric:
(A_hat h)^T dZ1 = h^T g and X^T (A_hat dZ0) = (A_hat X)^T dZ0.
dZ1 is zero off the train rows, so a step runs z1, softmax and dZ1 on A_hat's
train rows A_t alone and takes g = A_t^T dZ1_t: each row of g adds A_hat dZ1's
products in its order (A_hat is symmetric bit for bit, columns ascending) less
exact +0 ones, which never change a sum that starts at +0; so does b1's sum.

A training step writes the four gradients into one buffer laid out as the
parameter vector and turns it into p - lr * grad in place (the same two
roundings); it never computes the loss.
``train_batch`` and ``forward_batch`` run this as kernel calls (``_Block``) of
one client or several on one path: stacked parameter vectors on the operators
(``_Layout``) gathered from the joined trip plan of members of one node, train
and test count, in member order, scored on the test masks with one argmax per
call: the floats ``accuracy`` gives. So every member of a call has the shapes
of its call of one, nothing is padded, and its numbers are bit for bit those of
it alone at any width (the tests run four OpenBLAS kernels).
Given a run's memo, a several-client layout is reused by the next batch's call
of the same clients in the same order, and by no later one; a lone client's
layout by every later call. The memo's ``Workspace`` holds a call's hidden-width
temporaries (z0, relu(z0), h W1, dZ0 and the ReLU mask) in buffers that grow to
the run's largest call and are never freed within it, so a call after the
first allocates none of them (the broadcast bias and the mask product pass
through them, not through a ufunc buffer); nothing a call returns (soft labels,
trained vectors and so the uploads) is a view of them.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .partition import ClientData, TripPlan, spmm, take_rows

PARAM_FIELDS = ("w0", "b0", "w1", "b1")  # the field views, in vector order
BATCH_ROWS = 1024  # node rows a call of one node, train and test count may hold


class ModelParams:
    """A GCN's parameters as one contiguous float64 vector ``vec``.

    For ``dims`` = (feature, hidden, classes), ``vec`` holds w0 (feature x
    hidden, row-major), b0 (hidden), w1 (hidden x classes, row-major) and b1
    (classes) back to back, and the four fields are reshaped views into it:
    writing to a field writes to ``vec``. The constructor copies its four
    arrays into a fresh vector; ``from_vector`` wraps a vector as it is.
    """

    def __init__(self, w0, b0, w1, b1):
        (f, h), c = np.shape(w0), np.shape(w1)[1]
        vec = np.concatenate([np.ravel(a) for a in (w0, b0, w1, b1)], dtype=np.float64)
        self._bind(vec, (f, h, c))

    @classmethod
    def from_vector(cls, vec: np.ndarray, dims: tuple) -> "ModelParams":
        """Wrap a flat vector laid out for (feature, hidden, classes) dims."""
        p = cls.__new__(cls)
        p._bind(vec, dims)
        return p

    def _bind(self, vec: np.ndarray, dims: tuple) -> None:
        f, h, c = dims
        if vec.shape != (h * (f + 1 + c) + c,):
            raise ValueError(f"a vector of shape {vec.shape} does not hold dims {dims}")
        self.vec, self.dims = vec, (f, h, c)

    # Each read of a field makes its view anew; the simulation reads only vec.
    w0 = property(lambda self: _fields(self.vec, self.dims)[0])
    b0 = property(lambda self: _fields(self.vec, self.dims)[1][0])
    w1 = property(lambda self: _fields(self.vec, self.dims)[2])
    b1 = property(lambda self: _fields(self.vec, self.dims)[3][0])

    def copy(self) -> "ModelParams":
        return ModelParams.from_vector(self.vec.copy(), self.dims)


def init_params(
    feature_dim: int, hidden_dim: int, num_classes: int, seed: int
) -> ModelParams:
    """Glorot-uniform weights, zero biases; deterministic under seed."""
    if min(feature_dim, hidden_dim, num_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    lim0 = np.sqrt(6.0 / (feature_dim + hidden_dim))
    lim1 = np.sqrt(6.0 / (hidden_dim + num_classes))
    return ModelParams(
        rng.uniform(-lim0, lim0, size=(feature_dim, hidden_dim)),
        np.zeros(hidden_dim),
        rng.uniform(-lim1, lim1, size=(hidden_dim, num_classes)),
        np.zeros(num_classes),
    )


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, less each row's exact max (column maxima)."""
    e = z - reduce(np.maximum, [z[..., j : j + 1] for j in range(z.shape[-1])])
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_shapes(p: ModelParams, cd: ClientData, dims: tuple):
    f, c = cd.graph.feature_dim, cd.graph.num_classes
    if p.dims != dims or (p.dims[0], p.dims[2]) != (f, c):
        raise ValueError(f"params for (feature, hidden, classes) {p.dims} do not match "
                         f"data ({f}, {c}) or the batch's {dims}")


def _fields(vecs: np.ndarray, dims: tuple) -> tuple:
    """w0, b0, w1 and b1 as views of a parameter vector, or of each row of a
    stack of them; a bias keeps a node axis of length 1."""
    f, h, c = dims
    o1 = f * h + h
    o2 = o1 + h * c
    b = vecs.shape[:-1]
    return (vecs[..., : f * h].reshape(*b, f, h), vecs[..., f * h : o1].reshape(*b, 1, h),
            vecs[..., o1:o2].reshape(*b, h, c), vecs[..., o2:].reshape(*b, 1, c))


class _Layout:
    """What a kernel call needs of its members, all of one node, train and test
    count, each gathered by one row gather from their plans' ``Join`` (from a join
    of their own if built apart): ``plan``, their operators as one ``TripPlan``,
    rows back to back (a lone member's own plan), ``ax`` its A_hat X as (clients,
    nodes, feature) and ``adj_t`` its A_hat's train rows; the train count
    ``train_size``, the train rows' labels, and the test rows and their labels,
    each (clients, test count). Calls share layouts, so every array is read-only."""

    def __init__(self, datas: tuple):
        plans = [cd.plan for cd in datas]
        if any(p.join is not plans[0].join for p in plans):
            plans = TripPlan.build_all(datas)
        join, at = plans[0].join, np.array([p.index for p in plans])
        (n, _), k = plans[0].ax.shape, at.size
        # each member's joined row id less its row id in the call
        shift = (join.starts[at] - n * np.arange(k)).astype(join.plan.adj.indices.dtype)
        # each member's train and test rows (joined ids), one (members, count) array each
        train, test = (ids[ptr[at, None] + np.arange(ptr[at[0] + 1] - ptr[at[0]])]
                       for ids, ptr in ((join.train, join.train_at), (join.test, join.test_at)))
        self.train_size = train.shape[1]
        self.labels = join.labels[train].ravel()
        self.test_labels = join.labels[test]
        self.test = test - shift[:, None]
        rows = (join.starts[at, None] + np.arange(n)).ravel()
        self.plan = plans[0] if k == 1 else join.plan.take(rows, shift.repeat(n), k * n)
        self.ax = self.plan.ax.reshape(k, n, -1)
        self.adj_t = take_rows(join.plan.adj, train.ravel(), shift.repeat(train.shape[1]), k * n)
        plan = self.plan
        for a in (self.ax, self.labels, self.test, self.test_labels, plan.ax, plan.deg,
                  *plan.adj[:3], *plan.prop[:3], *plan.edge_w[:3], *self.adj_t[:3]):
            a.flags.writeable = False


class Workspace:
    """Grow-only buffers for the temporaries of kernel calls, one per name: each
    grows to the largest call that has taken it and is never shrunk or freed."""

    def __init__(self):
        self.bufs = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of ``shape`` over the start of buffer ``name``."""
        size = math.prod(shape)
        buf = self.bufs.get(name)
        if buf is None or buf.size < size:
            buf = self.bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


class RunMemo(dict):
    """A run's memo for its kernel calls: layouts by ClientData tuple (see
    ``_blocks``) and ``work``, the one ``Workspace`` all of its calls use."""

    def __init__(self):
        super().__init__()
        self.work = Workspace()


class _Block:
    """One kernel call: the members' parameter vectors, the rows of ``vecs``, on a
    ``_Layout``, with its temporaries in ``work``."""

    def __init__(self, members: list):
        self.dims = members[0][0].dims
        self.vecs = np.array([p.vec for p, _ in members])

    def forward(self, w: tuple, adj):
        """z0, relu(z0) (views of the workspace) and the soft labels of ``adj``'s
        rows under the fields ``w``."""
        lay, work, c = self.layout, self.work, self.dims[2]
        shape = lay.ax.shape[:-1] + (self.dims[1],)
        z0 = np.matmul(lay.ax, w[0], out=work.take("z0", shape))
        h = work.take("h", shape)
        np.copyto(h, w[1])  # b0 broadcast first: as an operand of += it takes a ufunc buffer
        z0 += h
        np.maximum(z0, 0.0, out=h)
        hw = np.matmul(h, w[2], out=work.take("hw", shape[:-1] + (c,)))
        z1 = spmm(adj, hw.reshape(-1, c)).reshape(h.shape[:-2] + (-1, c))
        z1 += w[3]
        return z0, h, softmax_rows(z1)

    def gradients(self) -> np.ndarray:
        """Each client's gradients of its mean train-mask cross-entropy, in
        one fresh array laid out as ``vecs``, from the train rows' output layer."""
        lay = self.layout
        if not lay.train_size:
            raise ValueError("cannot train with an empty train mask")
        w, c = _fields(self.vecs, self.dims), self.dims[2]
        z0, h, d_z1 = self.forward(w, lay.adj_t)  # softmax's fresh output, turned into dZ1
        flat = d_z1.reshape(-1, c)
        flat[np.arange(flat.shape[0]), lay.labels] -= 1.0
        d_z1 /= lay.train_size
        g = spmm(lay.adj_t, flat, transposed=True).reshape(h.shape[:-1] + (c,))
        grads = np.empty_like(self.vecs)
        g_w0, g_b0, g_w1, g_b1 = _fields(grads, self.dims)
        np.matmul(np.swapaxes(h, -1, -2), g, out=g_w1)
        d_z1.sum(axis=-2, out=g_b1[..., 0, :])
        d_z0 = np.matmul(g, np.swapaxes(w[2], -1, -2), out=self.work.take("d_z0", z0.shape))
        # h is spent: it takes [z0 > 0] as floats (a bool factor takes a ufunc buffer)
        np.copyto(h, np.greater(z0, 0.0, out=self.work.take("relu", z0.shape, bool)))
        d_z0 *= h
        np.matmul(np.swapaxes(lay.ax, -1, -2), d_z0, out=g_w0)
        d_z0.sum(axis=-2, out=g_b0[..., 0, :])
        return grads

    def scored(self, vecs: np.ndarray) -> tuple:
        """The call's soft labels under ``vecs`` (laid out as ``self.vecs``), one
        (clients, nodes, classes) array, and each client's test accuracy: one
        argmax over the call's test rows (ties to the lowest class), then integer
        hits over the test count, the float ``accuracy`` gives (NaN for clients
        without test nodes)."""
        lay, c = self.layout, self.dims[2]
        probs = self.forward(_fields(vecs, self.dims), lay.plan.adj)[2]
        hits = np.count_nonzero(np.argmax(probs.reshape(-1, c)[lay.test], axis=-1)
                                == lay.test_labels, axis=-1).tolist()
        n = lay.test.shape[1]
        return probs, [h / n if n else np.nan for h in hits]


def _blocks(members: list, layouts: dict | None = None):
    """Each kernel call over (params, ClientData) members: those of one node, train
    and test count, in member order, while members x nodes stays within BATCH_ROWS
    (a larger one alone), in the order of their first members; a block's ``index``
    lists its members' positions. The memo ``layouts`` maps ClientData tuples to
    layouts: a lone client's for the run, a several-member call's for the next
    batch to reuse. The calls share a ``RunMemo``'s workspace, or else their own."""
    parts, open_parts = [], {}
    for i, (p, cd) in enumerate(members):
        _check_shapes(p, cd, members[0][0].dims)
        key = (cd.graph.node_count, cd.masks.train.size, cd.masks.test.size)
        part = open_parts.get(key)
        if part is None or (len(part) + 1) * key[0] > BATCH_ROWS:
            part = open_parts[key] = []
            parts.append(part)
        part.append(i)
    layouts = {} if layouts is None else layouts
    work = layouts.work if isinstance(layouts, RunMemo) else Workspace()
    old = layouts.copy()
    for datas in [datas for datas in old if len(datas) > 1]:
        del layouts[datas]
    for part in parts:
        block, datas = _Block([members[i] for i in part]), tuple(members[i][1] for i in part)
        block.layout = layouts[datas] = old.get(datas) or _Layout(datas)
        block.work, block.index = work, part
        yield block


def forward_batch(members: list, layouts: dict | None = None) -> list[tuple]:
    """Soft labels (one probability row per local node) and test accuracy
    (``_Block.scored``) of each (params, ClientData) member, in member order,
    from kernel calls of members of one node, train and test count (``_blocks``);
    ``layouts``: see ``_blocks``."""
    out = dict(kv for block in _blocks(members, layouts)
               for kv in zip(block.index, zip(*block.scored(block.vecs))))
    return [out[i] for i in range(len(members))]


def train_batch(members: list, lr: float, layouts: dict | None = None, score=None):
    """One full-batch gradient step (p - lr * grad, in one fresh array) per
    (params, ClientData) member, with the trained params' test accuracy (see
    ``_Block.scored``) and ``score``'s value, yielded in member order. A kernel
    call holds members of one node, train and test count, in member order
    (``_blocks``); ``score`` maps its soft labels, (members, nodes, classes), and
    its layout's ``TripPlan`` to one value per member (None without it). A call
    runs when its first member is asked for, and holds its later members'
    results until they are.
    ``layouts`` is a run's memo of batch layouts (see ``_blocks``)."""
    blocks, ready = _blocks(members, layouts), {}
    for i in range(len(members)):
        if i not in ready:  # the next call's first member
            block = next(blocks)
            step = block.gradients()
            step *= lr
            np.subtract(block.vecs, step, out=step)
            soft, accs = block.scored(step)
            scores = score(soft, block.layout.plan) if score else [None] * len(accs)
            trained = (ModelParams.from_vector(v, block.dims) for v in step)
            ready.update(zip(block.index, zip(trained, accs, scores)))
        yield ready.pop(i)


def forward(p: ModelParams, cd: ClientData) -> np.ndarray:
    """Soft labels: one probability row per local node."""
    return forward_batch([(p, cd)])[0][0]


def train_epoch(p: ModelParams, cd: ClientData, lr: float) -> ModelParams:
    """One full-batch gradient step (= one local epoch = one trip's training)."""
    return next(train_batch([(p, cd)], lr))[0]


def accuracy(probs: np.ndarray, cd: ClientData, mask: np.ndarray) -> float:
    """Accuracy of soft labels over the (nonempty) mask's nodes; argmax ties
    resolve to the lowest class."""
    hit = np.argmax(probs[mask], axis=1) == cd.graph.labels[mask]
    return int(np.count_nonzero(hit)) / mask.size


def evaluate(p: ModelParams, cd: ClientData, which_mask: str) -> float:
    """Accuracy of p's soft labels over the chosen mask."""
    mask = cd.masks.get(which_mask)
    if mask.size == 0:
        raise ValueError(f"cannot evaluate on empty {which_mask} mask")
    return accuracy(forward(p, cd), cd, mask)

