"""Two-layer graph convolutional network with manual numpy backprop.

The local learner: soft labels come from
softmax_rows(A_hat @ relu(A_hat @ X @ W0 + b0) @ W1 + b1) with A_hat the
GCN-normalized adjacency of the client subgraph. One training epoch is one
full-batch gradient step on the mean cross-entropy over the train mask.

Every sparse product acts on ``classes`` columns. Forward:
z0 = (A_hat X) W0 + b0, h = relu(z0), z1 = A_hat (h W1) + b1. Backward:
g = A_hat dZ1, dW1 = h^T g, dZ0 = (g W1^T) * [z0 > 0], dW0 = (A_hat X)^T dZ0.
This holds because A_hat and X are fixed per client, so A_hat X is computed
once (in the client's ``TripPlan``), and A_hat is symmetric:
(A_hat h)^T dZ1 = h^T g and X^T (A_hat dZ0) = (A_hat X)^T dZ0.

A training step writes the four gradients into one buffer laid out as the
parameter vector and turns it into p - lr * grad in place (the same two
roundings); it never computes the loss, which only ``loss_and_grads`` does.
``train_batch`` and ``forward_batch`` run this for many clients per kernel
call (``_Block``), each client's numbers bit for bit those of it alone.
"""

from __future__ import annotations

import numpy as np

from .partition import ClientData, block_diag, spmm

LOG_CLAMP = 1e-12
PARAM_FIELDS = ("w0", "b0", "w1", "b1")  # the field views, in vector order
BATCH_ROWS = 1024  # padded rows one batched kernel call may hold


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
        o1 = f * h + h
        o2 = o1 + h * c
        self.w0 = vec[: f * h].reshape(f, h)
        self.b0 = vec[f * h : o1]
        self.w1 = vec[o1:o2].reshape(h, c)
        self.b1 = vec[o2:]

    def copy(self) -> "ModelParams":
        return ModelParams.from_vector(self.vec.copy(), self.dims)


# Gradients share the parameter container (same shapes, entrywise layout).
Gradients = ModelParams


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
    """Softmax along the last axis with per-row max subtraction."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_shapes(p: ModelParams, cd: ClientData, dims: tuple):
    f, c = cd.graph.feature_dim, cd.graph.num_classes
    if p.dims != dims or p.w0.shape[0] != f or p.w1.shape[1] != c:
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


class _Block:
    """The clients of one kernel call: a lone client on its trip plan, or
    several zero-padded to their largest node count ``rows`` (``ax`` is
    (clients, rows, feature); ``adj`` is block-diagonal, client k's A_hat at
    row k * rows). A padded row is zero in ``ax`` and empty in ``adj``, so it
    adds exact zeros to every sum over nodes and reaches no client's row."""

    def __init__(self, members: list):
        self.datas = datas = [cd for _, cd in members]
        self.dims = dims = members[0][0].dims
        self.vecs = np.stack([p.vec for p, _ in members]) if len(datas) > 1 else members[0][0].vec
        trains = [cd.masks.train for cd in datas]
        self.trainable = all(t.size for t in trains)
        self.labels = np.concatenate([cd.graph.labels[t] for cd, t in zip(datas, trains)])
        if len(datas) == 1:
            self.ax, self.adj, self.train = datas[0].plan.ax, datas[0].plan.adj, trains[0]
            self.sizes = trains[0].size
            return
        self.sizes = np.array([t.size for t in trains], dtype=np.float64)[:, None, None]
        n = np.array([cd.graph.node_count for cd in datas])
        rows = int(n.max())
        starts = np.arange(0, n.size * rows, rows)
        self.adj, real = block_diag([cd.plan.adj for cd in datas], rows)  # real: the clients' rows
        self.ax = np.zeros((n.size * rows, dims[0]))
        self.ax[real] = np.concatenate([cd.plan.ax for cd in datas])
        self.ax = self.ax.reshape(n.size, rows, dims[0])
        self.train = np.concatenate(trains) + np.repeat(starts, [t.size for t in trains])

    def forward(self, w: tuple):
        """z0, relu(z0) and the soft labels for the parameter fields ``w``."""
        z0 = self.ax @ w[0]
        z0 += w[1]
        h = np.maximum(z0, 0.0)
        z1 = spmm(self.adj, (h @ w[2]).reshape(-1, self.dims[2])).reshape(h.shape[:-1] + (-1,))
        z1 += w[3]
        return z0, h, softmax_rows(z1)

    def gradients(self):
        """Each client's gradients of its mean train-mask cross-entropy, in
        one fresh array laid out as ``vecs``, and its soft labels."""
        if not self.trainable:
            raise ValueError("cannot train with an empty train mask")
        w, c = _fields(self.vecs, self.dims), self.dims[2]
        z0, h, probs = self.forward(w)
        d_z1 = np.zeros_like(probs)
        flat = d_z1.reshape(-1, c)
        flat[self.train] = probs.reshape(-1, c)[self.train]
        flat[self.train, self.labels] -= 1.0
        d_z1 /= self.sizes
        g = spmm(self.adj, flat).reshape(d_z1.shape)
        grads = np.empty_like(self.vecs)
        g_w0, g_b0, g_w1, g_b1 = _fields(grads, self.dims)
        np.matmul(np.swapaxes(h, -1, -2), g, out=g_w1)
        d_z1.sum(axis=-2, out=g_b1[..., 0, :])
        d_z0 = g @ np.swapaxes(w[2], -1, -2)
        d_z0 *= z0 > 0.0
        np.matmul(np.swapaxes(self.ax, -1, -2), d_z0, out=g_w0)
        d_z0.sum(axis=-2, out=g_b0[..., 0, :])
        return grads, probs

    def soft(self, vecs: np.ndarray) -> list[np.ndarray]:
        """Each client's soft labels under ``vecs`` (laid out as ``self.vecs``),
        as a view of its rows of one array."""
        probs = self.forward(_fields(vecs, self.dims))[2]
        probs = probs.reshape(len(self.datas), -1, self.dims[2])
        return [p[: cd.graph.node_count] for p, cd in zip(probs, self.datas)]


def _blocks(members: list):
    """Each kernel call over (params, ClientData) members: consecutive members
    while members x padded rows stays within BATCH_ROWS (a larger one alone).
    A 1-node member's products are matrix-vector ones, which BLAS rounds
    apart from a padded matrix's rows, so it shares a call only with its like."""
    part, rows = [], 0
    for p, cd in members:
        _check_shapes(p, cd, members[0][0].dims)
        n = cd.graph.node_count
        if part and ((len(part) + 1) * max(rows, n) > BATCH_ROWS or (n == 1) != (rows == 1)):
            yield _Block(part)
            part, rows = [], 0
        part.append((p, cd))
        rows = max(rows, n)
    if part:
        yield _Block(part)


def forward_batch(members: list) -> list[np.ndarray]:
    """Soft labels of each (params, ClientData) member: one probability row
    per local node."""
    return [soft for block in _blocks(members) for soft in block.soft(block.vecs)]


def train_batch(members: list, lr: float):
    """One full-batch gradient step (p - lr * grad, in one fresh array) per
    (params, ClientData) member and the trained params' soft labels, yielded
    in member order; a kernel call runs when its first member is asked for."""
    for block in _blocks(members):
        step = block.gradients()[0]
        step *= lr
        np.subtract(block.vecs, step, out=step)
        rows = step.reshape(len(block.datas), -1)
        yield from zip([ModelParams.from_vector(v, block.dims) for v in rows], block.soft(step))


def forward(p: ModelParams, cd: ClientData) -> np.ndarray:
    """Soft labels: one probability row per local node."""
    return forward_batch([(p, cd)])[0]


def loss_and_grads(p: ModelParams, cd: ClientData) -> tuple[float, Gradients]:
    """Mean train-mask cross-entropy and its analytic gradients."""
    (block,) = _blocks([(p, cd)])
    grads, probs = block.gradients()
    picked = np.clip(probs[block.train, block.labels], LOG_CLAMP, None)
    return float(-np.mean(np.log(picked))), Gradients.from_vector(grads, p.dims)


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

