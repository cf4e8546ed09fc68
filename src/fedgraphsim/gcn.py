"""Two-layer graph convolutional network with manual numpy backprop.

The local learner: soft labels come from
softmax_rows(A_hat @ relu(A_hat @ X @ W0 + b0) @ W1 + b1) with A_hat the
GCN-normalized adjacency of the client subgraph. One training epoch is one
full-batch gradient step on the mean cross-entropy over the train mask.
"""

from __future__ import annotations

import struct

import numpy as np

from .partition import ClientData

LOG_CLAMP = 1e-12
PARAM_FIELDS = ("w0", "b0", "w1", "b1")  # the field views, in vector order


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
    """Row softmax with per-row max subtraction."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_shapes(p: ModelParams, cd: ClientData):
    g = cd.graph
    if p.w0.shape[0] != g.feature_dim or p.w1.shape[1] != g.num_classes:
        raise ValueError(
            f"params for (feature, hidden, classes) {p.dims} do not match data "
            f"({g.feature_dim}, {g.num_classes})"
        )


def _forward_cached(p: ModelParams, cd: ClientData):
    """Forward pass keeping the intermediates needed by backprop."""
    adj = cd.adjacency()
    z0 = adj.dot(cd.graph.features @ p.w0) + p.b0
    h = np.maximum(z0, 0.0)
    ah = adj.dot(h)
    z1 = ah @ p.w1 + p.b1
    return z0, ah, softmax_rows(z1)


def forward(p: ModelParams, cd: ClientData) -> np.ndarray:
    """Soft labels: one probability row per local node."""
    _check_shapes(p, cd)
    return _forward_cached(p, cd)[2]


def loss_and_grads(p: ModelParams, cd: ClientData) -> tuple[float, Gradients]:
    """Mean train-mask cross-entropy and its analytic gradients."""
    _check_shapes(p, cd)
    train = cd.masks.train
    if train.size == 0:
        raise ValueError("cannot train with an empty train mask")
    adj = cd.adjacency()
    x = cd.graph.features
    z0, ah, probs = _forward_cached(p, cd)
    y = cd.graph.labels
    picked = np.clip(probs[train, y[train]], LOG_CLAMP, None)
    loss = float(-np.mean(np.log(picked)))

    d_z1 = np.zeros_like(probs)
    d_z1[train] = probs[train]
    d_z1[train, y[train]] -= 1.0
    d_z1 /= train.size
    d_w1 = ah.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    d_h = adj.dot(d_z1 @ p.w1.T)
    d_z0 = d_h * (z0 > 0.0)
    d_w0 = x.T @ adj.dot(d_z0)
    d_b0 = d_z0.sum(axis=0)
    return loss, Gradients(d_w0, d_b0, d_w1, d_b1)


def train_epoch(p: ModelParams, cd: ClientData, lr: float) -> ModelParams:
    """One full-batch gradient step (= one local epoch = one trip's training)."""
    _, grads = loss_and_grads(p, cd)
    return ModelParams.from_vector(p.vec - lr * grads.vec, p.dims)


def accuracy(probs: np.ndarray, cd: ClientData, mask: np.ndarray) -> float:
    """Accuracy of soft labels over the mask's nodes; argmax ties resolve to
    the lowest class."""
    pred = np.argmax(probs[mask], axis=1)
    return float(np.mean(pred == cd.graph.labels[mask]))


def evaluate(p: ModelParams, cd: ClientData, which_mask: str) -> float:
    """Accuracy of p's soft labels over the chosen mask."""
    mask = cd.masks.get(which_mask)
    if mask.size == 0:
        raise ValueError(f"cannot evaluate on empty {which_mask} mask")
    return accuracy(forward(p, cd), cd, mask)


def params_to_bytes(p: ModelParams) -> bytes:
    """Little-endian blob: u32 (feature, hidden, classes) header then the
    f64 vector (w0, b0, w1, b1 back to back, matrices row-major)."""
    return struct.pack("<III", *p.dims) + p.vec.astype("<f8", copy=False).tobytes()


def params_from_bytes(buf: bytes, offset: int = 0) -> tuple[ModelParams, int]:
    """Decode a params blob; returns (params, bytes consumed from offset)."""
    f, h, c = struct.unpack_from("<III", buf, offset)
    size = h * (f + 1 + c) + c
    vec = np.frombuffer(buf, dtype="<f8", count=size, offset=offset + 12)
    return ModelParams.from_vector(vec.astype(np.float64), (f, h, c)), 12 + size * 8
