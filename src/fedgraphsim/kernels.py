"""Aggregation kernels: soft-label fingerprints, similarity clustering,
label propagation, smoothness confidence, and staleness-aware weighting.

Degrees here are always raw local degrees (no self-loops); isolated nodes
contribute nothing to edge sums and degree-weighted sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .gcn import ModelParams
from .partition import ClientData

LSC_EPSILON = 1e-6
ENTROPY_OFFSET = math.exp(-1.0)


@dataclass(frozen=True)
class LscValue:
    """Smoothness confidence; raw may be negative, clamped is max(raw, eps).

    The clamp keeps aggregation weights positive: raw goes negative whenever
    average prediction entropy exceeds 1/e (near-uniform predictions early
    in training).
    """

    raw: float
    clamped: float

    @classmethod
    def from_raw(cls, raw: float) -> "LscValue":
        return cls(float(raw), max(float(raw), LSC_EPSILON))


@dataclass
class FglHyper:
    """Protocol hyperparameters: similarity threshold, propagation balance
    and depth, staleness attenuation. The allowed ranges are the ``[hyper]``
    rows of ``config.SCHEMA``."""

    theta: float = 0.5
    lam: float = 0.5
    k_steps: int = 2
    alpha: float = 0.5


def compute_sfm(soft: np.ndarray, cd: ClientData) -> np.ndarray:
    """Degree-weighted sum of soft-label outer products over adjacent pairs.

    Both orientations of every undirected edge contribute, so the result is
    symmetric. An edgeless graph gives the zero matrix.
    """
    n, c = soft.shape
    if n != cd.graph.node_count:
        raise ValueError("soft labels must have one row per local node")
    edges = cd.graph.edges
    if edges.shape[0] == 0:
        return np.zeros((c, c))
    d = cd.degrees().astype(np.float64)
    u, v = edges[:, 0], edges[:, 1]
    w = d[u] * d[v]
    one_way = (soft[u] * w[:, None]).T @ soft[v]
    return one_way + one_way.T


def cosine_block(
    a: np.ndarray, b: np.ndarray, norms_a=None, norms_b=None
) -> np.ndarray:
    """Cosine of every row of a against every row of b, as an (a rows x b rows)
    block; a pair involving a zero-norm row compares as 0.

    Row norms (np.linalg.norm of each row) may be passed in when cached.
    """
    if norms_a is None:
        norms_a = np.linalg.norm(a, axis=1)
    if norms_b is None:
        norms_b = np.linalg.norm(b, axis=1)
    denom = np.outer(norms_a, norms_b)
    dots = a @ b.T
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the flattened matrices; zero-norm inputs compare as 0."""
    return float(cosine_block(np.ravel(a)[None, :], np.ravel(b)[None, :])[0, 0])


def cluster_set(i: int, sfms: Mapping[int, np.ndarray], theta: float) -> set[int]:
    """Clients whose fingerprint similarity to i reaches theta, plus i itself.

    ``sfms`` maps each client the server has seen to its latest fingerprint;
    only those clients can be members.
    """
    if i not in sfms:
        raise ValueError(f"client {i} not in the knowledge base")
    ids = list(sfms)
    rows = np.stack([np.ravel(sfms[j]) for j in ids])
    sims = cosine_block(rows[[ids.index(i)]], rows)[0]
    return {i, *(j for j, sim in zip(ids, sims) if sim >= theta)}


def label_propagation(
    soft: np.ndarray, cd: ClientData, lam: float, k_steps: int
) -> np.ndarray:
    """k-step non-parametric propagation mixing each node with its neighbors.

    Each step computes lam * initial + (1 - lam) * sum_j prev_j / sqrt(d_i d_j)
    and renormalizes every row to sum 1 (rows summing to 0 reset to uniform).
    k_steps=0 returns the input unchanged. lam and k_steps meet the [hyper]
    rules of config.SCHEMA.
    """
    if k_steps == 0:
        return soft.copy()
    prop = cd.prop_matrix()
    c = soft.shape[1]
    current = soft
    for _ in range(k_steps):
        mixed = lam * soft + (1.0 - lam) * prop.dot(current)
        sums = mixed.sum(axis=1, keepdims=True)
        dead = sums[:, 0] == 0.0
        if np.any(dead):
            mixed[dead] = 1.0 / c
            sums = mixed.sum(axis=1, keepdims=True)
        current = mixed / sums
    return current


def compute_lsc(propagated: np.ndarray, cd: ClientData) -> LscValue:
    """Degree-weighted sum of (1/e - entropy) over propagated soft labels.

    Uses the convention 0 * ln 0 = 0; the raw value is clamped from below
    at LSC_EPSILON.
    """
    d = cd.degrees().astype(np.float64)
    p = propagated
    plogp = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    raw = float(np.sum(d * (ENTROPY_OFFSET + plogp.sum(axis=1))))
    return LscValue.from_raw(raw)


def staleness_factors(
    lsc_clamped: np.ndarray, taus: np.ndarray, t: int, alpha: float
) -> np.ndarray:
    """Unnormalized weights clamped_lsc_j * (t - tau_j)^(-alpha), entrywise.

    A fresh entry (tau = t - 1) gets staleness factor 1.
    """
    if np.any(taus > t - 1):
        raise ValueError("entry tau must be <= t - 1 at aggregation time")
    return lsc_clamped * (t - taus) ** (-alpha)


def staleness_weights(lsc_clamped, taus, t: int, alpha: float) -> np.ndarray:
    """Normalized confidence-times-staleness weights, one per entry of the
    clamped confidences and taus."""
    taus = np.asarray(taus, dtype=np.float64)
    if taus.size == 0:
        raise ValueError("need at least one entry to weight")
    u = staleness_factors(np.asarray(lsc_clamped, dtype=np.float64), taus, t, alpha)
    return u / u.sum()


def weighted_row_sum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * rows[j]; scales ``rows`` in place, so pass a copy.

    The axis-0 reduction adds the scaled rows one after another, exactly as
    the loop ``acc = acc + w_j * row_j`` does; ``weights @ rows`` (BLAS) sums
    in another order and rounds differently, so it must not replace this.
    """
    rows *= weights[:, None]
    return rows.sum(axis=0)


def aggregate_models(params_list: list[ModelParams], weights) -> ModelParams:
    """Entrywise convex combination of parameter sets."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(params_list) != weights.size or not params_list:
        raise ValueError("need one weight per parameter set")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    dims = params_list[0].dims
    if any(p.dims != dims for p in params_list):
        raise ValueError("parameter sets must share dims")
    rows = np.array([p.vec for p in params_list])
    return ModelParams.from_vector(weighted_row_sum(rows, weights), dims)


def blend_local(
    server_params: ModelParams,
    local_params: ModelParams,
    cluster_lsc: float,
    local_lsc: float,
) -> ModelParams:
    """Confidence-weighted convex blend of a downloaded and a local model.

    Computed as local + a * (server - local) with a = cluster/(cluster+local),
    which keeps every output entry inside [min, max] of the two inputs.
    """
    if cluster_lsc < 0 or local_lsc < 0:
        raise ValueError("confidences must be nonnegative")
    total = cluster_lsc + local_lsc
    if total == 0:
        raise ValueError("confidences must not both be zero")
    a = cluster_lsc / total
    loc = local_params.vec
    return ModelParams.from_vector(loc + a * (server_params.vec - loc), local_params.dims)
