"""Graph containers, normalized sparse adjacency, synthetic graphs, and file I/O.

Graphs are undirected and simple: edges are stored as canonical (u, v) pairs
with u < v, sorted lexicographically, with no duplicates and no self-loops.
Node degrees used by the aggregation kernels are raw undirected degrees
without self-loops; the +1 self-loop appears only inside the GCN-normalized
adjacency.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class GraphFormatError(ValueError):
    """Raised when a graph file is malformed or fails validation."""


@dataclass(eq=False)
class Graph:
    """Undirected attributed labeled graph.

    edges: (m, 2) int array, canonicalized on construction (u < v, sorted
    lexicographically). Construction rejects self-loops, duplicates, and
    out-of-range endpoints; use load_graph for forgiving file input.
    """

    node_count: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if self.edges.shape[0]:
            self.edges = np.sort(self.edges, axis=1)
            order = np.lexsort((self.edges[:, 1], self.edges[:, 0]))
            self.edges = self.edges[order]
        self.features = np.asarray(self.features, dtype=np.float64).reshape(
            self.node_count, -1
        )
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        self.validate()

    def validate(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.features.shape != (self.node_count, self.feature_dim):
            raise ValueError(
                f"feature matrix shape {self.features.shape} != "
                f"({self.node_count}, {self.feature_dim})"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.shape != (self.node_count,):
            raise ValueError("labels must have one entry per node")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels must lie in [0, num_classes)")
        e = self.edges
        if e.shape[0]:
            if e.min() < 0 or e.max() >= self.node_count:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loops are not allowed")
            if e.shape[0] > 1 and np.any(np.all(e[1:] == e[:-1], axis=1)):
                raise ValueError("duplicate edges are not allowed")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


def degrees(g: Graph) -> np.ndarray:
    """Raw undirected degree per node (self-loops excluded by construction)."""
    if g.edge_count == 0:
        return np.zeros(g.node_count, dtype=np.int64)
    return np.bincount(g.edges.ravel(), minlength=g.node_count).astype(np.int64)


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """GCN-normalized adjacency with self-loops.

    Entry (i, j) = 1/sqrt((d_i + 1)(d_j + 1)) for every edge and for every
    diagonal position, with d the raw degree.
    """
    n = g.node_count
    inv = 1.0 / np.sqrt(degrees(g).astype(np.float64) + 1.0)
    diag = np.arange(n, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([u, v, diag])
    cols = np.concatenate([v, u, diag])
    vals = inv[rows] * inv[cols]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def propagation_matrix(g: Graph) -> sp.csr_matrix:
    """Neighbor-averaging operator: entry (i, j) = 1/sqrt(d_i * d_j) per edge.

    No diagonal; rows of isolated nodes are empty. Both edge endpoints have
    degree >= 1, so every stored value is finite.
    """
    n = g.node_count
    d = degrees(g).astype(np.float64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    vals = 1.0 / np.sqrt(d[rows] * d[cols])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass
class NodeMasks:
    """Disjoint train/val/test node-id sets (sorted int arrays)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.int64)
        self.val = np.asarray(self.val, dtype=np.int64)
        self.test = np.asarray(self.test, dtype=np.int64)

    def get(self, which: str) -> np.ndarray:
        if which not in ("train", "val", "test"):
            raise ValueError(f"unknown mask {which!r}")
        return getattr(self, which)


def split_masks(g: Graph, ratios: tuple, seed: int) -> NodeMasks:
    """Per-class stratified random assignment of nodes to train/val/test.

    Within each class the shuffled nodes are split by floor(ratio * count)
    for each category in train/val/test order; leftover nodes from flooring
    stay unassigned. Classes are processed in ascending order, one shuffle
    each, so the result is deterministic under the seed. If any class has
    fewer nodes than the three categories, the whole split falls back to a
    single unstratified pool (with a warning).
    """
    r_train, r_val, r_test = (float(r) for r in ratios)
    if min(r_train, r_val, r_test) < 0 or r_train + r_val + r_test > 1 + 1e-12:
        raise ValueError("ratios must be nonnegative and sum to at most 1")
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(g.labels == c) for c in range(g.num_classes)]
    groups = [grp for grp in groups if grp.size]
    if any(grp.size < 3 for grp in groups):
        warnings.warn(
            "class with fewer nodes than mask categories; "
            "falling back to unstratified split"
        )
        groups = [np.arange(g.node_count, dtype=np.int64)]
    parts: list[list[np.ndarray]] = [[], [], []]
    for grp in groups:
        perm = rng.permutation(grp)
        n_tr = int(np.floor(r_train * grp.size))
        n_va = int(np.floor(r_val * grp.size))
        n_te = int(np.floor(r_test * grp.size))
        parts[0].append(perm[:n_tr])
        parts[1].append(perm[n_tr : n_tr + n_va])
        parts[2].append(perm[n_tr + n_va : n_tr + n_va + n_te])
    train, val, test = (
        np.sort(np.concatenate(p)) if p else np.zeros(0, dtype=np.int64)
        for p in parts
    )
    return NodeMasks(train, val, test)


@dataclass
class SbmConfig:
    """Stochastic block model: block labels double as node classes.

    The allowed ranges are the ``[dataset]`` rows of ``config.SCHEMA``.
    """

    block_sizes: tuple
    intra_prob: float
    inter_prob: float
    feature_dim: int
    feature_noise: float
    seed: int


SBM_PAIR_BLOCK = 1 << 20  # node pairs per generate_sbm draw block


def generate_sbm(cfg: SbmConfig) -> Graph:
    """Seeded stochastic block model graph.

    Draw procedure (fixed so equal configs give bit-identical graphs):
    one uniform draw per unordered node pair (i, j), i < j, enumerated in
    lexicographic order; the pair becomes an edge when the draw falls below
    intra_prob (same block) or inter_prob (different blocks). Features are
    then drawn: one-hot block indicator at column (block mod feature_dim)
    plus Gaussian noise of the configured stddev. Labels are block ids.

    The draws come SBM_PAIR_BLOCK pairs per ``rng.random`` call, which
    continues one stream, so they equal one draw. Only candidates, pairs
    drawn below max(intra_prob, inter_prob), are mapped to (i, j) and tested:
    the rest are below neither probability. So the edges, and the stream the
    features come from, are those of the per-pair procedure.
    """
    n = sum(cfg.block_sizes)
    block_of = np.repeat(np.arange(len(cfg.block_sizes)), cfg.block_sizes)
    rng = np.random.default_rng(cfg.seed)
    # The pairs are drawn SBM_PAIR_BLOCK at a time, so memory stays O(n + m).
    # row i holds the pairs (i, j > i); row_start[i] is the index of its first
    row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    pairs = int(row_start[-1])
    p_max = max(cfg.intra_prob, cfg.inter_prob)
    kept = []
    for lo in range(0, pairs, SBM_PAIR_BLOCK):
        draws = rng.random(min(SBM_PAIR_BLOCK, pairs - lo))
        cand = np.flatnonzero(draws < p_max)
        pair = cand + lo
        rows = np.searchsorted(row_start, pair, side="right") - 1
        cols = pair - row_start[rows] + rows + 1
        probs = np.where(block_of[rows] == block_of[cols], cfg.intra_prob, cfg.inter_prob)
        keep = draws[cand] < probs
        kept.append(np.column_stack([rows[keep], cols[keep]]))
    edges = np.concatenate(kept) if kept else np.zeros((0, 2), dtype=np.int64)
    features = np.zeros((n, cfg.feature_dim))
    features[np.arange(n), block_of % cfg.feature_dim] = 1.0
    features += rng.normal(0.0, cfg.feature_noise, size=(n, cfg.feature_dim))
    num_classes = max(2, len(cfg.block_sizes))
    return Graph(n, edges, features, block_of, num_classes, cfg.feature_dim)


def save_graph(g: Graph, path) -> None:
    """Write the canonical text format (nodes ascending, edges lexicographic)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"nodes={g.node_count} features={g.feature_dim} classes={g.num_classes}\n")
        for i in range(g.node_count):
            feats = " ".join(repr(float(x)) for x in g.features[i])
            f.write(f"node {i} {g.labels[i]} {feats}\n")
        for u, v in g.edges:
            f.write(f"edge {u} {v}\n")


def load_graph(path) -> Graph:
    """Parse the text graph format; see save_graph for the layout.

    Duplicate edges (in either orientation) and self-loops are dropped with
    a warning; any other irregularity raises GraphFormatError with the
    offending line number.
    """

    def fail(lineno, msg):
        raise GraphFormatError(f"{path}: line {lineno}: {msg}")

    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    header = dict(
        kv.split("=", 1) for kv in lines[0].split() if "=" in kv
    )
    try:
        n = int(header["nodes"])
        fdim = int(header["features"])
        n_classes = int(header["classes"])
    except (KeyError, ValueError):
        fail(1, "header must be 'nodes=<n> features=<f> classes=<C>'")
    features = np.zeros((n, fdim))
    labels = np.full(n, -1, dtype=np.int64)
    edge_set: set[tuple[int, int]] = set()
    dropped_loops = 0
    dropped_dups = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 3 + fdim:
                fail(lineno, f"node line needs id, label and {fdim} features")
            try:
                nid = int(tokens[1])
                label = int(tokens[2])
                vals = [float(t) for t in tokens[3:]]
            except ValueError:
                fail(lineno, "malformed node line")
            if not 0 <= nid < n:
                fail(lineno, f"node id {nid} out of range")
            if labels[nid] != -1:
                fail(lineno, f"node {nid} declared twice")
            if not 0 <= label < n_classes:
                fail(lineno, f"label {label} outside [0, {n_classes})")
            labels[nid] = label
            features[nid] = vals
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                fail(lineno, "edge line needs two endpoints")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                fail(lineno, "malformed edge line")
            if not (0 <= u < n and 0 <= v < n):
                fail(lineno, f"edge endpoint out of range")
            if u == v:
                dropped_loops += 1
                continue
            key = (min(u, v), max(u, v))
            if key in edge_set:
                dropped_dups += 1
                continue
            edge_set.add(key)
        else:
            fail(lineno, f"unknown record {tokens[0]!r}")
    missing = np.flatnonzero(labels == -1)
    if missing.size:
        raise GraphFormatError(f"{path}: node {missing[0]} never declared")
    if dropped_loops or dropped_dups:
        warnings.warn(
            f"{path}: dropped {dropped_loops} self-loops and "
            f"{dropped_dups} duplicate edges"
        )
    edges = np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    return Graph(n, edges, features, labels, n_classes, fdim)
