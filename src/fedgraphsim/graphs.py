"""Graph containers, normalized sparse adjacency, synthetic graphs, and file I/O.

Graphs are undirected and simple: edges are stored as canonical (u, v) pairs
with u < v, sorted lexicographically, with no duplicates and no self-loops.
Node degrees used by the aggregation kernels are raw undirected degrees
without self-loops; the +1 self-loop appears only inside the GCN-normalized
adjacency.

The synthetic graph is a stochastic block model drawn in O(n + m) time and
memory: the edges are the hits of two geometric-skip streams, one over the
node pairs within blocks and one over the pairs across them (Batagelj and
Brandes, Phys. Rev. E 71, 036113, 2005), not one draw per node pair.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import types
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

log = logging.getLogger("fedgraphsim")
FALLBACK_WARNING = "class with fewer nodes than mask categories; falling back to unstratified split"


class GraphFormatError(ValueError):
    """Raised when a graph file is malformed or fails validation."""


def load_sparsetools():
    """scipy's compiled sparse kernels, the extension ``scipy.sparse._sparsetools``, loaded
    without ``scipy.sparse``, whose ``__init__`` pulls in ``numpy.f2py`` and
    ``array_api_compat`` (about 15 MiB RSS). It is found in scipy's sparse directory by
    the path finder, which runs no package code, and handed to the package's own import
    by a one-shot finder, so that import binds it: one copy, whichever comes first."""
    name, where = "scipy.sparse._sparsetools", os.path.join(scipy.__path__[0], "sparse")
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"no {name} extension in {where}", name=name, path=where)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)  # a single-phase extension registers itself

    def find_spec(fullname, path=None, target=None):
        if fullname == name:
            sys.meta_path.remove(hand_over)
            return importlib.util.spec_from_loader(name, hand_over)

    hand_over = types.SimpleNamespace(find_spec=find_spec, create_module=lambda _: module,
                                      exec_module=lambda m: setattr(m, "__spec__", spec))
    sys.meta_path.insert(0, hand_over)
    return module


sparsetools = load_sparsetools()


class Csr(NamedTuple):
    """A CSR matrix as the plain arrays ``spmm`` reads, built with no scipy checks."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple


def index_dtype(*sizes: int) -> type:
    """A CSR's index type: int32 while every size fits it, as scipy picks, else int64."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def coo_to_csr(rows, cols, vals, n: int) -> Csr:
    """The n x n CSR with vals[i] at (rows[i], cols[i]), array for array what
    ``scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))`` builds, in O(nnz)
    with scipy's own kernels: a stable counting sort by row, each row's columns then
    sorted unless they ascend already, and duplicates summed in that order. ``vals``
    None stands for all ones: one array of ones is read and written in place."""
    index = index_dtype(n, len(rows))
    rows, cols = np.asarray(rows, index), np.asarray(cols, index)
    indptr, indices = np.empty(n + 1, index), np.empty(len(rows), index)
    data = np.ones(len(rows)) if vals is None else np.empty(len(rows))
    sparsetools.coo_tocsr(n, n, len(rows), rows, cols, data if vals is None else vals,
                          indptr, indices, data)
    if not sparsetools.csr_has_sorted_indices(n, indptr, indices):
        sparsetools.csr_sort_indices(n, indptr, indices, data)
    sparsetools.csr_sum_duplicates(n, n, indptr, indices, data)
    if indptr[-1] < len(rows):  # summed duplicates: keep no unused tail
        data, indices = data[: indptr[-1]].copy(), indices[: indptr[-1]].copy()
    return Csr(data, indices, indptr, (n, n))


def read_text(path, error: type) -> str:
    """A UTF-8 text file's contents; other bytes raise ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


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
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        (u0, v0), (u1, v1) = e[:-1].T, e[1:].T
        if np.all(e[:, 0] < e[:, 1]) and np.all((u0 < u1) | ((u0 == u1) & (v0 < v1))):
            self.edges = e.copy()  # canonical already: owned, as a sort would leave it
        else:
            e = np.sort(e, axis=1)
            self.edges = e[np.lexsort((e[:, 1], e[:, 0]))]
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


def normalized_adjacency(g: Graph) -> Csr:
    """GCN-normalized adjacency with self-loops, as a ``Csr`` (columns ascending).

    Entry (i, j) = 1/sqrt((d_i + 1)(d_j + 1)) for every edge and for every
    diagonal position, with d the raw degree. Each row's entries come in as its
    lower neighbours, itself, its upper neighbours: ascending, so none is sorted.
    """
    n = g.node_count
    inv = 1.0 / np.sqrt(degrees(g).astype(np.float64) + 1.0)
    diag = np.arange(n, dtype=np.int64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([v, diag, u])
    cols = np.concatenate([u, diag, v])
    return coo_to_csr(rows, cols, inv[rows] * inv[cols], n)


def propagation_matrix(g: Graph) -> Csr:
    """Neighbor-averaging operator, as a ``Csr`` (columns ascending): entry
    (i, j) = 1/sqrt(d_i * d_j) per edge.

    No diagonal; rows of isolated nodes are empty. Both edge endpoints have
    degree >= 1, so every stored value is finite.
    """
    n = g.node_count
    d = degrees(g).astype(np.float64)
    u, v = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([v, u])
    cols = np.concatenate([u, v])
    return coo_to_csr(rows, cols, 1.0 / np.sqrt(d[rows] * d[cols]), n)


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


def split_masks(g: Graph, ratios: tuple, seed: int, fallbacks: list | None = None) -> NodeMasks:
    """Per-class stratified random assignment of nodes to train/val/test.

    Within each class the shuffled nodes are split by floor(ratio * count)
    for each category in train/val/test order; leftover nodes from flooring
    stay unassigned. Classes are processed in ascending order, one shuffle
    each, so the result is deterministic under the seed. If any class has
    fewer nodes than the three categories, the whole split falls back to a
    single unstratified pool, with a warning on the ``fedgraphsim`` logger or,
    given a list ``fallbacks``, the seed appended to it instead.
    """
    r_train, r_val, r_test = (float(r) for r in ratios)
    if min(r_train, r_val, r_test) < 0 or r_train + r_val + r_test > 1 + 1e-12:
        raise ValueError("ratios must be nonnegative and sum to at most 1")
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(g.labels == c) for c in range(g.num_classes)]
    groups = [grp for grp in groups if grp.size]
    if any(grp.size < 3 for grp in groups):
        if fallbacks is None:
            log.warning(FALLBACK_WARNING)
        else:
            fallbacks.append(seed)
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
    """Stochastic block model: block labels double as node classes. Each pair of
    nodes in one block is an edge with probability ``intra_prob``, each pair
    across blocks with ``inter_prob``, all independently; ``generate_sbm`` draws
    it in O(n + m).

    The allowed ranges are the ``[dataset]`` rows of ``config.SCHEMA``.
    """

    block_sizes: tuple
    intra_prob: float
    inter_prob: float
    feature_dim: int
    feature_noise: float
    seed: int


SBM_MIN_GAPS = 64  # fewest gaps one rng.geometric call of _skip_hits draws


def _skip_hits(rng: np.random.Generator, p: float, slots: int) -> np.ndarray:
    """The slots in [0, slots) that independent p-coins hit, ascending: the first
    at gap - 1, each next one a gap later, each gap a ``rng.geometric(p)`` draw, up
    to the first draw past the end (none when p or slots is 0). Gaps come in
    chunks of SBM_MIN_GAPS or 4 standard deviations short of the hits left; the
    chunk that passes the end is drawn again from its start state up to that gap,
    so ``rng`` ends where a one-gap-at-a-time loop ends. Gaps are clipped to
    slots + 1 before the cumulative sum: ``geometric`` returns INT64_MAX for p
    below about 1e-19, which would wrap the sum negative."""
    if p <= 0 or slots <= 0:
        return np.zeros(0, np.int64)
    parts, last = [], -1
    while True:
        mean = (slots - 1 - last) * p
        state = rng.bit_generator.state
        pos = rng.geometric(p, max(SBM_MIN_GAPS, int(mean - 4.0 * math.sqrt(mean))))
        np.minimum(pos, slots + 1, out=pos)
        np.cumsum(pos, out=pos)
        pos += last
        past = pos >= slots  # its first True comes before any wrap
        if past.any():
            end = int(past.argmax())
            rng.bit_generator.state = state
            rng.geometric(p, end + 1)
            parts.append(pos[:end])
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.append(pos)
        last = int(pos[-1])


def _sbm_edges(sizes: np.ndarray, probs: tuple, rng: np.random.Generator) -> np.ndarray:
    """The canonical (m, 2) edges of ``generate_sbm``: the intra-block hits, then the
    inter-block ones, each stream's slots numbered row by row."""
    n = int(sizes.sum())
    nodes, ends = np.arange(n), np.repeat(np.cumsum(sizes), sizes)
    cols, counts = [], []
    for p, first, stop in zip(probs, (nodes + 1, ends), (ends, n)):
        start = np.zeros(n + 1, np.int64)  # each row's first slot, and the slot count
        np.cumsum(stop - first, out=start[1:])
        hits = _skip_hits(rng, p, int(start[-1]))
        count = np.diff(np.searchsorted(hits, start))
        hits += np.repeat(first - start[:-1], count)  # slot -> column
        cols.append(hits)
        counts.append(count)
    edges = np.empty((cols[0].size + cols[1].size, 2), np.int64)
    intra = np.repeat(np.tile([True, False], n), np.column_stack(counts).ravel())
    edges[intra, 1] = cols[0]
    edges[np.logical_not(intra, out=intra), 1] = cols[1]
    del cols, hits, intra  # before the row column's temporary, which is one more int64 per edge
    edges[:, 0] = np.repeat(nodes, counts[0] + counts[1])
    return edges


def generate_sbm(cfg: SbmConfig) -> Graph:
    """Seeded stochastic block model graph.

    Draw procedure (fixed so equal configs give bit-identical graphs), on one
    ``default_rng(cfg.seed)`` stream. Row i's intra slots are the pairs (i, j)
    with j after i in its block, its inter slots those with j past the block's
    end, each kind numbered row by row. First the intra hits (intra_prob), then
    the inter hits (inter_prob), each stream drawn by ``_skip_hits``; then the
    features: one-hot block indicator at column (block mod feature_dim) plus
    Gaussian noise of the configured stddev. Labels are block ids.

    Hits map back to (i, j) by one ``searchsorted`` of the rows' first slots and
    are written into the canonical edge array by per-row counts (a row's intra
    columns precede its inter ones), with no sort: O(n + m) time whatever the
    block count. The working set peaks in ``_sbm_edges``, where the hits, the edge
    array and its write indices coexist (about the edges twice), plus a few int64 per node.
    """
    sizes = np.asarray(cfg.block_sizes, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed)
    edges = _sbm_edges(sizes, (cfg.intra_prob, cfg.inter_prob), rng)
    n, block_of = int(sizes.sum()), np.repeat(np.arange(sizes.size), sizes)
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

    lines = read_text(path, GraphFormatError).splitlines()
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
    if n < 1 or fdim < 1 or n_classes < 2:
        fail(1, f"header needs nodes >= 1, features >= 1 and classes >= 2, not {lines[0]!r}")
    wide = sum(len(line.split()) >= 3 + fdim for line in lines[1:])
    if n > wide:  # each node needs a line of its own with 3 + fdim tokens
        fail(1, f"header declares {n} nodes of {fdim} features, but only {wide} "
                f"lines hold {3 + fdim} tokens")
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
            if not np.isfinite(vals).all():
                fail(lineno, "features must be finite")
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
                fail(lineno, f"edge {u} {v}: endpoint out of range for {n} nodes")
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
        log.warning(
            f"{path}: dropped {dropped_loops} self-loops and {dropped_dups} duplicate edges"
        )
    edges = np.array(sorted(edge_set), dtype=np.int64).reshape(-1, 2)
    return Graph(n, edges, features, labels, n_classes, fdim)
