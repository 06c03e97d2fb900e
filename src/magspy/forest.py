"""Binned-mean feature extraction and a deterministic random-forest classifier.

The forest is grown with CART and Gini impurity. Each tree fits a bootstrap
resample of the training set; node splits are chosen among a per-node random
feature subset by scanning midpoints between consecutive distinct sorted
values; leaves keep class-count histograms, and prediction averages the
normalized leaf histograms across trees.

A tree holds only the distinct rows of its bootstrap draw (about 63% of
them), each weighted by how often it was drawn. The weights enter the class
histograms, the split search and the leaf counts as integers, so every
count is the one the repeated rows give.

All trees of a forest grow side by side. Each tree keeps its own
depth-first stack, and one growth step pops the top node of every
unfinished tree, so a step holds at most one node per tree. The step's
class histograms, split searches and partitions into children run as a
few array operations over all of its nodes, in batches of about 2^15
(row, candidate feature) elements. The split search sorts every
(node, candidate) segment with one integer sort, and the sums of squared
class counts on either side of every cut are integer running sums, exact
far below 2^53, so each Gini decrease is the same float, bit for bit, as a
feature-by-feature scan over float class counts gives. Growing the trees
together moves no model byte.

A model is one node table: every tree's nodes end to end, child links
indexing the whole table, and one class-count row per leaf. Prediction
walks all (row, tree) pairs down it together, one level per step, and sums
each row's normalized leaf histograms tree by tree in tree order, the same
float additions as a walk of one tree after another. ``ForestModel.trees``
reads the table back as per-tree views, which is what ``save_model`` writes.

Determinism contract: training canonicalizes the input order by
(label, feature values), per-tree random streams are derived up front from
the config seed, and within a tree all draws happen in pre-order node
creation order: after the bootstrap draw, node after node takes the
candidate set ``Generator.choice(d, k, replace=False)`` would draw next,
computed a block of nodes at a time from the stream's raw words (see
:func:`_choice_sets`). Models are therefore bit-identical across runs and
input permutations (without bootstrap).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .preprocess import _round_half_up
from .traces import (Dataset, Trace1D, _check_count, _check_entries, _check_real,
                     _from_dict, _frozen_array, _json_object)

#: Default number of binned-mean features per trace.
DEFAULT_BIN_COUNT = 50

_MAX_FEATURES_RULES = ("log2", "sqrt", "all")


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Fixed-length feature values for one trace, with an optional class label."""

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, name="feature values"))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ForestConfig:
    """Random-forest hyperparameters.

    ``max_features`` selects how many candidate features each node considers:
    "log2" uses ceil(log2(d)), "sqrt" uses ceil(sqrt(d)), "all" uses every
    feature. Unstated growth knobs follow the common library defaults: nodes
    with fewer than two samples or a single class are never split, and a
    leaf may hold a single sample. ``min_impurity_decrease`` is compared
    against the node-local Gini decrease of the best candidate split.
    """

    n_estimators: int = 1100
    max_features: str = "log2"
    max_depth: int = 50
    min_impurity_decrease: float = 1e-4
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        _check_count("n_estimators", self.n_estimators, 1)
        _check_count("max_depth", self.max_depth, 1)
        _check_count("seed", self.seed, 0)
        if self.max_features not in _MAX_FEATURES_RULES:
            raise ValueError(f"max_features must be one of {_MAX_FEATURES_RULES}")
        _check_real("min_impurity_decrease", self.min_impurity_decrease, 0.0)
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, not {self.bootstrap!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ForestConfig":
        return _from_dict(cls, obj, "forest config")


def default_config_grid(seed: int = 0) -> tuple[ForestConfig, ...]:
    """Stock hyperparameter grid for cross-validated selection."""
    return tuple(ForestConfig(n_estimators, max_features, max_depth, min_dec, True, seed)
                 for n_estimators, max_features, max_depth, min_dec in itertools.product(
                     (100, 500, 1100), ("log2", "sqrt"), (10, 50), (0.0, 1e-4)))


class TreeView(NamedTuple):
    """One tree of a model: child links count from its root, and ``counts``
    holds a class-count row per node (zeros at internal nodes)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A trained forest: one node table, class order, feature dimension, config.

    Tree t holds ``sizes[t]`` nodes, and ``feature``, ``threshold``, ``left``
    and ``right`` list every tree's nodes end to end, each tree in pre-order.
    ``feature[i] == -1`` marks a leaf; an internal node routes samples with
    value <= threshold to ``left``. Child links index the whole table.
    ``counts`` holds one integer class-count row per leaf, in node order.
    """

    sizes: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    class_names: tuple[str, ...]
    n_features: int
    config: ForestConfig

    def __post_init__(self):
        # Every walk from a root ends at a leaf of its tree: each step moves to
        # a later node of the same tree, and no node has two parents.
        n_classes = len(self.class_names)
        if len(set(self.class_names)) != n_classes:
            raise ValueError("class_names contains duplicates")
        if not self.sizes.size:
            raise ValueError("trees must hold at least one tree")
        ends = np.cumsum(self.sizes)
        shapes = {a.shape for a in (self.feature, self.threshold, self.left, self.right)}
        if self.sizes.min() < 1 or shapes != {(ends[-1],)}:
            raise ValueError("trees need nodes and one entry per node in each array")
        internal = self.feature >= 0
        if self.counts.shape != (np.count_nonzero(~internal), n_classes):
            raise ValueError("each counts row must hold one entry per class")
        if np.any(self.feature >= self.n_features):
            raise ValueError("split feature index exceeds feature dimension")
        parents = np.tile(np.flatnonzero(internal), 2)
        children = np.concatenate([self.left[internal], self.right[internal]])
        tree_end = np.repeat(ends, self.sizes)[parents]
        if np.any(children < 0) or np.any(children >= tree_end):
            raise ValueError("internal node with missing child")
        if np.any(children <= parents):
            raise ValueError("child node index must exceed its parent's")
        if np.any(np.bincount(children) > 1):
            raise ValueError("node with more than one parent")
        if not np.isfinite(self.threshold[internal]).all():
            raise ValueError("internal node threshold must be finite")
        totals = self.counts.sum(axis=1, keepdims=True, dtype=np.float64)
        if np.any(self.counts < 0) or np.any(totals <= 0):
            raise ValueError("leaf histograms must be non-negative with positive total")
        # predict_many's walk data: each tree's root, each node's leaf row
        # (-1 at internal nodes) and each leaf's class probabilities.
        leaf_row = np.where(internal, -1, np.cumsum(~internal) - 1)
        object.__setattr__(self, "_walk", (ends - self.sizes, leaf_row,
                                           self.counts / totals))

    @property
    def trees(self) -> tuple[TreeView, ...]:
        """One :class:`TreeView` per tree, read from the node table on access."""
        roots, leaf_row, _ = self._walk
        shift = np.repeat(roots, self.sizes)
        counts = np.zeros((leaf_row.size, self.counts.shape[1]), self.counts.dtype)
        counts[leaf_row >= 0] = self.counts
        left, right = (np.where(a >= 0, a - shift, a) for a in (self.left, self.right))
        arrays = (self.feature, self.threshold, left, right, counts)
        return tuple(map(TreeView._make, zip(*(np.split(a, roots[1:]) for a in arrays))))


def _subset_size(rule: str, n_features: int) -> int:
    if rule == "all":
        return n_features
    if rule == "log2":
        return min(n_features, max(1, math.ceil(math.log2(n_features))))
    return min(n_features, max(1, math.ceil(math.sqrt(n_features))))


#: About how many (row, candidate feature) elements one batch of nodes
#: spans in a growth step, a larger node making a batch of its own, and
#: about how many (row, tree) pairs one block of predict_many walks.
_BATCH_ELEMENTS = 1 << 15


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + n)`` over the (start, size) pairs."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])


class _SplitSearch:
    """Best (feature, threshold, decrease) of a batch of nodes in one segmented pass.

    A node holds distinct rows, each standing for ``w`` copies of its
    sample. A segment is one node's rows under one of its candidate
    features. One integer sort orders every segment of the batch at once, on
    keys ``segment | dense rank | row``; the ranks are taken once per forest,
    so equal values tie exactly, and thresholds still come from the values. A
    second sort, on ``segment * C + class | slot``, lists each class's rows
    of a segment in sorted order. Walking a sorted segment, a row of class c
    whose w copies pass from the right side to the left, after r samples of
    its class, raises the left sum of squared class counts by w(2r + w) and
    changes the right one by w(w - 2(h_c - r)), so both sums are a global
    integer ``cumsum`` less the segment's base. They never exceed n^2 < 2^53,
    so every Gini decrease is the float, bit for bit, that a per-feature scan
    over the class-count prefixes of the repeated rows computes with the same
    expression. Ties keep the first candidate in ascending feature order and,
    within a feature, the lowest threshold.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n_classes: int):
        self.x = x
        self.y = y
        self.n_classes = n_classes
        self.ranks = np.empty(x.shape, dtype=np.int64)
        for j, column in enumerate(x.T):
            self.ranks[:, j] = np.unique(column, return_inverse=True)[1]
        self.rank_bits = int(self.ranks.max()).bit_length()

    def __call__(self, rows: np.ndarray, weight: np.ndarray, sizes: np.ndarray,
                 cand: np.ndarray, hist: np.ndarray):
        """(nodes with a cut, their feature, threshold and Gini decrease).

        Node j holds the next ``sizes[j]`` entries of ``rows``, distinct rows
        that stand for ``weight`` copies each, the ascending candidate
        features ``cand[j]`` and the integer class histogram ``hist[j]`` of
        the copies.
        """
        m, k = cand.shape
        n_classes = self.n_classes
        n_rows = rows.size
        n_slots = k * n_rows
        row_bits = int(n_rows - 1).bit_length()
        seg_shift = self.rank_bits + row_bits
        # Segment s = node * k + candidate, so the sorted segments run node
        # by node, each node's candidates in ascending feature order.
        node = np.repeat(np.arange(m), sizes)
        keys = self.ranks[rows[:, None], cand[node]] << row_bits
        keys |= ((node * k) << seg_shift | np.arange(n_rows))[:, None]
        keys += np.arange(k) << seg_shift
        keys = np.sort(keys, axis=None)
        at = keys & ((1 << row_bits) - 1)  # batch row of each sorted slot
        keys >>= row_bits  # segment << rank_bits | rank
        seg = keys >> self.rank_bits
        w = weight[at]
        group = seg * n_classes + self.y[rows][at]
        slot_bits = int(n_slots - 1).bit_length()
        by_class = np.sort(group << slot_bits | np.arange(n_slots))
        total = hist.sum(axis=1)
        # Each segment's and each (segment, class) group's first sample, in
        # samples counted over all segments.
        seg_hist = np.repeat(hist, k, axis=0)
        seg_total = np.repeat(total, k)
        seg_first = np.cumsum(seg_total) - seg_total
        group_first = seg_first[:, None] + np.cumsum(seg_hist, axis=1) - seg_hist
        slot = by_class & ((1 << slot_bits) - 1)
        w_by_class = w[slot]
        before = (np.cumsum(w_by_class) - w_by_class
                  - group_first.ravel()[by_class >> slot_bits])
        step = np.empty(n_slots, dtype=np.int64)
        step[slot] = w_by_class * (2 * before + w_by_class)
        sq_sum = (hist * hist).sum(axis=1)
        sq_left = np.cumsum(step)
        sq_right = np.cumsum(step - 2 * w * seg_hist.ravel()[group])
        seg_sizes = np.repeat(sizes, k)
        seg_start = np.cumsum(seg_sizes) - seg_sizes
        last = seg_start + seg_sizes - 1
        sq_left -= np.r_[0, sq_left[last[:-1]]][seg]
        sq_right -= (np.r_[0, sq_right[last[:-1]]] - np.repeat(sq_sum, k))[seg]
        n = total.astype(np.float64)
        gini_parent = 1.0 - sq_sum / (n * n)
        n_left = (np.cumsum(w) - seg_first[seg]).astype(np.float64)
        n = seg_total.astype(np.float64)[seg]
        n_right = n - n_left
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at segment ends
            gini_left = 1.0 - sq_left / (n_left * n_left)
            gini_right = 1.0 - sq_right / (n_right * n_right)
            decrease = (np.repeat(gini_parent, k)[seg] - (n_left / n) * gini_left
                        - (n_right / n) * gini_right)
        # Only a slot between two distinct values of one segment is a cut.
        np.copyto(decrease[:-1], -np.inf, where=keys[:-1] == keys[1:])
        decrease[last] = -np.inf
        node_start = seg_start[::k]
        best = np.maximum.reduceat(decrease, node_start)
        hits = np.flatnonzero(decrease == np.repeat(best, sizes * k))
        found = np.flatnonzero(best > -np.inf)
        cut = hits[np.searchsorted(hits, node_start[found])]
        feature = cand.ravel()[seg[cut]]
        threshold = (self.x[rows[at[cut]], feature]
                     + self.x[rows[at[cut + 1]], feature]) / 2.0
        return found, feature, threshold, best[found]


#: How many nodes' candidate feature sets a tree draws at a time.
_DRAW_BLOCK = 64

_LOW_HALF = np.uint64(0xFFFFFFFF)


def _choice_sets(halves: np.ndarray, d: int, k: int, calls: int):
    """The sets of up to ``calls`` ``Generator.choice(d, k, replace=False)``
    calls, drawn from the generator's next 32-bit words ``halves`` (uint64).

    For 0 < k < d (so every draw reads a word), ``choice`` runs Floyd's
    algorithm unless d > 10000 and k > d // 50, which neither the "log2"
    nor the "sqrt" rule reaches: for j = d - k ... d - 1 it draws v below
    j + 1 and takes v, or j if v is taken already. It then shuffles the k
    values with k - 1 draws below k ... 2, which only consume words here:
    callers sort each set. Every draw is Lemire's: the high word of
    u * bound, rejecting u while ``(u * bound) mod 2^32 < 2^32 mod bound``.
    Returns the sorted sets, one row per call, and how many words they use.
    """
    bound = np.r_[d - k + 1:d + 1, k:1:-1].astype(np.uint64)
    limit = np.uint64(1 << 32) % bound
    period = bound.size
    draws, used = [], []
    at = phase = 0
    while at < halves.size:
        cycle = (phase + np.arange(halves.size - at)) % period
        scaled = halves[at:] * bound[cycle]
        rejected = np.flatnonzero((scaled & _LOW_HALF) < limit[cycle])
        stop = rejected[0] if rejected.size else scaled.size
        draws.append(scaled[:stop] >> np.uint64(32))
        used.append(np.arange(at, at + stop))
        phase = (phase + stop) % period
        at += stop + 1
    draws = np.concatenate(draws)
    calls = min(calls, draws.size // period)
    value = draws[:calls * period].reshape(calls, period).astype(np.intp)
    sets = np.empty((calls, k), dtype=np.intp)
    for i, j in enumerate(range(d - k, d)):
        taken = (sets[:, :i] == value[:, i, None]).any(axis=1)
        sets[:, i] = np.where(taken, j, value[:, i])
    sets.sort(axis=1)
    return sets, int(np.concatenate(used)[calls * period - 1]) + 1 if calls else 0


class _CandidateDraws:
    """Each tree's candidate feature sets, in the order its nodes ask for them.

    Tree t's sets are the ones ``rngs[t].choice(d, k, replace=False)`` would
    return call after call, sorted, computed ``_DRAW_BLOCK`` calls at a time
    (see :func:`_choice_sets`) from the generator's raw 64-bit words. The
    32-bit draws of ``default_rng``'s PCG64 read each word's low half, then
    its high half, and begin with the half it holds buffered, if any.
    """

    def __init__(self, rngs: list[np.random.Generator], d: int, k: int):
        self.d, self.k = d, k
        self.bit_generators = [rng.bit_generator for rng in rngs]
        self.halves = []
        for bit_generator in self.bit_generators:
            state = bit_generator.state
            self.halves.append(np.array([state["uinteger"]] if state["has_uint32"] else [],
                                        dtype=np.uint64))
        self.sets = np.empty((len(rngs), _DRAW_BLOCK, k), dtype=np.intp)
        self.next = np.full(len(rngs), _DRAW_BLOCK)

    def __call__(self, trees: np.ndarray) -> np.ndarray:
        """The next candidate set of each of ``trees`` (distinct tree indices)."""
        for t in trees[self.next[trees] == _DRAW_BLOCK].tolist():
            self._refill(t)
        sets = self.sets[trees, self.next[trees]]
        self.next[trees] += 1
        return sets

    def _refill(self, t: int):
        halves, got = self.halves[t], 0
        while got < _DRAW_BLOCK:
            short = (_DRAW_BLOCK - got) * (2 * self.k - 1) - halves.size
            raw = self.bit_generators[t].random_raw(max(1, (short + 1) // 2))
            split = np.column_stack((raw & _LOW_HALF, raw >> np.uint64(32))).ravel()
            halves = np.concatenate((halves, split))
            sets, used = _choice_sets(halves, self.d, self.k, _DRAW_BLOCK - got)
            self.sets[t, got:got + len(sets)] = sets
            got += len(sets)
            halves = halves[used:]
        self.halves[t] = halves
        self.next[t] = 0


def _partition(x, slots, weight, rows, row_weight, starts, sizes, feature,
               threshold) -> np.ndarray:
    """Stably move each split node's left-going rows to the front of its slots.

    The nodes own ``slots[starts[j]:starts[j] + sizes[j]]`` and hold the
    consecutive entries of ``rows``, whose weights ``row_weight`` move with
    them in ``weight``; returns each node's left row count.
    """
    go_right = x[rows, np.repeat(feature, sizes)] > np.repeat(threshold, sizes)
    side = np.repeat(2 * np.arange(sizes.size), sizes) + go_right
    order = np.argsort(side, kind="stable")
    at = _ranges(starts, sizes)
    slots[at] = rows[order]
    weight[at] = row_weight[order]
    return np.bincount(side, minlength=2 * sizes.size)[::2]


def _grow_forest(x: np.ndarray, y: np.ndarray, n_classes: int, config: ForestConfig,
                 rngs: list[np.random.Generator]):
    """Grow one tree per generator, all side by side (see the module docstring).

    Returns each tree's node count and the trees' node tables (see
    :func:`_forest_tables`).
    """
    n, d = x.shape
    n_trees = len(rngs)
    k = _subset_size(config.max_features, d)
    search = _SplitSearch(x, y, n_classes)
    # Tree t's distinct rows fill a block of slots, in ascending order, and
    # ``weight`` holds how often each was drawn. A node owns a contiguous
    # range of its tree's slots, and a split partitions that range in place,
    # so a finished tree's leaves tile its slots.
    if config.bootstrap:
        bags = [np.unique(rng.integers(0, n, size=n), return_counts=True) for rng in rngs]
        slots, weight = (np.concatenate(a) for a in zip(*bags))
        rows_per_tree = np.array([rows.size for rows, _ in bags])
        del bags
    else:
        slots = np.tile(np.arange(n), n_trees)
        weight = np.ones(slots.size, dtype=np.int64)
        rows_per_tree = np.full(n_trees, n)
    draws = _CandidateDraws(rngs, d, k) if k < d else None
    # Per-tree depth-first stacks of (start, rows, depth, parent if a right
    # child else -1); a left child is always its parent's next node. The
    # right child is pushed first, so each tree creates its nodes, and makes
    # its draws, in pre-order.
    stack = np.zeros((n_trees, min(config.max_depth, n) + 2, 4), dtype=np.int64)
    stack[:, 0, 0] = np.cumsum(rows_per_tree) - rows_per_tree
    stack[:, 0, 1] = rows_per_tree
    stack[:, 0, 3] = -1
    height = np.ones(n_trees, dtype=np.intp)
    n_nodes = np.zeros(n_trees, dtype=np.intp)
    records = []
    while True:
        # One step pops the top node of every unfinished tree.
        active = np.flatnonzero(height)
        if not active.size:
            break
        height[active] -= 1
        popped = stack[active, height[active]]
        popped_id = n_nodes[active]
        n_nodes[active] += 1
        # A node joins the batch its first (row, candidate) element falls in.
        batch = (np.cumsum(popped[:, 1]) - popped[:, 1]) * k // _BATCH_ELEMENTS
        bounds = (np.flatnonzero(np.diff(batch)) + 1).tolist()
        for a, b in zip([0, *bounds], [*bounds, active.size]):
            trees, node_id = active[a:b], popped_id[a:b]
            start, size, depth, right_of = popped[a:b].T
            m = trees.size
            at = _ranges(start, size)
            rows, row_weight = slots[at], weight[at]
            hist = np.bincount(np.repeat(np.arange(m) * n_classes, size) + y[rows],
                               row_weight, minlength=m * n_classes)
            hist = hist.astype(np.int64).reshape(m, n_classes)
            feature = np.full(m, -1)
            threshold = np.full(m, np.nan)
            grow = (depth < config.max_depth) & (hist.max(axis=1) < hist.sum(axis=1))
            if grow.any():
                nodes = np.flatnonzero(grow)
                if draws is None:
                    cand = np.broadcast_to(np.arange(d), (nodes.size, d))
                else:
                    cand = draws(trees[nodes])
                rows_in = np.repeat(grow, size)
                found, f, thr, dec = search(rows[rows_in], row_weight[rows_in],
                                            size[nodes], cand, hist[nodes])
                keep = dec >= config.min_impurity_decrease
                nodes = nodes[found[keep]]
                feature[nodes] = f[keep]
                threshold[nodes] = thr[keep]
                if nodes.size:
                    rows_in = np.repeat(feature >= 0, size)
                    n_left = _partition(x, slots, weight, rows[rows_in],
                                        row_weight[rows_in], start[nodes], size[nodes],
                                        f[keep], thr[keep])
                    t = trees[nodes]
                    child = np.column_stack((start[nodes], n_left, depth[nodes] + 1,
                                             np.full_like(n_left, -1)))
                    stack[t, height[t] + 1] = child  # the left child, popped next
                    child[:, 0] += n_left
                    child[:, 1] = size[nodes] - n_left
                    child[:, 3] = node_id[nodes]
                    stack[t, height[t]] = child
                    height[t] += 2
            records.append((np.column_stack((trees, node_id, right_of, size, feature))
                            .astype(np.int32), threshold))
    nodes, threshold = (np.concatenate(r) for r in zip(*records))
    # Freed before the tables below are allocated: less peak memory.
    del records, draws
    return (n_nodes, *_forest_tables(nodes, threshold, n_nodes, slots, weight, y,
                                     n_classes))


def _forest_tables(nodes, threshold, n_nodes, slots, weight, y, n_classes):
    """(feature, threshold, left, right, counts) of all trees, end to end.

    A row of ``nodes`` is (tree, node id, parent if a right child else -1,
    rows, feature) and ``threshold`` holds the matching split thresholds.
    Each tree's nodes come out as one contiguous pre-order block, child
    links index the whole table, and ``counts`` has one row per leaf.
    """
    tree, node, right_of, size, feature = nodes.T
    offset = np.cumsum(n_nodes) - n_nodes
    at = offset[tree] + node
    order = np.argsort(at)  # the records in table order
    feature = feature[order].astype(np.intp)
    leaf = feature < 0
    left = np.where(leaf, -1, np.arange(at.size) + 1)
    right = np.full(at.size, -1, dtype=np.intp)
    is_right = right_of >= 0
    right[offset[tree[is_right]] + right_of[is_right]] = at[is_right]
    # In pre-order a tree's leaves run left to right, so they tile its slots
    # in order: each slot's copies count in the leaf whose range holds it.
    leaf_size = size[order][leaf]
    slot_count = np.repeat(np.arange(leaf_size.size), leaf_size) * n_classes + y[slots]
    counts = np.bincount(np.repeat(slot_count, weight),
                         minlength=leaf_size.size * n_classes)
    return feature, threshold[order], left, right, counts.reshape(-1, n_classes)


def _dataset_to_arrays(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if len(train) == 0:
        raise ValueError("training dataset is empty")
    lengths = {len(fv.values) for fv, _ in train.items}
    if len(lengths) != 1:
        raise ValueError("feature vectors have inconsistent lengths")
    # Canonical order: by (label, feature values). Makes the model invariant
    # to the incoming item order for a fixed seed.
    order = sorted(range(len(train)),
                   key=lambda i: (train.items[i][1], tuple(train.items[i][0].values)))
    x = np.stack([train.items[i][0].values for i in order])
    label_code = {name: c for c, name in enumerate(train.class_names)}
    y = np.asarray([label_code[train.items[i][1]] for i in order], dtype=np.intp)
    return x, y


def train_forest(train: Dataset, config: ForestConfig) -> ForestModel:
    """Grow a forest on a dataset of FeatureVector items.

    Every tree grows from its own stream, spawned up front from the config
    seed.
    """
    x, y = _dataset_to_arrays(train)
    n_classes = len(train.class_names)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_estimators)
    return ForestModel(*_grow_forest(x, y, n_classes, config,
                                     [np.random.default_rng(s) for s in streams]),
                       train.class_names, x.shape[1], config)


def predict_many(model: ForestModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prediction: (class codes, probability matrix) for rows of x.

    Every (row, tree) pair walks down the model's node table at once, one
    level per step; rows go in blocks of about ``_BATCH_ELEMENTS`` pairs.
    Each row's probabilities are the sum of its normalized leaf histograms
    in tree order, divided by the tree count.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension {x.shape[1]} != model dimension {model.n_features}"
        )
    roots, leaf_row, leaf_probs = model._walk
    n = x.shape[0]
    n_trees = roots.size
    probs = np.zeros((n, len(model.class_names)))
    block = max(1, _BATCH_ELEMENTS // n_trees)
    for a in range(0, n, block):
        rows = x[a:a + block]
        # Pair p is (row p // n_trees, tree p % n_trees), so the nodes
        # reshape to one row of tree nodes per input row.
        node = np.tile(roots, rows.shape[0])
        live = np.flatnonzero(model.feature[node] >= 0)  # pairs at internal nodes
        while live.size:
            cur = node[live]
            go_left = rows[live // n_trees, model.feature[cur]] <= model.threshold[cur]
            cur = np.where(go_left, model.left[cur], model.right[cur])
            node[live] = cur
            live = live[model.feature[cur] >= 0]
        leaf = leaf_row[node].reshape(-1, n_trees)
        out = probs[a:a + block]
        for t in range(n_trees):
            out += leaf_probs[leaf[:, t]]
    probs /= n_trees
    return np.argmax(probs, axis=1), probs


def predict(model: ForestModel, features: FeatureVector) -> tuple[str, dict[str, float]]:
    """Predict one feature vector: (label, per-class probability map).

    Probabilities are the mean of per-tree leaf histograms; ties resolve to
    the earliest class in ``class_names``.
    """
    codes, probs = predict_many(model, features.values[None, :])
    label = model.class_names[int(codes[0])]
    return label, {name: float(p) for name, p in zip(model.class_names, probs[0])}


def _featurize(traces, bins: int, *, inverse: bool = False) -> np.ndarray:
    """Binned-mean features of normalized traces, one row per trace in input order.

    With stride s = n / bins for a trace of n samples, feature i is the mean
    of window [round(i*s), round(i*s + 2*s)) clipped to the trace: 50%
    overlap between consecutive windows. Traces of equal length are stacked
    and binned as one matrix; ``inverse`` bins their ``1 - values``
    reflections instead.
    """
    if bins < 1:
        raise ValueError("bin_count must be at least 1")
    by_length: dict[int, list[int]] = {}
    for i, trace in enumerate(traces):
        if not trace.normalized:
            raise ValueError("trace must be normalized")
        if len(trace) < bins:
            raise ValueError(f"trace length {len(trace)} is shorter than "
                             f"bin_count {bins}")
        by_length.setdefault(len(trace), []).append(i)
    out = np.empty((len(traces), bins))
    for n, rows in by_length.items():
        x = np.stack([traces[i].values for i in rows])
        if inverse:
            np.subtract(1.0, x, out=x)
        stride = n / bins
        for j in range(bins):
            a = _round_half_up(j * stride)
            b = min(n, _round_half_up(j * stride + 2.0 * stride))
            out[rows, j] = x[:, a:b].mean(axis=1)
    return out


def extract_features(trace: Trace1D, bin_count: int = DEFAULT_BIN_COUNT,
                     label: str | None = None) -> FeatureVector:
    """Means of ``bin_count`` half-overlapping windows over one normalized trace."""
    return FeatureVector(_featurize([trace], bin_count)[0], label=label)


def _predict_labels(model: ForestModel, traces) -> tuple[list[str], list[float]]:
    """Featurize traces at the model's ``n_features`` bins and classify them in
    one ``predict_many`` call.

    Returns each trace's predicted label and that label's probability, the
    same values :func:`predict` gives trace by trace.
    """
    codes, probs = predict_many(model, _featurize(traces, model.n_features))
    labels = [model.class_names[int(c)] for c in codes]
    return labels, probs[np.arange(codes.size), codes].tolist()


def _stratify(labels, class_names, minimum: int, seed: int) -> list[list[int]]:
    """Per class, in ``class_names`` order, its item indices in a seeded permutation."""
    rng = np.random.default_rng(seed)
    out = []
    for name in class_names:
        idx = [i for i, label in enumerate(labels) if label == name]
        if len(idx) < minimum:
            raise ValueError(f"class {name!r} has fewer than {minimum} items")
        out.append([idx[p] for p in rng.permutation(len(idx))])
    return out


def split_dataset(data: Dataset, train_fraction: float,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/test split: round(fraction * count) items per class to train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    train_items = []
    test_items = []
    for perm in _stratify(data.labels, data.class_names, 2, seed):
        n_train = _round_half_up(train_fraction * len(perm))
        train_items += [data.items[i] for i in perm[:n_train]]
        test_items += [data.items[i] for i in perm[n_train:]]
    return (Dataset(tuple(train_items), data.class_names),
            Dataset(tuple(test_items), data.class_names))


def cross_validate_grid(train: Dataset, grid, folds: int,
                        seed: int = 0) -> tuple[ForestConfig, tuple[float, ...]]:
    """Stratified k-fold grid search; returns (best config, mean accuracy per config).

    Ties between configs resolve to the earliest grid entry.
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("grid must contain at least one config")
    if folds < 2:
        raise ValueError("folds must be at least 2")
    fold_of = np.empty(len(train), dtype=np.intp)
    for perm in _stratify(train.labels, train.class_names, folds, seed):
        fold_of[perm] = np.arange(len(perm)) % folds

    x = np.stack([fv.values for fv, _ in train.items])
    truth = np.asarray([train.class_names.index(label) for label in train.labels])
    means = []
    for config in grid:
        accs = []
        for fold in range(folds):
            held = fold_of == fold
            fit = [item for item, h in zip(train.items, held) if not h]
            model = train_forest(Dataset(tuple(fit), train.class_names), config)
            codes, _ = predict_many(model, x[held])
            accs.append(float(np.mean(codes == truth[held])))
        means.append(float(np.mean(accs)))
    best = int(np.argmax(means))  # the first of equal means
    return grid[best], tuple(means)


# ---------------------------------------------------------------------------
# Model serialization: self-describing JSON with exact round-trip.
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "magspy-forest"


def save_model(model: ForestModel, path) -> None:
    trees = []
    for tree in model.trees:
        leaf = (tree.feature < 0).tolist()
        trees.append({
            "feature": tree.feature.tolist(),
            "threshold": [None if is_leaf else v
                          for is_leaf, v in zip(leaf, tree.threshold.tolist())],
            "left": tree.left.tolist(),
            "right": tree.right.tolist(),
            "counts": [row if is_leaf else None
                       for is_leaf, row in zip(leaf, tree.counts.tolist())],
        })
    obj = {
        "format": _MODEL_FORMAT,
        "config": model.config.to_dict(),
        "class_names": list(model.class_names),
        "n_features": model.n_features,
        "trees": trees,
    }
    Path(path).write_text(json.dumps(obj, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_model(path) -> ForestModel:
    """Read a :func:`save_model` document, checking the type of every entry.

    Counts rows of internal nodes are not read.
    """
    obj = _json_object(json.loads(Path(path).read_text(encoding="utf-8")), "model",
                       {"format", "config", "class_names", "n_features", "trees"})
    if obj.get("format") != _MODEL_FORMAT:
        raise ValueError(f"not a {_MODEL_FORMAT} document")
    config = ForestConfig.from_dict(obj.get("config"))
    class_names = obj.get("class_names")
    if type(class_names) is not list or not set(map(type, class_names)) <= {str}:
        raise ValueError("class_names must be a list of strings")
    _check_count("n_features", obj.get("n_features"), 1)
    keys = TreeView._fields
    trees = obj.get("trees")
    if type(trees) is not list or not all(
            type(tree) is dict and tree.keys() == set(keys)
            and all(type(tree[key]) is list for key in keys) for tree in trees):
        raise ValueError(f"trees must be a list of objects of just the arrays {keys}")
    sizes = np.array([len(tree["feature"]) for tree in trees], dtype=np.intp)
    if not all(n and all(len(tree[key]) == n for key in keys)
               for tree, n in zip(trees, sizes)):
        raise ValueError("trees need nodes and one entry per node in each array")
    feature, threshold, left, right, counts = (
        list(itertools.chain.from_iterable(tree[key] for tree in trees)) for key in keys)
    _check_entries("threshold", threshold, {int, float, type(None)}, "numbers or null")
    try:
        feature, left, right = (
            np.array(_check_entries(name, values, {int}, "integers"), dtype=np.int64)
            for name, values in (("feature", feature), ("left", left), ("right", right)))
        threshold = np.array(threshold, dtype=np.float64)  # null reads as NaN
        rows = list(itertools.compress(counts, (feature < 0).tolist()))
        if set(map(type, rows)) - {list} or set(map(len, rows)) - {len(class_names)}:
            raise ValueError("each counts row must hold one entry per class")
        counts = list(itertools.chain.from_iterable(rows))
        counts = np.array(_check_entries("counts", counts, {int}, "integers"), np.int64)
    except OverflowError as exc:
        raise ValueError(f"model entry out of range: {exc}") from exc
    if np.any(counts > 2**53):
        raise ValueError("leaf counts must be at most 2^53")
    # Only non-negative links shift from tree-local to table indices, so a
    # bad link stays bad instead of landing in the neighbouring tree.
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    left, right = (np.where(a >= 0, a + shift, a) for a in (left, right))
    return ForestModel(sizes, feature, threshold, left, right,
                       counts.reshape(len(rows), len(class_names)), tuple(class_names),
                       obj["n_features"], config)
