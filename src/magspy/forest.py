"""Binned-mean feature extraction and a deterministic random-forest classifier.

The forest is grown with CART and Gini impurity. Each tree fits a bootstrap
resample of the training set; node splits are chosen among a per-node random
feature subset by scanning midpoints between consecutive distinct sorted
values; leaves keep class-count histograms, and prediction averages the
normalized leaf histograms across trees.

Each node scans all of its candidate features in one vectorized pass. The
sums of squared class counts on either side of every cut are integer
running sums, exact far below 2^53, so each Gini decrease is the same
float, bit for bit, as a feature-by-feature scan over float class counts
gives: the split search is faster without moving any model byte.

Determinism contract: training canonicalizes the input order by
(label, feature values), per-tree random streams are derived up front from
the config seed, and within a tree all draws happen in pre-order node
creation order. Models are therefore bit-identical across runs and input
permutations (without bootstrap).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .preprocess import _round_half_up
from .traces import Dataset, Trace1D, _check_count, _frozen_array

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
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ForestConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown forest config fields: {sorted(unknown)}")
        try:
            return cls(**obj)
        except TypeError as exc:
            raise ValueError(f"invalid forest config: {exc}") from exc


def default_config_grid(seed: int = 0) -> tuple[ForestConfig, ...]:
    """Stock hyperparameter grid for cross-validated selection."""
    grid = []
    for n_estimators in (100, 500, 1100):
        for max_features in ("log2", "sqrt"):
            for max_depth in (10, 50):
                for min_dec in (0.0, 1e-4):
                    grid.append(ForestConfig(n_estimators, max_features, max_depth,
                                             min_dec, True, seed))
    return tuple(grid)


class _Tree:
    """Flat array representation of one decision tree.

    ``feature[i] == -1`` marks a leaf; internal nodes route samples with
    value <= threshold to ``left``. ``counts`` holds per-node class-count
    histograms (meaningful at leaves).
    """

    __slots__ = ("feature", "threshold", "left", "right", "counts", "leaf_probs")

    def __init__(self, feature, threshold, left, right, counts):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.counts = np.asarray(counts, dtype=np.float64)
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1.0)
        self.leaf_probs = self.counts / safe

    @property
    def n_nodes(self) -> int:
        return self.feature.size


@dataclass(frozen=True, eq=False)
class ForestModel:
    """A trained forest: trees, class order, feature dimension, and its config."""

    trees: tuple[_Tree, ...]
    class_names: tuple[str, ...]
    n_features: int
    config: ForestConfig

    def __post_init__(self):
        # Every walk from the root must end at a leaf: children come after
        # their parent in pre-order and no node is shared, so the nodes form
        # a tree and each step strictly increases the node index.
        n_classes = len(self.class_names)
        if len(set(self.class_names)) != n_classes:
            raise ValueError("class_names contains duplicates")
        for tree in self.trees:
            n = tree.n_nodes
            if any(a.shape != (n,) for a in (tree.feature, tree.threshold,
                                             tree.left, tree.right)):
                raise ValueError("tree arrays must hold one entry per node")
            if tree.counts.shape != (n, n_classes):
                raise ValueError("each counts row must hold one entry per class")
            internal = tree.feature >= 0
            if np.any(tree.feature[internal] >= self.n_features):
                raise ValueError("split feature index exceeds feature dimension")
            parents = np.flatnonzero(internal)
            children = np.concatenate([tree.left[internal], tree.right[internal]])
            if internal.any() and (children.min() < 0 or children.max() >= n):
                raise ValueError("internal node with missing child")
            if np.any(children <= np.concatenate([parents, parents])):
                raise ValueError("child node index must exceed its parent's")
            if np.unique(children).size != children.size:
                raise ValueError("node with more than one parent")
            if not np.isfinite(tree.threshold[internal]).all():
                raise ValueError("internal node threshold must be finite")
            leaf_totals = tree.counts[~internal].sum(axis=1)
            if np.any(tree.counts < 0) or np.any(leaf_totals <= 0):
                raise ValueError("leaf histograms must be non-negative with positive total")


def _subset_size(rule: str, n_features: int) -> int:
    if rule == "all":
        return n_features
    if rule == "log2":
        return min(n_features, max(1, math.ceil(math.log2(n_features))))
    return min(n_features, max(1, math.ceil(math.sqrt(n_features))))


def _best_split(x: np.ndarray, y: np.ndarray, hist: np.ndarray,
                candidates: np.ndarray):
    """Best (feature, threshold, decrease) over the candidate features, or None.

    ``x[:, j]`` holds the node's values of feature ``candidates[j]``
    (``candidates`` ascending), ``y`` the node's class codes and ``hist``
    their integer class histogram; the node has at least two samples.
    Thresholds are midpoints between consecutive distinct sorted values.
    Ties keep the first candidate in ascending feature order and, within a
    feature, the lowest threshold.

    All candidates are scanned in one pass. Walking a sorted column, the
    sample of class c that is the r-th of its class to pass from the right
    side to the left raises the left sum of squared class counts by 2r + 1
    and changes the right one by 1 - 2(h_c - r), so both sums are integer
    running sums. They never exceed n^2 < 2^53, so each converts exactly
    to the float that summing the squared float class counts gives, and
    every Gini decrease is bit-identical to the one a per-feature scan over
    class-count prefixes computes with the same expression.
    """
    n, k = x.shape
    cols = np.arange(k)
    order = x.argsort(axis=0)
    xs = x[order, cols]
    ys = y[order]
    # Rank of each sample among the samples of its class, in sorted order:
    # a stable sort by class lists each class's positions in ascending order.
    within = np.arange(n) - np.repeat(np.cumsum(hist) - hist, hist)
    rank = np.empty_like(ys)
    rank[ys.argsort(axis=0, kind="stable"), cols] = within[:, None]
    step = 2 * rank[:-1] + 1
    sq_sum = int(hist @ hist)
    sq_left = step.cumsum(axis=0)
    sq_right = sq_sum + (step - 2 * hist[ys[:-1]]).cumsum(axis=0)
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    gini_parent = 1.0 - float(sq_sum) / (n * n)
    gini_left = 1.0 - sq_left / (n_left * n_left)
    gini_right = 1.0 - sq_right / (n_right * n_right)
    decrease = gini_parent - (n_left / n) * gini_left - (n_right / n) * gini_right
    # Only a position between two distinct sorted values is a cut.
    decrease[xs[:-1] == xs[1:]] = -np.inf
    # Feature-major argmax: the first candidate holding the maximum, at its
    # lowest threshold.
    j, i = divmod(int(decrease.T.argmax()), n - 1)
    if decrease[i, j] == -np.inf:
        return None
    threshold = (xs[i, j] + xs[i + 1, j]) / 2.0
    return int(candidates[j]), float(threshold), float(decrease[i, j])


def _grow_tree(x: np.ndarray, y: np.ndarray, n_classes: int, config: ForestConfig,
               rng: np.random.Generator) -> _Tree:
    n, d = x.shape
    if config.bootstrap:
        sample = rng.integers(0, n, size=n)
    else:
        sample = np.arange(n)
    k = _subset_size(config.max_features, d)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    # Stack entries: (sample indices, depth, parent node id, is_right_child).
    # Right child is pushed first so creation order is pre-order DFS, which
    # pins the per-node random draws regardless of everything else.
    stack: list[tuple[np.ndarray, int, int, bool]] = [(sample, 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id

        yn = y[idx]
        hist = np.bincount(yn, minlength=n_classes)
        split = None
        pure = hist.max() == idx.size
        if idx.size >= 2 and depth < config.max_depth and not pure:
            if k == d:
                cand = np.arange(d)
            else:
                cand = np.sort(rng.choice(d, size=k, replace=False))
            split = _best_split(x[idx[:, None], cand], yn, hist, cand)
            if split is not None and split[2] < config.min_impurity_decrease:
                split = None

        if split is None:
            feature.append(-1)
            threshold.append(math.nan)
            left.append(-1)
            right.append(-1)
            counts.append(hist)
        else:
            f, thr, _ = split
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            counts.append(np.zeros(n_classes))
            go_left = x[idx, f] <= thr
            stack.append((idx[~go_left], depth + 1, node_id, True))
            stack.append((idx[go_left], depth + 1, node_id, False))

    return _Tree(feature, threshold, left, right, np.asarray(counts))


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
    trees = tuple(_grow_tree(x, y, n_classes, config, np.random.default_rng(s))
                  for s in streams)
    return ForestModel(trees=trees, class_names=train.class_names,
                       n_features=x.shape[1], config=config)


def predict_many(model: ForestModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized prediction: (class codes, probability matrix) for rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension {x.shape[1]} != model dimension {model.n_features}"
        )
    n = x.shape[0]
    probs = np.zeros((n, len(model.class_names)))
    row_ids = np.arange(n)
    for tree in model.trees:
        node = np.zeros(n, dtype=np.intp)
        while True:
            feat = tree.feature[node]
            active = feat >= 0
            if not active.any():
                break
            rows = row_ids[active]
            cur = node[active]
            go_left = x[rows, feat[active]] <= tree.threshold[cur]
            node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        probs += tree.leaf_probs[node]
    probs /= len(model.trees)
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


def _predict_labels(model: ForestModel, traces,
                    bins: int) -> tuple[list[str], list[float]]:
    """Featurize traces into one matrix and classify it in one ``predict_many`` call.

    Returns each trace's predicted label and that label's probability, the
    same values :func:`predict` gives trace by trace.
    """
    codes, probs = predict_many(model, _featurize(traces, bins))
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
        leaf = tree.feature < 0
        trees.append({
            "feature": tree.feature.tolist(),
            "threshold": [None if leaf[i] else float(tree.threshold[i])
                          for i in range(tree.n_nodes)],
            "left": tree.left.tolist(),
            "right": tree.right.tolist(),
            "counts": [[int(c) for c in tree.counts[i]] if leaf[i] else None
                       for i in range(tree.n_nodes)],
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
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if obj.get("format") != _MODEL_FORMAT:
        raise ValueError(f"not a {_MODEL_FORMAT} document")
    config = ForestConfig.from_dict(obj["config"])
    class_names = tuple(obj["class_names"])
    n_classes = len(class_names)
    trees = []
    for t in obj["trees"]:
        counts = [row if row is not None else [0.0] * n_classes for row in t["counts"]]
        threshold = [math.nan if v is None else v for v in t["threshold"]]
        trees.append(_Tree(t["feature"], threshold, t["left"], t["right"], counts))
    _check_count("n_features", obj["n_features"], 1)
    return ForestModel(trees=tuple(trees), class_names=class_names,
                       n_features=obj["n_features"], config=config)
