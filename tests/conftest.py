import bisect
import json
import math

import numpy as np

from magspy.forest import ForestConfig, ForestModel, _subset_size


def brute_force_best_split(x, y, n_classes):
    """Exhaustive best Gini split over every feature and midpoint.

    Independent oracle for the tree growers: plain loops, first feature in
    ascending order wins ties, lowest threshold wins within a feature,
    strictly better decrease required to replace the incumbent.
    """
    n, d = x.shape
    parent_counts = np.bincount(y, minlength=n_classes)
    gini_parent = 1.0 - float((parent_counts * parent_counts).sum()) / (n * n)
    best = None
    for f in range(d):
        values = sorted(set(x[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = y[x[:, f] <= thr]
            right = y[x[:, f] > thr]
            lc = np.bincount(left, minlength=n_classes)
            rc = np.bincount(right, minlength=n_classes)
            nl, nr = float(len(left)), float(len(right))
            gini_left = 1.0 - (lc * lc).sum() / (nl * nl)
            gini_right = 1.0 - (rc * rc).sum() / (nr * nr)
            decrease = gini_parent - (nl / n) * gini_left - (nr / n) * gini_right
            if best is None or decrease > best[2]:
                best = (f, thr, decrease)
    return best


def reference_best_split(x, y, hist, candidates):
    """The per-feature CART scan, with the signature of ``_best_split`` below.

    Test oracle for the vectorized split search: one argsort, one one-hot
    class-count prefix and one float Gini sum per candidate feature, under
    the same tie rules. Trained models must match it byte for byte.
    """
    n = y.size
    hist = hist.astype(np.float64)
    gini_parent = 1.0 - float((hist * hist).sum()) / (n * n)
    best = None
    for column, f in zip(x.T, candidates):
        order = np.argsort(column, kind="stable")
        xs = column[order]
        ys = y[order]
        cuts = np.flatnonzero(xs[:-1] < xs[1:])
        if cuts.size == 0:
            continue
        onehot = np.zeros((n, hist.size))
        onehot[np.arange(n), ys] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        n_left = (cuts + 1).astype(np.float64)
        n_right = n - n_left
        left_counts = prefix[cuts]
        right_counts = hist - left_counts
        gini_left = 1.0 - (left_counts * left_counts).sum(axis=1) / (n_left * n_left)
        gini_right = 1.0 - (right_counts * right_counts).sum(axis=1) / (n_right * n_right)
        decrease = gini_parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        i = int(np.argmax(decrease))
        if best is None or decrease[i] > best[2]:
            threshold = (xs[cuts[i]] + xs[cuts[i] + 1]) / 2.0
            best = (int(f), float(threshold), float(decrease[i]))
    return best


class _Tree:
    """Flat array representation of one decision tree, as models once held it.

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
        totals = self.counts.sum(axis=-1, keepdims=True)  # 0 nodes too
        safe = np.where(totals > 0, totals, 1.0)
        self.leaf_probs = self.counts / safe


def join_trees(trees, class_names, n_features, config):
    """A ``ForestModel`` of per-tree tables: links shifted to table indices,
    counts kept at leaves only."""
    sizes = np.array([tree.feature.size for tree in trees])
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature, threshold, left, right, counts = (
        np.concatenate([getattr(tree, key) for tree in trees])
        for key in ("feature", "threshold", "left", "right", "counts"))
    return ForestModel(sizes, feature, threshold, np.where(left >= 0, left + shift, left),
                       np.where(right >= 0, right + shift, right),
                       counts[feature < 0].astype(np.int64), class_names=class_names,
                       n_features=n_features, config=config)


# Reference grower: one tree at a time, one node at a time, each node's
# split from its own search. ``forest.train_forest`` must give the same
# model bytes.

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


def reference_choice_sets(words, d, k, calls):
    """``Generator.choice(d, k, replace=False)``, call after call, from a list
    of 32-bit words, one word at a time.

    Test oracle for ``forest._choice_sets``, written after numpy's C code:
    Floyd's algorithm for j = d - k ... d - 1 with a Python set, then the
    k - 1 draws of the shuffle, each a Lemire draw below ``bound`` that
    draws again while the low word of ``u * bound`` is under
    ``(2^32 - bound) % bound``. Returns the sorted sets of the calls the
    words complete (at most ``calls``) and how many words those calls use.
    """
    at = 0

    def below(bound):
        nonlocal at
        m = words[at] * bound
        at += 1
        if m & 0xFFFFFFFF < bound:
            threshold = (0xFFFFFFFF - (bound - 1)) % bound
            while m & 0xFFFFFFFF < threshold:
                m = words[at] * bound
                at += 1
        return m >> 32

    sets, used = [], 0
    try:
        while len(sets) < calls:
            chosen = set()
            for j in range(d - k, d):
                value = below(j + 1)
                chosen.add(j if value in chosen else value)
            for i in range(k - 1, 0, -1):
                below(i + 1)
            sets.append(sorted(chosen))
            used = at
    except IndexError:  # the words ran out inside a call
        pass
    return sets, used


def reference_train_forest(train, config):
    """``forest.train_forest`` as it was: each tree grown alone, one after another.

    The rows go in canonical order by Python's (label, feature values) key.
    """
    order = sorted(range(len(train)),
                   key=lambda i: (train.items[i][1], tuple(train.items[i][0].values)))
    x = np.stack([train.items[i][0].values for i in order])
    y = np.array([train.class_names.index(train.items[i][1]) for i in order])
    n_classes = len(train.class_names)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_estimators)
    trees = [_grow_tree(x, y, n_classes, config, np.random.default_rng(s))
             for s in streams]
    return join_trees(trees, train.class_names, x.shape[1], config)


def reference_predict_many(model, x):
    """``forest.predict_many`` as it was: one walk per tree, tree after tree.

    Test oracle for the forest-wide walk: each tree of ``model.trees`` steps
    all rows down a level at a time, and the leaf histograms, normalized per
    node as ``_Tree`` does, are summed in tree order.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    probs = np.zeros((n, len(model.class_names)))
    row_ids = np.arange(n)
    for tree in (_Tree(*view) for view in model.trees):
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


def reference_features(values, bins):
    """The per-trace binned-mean loop that ``forest._featurize`` replaced.

    Test oracle for the matrix featurizer: window i of an n-sample trace is
    [round(i*s), round(i*s + 2*s)) with s = n / bins, rounded half-up and
    clipped to the trace, and each window's mean is taken on its own.
    """
    n = values.size
    stride = n / bins
    out = np.empty(bins)
    for i in range(bins):
        a = math.floor(i * stride + 0.5)
        b = min(n, math.floor(i * stride + 2.0 * stride + 0.5))
        out[i] = values[a:b].mean()
    return out


def reference_local_maxima(v):
    """The per-sample scan that ``detect._local_maxima`` replaced.

    Test oracle: strictly-above-both-neighbors maxima; a plateau reports its
    center.
    """
    peaks = []
    n = v.size
    i = 1
    while i < n - 1:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j + 1 < n and v[j + 1] < v[i]:
                peaks.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return peaks


def reference_prominences(v, peaks):
    """The sorted-insertion prominences that ``detect._prominences`` replaced.

    Test oracle: peaks are placed in descending height (ties by position); a
    peak's saddles are the lowest values separating it from the nearest
    already-placed peak on each side, or from the series end.
    """
    order = sorted(range(len(peaks)), key=lambda k: (-v[peaks[k]], peaks[k]))
    placed = []
    prom = {}
    n = v.size
    for k in order:
        p = peaks[k]
        pos = bisect.bisect_left(placed, p)
        lo = placed[pos - 1] + 1 if pos > 0 else 0
        hi = placed[pos] if pos < len(placed) else n
        left_saddle = float(v[lo:p].min()) if p > lo else float(v[p])
        right_saddle = float(v[p + 1:hi].min()) if hi > p + 1 else float(v[p])
        prom[p] = float(v[p]) - max(left_saddle, right_saddle)
        bisect.insort(placed, p)
    return prom


def tree_doc(feature, threshold, left, right, counts):
    """One tree of a ``magspy-forest`` model document."""
    return {"feature": feature, "threshold": threshold, "left": left,
            "right": right, "counts": counts}


# Model documents whose trees are not trees. Each must fail to load: a
# self-loop made ``predict_many`` walk forever.
MALFORMED_TREES = {
    "self-loop": tree_doc([0, -1], [0.5, None], [0, -1], [1, -1],
                          [None, [1, 0]]),
    "shared-child": tree_doc([0, -1], [0.5, None], [1, -1], [1, -1],
                             [None, [1, 0]]),
    "child-before-parent": tree_doc([-1, 0, -1], [None, 0.5, None],
                                    [-1, 0, -1], [-1, 2, -1],
                                    [[1, 0], None, [0, 1]]),
    "non-finite-threshold": tree_doc([0, -1, -1], [None, None, None],
                                     [1, -1, -1], [2, -1, -1],
                                     [None, [1, 0], [0, 1]]),
    "counts-width": tree_doc([-1], [None], [-1], [-1], [[1, 0, 0]]),
    "unknown-key": {**tree_doc([-1], [None], [-1], [-1], [[1, 0]]), "bogus": 1},
}


def write_model_doc(path, tree, class_names=("A", "B")):
    """Write a one-tree, one-feature model document to ``path``."""
    path.write_text(json.dumps({
        "format": "magspy-forest",
        "config": {"n_estimators": 1},
        "class_names": list(class_names),
        "n_features": 1,
        "trees": [tree],
    }))
    return path

