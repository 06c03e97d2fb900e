import bisect
import json
import math

import numpy as np


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
    """The per-feature CART scan, with ``forest._best_split``'s signature.

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

