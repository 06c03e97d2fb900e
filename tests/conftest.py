import json

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

