"""Output checks for the benchmark workloads.

Every check takes plain data (parsed JSON, lists, arrays) and returns a list
of human-readable problems; an empty list means the check passed. None of
them compares against a stored copy of earlier output: each one either
recomputes the answer independently of magspy or tests a property the
method must have.
"""

from __future__ import annotations

import json
import math


def held_out_per_class(traces_per_class: int, train_fraction: float) -> int:
    """Test items per class under the stratified split rule.

    The split sends round-half-up(fraction * count) items of each class to
    training and the rest to the test set.
    """
    return traces_per_class - math.floor(train_fraction * traces_per_class + 0.5)


def check_confusion_rows(report: dict, class_names, per_class: int) -> list[str]:
    """Each row of the confusion matrix sums to the held-out count of its class."""
    problems = []
    if list(report["class_names"]) != list(class_names):
        problems.append(f"class names {report['class_names']} != {list(class_names)}")
    matrix = report["confusion_matrix"]
    for name, row in zip(report["class_names"], matrix):
        if sum(row) != per_class:
            problems.append(f"confusion row {name} sums to {sum(row)}, "
                            f"expected {per_class}")
    total = per_class * len(class_names)
    if report["n_items"] != total:
        problems.append(f"n_items {report['n_items']} != {total}")
    diagonal = sum(matrix[i][i] for i in range(len(matrix)))
    if report["n_items"] and report["accuracy"] != diagonal / report["n_items"]:
        problems.append(f"accuracy {report['accuracy']} != trace/total "
                        f"{diagonal}/{report['n_items']}")
    return problems


def check_at_least(name: str, value, floor: float) -> list[str]:
    if value is None or not value >= floor:
        return [f"{name} {value} is below the floor {floor}"]
    return []


def check_continuous(result: dict, stream_count: int, recall_floor: float,
                     max_gap: float) -> list[str]:
    """Recall floor, peak-vs-closed-world accuracy gap, one truth event per stream."""
    problems = check_at_least("detection recall", result["detection_recall"],
                              recall_floor)
    peaks_acc = result["classify_accuracy"]
    gap = (abs(peaks_acc - result["closed_world_accuracy"])
           if peaks_acc is not None else math.inf)
    if not gap <= max_gap:
        problems.append(f"classify-at-peaks accuracy {peaks_acc} is "
                        f"{gap:.4f} from closed-world "
                        f"{result['closed_world_accuracy']} (max {max_gap})")
    if result["tp"] + result["fn"] != stream_count:
        problems.append(f"tp + fn = {result['tp'] + result['fn']}, expected one "
                        f"truth event per stream ({stream_count})")
    return problems


# ---------------------------------------------------------------------------
# Forests as plain lists: the layout of model.json, independent of magspy.
# ---------------------------------------------------------------------------

def walk_tree(tree: dict, row) -> int:
    """Leaf index reached by one feature row; raises on a cycle or bad child."""
    feature, threshold = tree["feature"], tree["threshold"]
    left, right = tree["left"], tree["right"]
    node = 0
    for _ in range(len(feature)):
        f = feature[node]
        if f < 0:
            return node
        node = left[node] if row[f] <= threshold[node] else right[node]
        if not 0 <= node < len(feature):
            raise ValueError(f"child index {node} out of range")
    raise ValueError("tree walk did not reach a leaf")


def walk_forest(trees, row) -> list[float]:
    """Mean of normalized leaf class counts over the trees, in tree order."""
    probs = None
    for tree in trees:
        counts = tree["counts"][walk_tree(tree, row)]
        total = sum(counts)
        leaf = [c / total for c in counts]
        probs = leaf if probs is None else [p + q for p, q in zip(probs, leaf)]
    return [p / len(trees) for p in probs]


def argmax(values) -> int:
    """Index of the first maximum."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def tree_depth(tree: dict) -> int:
    """Depth of the deepest leaf (the root alone has depth 0)."""
    deepest = 0
    stack = [(0, 0)]
    seen = 0
    while stack:
        node, depth = stack.pop()
        seen += 1
        if seen > len(tree["feature"]):
            raise ValueError("tree has a cycle")
        deepest = max(deepest, depth)
        if tree["feature"][node] >= 0:
            stack.append((tree["left"][node], depth + 1))
            stack.append((tree["right"][node], depth + 1))
    return deepest


def check_leaf_counts(trees, n_rows: int) -> list[str]:
    """Bootstrap draws as many rows as it is given, so each tree's leaves hold all of them."""
    problems = []
    for t, tree in enumerate(trees):
        total = sum(sum(tree["counts"][i]) for i, f in enumerate(tree["feature"])
                    if f < 0)
        if total != n_rows:
            problems.append(f"tree {t}: leaf counts sum to {total}, "
                            f"expected {n_rows} training rows")
    return problems


def check_walk_matches(trees, rows, codes) -> list[str]:
    """The class of every row by a pure-Python walk equals the program's class."""
    problems = []
    if len(rows) != len(codes):
        return [f"{len(codes)} predicted classes for {len(rows)} rows"]
    for i, (row, code) in enumerate(zip(rows, codes)):
        expected = argmax(walk_forest(trees, row))
        if expected != code:
            problems.append(f"row {i}: program class {code}, walk gives {expected}")
    return problems


# ---------------------------------------------------------------------------
# Peaks
# ---------------------------------------------------------------------------

def check_peak_heights(values, accepted, min_height: float) -> list[str]:
    """Every accepted peak clears the height threshold."""
    return [f"accepted peak {p} has height {values[p]} < {min_height}"
            for p in accepted if not values[p] >= min_height]


def tie_free(values) -> bool:
    return len(set(values.tolist())) == len(values)


def check_prominences(values, accepted, prominences: dict, min_prominence: float,
                      scipy_prominences) -> list[str]:
    """Program prominences of accepted peaks equal SciPy's and clear the threshold.

    ``scipy_prominences`` is ``scipy.signal.peak_prominences``; the two
    definitions agree only on series without repeated values, so callers
    pass tie-free series.
    """
    problems = []
    if not accepted:
        return problems
    reference = scipy_prominences(values, accepted)[0]
    for p, ref in zip(accepted, reference):
        got = prominences.get(p)
        if got is None or not math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"peak {p}: prominence {got}, SciPy gives {ref}")
        if not ref >= min_prominence:
            problems.append(f"accepted peak {p} has prominence {ref} "
                            f"< {min_prominence}")
    return problems


# ---------------------------------------------------------------------------
# magspy classify output
# ---------------------------------------------------------------------------

def check_predictions(lines, truth_labels, device_ids, class_names,
                      walk_probs) -> list[str]:
    """One prediction line per input recording, in input order, matching a walk.

    ``walk_probs[i]`` is the class-probability list of an independent walk
    of model.json for recording i.
    """
    if len(lines) != len(truth_labels):
        return [f"{len(lines)} prediction lines for {len(truth_labels)} recordings"]
    problems = []
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if obj["label"] != truth_labels[i] or obj["device_id"] != device_ids[i]:
            problems.append(f"line {i}: ({obj['device_id']}, {obj['label']}) is not "
                            f"recording {i} ({device_ids[i]}, {truth_labels[i]})")
            continue
        probs = walk_probs[i]
        code = argmax(probs)
        if obj["predicted"] != class_names[code]:
            problems.append(f"line {i}: predicted {obj['predicted']}, walk of "
                            f"model.json gives {class_names[code]}")
        elif not math.isclose(obj["probability"], probs[code], rel_tol=1e-9):
            problems.append(f"line {i}: probability {obj['probability']}, walk "
                            f"gives {probs[code]}")
    return problems


def accuracy(lines, truth_labels) -> float:
    hits = sum(json.loads(line)["predicted"] == label
               for line, label in zip(lines, truth_labels))
    return hits / len(truth_labels)


def check_same_bytes(name: str, reference: bytes, other: bytes) -> list[str]:
    if reference != other:
        return [f"{name} differs between runs of the same seed"]
    return []
