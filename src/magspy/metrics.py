"""Confusion accounting and evaluation measures (accuracy, precision, recall, F1).

Undefined ratios (0/0) are reported as None and excluded from macro
averages rather than silently mapped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class true positive / false positive / false negative counts."""

    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")


def confusion(pairs, class_names) -> tuple[np.ndarray, dict[str, ConfusionCounts]]:
    """Confusion matrix (rows = true, columns = predicted) plus per-class counts."""
    names = tuple(class_names)
    index = {name: i for i, name in enumerate(names)}
    matrix = np.zeros((len(names), len(names)), dtype=np.int64)
    for true, predicted in pairs:
        if true not in index:
            raise ValueError(f"unknown true label {true!r}")
        if predicted not in index:
            raise ValueError(f"unknown predicted label {predicted!r}")
        matrix[index[true], index[predicted]] += 1
    per_class = {}
    for name, i in index.items():
        tp = int(matrix[i, i])
        fp = int(matrix[:, i].sum()) - tp
        fn = int(matrix[i, :].sum()) - tp
        per_class[name] = ConfusionCounts(tp=tp, fp=fp, fn=fn)
    return matrix, per_class


def precision_recall_f1(counts: ConfusionCounts):
    """(precision, recall, f1); any 0/0 is None."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else None
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def _macro(values):
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


@dataclass(eq=False)
class EvalReport:
    """Classification summary: accuracy, per-class P/R/F1, macro averages, matrix."""

    accuracy: float
    class_names: tuple[str, ...]
    matrix: np.ndarray
    per_class: dict[str, tuple[float | None, float | None, float | None]]
    macro_precision: float | None
    macro_recall: float | None
    macro_f1: float | None
    n_items: int
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_items": self.n_items,
            "class_names": list(self.class_names),
            "confusion_matrix": self.matrix.tolist(),
            "per_class": {
                name: {"precision": p, "recall": r, "f1": f}
                for name, (p, r, f) in self.per_class.items()
            },
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "extras": self.extras,
        }


def evaluate(pairs, class_names) -> EvalReport:
    """Build an EvalReport from (true label, predicted label) pairs."""
    pairs = tuple(pairs)
    matrix, per_counts = confusion(pairs, class_names)
    total = int(matrix.sum())
    correct = int(np.trace(matrix))
    per_class = {name: precision_recall_f1(c) for name, c in per_counts.items()}
    return EvalReport(
        accuracy=correct / total if total else 0.0,
        class_names=tuple(class_names),
        matrix=matrix,
        per_class=per_class,
        macro_precision=_macro([v[0] for v in per_class.values()]),
        macro_recall=_macro([v[1] for v in per_class.values()]),
        macro_f1=_macro([v[2] for v in per_class.values()]),
        n_items=total,
    )


def _pct(value: float | None) -> str:
    return "---" if value is None else f"{100.0 * value:.1f}"


def format_report_text(report: EvalReport) -> str:
    """Aligned-column rendering: class, precision %, recall %, F1 %."""
    width = max([len("class")] + [len(n) for n in report.class_names])
    lines = [
        f"accuracy: {report.accuracy:.4f}  ({report.n_items} items)",
        "",
        f"{'class':<{width}}  {'precision,%':>11}  {'recall,%':>9}  {'f1,%':>7}",
    ]
    for name in report.class_names:
        p, r, f = report.per_class[name]
        lines.append(f"{name:<{width}}  {_pct(p):>11}  {_pct(r):>9}  {_pct(f):>7}")
    lines.append(
        f"{'macro':<{width}}  {_pct(report.macro_precision):>11}  "
        f"{_pct(report.macro_recall):>9}  {_pct(report.macro_f1):>7}"
    )
    return "\n".join(lines) + "\n"
