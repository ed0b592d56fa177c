"""Clustering and detection metrics: ARI and precision/recall/F1."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _same_partition(table: np.ndarray) -> bool:
    """True if the contingency table is a (partial) permutation matrix."""
    return ((table > 0).sum(axis=0) <= 1).all() and ((table > 0).sum(axis=1) <= 1).all()


def adjusted_rand_index(a: Sequence[int], b: Sequence[int]) -> float:
    """Hubert-Arabie ARI; 1 for identical partitions, ~0 at chance level.

    When the permutation-model denominator vanishes (both partitions all
    singletons or both a single cluster), returns 1 if the partitions are
    identical up to relabeling, else 0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    if a.size < 2:
        raise ValueError("need at least 2 items")
    table = _contingency(a, b)

    def c2(x):
        return x * (x - 1) / 2.0

    sum_ij = c2(table).sum()
    sum_a = c2(table.sum(axis=1)).sum()
    sum_b = c2(table.sum(axis=0)).sum()
    total = c2(a.size)
    expected = sum_a * sum_b / total
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0.0:
        return 1.0 if _same_partition(table) else 0.0
    return float((sum_ij - expected) / denom)


def precision_recall_f1(predicted: Iterable[int], truth: Iterable[int]
                        ) -> tuple[float, float, float]:
    """Set-based detection scores; empty sets follow the zero convention."""
    predicted = set(predicted)
    truth = set(truth)
    overlap = len(predicted & truth)
    precision = overlap / len(predicted) if predicted else 0.0
    recall = overlap / len(truth) if truth else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return precision, recall, f1

