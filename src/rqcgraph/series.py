"""Step-indexed purity series, and lumped_purities: P_k = 1^T L^k e_start for a lumped operator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class PuritySeries:
    """Ensemble-averaged purity after 0..k steps (or cycles)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("purity series must contain at least the k=0 entry")

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    @property
    def final(self) -> float:
        return self.values[-1]


def lumped_purities(op: np.ndarray, start: int) -> Iterator[float]:
    """P_0 = 1, P_1, P_2, ...: the coefficient sum of op^k e_start, without end.

    Rounding, by evolve's argument: for a nonnegative op with column sums <= 1,
    entries within e roundings of exact and at most r nonzeros a row (summed
    in any order), P_k is within j u P_k / (1 - j u) + M 2^-1074 of exact,
    u = 2^-53, j = (e + r) k + len(op) - 1, M the products that P_k reads.
    """
    v = np.zeros(op.shape[0])
    v[start] = 1.0
    yield 1.0
    while True:
        v = op @ v
        yield float(v.sum())
