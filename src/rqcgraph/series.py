"""Step-indexed purity series."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PuritySeries:
    """Ensemble-averaged purity after 0..k steps (or cycles)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("purity series must contain at least the k=0 entry")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    @property
    def final(self) -> float:
        return self.values[-1]
