"""Run-time accounting.

The paper reports run-time (RT) as the sum of feature generation, model
training and model application (plus pruning for the generalized task).
:class:`StageTimer` accumulates named stages so experiment code can report
both the total and the per-stage breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class StageTimer:
    """Accumulate wall-clock time per named stage."""

    stages: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one execution of stage ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        """Total accumulated seconds across all stages."""
        return sum(self.stages.values())

    def get(self, name: str) -> float:
        """Seconds accumulated for ``name`` (0.0 when never timed)."""
        return self.stages.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the per-stage accumulation."""
        return dict(self.stages)


def speedup(
    small_comparisons: int,
    large_comparisons: int,
    small_runtime: float,
    large_runtime: float,
) -> float:
    """Paper's scalability measure (Section 5.5).

    ``speedup = |C2|/|C1| * RT1/RT2`` for ``|C1| < |C2|``; values close to 1
    indicate linear scalability.
    """
    if min(small_comparisons, large_comparisons) <= 0:
        raise ValueError("comparison counts must be positive")
    if min(small_runtime, large_runtime) <= 0:
        raise ValueError("run-times must be positive")
    return (large_comparisons / small_comparisons) * (small_runtime / large_runtime)
