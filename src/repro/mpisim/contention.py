"""Memory-contention models for co-located MPI ranks (paper section C1).

The paper's contention experiment holds ``p`` and ``size`` constant while
varying the number of MPI ranks per node ``r``; memory-bound kernels slow
down as ranks saturate the socket's memory bandwidth, and the measured
models are log-quadratic in ``r`` (e.g. whole-application model
``2.86 * log2(r)^2 + 127`` seconds; Figure 5's per-kernel models are
``a * log2(r) + c``-shaped relative increases).

Two models are provided:

* :class:`LogQuadraticContention` (default) — slowdown factor
  ``1 + beta * log2(r)^2``, the empirical law matching the paper's fitted
  models (queueing delay under shared-resource saturation grows
  super-logarithmically but sub-linearly in the occupancy);
* :class:`BandwidthSaturationContention` — a first-principles
  bandwidth-sharing model, ``max(1, r / r_sat)``: no penalty until the
  socket bandwidth is saturated, linear sharing beyond.  Used by the
  ablation benchmark to show how the contention *detection* (section C1)
  is agnostic to the exact law.

The factor multiplies :class:`~repro.interp.events.CostKind.MEMORY` costs
at measurement time; compute-bound and communication costs are unaffected
(matching the paper's observation that only memory-heavy kernels degrade).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Protocol

from ..errors import MeasurementError
from ..registry import check_nonnegative, register_contention


class ContentionModel(Protocol):
    """Memory-cost multiplier as a function of ranks per node."""

    def factor(self, ranks_per_node: int) -> float:
        """Slowdown multiplier for memory-bound cost (>= 1)."""


@register_contention("none")
@dataclass(frozen=True)
class NoContention:
    """Ideal memory system: no co-location penalty."""

    def factor(self, ranks_per_node: int) -> float:  # noqa: D102
        return 1.0


@register_contention("logquad")
@dataclass(frozen=True)
class LogQuadraticContention:
    """``1 + beta * log2(r)^2`` slowdown (default; matches paper's fits)."""

    beta: float = 0.06

    def __post_init__(self) -> None:
        check_nonnegative(self, "beta")

    def factor(self, ranks_per_node: int) -> float:  # noqa: D102
        r = max(1, int(ranks_per_node))
        return 1.0 + self.beta * math.log2(r) ** 2


@register_contention("bandwidth")
@dataclass(frozen=True)
class BandwidthSaturationContention:
    """Bandwidth sharing: free below ``saturation_ranks``, linear beyond."""

    saturation_ranks: int = 4

    def __post_init__(self) -> None:
        ranks = self.saturation_ranks
        if (
            isinstance(ranks, bool)
            or not isinstance(ranks, numbers.Integral)
            or ranks < 1
        ):
            raise MeasurementError(
                "BandwidthSaturationContention.saturation_ranks must be an "
                f"integer >= 1, got {ranks!r}"
            )

    def factor(self, ranks_per_node: int) -> float:  # noqa: D102
        r = max(1, int(ranks_per_node))
        return max(1.0, r / self.saturation_ranks)


#: Default model used by the measurement layer.
DEFAULT_CONTENTION = LogQuadraticContention()
