"""Per-rank SPMD simulation.

The analytic runtime (:mod:`repro.mpisim.runtime`) models one symmetric
rank — sufficient for every experiment in the paper, whose benchmarks are
rank-symmetric.  This module completes the substrate for programs whose
control flow *does* depend on the rank (boundary ranks, master/worker
skews): it executes the program once per simulated rank, each with its own
``MPI_Comm_rank`` value, and aggregates:

* the **critical path** (max over ranks — what a wall clock would show);
* per-rank times and the **load imbalance** ratio max/mean, a standard
  SPMD diagnostic;
* per-rank taint reports on demand (the paper's section 5.3 notes that
  cross-rank label exchange was unnecessary for its applications because
  ranks are symmetric; running the taint engine on several ranks and
  merging reports is the simulator's equivalent safeguard).

Ranks execute sequentially and independently: collective/p2p costs remain
analytic per call, so no message matching is required (the LogGP-style
model already charges the critical-path cost of each operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..interp import ENGINE_TREE, make_engine
from ..interp.config import DEFAULT_CONFIG, ExecConfig
from ..interp.values import Value
from ..ir.program import Program
from ..taint.engine import TaintEngine
from ..taint.report import TaintReport
from ..taint.sources import LibraryTaintModel
from .network import DEFAULT_NETWORK, NetworkModel
from .runtime import MPIConfig, MPIRuntime


@dataclass
class SPMDResult:
    """Aggregated outcome of an SPMD execution."""

    per_rank_time: dict[int, float] = field(default_factory=dict)
    per_rank_value: dict[int, Value] = field(default_factory=dict)

    @property
    def ranks(self) -> int:
        return len(self.per_rank_time)

    @property
    def critical_path(self) -> float:
        """Simulated wall-clock: the slowest rank."""
        return max(self.per_rank_time.values(), default=0.0)

    @property
    def mean_time(self) -> float:
        if not self.per_rank_time:
            return 0.0
        return float(np.mean(list(self.per_rank_time.values())))

    @property
    def imbalance(self) -> float:
        """max/mean load-imbalance ratio (1.0 = perfectly balanced)."""
        mean = self.mean_time
        return self.critical_path / mean if mean > 0 else 1.0

    def slowest_rank(self) -> int:
        """Rank id on the critical path."""
        return max(self.per_rank_time, key=self.per_rank_time.get)


@dataclass
class SPMDSimulator:
    """Executes a program once per rank of a simulated communicator."""

    program: Program
    ranks: int
    ranks_per_node: int = 1
    network: NetworkModel = DEFAULT_NETWORK
    exec_config: ExecConfig = DEFAULT_CONFIG
    #: Execution engine for the per-rank runs (default: the tree-walker).
    engine: str = ENGINE_TREE

    def _runtime_for(self, rank: int) -> MPIRuntime:
        return MPIRuntime(
            MPIConfig(
                ranks=self.ranks,
                ranks_per_node=self.ranks_per_node,
                network=self.network,
                rank=rank,
            )
        )

    def run(
        self,
        args: Mapping[str, Value],
        rank_subset: Sequence[int] | None = None,
        entry: str | None = None,
    ) -> SPMDResult:
        """Execute on every rank (or *rank_subset*) and aggregate.

        For symmetric programs, passing ``rank_subset=[0]`` recovers the
        single-rank analytic model at 1/p the cost.
        """
        result = SPMDResult()
        ranks = rank_subset if rank_subset is not None else range(self.ranks)
        for rank in ranks:
            if not 0 <= rank < self.ranks:
                raise ValueError(f"rank {rank} outside communicator")
            interp = make_engine(
                self.program,
                self.engine,
                runtime=self._runtime_for(rank),
                config=self.exec_config,
            )
            run = interp.run(args, entry=entry)
            result.per_rank_time[rank] = run.time
            result.per_rank_value[rank] = run.value
        return result

    def taint_merged(
        self,
        args: Mapping[str, Value],
        sources: Mapping[str, str],
        library_taint: LibraryTaintModel | None = None,
        rank_subset: Sequence[int] | None = None,
        entry: str | None = None,
    ) -> TaintReport:
        """Taint analysis across ranks, reports merged by set union.

        Substitutes for the cross-process label exchange the paper leaves
        to future work (section 5.3): where rank-dependent branches select
        different code paths, merging per-rank reports recovers every
        parameter dependence any rank exhibits.
        """
        merged: TaintReport | None = None
        ranks = rank_subset if rank_subset is not None else range(self.ranks)
        for rank in ranks:
            engine = TaintEngine(
                self.program,
                runtime=self._runtime_for(rank),
                config=self.exec_config,
                library_taint=library_taint,
            )
            report = engine.analyze(args, dict(sources), entry=entry).report
            merged = report if merged is None else merged.merge(report)
        return merged if merged is not None else TaintReport()
