"""Small synthetic programs from the paper's running examples.

Used by tests, the quickstart example, and the ablation benchmarks.  Each
builder returns a finalized program whose taint behaviour is known in
closed form.  A builder builds its program once per process, on its
first call, and every later call returns that same program: it is
shared, so treat it as read-only (``builder.__wrapped__()`` builds a
private copy).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from ..interp.config import DEFAULT_CONFIG, ExecConfig
from ..ir.builder import (
    ProgramBuilder,
    add,
    call,
    load,
    lt,
    mod,
    mul,
    var,
)
from ..ir.program import Program
from ..measure.experiment import RunSetup
from ..measure.parallel import WorkloadSpec
from ..mpisim.network import DEFAULT_NETWORK, NetworkModel
from ..mpisim.runtime import MPIConfig, MPIRuntime
from ..registry import register_workload


@functools.cache
def build_foo_example() -> Program:
    """The section A1 example::

        int foo(int a, int b, int &result) {
            for (int i = 0; i < a; ++i) result += b * i;
        }

    Parameter ``a`` bounds the loop; ``b`` only scales the arithmetic, so
    taint prunes ``b``.
    """
    pb = ProgramBuilder()
    with pb.function("foo", ["a", "b"]) as f:
        f.assign("result", 0)
        with f.for_("i", 0, f.var("a")):
            f.assign("result", add(var("result"), mul(var("b"), var("i"))))
            # Per-iteration work large enough that even the smallest sweep
            # configuration clears the measurement-noise floor (CoV screen).
            f.work(2000.0)
        f.ret(f.var("result"))
    with pb.function("main", ["a", "b"]) as f:
        f.assign("out", call("foo", var("a"), var("b")))
        f.ret(f.var("out"))
    return pb.build(entry="main")


@functools.cache
def build_additive_example() -> Program:
    """The section A2 example: two sequenced loops, one per parameter —
    a purely additive dependency (p + s, not p * s)."""
    pb = ProgramBuilder()
    with pb.function("bar1", ["i"]) as f:
        f.work(7.0)
    with pb.function("bar2", ["i"]) as f:
        f.work(11.0)
    with pb.function("foo", ["p", "s"]) as f:
        with f.for_("i", 0, f.var("p")):
            f.call("bar1", f.var("i"))
        with f.for_("i", 0, f.var("s")):
            f.call("bar2", f.var("i"))
    with pb.function("main", ["p", "s"]) as f:
        f.call("foo", f.var("p"), f.var("s"))
    return pb.build(entry="main")


@functools.cache
def build_multiplicative_example() -> Program:
    """Nested loops: a multiplicative p x s dependency."""
    pb = ProgramBuilder()
    with pb.function("kernel", ["p", "s"]) as f:
        with f.for_("i", 0, f.var("p")):
            with f.for_("j", 0, f.var("s")):
                f.work(3.0)
    with pb.function("main", ["p", "s"]) as f:
        f.call("kernel", f.var("p"), f.var("s"))
    return pb.build(entry="main")


@functools.cache
def build_control_flow_example() -> Program:
    """The section 5.2 LULESH excerpt: ``regElemSize`` gains its ``size``
    dependence only through control flow::

        for (Index_t i = 0; i < numElem(); ++i) {
            int r = regNumList(i) - 1;
            regElemSize(r)++;
        }

    A later loop bounded by ``regElemSize[r]`` therefore depends on
    ``size`` — but only when control-flow propagation is enabled.
    """
    pb = ProgramBuilder()
    with pb.function("main", ["size", "regions"]) as f:
        f.assign("numElem", mul(var("size"), var("size")))
        f.alloc("regElemSize", f.var("regions"))
        with f.for_("i", 0, f.var("numElem")):
            f.assign("r", mod(var("i"), var("regions")))
            f.store(
                "regElemSize",
                f.var("r"),
                add(load("regElemSize", var("r")), 1),
            )
        with f.for_("r", 0, f.var("regions")):
            f.assign("n", load("regElemSize", var("r")))
            with f.for_("e", 0, f.var("n")):
                f.work(4.0)
    return pb.build(entry="main")


@functools.cache
def build_algorithm_selection_example() -> Program:
    """The section C2 example: a parameter selects between a linear and a
    logarithmic kernel::

        if (a < 4) kernel_linear(a); else kernel_log(a);
    """
    pb = ProgramBuilder()
    with pb.function("kernel_linear", ["a"]) as f:
        with f.for_("i", 0, f.var("a")):
            f.work(10.0)
    with pb.function("kernel_log", ["a"]) as f:
        from ..ir.builder import log2

        with f.for_("i", 0, log2(var("a"))):
            f.work(10.0)
    with pb.function("main", ["a"]) as f:
        with f.if_(lt(var("a"), 4)):
            f.call("kernel_linear", f.var("a"))
        with f.else_():
            f.call("kernel_log", f.var("a"))
    return pb.build(entry="main")


@functools.cache
def build_contention_example() -> Program:
    """The section C1 example: a memory-bound kernel with no dependence on
    anything but its own size — co-location effects must come from the
    machine, not the code."""
    pb = ProgramBuilder()
    with pb.function("memory_bound", ["n"], kind="kernel") as f:
        with f.for_("i", 0, f.var("n")):
            f.mem_work(20.0)
    with pb.function("compute_bound", ["n"], kind="kernel") as f:
        with f.for_("i", 0, f.var("n")):
            f.work(20.0)
    with pb.function("main", ["n"]) as f:
        f.call("memory_bound", f.var("n"))
        f.call("compute_bound", f.var("n"))
    return pb.build(entry="main")


@dataclass
class SyntheticWorkload:
    """Wrap any synthetic program as a measurable workload.

    ``arg_map`` maps config parameters to entry arguments (identity by
    default); ``p`` and ``r`` configure the MPI runtime when present.
    """

    builder: object
    parameters: tuple[str, ...]
    defaults: Mapping[str, float] = field(default_factory=dict)
    name: str = "synthetic"
    network: NetworkModel = DEFAULT_NETWORK
    exec_config: ExecConfig = DEFAULT_CONFIG

    def __post_init__(self) -> None:
        self._program: Program | None = None

    def program(self) -> Program:  # noqa: D102
        if self._program is None:
            self._program = self.builder()
        return self._program

    def setup(self, config: Mapping[str, float]) -> RunSetup:  # noqa: D102
        merged = dict(self.defaults)
        merged.update(config)
        entry = self.program().function(self.program().entry)
        runtime = MPIRuntime(
            MPIConfig(
                ranks=int(merged.get("p", 1)),
                ranks_per_node=int(merged.get("r", 1)),
                network=self.network,
            )
        )
        args = {name: merged[name] for name in entry.params}
        return RunSetup(
            args=args,
            runtime=runtime,
            ranks_per_node=int(merged.get("r", 1)),
            exec_config=self.exec_config,
        )

    def taint_config(self) -> dict[str, float]:  # noqa: D102
        entry = self.program().function(self.program().entry)
        cfg = {name: 4.0 for name in entry.params}
        cfg.update({k: float(v) for k, v in self.defaults.items()})
        return cfg

    def sources(self) -> dict[str, str]:  # noqa: D102
        entry = self.program().function(self.program().entry)
        return {name: name for name in entry.params}

    def spec(self) -> WorkloadSpec:
        """Picklable recipe for rebuilding this workload in a worker.

        Valid whenever ``builder`` is a module-level callable (all the
        builders in this module are); the cached program is deliberately
        left out so workers rebuild it locally.
        """
        return WorkloadSpec(
            factory=SyntheticWorkload,
            kwargs={
                "builder": self.builder,
                "parameters": self.parameters,
                "defaults": dict(self.defaults),
                "name": self.name,
                "network": self.network,
                "exec_config": self.exec_config,
            },
        )


@register_workload("synthetic", params=("p", "s"))
def make_scaling_workload(
    parameters: tuple[str, ...] | None = None,
) -> SyntheticWorkload:
    """The synthetic app used by the parallel-scaling benchmark and the
    CLI ``sweep`` smoke test: a multiplicative ``p x s`` kernel.

    Module-level so the resulting workload's spec pickles by reference
    into pool workers.
    """
    return SyntheticWorkload(
        builder=build_multiplicative_example,
        parameters=tuple(parameters) if parameters else ("p", "s"),
        name="synthetic",
    )
