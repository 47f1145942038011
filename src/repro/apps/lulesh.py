"""A structurally faithful LULESH 2.0 mini-app (paper section 6).

LULESH is "a scientific application written in C++, implementing stencil
computations for a hydrodynamic shock problem on a three-dimensional mesh.
The code is structured around the main class Domain and contains multiple
simple methods" whose "expected constant computational effort is hard to
capture empirically".

This mini-app mirrors the structure that drives every LULESH result in the
paper:

* hundreds of tiny constant accessors on the Domain (generated, like the
  C++ class generates them) — the instrumentation-overhead story (Fig. 3);
* ~30 computational kernels looping over ``numElem = size^3`` per-rank
  elements (weak scaling, ``-s`` semantics), several memory-bound — the
  contention story (Fig. 5 / C1);
* six input parameters ``size, regions, balance, cost, iters`` plus the
  implicit ``p`` — the parameter-pruning story (Table 3, A1/A2);
* ``CalcQForElems`` with a compact body and a conservative multiplicative
  (p, size) pack loop — the intrusion story (B2) and the default-filter
  false negative;
* the ``regNumList``/``regElemSize`` control-flow dependence of section
  5.2 (``SetupRegionSizes``) — the control-flow-taint ablation;
* communication wrappers over the simulated MPI (CommSBN, CommMonoQ,
  TimeIncrement's allreduce, a hand-rolled reduction with a log2(p) loop).
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
    floordiv,
    load,
    log2,
    mod,
    mul,
    pow_,
    sub,
    var,
)
from ..ir.program import Program
from ..measure.experiment import RunSetup
from ..measure.parallel import WorkloadSpec
from ..mpisim.network import DEFAULT_NETWORK, NetworkModel
from ..mpisim.runtime import MPIConfig, MPIRuntime
from ..registry import register_workload
from .common import (
    add_accessor,
    add_dynamic_helper,
    add_medium_accessor,
    add_rank_query_wrapper,
    add_static_helper,
    add_wide_constant_helper,
)

#: Domain fields: each yields a generated get/set accessor pair.
DOMAIN_FIELDS = (
    "x y z xd yd zd xdd ydd zdd fx fy fz nodalMass symmX symmY symmZ "
    "e p q ql qq v volo new_volo delv vdov arealg ss elemMass nodelist "
    "lxim lxip letam letap lzetam lzetap elemBC dxx dyy dzz delv_xi "
    "delv_eta delv_zeta delx_xi delx_eta delx_zeta vnew regNumList"
).split()

_N_STATIC_HELPERS = 150
_N_WIDE_HELPERS = 30
_N_DYNAMIC_HELPERS = 11
_SETUP_GROUP = 25


#: Per-element geometry helpers: straight-line but sizeable bodies, so the
#: default Score-P filter instruments them although they are constant (the
#: moderate default-filter overhead of Figure 3's middle panel).
ELEM_HELPERS = (
    "CalcElemShapeFunctionDerivatives",
    "CalcElemNodeNormals",
    "SumElemStressesToNodeForces",
    "CalcElemVelocityGradient",
    "CalcElemCharacteristicLength",
    "VoluDer",
)


def _add_accessors(pb: ProgramBuilder) -> list[str]:
    names: list[str] = []
    for fld in DOMAIN_FIELDS:
        for prefix in ("get", "set"):
            name = f"domain_{prefix}_{fld}"
            add_accessor(pb, name, cost=1.0)
            names.append(name)
    for name in ELEM_HELPERS:
        add_medium_accessor(pb, name, cost=3.0, statements=9)
        names.append(name)
    return names


def _add_helpers(pb: ProgramBuilder) -> tuple[list[str], list[str]]:
    """Generated constant helpers; returns (no-arg names, one-arg names)."""
    noarg: list[str] = []
    onearg: list[str] = []
    families = (
        "SetupElemConnectivity",
        "SetupBoundaryCondition",
        "InitQuadraturePoint",
        "AllocateField",
        "VerifyMesh",
    )
    per_family = _N_STATIC_HELPERS // len(families)
    for family in families:
        for i in range(per_family):
            name = f"{family}_{i}"
            add_static_helper(pb, name, trip=4 + (i % 5), cost=1.0 + i % 3)
            noarg.append(name)
    for i in range(_N_WIDE_HELPERS):
        name = f"BuildMeshTopology_{i}"
        add_wide_constant_helper(pb, name, statements=8 + i % 4)
        onearg.append(name)
    for i in range(_N_DYNAMIC_HELPERS):
        name = f"ResizeBuffer_{i}"
        add_dynamic_helper(pb, name, cost=2.0)
        onearg.append(name)
    for name in ("GetMyRank", "LogRank", "DebugRank", "TraceRank"):
        add_rank_query_wrapper(pb, name)
        noarg.append(name)
    return noarg, onearg


def _add_setup_callers(
    pb: ProgramBuilder,
    accessors: list[str],
    noarg: list[str],
    onearg: list[str],
) -> list[str]:
    """Setup functions that execute every generated helper once, so the
    taint run observes them (dynamic pruning needs execution)."""
    calls: list[tuple[str, bool]] = (
        [(n, True) for n in accessors]
        + [(n, False) for n in noarg]
        + [(n, True) for n in onearg]
    )
    names: list[str] = []
    for start in range(0, len(calls), _SETUP_GROUP):
        chunk = calls[start : start + _SETUP_GROUP]
        name = f"SetupDomain_{start // _SETUP_GROUP}"
        with pb.function(name, [], kind="helper") as f:
            for callee, takes_arg in chunk:
                if takes_arg:
                    f.call(callee, 6.0)
                else:
                    f.call(callee)
        names.append(name)
    return names


def _elem_kernel(
    pb: ProgramBuilder,
    name: str,
    accessor_calls: "list[str]",
    work_amount: float,
    mem_amount: float = 0.0,
    extra_statements: int = 0,
) -> None:
    """A kernel looping over numElem with accessor calls and cost sinks.

    *extra_statements* pads the body with constant assignments so the
    default Score-P size filter keeps the kernel (>6 statements); compact
    kernels without padding are skipped by it (the B2 false negative).
    """
    with pb.function(name, ["numElem"], kind="kernel") as f:
        for k in range(extra_statements):
            f.assign(f"c{k}", float(k))
        with f.for_("i", 0, f.var("numElem")):
            for acc in accessor_calls:
                f.call(acc, f.var("i"))
            if work_amount:
                f.work(work_amount)
            if mem_amount:
                f.mem_work(mem_amount)


@functools.cache
def build_lulesh() -> Program:
    """The LULESH mini-app program, built on the first call and shared
    by every later one: treat it as read-only."""
    pb = ProgramBuilder()

    accessors = _add_accessors(pb)
    noarg, onearg = _add_helpers(pb)
    setup_names = _add_setup_callers(pb, accessors, noarg, onearg)

    # -- leaf element kernels (loop over numElem) -----------------------

    _elem_kernel(
        pb,
        "InitStressTermsForElems",
        ["domain_get_p", "domain_get_q"],
        work_amount=6.0,
        extra_statements=5,
    )
    _elem_kernel(
        pb,
        "IntegrateStressForElems",
        [
            "domain_get_x",
            "domain_get_y",
            "domain_get_z",
            "CalcElemShapeFunctionDerivatives",
            "SumElemStressesToNodeForces",
        ],
        work_amount=24.0,
        mem_amount=40.0,
        extra_statements=6,
    )
    _elem_kernel(
        pb,
        "CalcFBHourglassForceForElems",
        ["domain_get_xd", "domain_get_yd", "domain_get_zd"],
        work_amount=40.0,
        mem_amount=30.0,
        extra_statements=6,
    )
    _elem_kernel(
        pb,
        "CalcKinematicsForElems",
        [
            "domain_get_v",
            "domain_get_volo",
            "CalcElemVelocityGradient",
            "CalcElemCharacteristicLength",
        ],
        work_amount=30.0,
        extra_statements=5,
    )
    _elem_kernel(
        pb,
        "CalcMonotonicQGradientsForElems",
        ["domain_get_delv_xi", "domain_get_delv_eta"],
        work_amount=18.0,
        mem_amount=34.0,
        extra_statements=5,
    )
    _elem_kernel(
        pb,
        "UpdateVolumesForElems",
        ["domain_get_vnew", "domain_set_v"],
        work_amount=4.0,
        mem_amount=14.0,
    )
    _elem_kernel(
        pb,
        "CalcCourantConstraintForElems",
        ["domain_get_ss", "domain_get_arealg"],
        work_amount=8.0,
        extra_statements=5,
    )
    _elem_kernel(
        pb,
        "CalcHydroConstraintForElems",
        ["domain_get_vdov"],
        work_amount=6.0,
        extra_statements=5,
    )

    # CalcHourglassControlForElems: memory-bound (Figure 5 headline).
    with pb.function(
        "CalcHourglassControlForElems", ["numElem"], kind="kernel"
    ) as f:
        for k in range(5):
            f.assign(f"c{k}", float(k))
        with f.for_("i", 0, f.var("numElem")):
            f.call("domain_get_x", f.var("i"))
            f.call("domain_get_volo", f.var("i"))
            f.call("VoluDer", f.var("i"))
            f.mem_work(110.0)
            f.work(10.0)
        f.call("CalcFBHourglassForceForElems", f.var("numElem"))

    # -- node kernels (loop over numNode ~ (size+1)^3) -------------------

    for name, wrk, mem, pad in (
        ("CalcAccelerationForNodes", 6.0, 40.0, 5),
        ("CalcVelocityForNodes", 8.0, 22.0, 5),
        ("CalcPositionForNodes", 6.0, 26.0, 5),
    ):
        with pb.function(name, ["numNode"], kind="kernel") as f:
            for k in range(pad):
                f.assign(f"c{k}", float(k))
            with f.for_("i", 0, f.var("numNode")):
                f.work(wrk)
                f.mem_work(mem)

    # Boundary conditions: loop over a face (size^2 nodes).
    with pb.function(
        "ApplyAccelerationBoundaryConditionsForNodes",
        ["size"],
        kind="kernel",
    ) as f:
        f.assign("faceNodes", mul(add(var("size"), 1), add(var("size"), 1)))
        with f.for_("i", 0, f.var("faceNodes")):
            f.call("domain_get_symmX", f.var("i"))
            f.work(3.0)

    # -- force pipeline ----------------------------------------------------

    with pb.function("CalcVolumeForceForElems", ["numElem"], kind="kernel") as f:
        f.call("InitStressTermsForElems", f.var("numElem"))
        f.call("IntegrateStressForElems", f.var("numElem"))
        f.call("CalcHourglassControlForElems", f.var("numElem"))

    with pb.function(
        "CalcForceForNodes", ["numNode", "numElem", "size"], kind="kernel"
    ) as f:
        # Zero the force arrays: memory bound over nodes.
        with f.for_("i", 0, f.var("numNode")):
            f.mem_work(30.0)
        f.call("CalcVolumeForceForElems", f.var("numElem"))
        f.call("CommSBN", mul(var("size"), var("size")))

    with pb.function(
        "LagrangeNodal", ["numNode", "numElem", "size"], kind="kernel"
    ) as f:
        f.call("CalcForceForNodes", f.var("numNode"), f.var("numElem"), f.var("size"))
        f.call("CalcAccelerationForNodes", f.var("numNode"))
        f.call(
            "ApplyAccelerationBoundaryConditionsForNodes", f.var("size")
        )
        f.call("CalcVelocityForNodes", f.var("numNode"))
        f.call("CalcPositionForNodes", f.var("numNode"))
        f.call("CommSyncPosVel", mul(var("size"), var("size")))

    # -- Q (artificial viscosity) pipeline --------------------------------

    with pb.function("CalcLagrangeElements", ["numElem"], kind="kernel") as f:
        f.call("CalcKinematicsForElems", f.var("numElem"))
        with f.for_("i", 0, f.var("numElem")):
            f.work(5.0)

    # CalcQForElems: THE B2 kernel.  Compact body (default filter skips
    # it); pack loop with a single exit condition carrying both p and size
    # (conservative multiplicative dependency, sections 5.2/B2).
    with pb.function("CalcQForElems", ["numElem", "size", "p"], kind="kernel") as f:
        f.call("CalcMonotonicQGradientsForElems", f.var("numElem"))
        with f.for_("i", 0, f.var("numElem")):
            f.call("domain_get_q", f.var("i"))
            f.work(2.0)
        f.assign(
            "faces",
            mul(mul(var("size"), var("size")), pow_(var("p"), 0.25)),
        )
        with f.for_("fIdx", 0, f.var("faces")):
            f.mem_work(40.0)
        f.call("CommMonoQ", mul(var("size"), var("size")))

    # Region handling: the section 5.2 control-flow-taint example.
    with pb.function(
        "SetupRegionSizes",
        ["numElem", "regions", "balance", "regElemSize"],
        kind="kernel",
    ) as f:
        # The paper's section 5.2 example, verbatim in structure: the
        # counts accumulated here depend on `size` only through the number
        # of loop iterations (control flow), never through data flow.
        with f.for_("i", 0, f.var("numElem")):
            f.assign("r", mod(var("i"), var("regions")))
            f.store(
                "regElemSize",
                f.var("r"),
                add(load("regElemSize", var("r")), 1),
            )
        with f.for_("b", 0, f.var("balance")):
            f.work(5.0)

    with pb.function(
        "CalcMonotonicQRegionForElems",
        ["numElem", "regions", "regElemSize"],
        kind="kernel",
    ) as f:
        with f.for_("r", 0, f.var("regions")):
            f.assign("n", load("regElemSize", var("r")))
            with f.for_("e", 0, f.var("n")):
                f.work(4.0)

    # -- EOS pipeline ------------------------------------------------------

    with pb.function("CalcPressureForElems", ["n"], kind="kernel") as f:
        for k in range(5):
            f.assign(f"c{k}", float(k))
        with f.for_("i", 0, f.var("n")):
            f.work(14.0)

    with pb.function("CalcEnergyForElems", ["n"], kind="kernel") as f:
        for k in range(5):
            f.assign(f"c{k}", float(k))
        with f.for_("i", 0, f.var("n")):
            f.work(22.0)
        f.call("CalcPressureForElems", f.var("n"))

    with pb.function("CalcSoundSpeedForElems", ["n"], kind="kernel") as f:
        with f.for_("i", 0, f.var("n")):
            f.work(9.0)

    with pb.function("EvalEOSForElems", ["n"], kind="kernel") as f:
        with f.for_("i", 0, f.var("n")):
            f.work(7.0)
        f.call("CalcEnergyForElems", f.var("n"))
        f.call("CalcSoundSpeedForElems", f.var("n"))

    with pb.function(
        "ApplyMaterialPropertiesForElems",
        ["numElem", "regions", "cost"],
        kind="kernel",
    ) as f:
        f.assign("elemsPerReg", floordiv(var("numElem"), var("regions")))
        with f.for_("r", 0, f.var("regions")):
            with f.for_("c", 0, f.var("cost")):
                f.call("EvalEOSForElems", f.var("elemsPerReg"))

    with pb.function(
        "LagrangeElements",
        ["numElem", "regions", "cost", "size", "p", "regElemSize"],
        kind="kernel",
    ) as f:
        f.call("CalcLagrangeElements", f.var("numElem"))
        f.call("CalcQForElems", f.var("numElem"), f.var("size"), f.var("p"))
        f.call(
            "CalcMonotonicQRegionForElems",
            f.var("numElem"),
            f.var("regions"),
            f.var("regElemSize"),
        )
        f.call(
            "ApplyMaterialPropertiesForElems",
            f.var("numElem"),
            f.var("regions"),
            f.var("cost"),
        )
        f.call("UpdateVolumesForElems", f.var("numElem"))

    with pb.function("CalcTimeConstraintsForElems", ["numElem"], kind="kernel") as f:
        f.call("CalcCourantConstraintForElems", f.var("numElem"))
        f.call("CalcHydroConstraintForElems", f.var("numElem"))

    # -- communication routines -------------------------------------------

    with pb.function("TimeIncrement", [], kind="comm") as f:
        f.assign("dt", call("MPI_Allreduce", 1.0, 1.0))
        f.ret(f.var("dt"))

    with pb.function("CommSBN", ["count"], kind="comm") as f:
        f.call("MPI_Isend", f.var("count"))
        f.call("MPI_Irecv", f.var("count"))
        f.call("MPI_Wait", f.var("count"))

    with pb.function("CommSyncPosVel", ["count"], kind="comm") as f:
        f.call("MPI_Send", f.var("count"))
        f.call("MPI_Recv", f.var("count"))

    with pb.function("CommMonoQ", ["count"], kind="comm") as f:
        f.call("MPI_Send", f.var("count"))
        f.call("MPI_Recv", f.var("count"))

    # Hand-rolled reduction: the second function with a p-dependent loop.
    with pb.function("CommAllReduceHand", ["count"], kind="comm") as f:
        f.assign("p", call("MPI_Comm_size"))
        with f.for_("s", 0, log2(var("p"))):
            f.call("MPI_Send", f.var("count"))
            f.call("MPI_Recv", f.var("count"))

    with pb.function("LagrangeLeapFrog", [
        "numElem", "numNode", "size", "regions", "cost", "p", "regElemSize"
    ], kind="kernel") as f:
        f.call("LagrangeNodal", f.var("numNode"), f.var("numElem"), f.var("size"))
        f.call(
            "LagrangeElements",
            f.var("numElem"),
            f.var("regions"),
            f.var("cost"),
            f.var("size"),
            f.var("p"),
            f.var("regElemSize"),
        )
        f.call("CalcTimeConstraintsForElems", f.var("numElem"))

    # -- main -----------------------------------------------------------------

    with pb.function(
        "main", ["size", "regions", "balance", "cost", "iters"]
    ) as f:
        f.assign("p", call("MPI_Comm_size"))
        f.assign("numElem", mul(mul(var("size"), var("size")), var("size")))
        f.assign(
            "numNode",
            mul(
                mul(add(var("size"), 1), add(var("size"), 1)),
                add(var("size"), 1),
            ),
        )
        for name in setup_names:
            f.call(name)
        f.alloc("regElemSize", f.var("regions"))
        f.call(
            "SetupRegionSizes",
            f.var("numElem"),
            f.var("regions"),
            f.var("balance"),
            f.var("regElemSize"),
        )
        with f.for_("cycle", 0, f.var("iters")):
            f.call("TimeIncrement")
            # Rank queries are issued frequently (logging, diagnostics):
            # enough samples that their constant time passes the CoV
            # screen, making them modelable -- the paper's B1 example of
            # four MPI_Comm_rank wrappers black-box modeling gets wrong.
            with f.for_("q", 0, 10):
                f.call("GetMyRank")
                f.call("LogRank")
                f.call("DebugRank")
                f.call("TraceRank")
            f.call(
                "LagrangeLeapFrog",
                f.var("numElem"),
                f.var("numNode"),
                f.var("size"),
                f.var("regions"),
                f.var("cost"),
                f.var("p"),
                f.var("regElemSize"),
            )
        f.call("CommAllReduceHand", 1.0)
        f.call("MPI_Barrier")

    return pb.build(entry="main")


# ----------------------------------------------------------------------
# workload adapter


@register_workload("lulesh", params=("p", "size", "regions", "balance", "cost", "iters"))
@dataclass
class LuleshWorkload:
    """The LULESH workload for the measurement/pipeline layers.

    ``parameters`` chooses the modeled subset (the paper's two-parameter
    study uses ``("p", "size")``; the contention study uses ``("r",)``).
    Non-modeled inputs come from ``defaults``.
    """

    parameters: tuple[str, ...] = ("p", "size")
    defaults: Mapping[str, float] = field(
        default_factory=lambda: {
            "p": 27,
            "size": 25,
            "regions": 11,
            "balance": 2,
            "cost": 1,
            "iters": 3,
            "r": 1,
        }
    )
    network: NetworkModel = DEFAULT_NETWORK
    exec_config: ExecConfig = DEFAULT_CONFIG
    name: str = "lulesh"

    #: All explicitly annotated program parameters (Table 3 rows).
    annotated: tuple[str, ...] = (
        "size",
        "regions",
        "balance",
        "cost",
        "iters",
    )

    def program(self) -> Program:  # noqa: D102
        return build_lulesh()

    def setup(self, config: Mapping[str, float]) -> RunSetup:  # noqa: D102
        merged = dict(self.defaults)
        merged.update(config)
        runtime = MPIRuntime(
            MPIConfig(
                ranks=int(merged["p"]),
                ranks_per_node=int(merged.get("r", 1)),
                network=self.network,
            )
        )
        args = {
            "size": int(merged["size"]),
            "regions": int(merged["regions"]),
            "balance": int(merged["balance"]),
            "cost": int(merged["cost"]),
            "iters": int(merged["iters"]),
        }
        return RunSetup(
            args=args,
            runtime=runtime,
            ranks_per_node=int(merged.get("r", 1)),
            exec_config=self.exec_config,
        )

    def taint_config(self) -> dict[str, float]:
        """The paper's representative taint run: size=5 on 8 ranks."""
        return {"p": 8, "size": 5}

    def sources(self) -> dict[str, str]:  # noqa: D102
        return {name: name for name in self.annotated}

    def spec(self) -> WorkloadSpec:
        """Picklable recipe for rebuilding this workload in a worker."""
        return WorkloadSpec(
            factory=LuleshWorkload,
            kwargs={
                "parameters": self.parameters,
                "defaults": dict(self.defaults),
                "network": self.network,
                "exec_config": self.exec_config,
            },
        )
