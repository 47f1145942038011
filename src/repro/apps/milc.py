"""A structurally faithful MILC ``su3_rmd`` mini-app (paper section 6).

MILC's su3_rmd is a lattice-QCD R-algorithm application.  The mini-app
mirrors the structure behind the paper's MILC results:

* the space-time domain is ``nx * ny * nz * nt`` sites, distributed over
  ``p`` ranks (so per-rank loops carry all four extent labels plus ``p`` —
  the conservative multiplicative dependency of section 5.2);
* the molecular-dynamics driver loops: ``warms + trajecs`` trajectories
  (one exit condition carrying both labels), ``steps`` per trajectory, a
  conjugate-gradient solver bounded by ``niter`` and restarted
  ``nrestart`` times;
* ``mass``/``beta`` are purely numerical inputs: they flow into work
  *amounts*, never into loop bounds, so taint correctly prunes them
  (the paper: "our findings are identical with the ground truth
  established by experts");
* the internal gather has a communicator-size algorithm switch
  (linear below 8 ranks, tree from 8 up) — the C2 segmented-behavior
  case, with the un-taken variant left unexecuted at taint time;
* hundreds of generated SU(3) algebra helpers and buffer-management
  functions supply the Table 2 function counts (364 / 188 pruned).
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
    lt,
    mul,
    var,
)
from ..ir.program import Program
from ..measure.experiment import RunSetup
from ..measure.parallel import WorkloadSpec
from ..mpisim.network import DEFAULT_NETWORK, NetworkModel
from ..mpisim.runtime import MPIConfig, MPIRuntime
from ..registry import register_workload
from .common import (
    add_dynamic_helper,
    add_medium_accessor,
    add_rank_query_wrapper,
    add_static_helper,
    add_wide_constant_helper,
)

#: SU(3) helper families (generated accessors).
_SU3_FAMILIES = (
    "mult_su3_nn",
    "mult_su3_na",
    "mult_su3_an",
    "add_su3_matrix",
    "sub_su3_matrix",
    "scalar_mult_su3",
    "su3_adjoint",
    "clear_su3mat",
    "su3_projector",
    "uncompress_anti_hermitian",
)
_SU3_PER_FAMILY = 26  # 260 accessors

_N_STATIC_HELPERS = 60
_N_WIDE_HELPERS = 20
_N_DYNAMIC_HELPERS = 185
_N_GEN_KERNELS = 38
_SETUP_GROUP = 25


def _add_generated(pb: ProgramBuilder) -> tuple[list[str], list[str]]:
    """Generate helper functions; returns (no-arg names, one-arg names)."""
    noarg: list[str] = []
    onearg: list[str] = []
    for family in _SU3_FAMILIES:
        for i in range(_SU3_PER_FAMILY):
            name = f"{family}_{i}"
            # SU(3) algebra helpers are ~30 lines of straight-line C: big
            # enough that the default Score-P filter keeps them (Fig. 4).
            add_medium_accessor(pb, name, cost=1.0 + (i % 3), statements=10)
            onearg.append(name)
    for i in range(_N_STATIC_HELPERS):
        name = f"make_lattice_part_{i}"
        add_static_helper(pb, name, trip=4 + i % 4, cost=1.0)
        noarg.append(name)
    for i in range(_N_WIDE_HELPERS):
        name = f"io_helper_{i}"
        add_wide_constant_helper(pb, name, statements=8 + i % 5)
        onearg.append(name)
    for i in range(_N_DYNAMIC_HELPERS):
        name = f"init_buffer_{i}"
        add_dynamic_helper(pb, name, cost=1.5)
        onearg.append(name)
    for name in ("mynode", "report_rank", "node_index", "io_node"):
        add_rank_query_wrapper(pb, name)
        noarg.append(name)
    return noarg, onearg


def _add_setup_callers(
    pb: ProgramBuilder, noarg: list[str], onearg: list[str]
) -> list[str]:
    calls = [(n, False) for n in noarg] + [(n, True) for n in onearg]
    names: list[str] = []
    for start in range(0, len(calls), _SETUP_GROUP):
        chunk = calls[start : start + _SETUP_GROUP]
        name = f"setup_lattice_{start // _SETUP_GROUP}"
        with pb.function(name, [], kind="helper") as f:
            for callee, takes_arg in chunk:
                if takes_arg:
                    f.call(callee, 5.0)
                else:
                    f.call(callee)
        names.append(name)
    return names


#: SU(3) stencil operations are hundreds of flops per site; the scale makes
#: per-call instrumentation overhead amortize over site work exactly as on
#: the real application (Figure 4: "negligible on larger-scale runs").
_SITE_WORK_SCALE = 4.0


def _site_kernel(
    pb: ProgramBuilder,
    name: str,
    helpers: "list[str]",
    work_amount: float,
    mem_amount: float = 0.0,
    pad: int = 5,
) -> None:
    """A kernel looping over the per-rank sites."""
    with pb.function(name, ["sites"], kind="kernel") as f:
        for k in range(pad):
            f.assign(f"c{k}", float(k))
        with f.for_("i", 0, f.var("sites")):
            for h in helpers:
                f.call(h, f.var("i"))
            if work_amount:
                f.work(work_amount * _SITE_WORK_SCALE)
            if mem_amount:
                f.mem_work(mem_amount * _SITE_WORK_SCALE)


@functools.cache
def build_milc() -> Program:
    """The MILC su3_rmd mini-app program, built on the first call and
    shared by every later one: treat it as read-only."""
    pb = ProgramBuilder()

    noarg, onearg = _add_generated(pb)
    setup_names = _add_setup_callers(pb, noarg, onearg)

    # -- communication layer (13 routines) ------------------------------

    with pb.function("gather_linear", ["count"], kind="comm") as f:
        f.assign("p", call("MPI_Comm_size"))
        with f.for_("d", 0, f.var("p")):
            f.call("MPI_Send", f.var("count"))
            f.call("MPI_Recv", f.var("count"))

    with pb.function("gather_tree", ["count"], kind="comm") as f:
        f.call("MPI_Isend", f.var("count"))
        f.call("MPI_Irecv", f.var("count"))
        f.call("MPI_Wait", f.var("count"))

    # The C2 kernel: algorithm selection on the communicator size.
    with pb.function("do_gather", ["count"], kind="comm") as f:
        f.assign("p", call("MPI_Comm_size"))
        with f.if_(lt(var("p"), 8)):
            f.call("gather_linear", f.var("count"))
        with f.else_():
            f.call("gather_tree", f.var("count"))

    with pb.function("start_gather_site", ["count"], kind="comm") as f:
        f.call("do_gather", f.var("count"))

    with pb.function("wait_gather", ["count"], kind="comm") as f:
        f.call("MPI_Wait", f.var("count"))

    with pb.function("cleanup_gather", [], kind="comm") as f:
        f.work(2.0)

    with pb.function("g_doublesum", ["count"], kind="comm") as f:
        f.assign("s", call("MPI_Allreduce", 1.0, var("count")))
        f.ret(f.var("s"))

    with pb.function("g_vecdoublesum", ["count"], kind="comm") as f:
        f.assign("s", call("MPI_Allreduce", 1.0, var("count")))
        f.ret(f.var("s"))

    with pb.function("g_complexsum", ["count"], kind="comm") as f:
        f.assign("s", call("MPI_Allreduce", 1.0, var("count")))
        f.ret(f.var("s"))

    with pb.function("broadcast_float", [], kind="comm") as f:
        f.assign("v", call("MPI_Bcast", 1.0, 1.0))
        f.ret(f.var("v"))

    with pb.function("send_field", ["count"], kind="comm") as f:
        f.call("MPI_Send", f.var("count"))

    with pb.function("get_field", ["count"], kind="comm") as f:
        f.call("MPI_Recv", f.var("count"))

    with pb.function("sum_linktrace", ["count"], kind="comm") as f:
        f.assign("s", call("MPI_Allreduce", 1.0, var("count")))
        f.ret(f.var("s"))

    # -- hand-written kernels ---------------------------------------------

    _site_kernel(
        pb,
        "dslash_site",
        ["mult_su3_nn_0", "mult_su3_na_0", "add_su3_matrix_0"],
        work_amount=66.0,
        mem_amount=24.0,
    )
    _site_kernel(
        pb,
        "dslash_special",
        ["mult_su3_nn_1", "add_su3_matrix_1"],
        work_amount=60.0,
        mem_amount=20.0,
    )
    _site_kernel(pb, "grsource_imp", ["scalar_mult_su3_0"], 30.0, 6.0)
    _site_kernel(pb, "reunitarize_site", ["su3_projector_0"], 40.0, 0.0)
    _site_kernel(pb, "rephase", ["clear_su3mat_0"], 8.0, 4.0)
    _site_kernel(
        pb, "load_fatlinks", ["mult_su3_nn_2", "mult_su3_an_0"], 90.0, 30.0
    )
    _site_kernel(pb, "load_longlinks", ["mult_su3_nn_3"], 50.0, 18.0)
    _site_kernel(
        pb, "imp_gauge_force", ["mult_su3_na_1", "su3_adjoint_0"], 80.0, 24.0
    )
    _site_kernel(
        pb, "eo_fermion_force", ["mult_su3_nn_4", "su3_projector_1"], 70.0, 22.0
    )
    _site_kernel(pb, "gauge_action", ["mult_su3_nn_5"], 45.0, 10.0)
    _site_kernel(pb, "plaquette_site", ["mult_su3_nn_6"], 26.0, 8.0)
    _site_kernel(pb, "ploop_site", ["mult_su3_nn_7"], 20.0, 6.0)

    # Generated lattice kernels to reach the paper's ~56 kernel count.
    for i in range(_N_GEN_KERNELS):
        _site_kernel(
            pb,
            f"compute_field_{i}",
            [f"add_su3_matrix_{2 + i % 10}"],
            work_amount=10.0 + (i % 7) * 4.0,
            mem_amount=4.0 if i % 3 == 0 else 0.0,
        )

    # dslash wrapper: gathers neighbours, then applies the stencil.
    with pb.function("dslash", ["sites", "surface"], kind="kernel") as f:
        f.call("start_gather_site", f.var("surface"))
        f.call("wait_gather", f.var("surface"))
        f.call("dslash_site", f.var("sites"))
        f.call("cleanup_gather")

    # Conjugate gradient: niter iterations, nrestart restarts.
    with pb.function(
        "ks_congrad", ["sites", "surface", "niter", "mass"], kind="kernel"
    ) as f:
        with f.for_("it", 0, f.var("niter")):
            f.call("dslash", f.var("sites"), f.var("surface"))
            f.call("dslash", f.var("sites"), f.var("surface"))
            with f.for_("i", 0, f.var("sites")):
                f.work(12.0 * _SITE_WORK_SCALE)
            f.call("g_doublesum", 1.0)

    with pb.function(
        "update_h", ["sites", "mass", "beta"], kind="kernel"
    ) as f:
        # mass/beta scale the arithmetic, not the iteration space: they
        # taint work *amounts* but never a loop bound (pruned parameters).
        f.assign("scale", mul(var("mass"), var("beta")))
        with f.for_("i", 0, f.var("sites")):
            f.work(34.0 * _SITE_WORK_SCALE)
        f.call("imp_gauge_force", f.var("sites"))
        f.call("eo_fermion_force", f.var("sites"))

    with pb.function("update_u", ["sites"], kind="kernel") as f:
        with f.for_("i", 0, f.var("sites")):
            f.work(28.0 * _SITE_WORK_SCALE)
            f.mem_work(10.0 * _SITE_WORK_SCALE)

    with pb.function(
        "update_step",
        ["sites", "surface", "steps", "niter", "mass", "beta"],
        kind="kernel",
    ) as f:
        with f.for_("s", 0, f.var("steps")):
            f.call("update_h", f.var("sites"), f.var("mass"), f.var("beta"))
            f.call("update_u", f.var("sites"))
        f.call("reunitarize_site", f.var("sites"))

    with pb.function(
        "update",
        ["sites", "surface", "steps", "niter", "nrestart", "mass", "beta"],
        kind="kernel",
    ) as f:
        f.call("load_fatlinks", f.var("sites"))
        f.call("load_longlinks", f.var("sites"))
        f.call(
            "update_step",
            f.var("sites"),
            f.var("surface"),
            f.var("steps"),
            f.var("niter"),
            f.var("mass"),
            f.var("beta"),
        )
        f.call("grsource_imp", f.var("sites"))
        with f.for_("rst", 0, f.var("nrestart")):
            f.call(
                "ks_congrad",
                f.var("sites"),
                f.var("surface"),
                f.var("niter"),
                f.var("mass"),
            )

    with pb.function("measure_observables", ["sites"], kind="kernel") as f:
        f.call("plaquette_site", f.var("sites"))
        f.call("ploop_site", f.var("sites"))
        f.call("g_complexsum", 1.0)
        f.call("sum_linktrace", 1.0)

    # -- main ----------------------------------------------------------------

    with pb.function(
        "main",
        [
            "nx",
            "ny",
            "nz",
            "nt",
            "steps",
            "niter",
            "warms",
            "trajecs",
            "nrestart",
            "mass",
            "beta",
        ],
    ) as f:
        f.assign("p", call("MPI_Comm_size"))
        # The space-time volume, distributed over ranks: the per-rank site
        # loop bound carries nx, ny, nz, nt AND p in one exit condition
        # (the conservative multiplicative dependency of section 5.2).
        f.assign(
            "volume",
            mul(mul(var("nx"), var("ny")), mul(var("nz"), var("nt"))),
        )
        f.assign("sites", floordiv(var("volume"), var("p")))
        f.assign("surface", floordiv(var("volume"), mul(var("nx"), var("p"))))
        for name in setup_names:
            f.call(name)
        f.call("rephase", f.var("sites"))
        for i in range(_N_GEN_KERNELS):
            f.call(f"compute_field_{i}", f.var("sites"))
        f.call("broadcast_float")
        # warms + trajecs trajectories: one exit condition, two labels.
        with f.for_("traj", 0, add(var("warms"), var("trajecs"))):
            f.call(
                "update",
                f.var("sites"),
                f.var("surface"),
                f.var("steps"),
                f.var("niter"),
                f.var("nrestart"),
                f.var("mass"),
                f.var("beta"),
            )
            f.call("measure_observables", f.var("sites"))
        f.call("g_vecdoublesum", 1.0)
        f.call("MPI_Barrier")

    return pb.build(entry="main")


# ----------------------------------------------------------------------
# workload adapter


@register_workload(
    "milc",
    params=(
        "p", "nx", "ny", "nz", "nt",
        "steps", "niter", "warms", "trajecs", "nrestart", "mass", "beta",
    ),
)
@dataclass
class MilcWorkload:
    """The MILC workload for the measurement/pipeline layers.

    The paper's scaling studies use the domain size and ``p``; here
    ``size`` maps to ``nx`` with the other extents fixed small, so the
    per-rank site count is ``(size * ny * nz * nt) / p`` — linear in
    ``size``, inverse in ``p``, exactly the lattice-QCD weak/strong
    scaling structure, while keeping interpreted loop extents tractable.
    """

    parameters: tuple[str, ...] = ("p", "size")
    defaults: Mapping[str, float] = field(
        default_factory=lambda: {
            "p": 4,
            "size": 32,
            "ny": 4,
            "nz": 2,
            "nt": 2,
            "steps": 3,
            "niter": 4,
            "warms": 1,
            "trajecs": 2,
            "nrestart": 1,
            "mass": 0.5,
            "beta": 6.0,
            "r": 1,
        }
    )
    network: NetworkModel = DEFAULT_NETWORK
    exec_config: ExecConfig = DEFAULT_CONFIG
    name: str = "milc"

    annotated: tuple[str, ...] = (
        "nx",
        "ny",
        "nz",
        "nt",
        "steps",
        "niter",
        "warms",
        "trajecs",
        "nrestart",
        "mass",
        "beta",
    )

    def program(self) -> Program:  # noqa: D102
        return build_milc()

    def setup(self, config: Mapping[str, float]) -> RunSetup:  # noqa: D102
        merged = dict(self.defaults)
        merged.update(config)
        if "size" in merged:
            merged.setdefault("nx", merged["size"])
        runtime = MPIRuntime(
            MPIConfig(
                ranks=int(merged["p"]),
                ranks_per_node=int(merged.get("r", 1)),
                network=self.network,
            )
        )
        args = {
            "nx": int(merged.get("nx", merged.get("size", 32))),
            "ny": int(merged["ny"]),
            "nz": int(merged["nz"]),
            "nt": int(merged["nt"]),
            "steps": int(merged["steps"]),
            "niter": int(merged["niter"]),
            "warms": int(merged["warms"]),
            "trajecs": int(merged["trajecs"]),
            "nrestart": int(merged["nrestart"]),
            "mass": float(merged["mass"]),
            "beta": float(merged["beta"]),
        }
        return RunSetup(
            args=args,
            runtime=runtime,
            ranks_per_node=int(merged.get("r", 1)),
            exec_config=self.exec_config,
        )

    def taint_config(self) -> dict[str, float]:
        """The paper's representative taint run: size=128 on 32 ranks."""
        return {"p": 32, "size": 128}

    def sources(self) -> dict[str, str]:  # noqa: D102
        return {name: name for name in self.annotated}

    def spec(self) -> WorkloadSpec:
        """Picklable recipe for rebuilding this workload in a worker."""
        return WorkloadSpec(
            factory=MilcWorkload,
            kwargs={
                "parameters": self.parameters,
                "defaults": dict(self.defaults),
                "network": self.network,
                "exec_config": self.exec_config,
            },
        )
