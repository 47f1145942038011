"""Ablation — optional implicit-flow propagation (paper section 3.2).

The paper's taxonomy distinguishes *explicit* control dependencies (code
that runs under a tainted branch) from *implicit* ones (the not-taken
branch would have changed a value: ``if (c) d = pow(d, 2)`` taints ``d``
through ``c`` "even if the second branch is not taken").  DFSan and the
Perf-Taint prototype track explicit control flow; this reproduction also
implements the implicit mode as an opt-in extension.

The ablation measures what each policy recovers on a program whose loop
bound is only implicitly dependent, and confirms the implicit mode does
not perturb the LULESH results (no over-tainting on the paper workload).
"""

from conftest import report

from repro.apps.synthetic import SyntheticWorkload
from repro.core.pipeline import PerfTaintPipeline
from repro.core.report import format_table
from repro.ir import ProgramBuilder, var
from repro.taint import TaintEngine
from repro.taint.policy import DATAFLOW_ONLY, FULL_POLICY, PropagationPolicy

IMPLICIT = PropagationPolicy(implicit_flow=True)


def implicit_dep_program():
    """Loop bound depends on c only through the NOT-taken branch."""
    pb = ProgramBuilder()
    with pb.function("main", ["c", "n"]) as f:
        f.assign("d", var("n"))
        with f.if_(var("c")):
            f.assign("d", 2)
        with f.for_("i", 0, f.var("d")):
            f.work(5)
    return pb.build(entry="main")


def test_ablation_implicit_flow(benchmark, lulesh_workload):
    prog = implicit_dep_program()

    def run():
        per_policy = {}
        for name, policy in (
            ("data-flow only", DATAFLOW_ONLY),
            ("explicit control (paper)", FULL_POLICY),
            ("implicit (extension)", IMPLICIT),
        ):
            # c=0: the branch is NOT taken, so only implicit tracking can
            # see the dependence of d (and the loop) on c.
            rep = TaintEngine(prog, policy=policy).analyze(
                {"c": 0, "n": 6}, {"c": "c", "n": "n"}
            ).report
            per_policy[name] = rep.loop_params("main", 0)
        # Sanity on the real workload: implicit mode yields the same
        # relevant-loop count as the paper's explicit mode on LULESH.
        explicit_taint = PerfTaintPipeline(
            workload=lulesh_workload, policy=FULL_POLICY
        ).analyze_taint()
        implicit_taint = PerfTaintPipeline(
            workload=lulesh_workload, policy=IMPLICIT
        ).analyze_taint()
        return per_policy, explicit_taint, implicit_taint

    per_policy, explicit_taint, implicit_taint = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    rows = [
        (name, ",".join(sorted(params)) or "(none)")
        for name, params in per_policy.items()
    ]
    rows.append(
        (
            "LULESH relevant loops",
            f"explicit={len(explicit_taint.relevant_loops())} "
            f"implicit={len(implicit_taint.relevant_loops())}",
        )
    )
    report(
        "ablation_implicit_flow",
        format_table(("policy", "loop parameters found"), rows),
        data={
            "loop_params_by_policy": {
                name: sorted(params) for name, params in per_policy.items()
            },
            "lulesh_relevant_loops_explicit": len(
                explicit_taint.relevant_loops()
            ),
            "lulesh_relevant_loops_implicit": len(
                implicit_taint.relevant_loops()
            ),
        },
    )

    assert per_policy["data-flow only"] == frozenset({"n"})
    assert per_policy["explicit control (paper)"] == frozenset({"n"})
    assert per_policy["implicit (extension)"] == frozenset({"c", "n"})
    # On LULESH, implicit mode changes nothing: all branch-assigned values
    # are already covered by explicit tracking (no over-tainting).
    assert len(implicit_taint.relevant_loops()) == len(
        explicit_taint.relevant_loops()
    )
