"""Cross-cutting property tests.

The strongest invariants of the stack:

* taint tracking must never change program *values* (the taint
  interpreter is a semantics-preserving extension);
* the cost fast path must never change values either;
* measurement noise must be reproducible and mean-unbiased-ish;
* classification must partition the function set exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import ExecConfig, Interpreter
from repro.ir import ProgramBuilder, add, lt, mod, mul, var
from repro.taint import TaintEngine
from repro.taint.policy import PropagationPolicy


def random_program(which: int):
    """A small family of deterministic programs indexed by *which*."""
    pb = ProgramBuilder()
    with pb.function("helper", ["x"]) as f:
        f.ret(add(mul(var("x"), 3), 1))
    with pb.function("main", ["a", "b"]) as f:
        f.assign("acc", 0)
        if which % 2 == 0:
            with f.for_("i", 0, f.var("a")):
                f.assign("acc", add(var("acc"), var("i")))
                with f.if_(lt(mod(var("i"), 3), 1)):
                    f.assign("acc", add(var("acc"), var("b")))
        else:
            f.assign("j", 0)
            with f.while_(lt(var("j"), var("a"))):
                f.assign("j", add(var("j"), 1))
                f.assign("acc", add(var("acc"), var("j")))
        from repro.ir import call

        f.assign("acc", add(var("acc"), call("helper", var("b"))))
        f.ret(var("acc"))
    return pb.build(entry="main")


class TestSemanticsPreservation:
    @given(
        which=st.integers(0, 3),
        a=st.integers(0, 12),
        b=st.integers(0, 12),
        implicit=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_taint_preserves_values(self, which, a, b, implicit):
        prog = random_program(which)
        plain = Interpreter(prog).run({"a": a, "b": b})
        policy = PropagationPolicy(implicit_flow=implicit)
        tainted = TaintEngine(prog, policy=policy).analyze(
            {"a": a, "b": b}, {"a": "a", "b": "b"}
        )
        assert plain.value == tainted.value

    @given(which=st.integers(0, 3), a=st.integers(0, 12), b=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_preserves_values_and_cost(self, which, a, b):
        prog = random_program(which)
        slow = Interpreter(prog, config=ExecConfig(fast_loops=False)).run(
            {"a": a, "b": b}
        )
        fast = Interpreter(prog, config=ExecConfig(fast_loops=True)).run(
            {"a": a, "b": b}
        )
        assert slow.value == fast.value
        assert slow.time == pytest.approx(fast.time)

    @given(a=st.integers(1, 10), b=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_taint_metrics_match_plain(self, a, b):
        """Loop-iteration counts agree between engines."""
        prog = random_program(0)
        plain = Interpreter(prog, config=ExecConfig(fast_loops=False)).run(
            {"a": a, "b": b}
        )
        tainted = TaintEngine(prog).analyze(
            {"a": a, "b": b}, {"a": "a"}
        )
        assert dict(plain.metrics.loop_iterations) == dict(
            tainted.metrics.loop_iterations
        )


class TestNoiseProperties:
    @given(base=st.floats(min_value=1e3, max_value=1e9))
    @settings(max_examples=20, deadline=None)
    def test_noise_roughly_unbiased(self, base):
        from repro.measure.noise import GaussianNoise, rng_for

        noise = GaussianNoise(relative_sigma=0.02, absolute_sigma=100)
        samples = [
            noise.perturb(base, rng_for(0, "f", (base,), i))
            for i in range(200)
        ]
        mean = np.mean(samples)
        # absolute floor adds |N| ~ 80 on average; the relative part is
        # unbiased up to sampling error of the 200-sample mean (std
        # ~0.0014*base, so a 1% band keeps unlucky draws out).
        assert base * 0.99 <= mean <= base * 1.05 + 200


class TestClassificationPartition:
    def test_partition_exact(self, lulesh_program, lulesh_static, lulesh_taint):
        from repro.core.classify import classify_functions

        cls = classify_functions(lulesh_program, lulesh_static, lulesh_taint)
        buckets = [
            cls.pruned_static,
            cls.pruned_dynamic,
            cls.kernels,
            cls.comm_routines,
            cls.unexecuted,
        ]
        union = frozenset().union(*buckets)
        assert union == lulesh_program.defined_names()
        total = sum(len(b) for b in buckets)
        assert total == len(union)  # pairwise disjoint

    def test_milc_partition_exact(self, milc_program, milc_static, milc_taint):
        from repro.core.classify import classify_functions

        cls = classify_functions(milc_program, milc_static, milc_taint)
        buckets = [
            cls.pruned_static,
            cls.pruned_dynamic,
            cls.kernels,
            cls.comm_routines,
            cls.unexecuted,
        ]
        assert sum(len(b) for b in buckets) == milc_program.function_count()
