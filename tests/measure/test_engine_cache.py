"""Run-cache fingerprints must include the execution-engine identity.

Engines are differentially tested to be bit-identical, but a cache entry
must still never be served across engines: an engine bug would otherwise
be masked — or spread — by the cache.  These tests populate a cache with
one engine and prove the other engine re-executes from scratch (and that
the numbers nevertheless agree, as the differential suite demands), and
that re-registering an engine name with another implementation misses
the cache too: entries are keyed by the engine's registry identity.
"""

from __future__ import annotations

import json

from repro.apps.synthetic import make_scaling_workload
from repro.interp import Interpreter
from repro.measure.instrumentation import full_plan
from repro.measure.io import measurements_to_dict, run_fingerprint
from repro.measure.parallel import ExperimentRunner
from repro.registry import ENGINE_REGISTRY, register_engine

DESIGN = [
    {"p": 2.0, "s": 3.0},
    {"p": 2.0, "s": 5.0},
    {"p": 4.0, "s": 3.0},
]


def _runner(engine: str, cache_dir) -> ExperimentRunner:
    workload = make_scaling_workload()
    return ExperimentRunner(
        workload=workload,
        plan=full_plan(workload.program()),
        repetitions=2,
        seed=7,
        cache_dir=cache_dir,
        engine=engine,
    )


class TestEngineCacheIsolation:
    def test_cache_not_shared_across_engines(self, tmp_path):
        cache = tmp_path / "cache"
        tree = _runner("tree", cache)
        first, _ = tree.run(DESIGN)
        assert tree.last_stats.executed == len(DESIGN)
        assert tree.last_stats.cached == 0

        # Same cache, other engine: every configuration re-executes.
        vectorized = _runner("vectorized", cache)
        second, _ = vectorized.run(DESIGN)
        assert vectorized.last_stats.executed == len(DESIGN)
        assert vectorized.last_stats.cached == 0

        # Same engine again: everything is served from the cache.
        tree_again = _runner("tree", cache)
        third, _ = tree_again.run(DESIGN)
        assert tree_again.last_stats.executed == 0
        assert tree_again.last_stats.cached == len(DESIGN)

        # And the engines agree bit-for-bit on the measurements anyway.
        canon = lambda m: json.dumps(measurements_to_dict(m), sort_keys=True)
        assert canon(first) == canon(second) == canon(third)

    def test_reregistered_engine_name_misses_the_cache(self, tmp_path):
        """Keys carry the engine's registry identity, not its name: runs
        of the built-in tree-walker are never served to another class
        registered as ``tree`` ("latest wins")."""
        cache = tmp_path / "cache"
        builtin = _runner("tree", cache)
        builtin.run(DESIGN)
        assert builtin.last_stats.executed == len(DESIGN)

        class OtherTree(Interpreter):
            """Another implementation under the built-in name."""

        original = ENGINE_REGISTRY.entry("tree")
        register_engine("tree")(OtherTree)
        try:
            other = _runner("tree", cache)
            other.run(DESIGN)
            assert other.last_stats.executed == len(DESIGN)
            assert other.last_stats.cached == 0
        finally:
            register_engine("tree", **original.metadata)(original.factory)
        again = _runner("tree", cache)
        again.run(DESIGN)
        assert again.last_stats.cached == len(DESIGN)

    def test_run_fingerprint_varies_with_engine(self):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        common = dict(
            config={"p": 2.0, "s": 3.0},
            plan=plan,
            exec_repr="exec",
            noise_repr="noise",
            contention_repr="contention",
            repetitions=2,
            seed=7,
        )
        tree = run_fingerprint("digest", engine="tree", **common)
        vectorized = run_fingerprint("digest", engine="vectorized", **common)
        assert tree != vectorized
        # Still deterministic per engine.
        assert tree == run_fingerprint("digest", engine="tree", **common)
