"""Shared fixtures.

Heavy artifacts (the LULESH/MILC programs and their analysis reports) are
session-scoped: they are deterministic and immutable, so every test module
can share them.  The built-in programs are shared by the whole process
(each builder builds its program once); :func:`shared_programs_unchanged`
fails the session if anything changed one.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import apps
from repro.apps.lulesh import LuleshWorkload
from repro.apps.milc import MilcWorkload
from repro.core.pipeline import PerfTaintPipeline
from repro.interp import ENGINE_TREE
from repro.ir import format_program
from repro.measure import Measurements, config_key, run_configuration

#: The built-in program builders: each builds its program on its first
#: call and returns that one shared program on every later call.
SHARED_BUILDERS = tuple(
    getattr(apps, name) for name in apps.__all__ if name.startswith("build_")
)


@pytest.fixture(scope="session", autouse=True)
def shared_programs_unchanged():
    """At the end of the session, every shared built-in program still
    prints like a fresh build and equals it node for node (loop ids,
    function kinds, metadata): no test or code path mutated it."""
    yield
    changed = []
    for builder in SHARED_BUILDERS:
        if not builder.cache_info().currsize:
            continue
        shared, fresh = builder(), builder.__wrapped__()
        if format_program(shared) != format_program(fresh) or shared != fresh:
            changed.append(builder.__name__)
    assert not changed, f"shared built-in programs were changed: {changed}"


@pytest.fixture(scope="session")
def lulesh_workload() -> LuleshWorkload:
    return LuleshWorkload()


@pytest.fixture(scope="session")
def lulesh_program(lulesh_workload):
    return lulesh_workload.program()


@pytest.fixture(scope="session")
def lulesh_pipeline(lulesh_workload):
    return PerfTaintPipeline(workload=lulesh_workload, repetitions=3, seed=7)


@pytest.fixture(scope="session")
def lulesh_static(lulesh_pipeline):
    return lulesh_pipeline.analyze_static()


@pytest.fixture(scope="session")
def lulesh_taint(lulesh_pipeline):
    return lulesh_pipeline.analyze_taint()


@pytest.fixture(scope="session")
def milc_workload() -> MilcWorkload:
    return MilcWorkload()


@pytest.fixture(scope="session")
def milc_program(milc_workload):
    return milc_workload.program()


@pytest.fixture(scope="session")
def milc_pipeline(milc_workload):
    return PerfTaintPipeline(workload=milc_workload, repetitions=3, seed=7)


@pytest.fixture(scope="session")
def milc_static(milc_pipeline):
    return milc_pipeline.analyze_static()


@pytest.fixture(scope="session")
def milc_taint(milc_pipeline):
    return milc_pipeline.analyze_taint()


class GenuineIteration:
    """*workload* with ``fast_loops`` off in every run it sets up: every
    loop iterates every trip, the reference of the closed form."""

    def __init__(self, workload) -> None:
        self._workload = workload

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def setup(self, config):
        setup = self._workload.setup(config)
        return replace(
            setup, exec_config=replace(setup.exec_config, fast_loops=False)
        )


@pytest.fixture(scope="session")
def genuine_iteration():
    """The :class:`GenuineIteration` workload wrapper."""
    return GenuineIteration


def run_serial_reference(
    workload, design, plan, *, noise, contention, repetitions, seed
):
    """The measure path's independent oracle: ``run_configuration`` per
    unique configuration (first occurrence) on the tree-walker, with
    scalar ``rng_for`` noise, grown sample by sample through
    :meth:`Measurements.add`.  It shares no code with the runner's chunk
    executor, the batch engine, ``perturb_block`` or the dense merge.
    Returns ``(measurements, profiles)``."""
    parameters = tuple(workload.parameters)
    program = workload.program()
    measurements = Measurements(parameters=parameters)
    profiles = {}
    for config in design:
        key = config_key(parameters, config)
        if key in profiles:
            continue
        result = run_configuration(
            program,
            workload.setup(config),
            plan,
            noise,
            contention,
            repetitions,
            seed,
            key,
            engine=ENGINE_TREE,
        )
        profiles[key] = result.profile
        for name, values in result.samples.items():
            for value in values:
                measurements.add(name, key, value)
        for name, calls in result.calls.items():
            measurements.calls.setdefault(name, {})[key] = calls
    return measurements, profiles


@pytest.fixture(scope="session")
def serial_reference():
    """:func:`run_serial_reference`, the runner-independent oracle."""
    return run_serial_reference


@pytest.fixture(scope="session")
def fixed_width_chunks():
    """A factory of stand-ins for :func:`~repro.measure.batched.batch_chunks`
    that cut pending configurations into chunks of a fixed width, so a
    test can drive the runner through any partition."""

    def factory(width):
        def chunks(pending, setups, n_jobs=1):
            pending = list(pending)
            return [
                pending[at : at + width]
                for at in range(0, len(pending), width)
            ]

        return chunks

    return factory


#: The campaign benchmark's smoke designs.
SMOKE_VALUES = {
    "lulesh": {"p": [27, 64], "size": [6, 9]},
    "milc": {"p": [4, 8], "size": [16, 32]},
}


def smoke_spec(app: str, seed: int = 21) -> dict:
    """The benchmark's smoke campaign of *app*: gaussian noise, five
    repetitions, black-box comparison, CoV threshold 0.1, one job."""
    spec = {
        "app": app,
        "parameters": SMOKE_VALUES[app],
        "noise": "gaussian",
        "repetitions": 5,
        "compare_black_box": True,
        "cov_threshold": 0.1,
        "jobs": 1,
        "seed": seed,
    }
    if app == "lulesh":
        spec["contention"] = {"model": "logquad", "beta": 0.06}
    return spec


@pytest.fixture(scope="session")
def smoke_campaigns(tmp_path_factory):
    """app -> (finished smoke campaign at seed 21, its filled workspace).
    Tests copy the workspace before changing it."""
    from repro.core.stages import Campaign

    out = {}
    for app in SMOKE_VALUES:
        workspace = tmp_path_factory.mktemp(f"smoke-{app}")
        campaign = Campaign.from_spec(smoke_spec(app), workspace=workspace)
        campaign.run()
        out[app] = (campaign, workspace)
    return out
