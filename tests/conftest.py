"""Shared fixtures.

Heavy artifacts (the LULESH/MILC programs and their analysis reports) are
session-scoped: they are deterministic and immutable, so every test module
can share them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.lulesh import LuleshWorkload
from repro.apps.milc import MilcWorkload
from repro.core.pipeline import PerfTaintPipeline


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
