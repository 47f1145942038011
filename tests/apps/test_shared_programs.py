"""The built-in programs are built once per process and shared.

Each of the eight argument-free builders returns one finalized program on
every call, so every workload, campaign and engine of a process shares
that program's call graph, digest, loop plans and lowering.  Nothing is
built at import: each memo is filled on its first use.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import apps
from repro.core.stages import Campaign

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

SHARED_BUILDERS = tuple(
    getattr(apps, name) for name in apps.__all__ if name.startswith("build_")
)


def test_eight_builders_are_shared():
    assert len(SHARED_BUILDERS) == 8


@pytest.mark.parametrize(
    "builder", SHARED_BUILDERS, ids=lambda builder: builder.__name__
)
def test_builder_returns_one_program(builder):
    shared = builder()
    assert builder() is shared
    private = builder.__wrapped__()
    assert private is not shared
    assert private == shared


def test_campaigns_share_one_program():
    spec = {"app": "lulesh", "parameters": {"p": [27, 64], "size": [6, 9]}}
    first = Campaign.from_spec(dict(spec, seed=21))
    second = Campaign.from_spec(dict(spec, seed=9))
    assert first.program() is second.program()


def test_import_builds_no_program():
    """``import repro`` and the built-in registrations leave every
    builder's memo empty, so a run pays for a program only when it uses
    one."""
    code = (
        "import repro\n"
        "from repro.registry import load_builtin_components\n"
        "load_builtin_components()\n"
        "from repro import apps\n"
        "builders = [getattr(apps, n) for n in apps.__all__"
        " if n.startswith('build_')]\n"
        "assert len(builders) == 8\n"
        "built = [b.__name__ for b in builders if b.cache_info().currsize]\n"
        "assert not built, built\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
