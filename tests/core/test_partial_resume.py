"""Resuming any one stage from a workspace reproduces every payload.

A stage resumed from its stored payload must feed the stages after it
exactly what the computed artifact fed them: nothing downstream may
depend on state the payload does not carry, such as the insertion order
of a decoded table.  For each stage below, a copy of a finished smoke
campaign's workspace keeps that stage's entry only, and the rerun must
resume it, compute the other eight, and reproduce all nine payloads.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from repro.core.stages import STAGES
from repro.store import STAGE_NAMESPACE, stage_key


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("stage", ["static", "taint", "volumes", "measure"])
@pytest.mark.parametrize("app", ["lulesh", "milc"])
def test_resuming_one_stage_reproduces_every_payload(
    smoke_campaigns, tmp_path, app, stage
):
    fresh, workspace = smoke_campaigns[app]
    copy = tmp_path / "ws"
    shutil.copytree(workspace, copy)
    keep = f"{stage_key(stage, fresh.fingerprints[stage])}.json"
    for entry in (copy / STAGE_NAMESPACE).iterdir():
        if entry.name != keep:
            entry.unlink()
    rerun = dataclasses.replace(fresh, workspace=copy)
    rerun.run()
    assert rerun.resumed_stages == (stage,)
    for name, declared in STAGES.items():
        assert canonical(declared.to_payload(rerun.artifacts[name])) == (
            canonical(declared.to_payload(fresh.artifacts[name]))
        ), f"{app}: resuming {stage} moved the {name} payload"
