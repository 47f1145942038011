"""Stage payloads pinned byte for byte: the "same bytes" check in tier-1.

Every engine, planner or codec change in this repository must leave the
campaign's stored results unchanged.  This module runs small LULESH and
MILC campaigns at two seeds and pins the sha256 of the canonical JSON of
each stage payload.  ``model`` and ``validate`` are pinned by their
decisions instead (the terms and exponents selected per function, the set
of findings): their coefficients pass through LAPACK, whose last bits may
depend on the host.

A change that moves a digest on purpose re-pins it here and names the
stage and the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.stages import STAGES, Campaign

#: Payload stages pinned by sha256 of their canonical JSON.  The
#: static, taint, volumes and measure digests were re-pinned when the
#: payloads became :mod:`repro.codec` encodings (tuple-keyed tables as
#: ``[key, value]`` pairs, a volume as an object of its terms);
#: classify, design and plan kept their bytes.  The static digests were
#: re-pinned again when each function's always-false reducibility flag
#: left the static report (loops are single-entry statements, so every
#: function is reducible by construction).
BYTE_STAGES = ("static", "taint", "volumes", "classify", "design", "plan", "measure")

LULESH_STATIC = {
    "static": "3e4d1f7af3af171d1c95646f703fa33857476ba188f9d085002b53b5285da174",
    "taint": "625f56609f9aa49cf9486cb2ab9a926aff2cf1e579f61f49c8384ba94bf65954",
    "volumes": "a3931746e5cfed716891503b1e6de4c5cf8a24199915d6712c9dcfd72872a9a6",
    "classify": "6e693447c5669ff1e139a218424ff9e0246dc08d95097bf24c072dba9862891f",
    "design": "95449f5f7380ff83cafd528f2b5528543ca9a56e7eb22ac560060b4a55ecef8c",
    "plan": "7bc01e4ef4bb951090a280ba3320de73f26928054844d894a3afa86c09907840",
}
MILC_STATIC = {
    "static": "1c8bca3d4ed88fb9bddebdc1c55647ef627bbb7df6c5369dc908fd90f1e69802",
    "taint": "5cb42ef5805ebcbccdd4a2b59ca0c9773c4eb6fbbfd59f4278b4b5d8168064ac",
    "volumes": "9bd0d055672af705e7b0ed7079fdbe0a5b18e7d054480ad03bb9db2aca60e253",
    "classify": "2723a12c842cff9fb4b7f1a270d3b139f9949e4aff2504495218aceff164b556",
    "design": "54707293ff7468c66858966a84d43cdc91a2c3624e127f0c8538f27b227bfcf0",
    "plan": "58a1d5433576533443d7ce957b430994424c6bb1a96a2c3a932f3be72c4578bf",
}

#: Digest of the empty finding set: none of these small designs shows
#: contention.
NO_FINDINGS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

#: (app, seed) -> stage -> digest.  ``model``/``validate`` digest the
#: decisions (see :func:`decisions`), every other stage the payload.
PINNED = {
    ("lulesh", 3): {
        **LULESH_STATIC,
        "measure": "a883ff7ab9149984051c114bb1d2db28f9912ef39c86b1fe4993b196547b6be2",
        "model": "410b91dd78a422d51a8fdf2fa6e3811cbec47fd02cdfa2eafe4ca2658948f983",
        "validate": NO_FINDINGS,
    },
    ("lulesh", 21): {
        **LULESH_STATIC,
        "measure": "80e9e28659177a62dc3bd91ad2e7df2d07b419c1b00b57a92a45e9e971a81459",
        "model": "52a32e4c254ccf689ed50338957a27ac012122982668928896f29dc84b455d05",
        "validate": NO_FINDINGS,
    },
    ("milc", 3): {
        **MILC_STATIC,
        "measure": "e58f06a262546052cc812e1ef58754e4313d6d3d7241ef46d0eed16c6bbed149",
        "model": "d80b12628fa825748cab103f6cdaa1b66fd04e8a35080033bd36befa17ce2307",
        "validate": NO_FINDINGS,
    },
    ("milc", 21): {
        **MILC_STATIC,
        "measure": "21a7d1539f4cad301630918e337efb31d917a8e98aa79ca8419cb28a9b91735c",
        "model": "19c860f8da2b49a20de4933286024a473167099bb07037b55e0802c41c3c5b4e",
        "validate": NO_FINDINGS,
    },
}


def campaign_spec(app: str, seed: int) -> dict:
    """Smoke-sized study: gaussian noise, 5 repetitions, black-box
    comparison, CoV threshold 0.1, one job."""
    spec = {
        "app": app,
        "noise": "gaussian",
        "repetitions": 5,
        "compare_black_box": True,
        "cov_threshold": 0.1,
        "jobs": 1,
        "seed": seed,
    }
    if app == "lulesh":
        spec["parameters"] = {"p": [27, 64], "size": [6, 9]}
        spec["contention"] = {"model": "logquad", "beta": 0.06}
    else:
        spec["parameters"] = {"p": [4, 8], "size": [16, 32]}
    return spec


def sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def decisions(stage: str, payload):
    """What ``model``/``validate`` decided, without fitted coefficients:
    each model's term exponents (a term encodes as ``{"exponents": ...}``)
    and the findings."""
    if stage == "model":
        return {
            fn: {
                kind: None
                if entry[kind] is None
                else [term["exponents"] for term in entry[kind]["terms"]]
                for kind in ("hybrid", "black_box")
            }
            for fn, entry in payload.items()
        }
    return sorted(
        [finding["function"], finding["spurious_params"]] for finding in payload
    )


@pytest.fixture(scope="module", params=sorted(PINNED), ids=lambda k: f"{k[0]}-{k[1]}")
def digests(request, tmp_path_factory):
    app, seed = request.param
    workspace = tmp_path_factory.mktemp(f"{app}-{seed}")
    campaign = Campaign.from_spec(campaign_spec(app, seed), workspace=workspace)
    campaign.run()
    out = {}
    for name, stage in STAGES.items():
        payload = stage.to_payload(campaign.artifacts[name])
        if name not in BYTE_STAGES:
            payload = decisions(name, payload)
        out[name] = sha256_json(payload)
    return request.param, out


@pytest.mark.parametrize("stage", list(STAGES))
def test_stage_digest(digests, stage):
    key, got = digests
    assert got[stage] == PINNED[key][stage], f"{key} {stage} payload moved"
