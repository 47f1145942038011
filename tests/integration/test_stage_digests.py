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

#: Payload stages pinned by sha256 of their canonical JSON.
BYTE_STAGES = ("static", "taint", "volumes", "classify", "design", "plan", "measure")

LULESH_STATIC = {
    "static": "e79022a1b1a8110c2a561e7d9f65d11bfc3df88a0c7eaafbb784e004066ba272",
    "taint": "60c31fcbb1db76ed04e9d33a58143f643bdab87f75872628d42942ebbb33d270",
    "volumes": "20d7afff90cd8d6bae47d1bed5a51e99fe78ce731d2e8d8c9001110ebd645da7",
    "classify": "6e693447c5669ff1e139a218424ff9e0246dc08d95097bf24c072dba9862891f",
    "design": "95449f5f7380ff83cafd528f2b5528543ca9a56e7eb22ac560060b4a55ecef8c",
    "plan": "7bc01e4ef4bb951090a280ba3320de73f26928054844d894a3afa86c09907840",
}
MILC_STATIC = {
    "static": "45846b945fbe7b4bcadfa0f53f17a6668e11c7e4a0028fb60409a6c5f6035c52",
    "taint": "d2480be34364b64c2e7d0bcdfbfa562e05827ddb1c24f7e588106672017bda1b",
    # Re-pinned when each unexecuted loop began to warn once (MILC's
    # three unexecuted loops were listed twice each).
    "volumes": "7efb9727cfcb8bba0f9d81b32b7ef8aa611858fec720fe295dc4aab9e3f033e4",
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
        "measure": "5937251bf5f08e2817cc02be6b7114597858f015b817f69ed8b2fecdbccb109b",
        "model": "410b91dd78a422d51a8fdf2fa6e3811cbec47fd02cdfa2eafe4ca2658948f983",
        "validate": NO_FINDINGS,
    },
    ("lulesh", 21): {
        **LULESH_STATIC,
        "measure": "51818501d2fce98208085f4d6a47a9db1a6d5921495faea202c895b9b9a94fa7",
        "model": "52a32e4c254ccf689ed50338957a27ac012122982668928896f29dc84b455d05",
        "validate": NO_FINDINGS,
    },
    ("milc", 3): {
        **MILC_STATIC,
        "measure": "6e4b9acf2f3e13006ff5d1462ce35635ad2ca92b36c228ce03eb851a91e1ad18",
        "model": "d80b12628fa825748cab103f6cdaa1b66fd04e8a35080033bd36befa17ce2307",
        "validate": NO_FINDINGS,
    },
    ("milc", 21): {
        **MILC_STATIC,
        "measure": "c6eb5d954cd82ee32d67bc8e49dd27d277b97cea187d62c3d758b4c3cc3b2c9a",
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
    """What ``model``/``validate`` decided, without fitted coefficients."""
    if stage == "model":
        return {
            fn: {
                kind: None if entry[kind] is None else entry[kind]["terms"]
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
