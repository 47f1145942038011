"""Campaigns on the default measurement engine equal the scalar engine.

The default engine measures a whole design in one batched pass; the
tree-walker ``tree`` runs it one configuration at a time.  On the
paper's two applications (small 2x2 grids) both must yield the same
measure, model and validate payloads and reproduce the Table 2 counts.
"""

from __future__ import annotations

import json

import pytest

from repro.core.stages import STAGES, Campaign
from repro.errors import RegistryError
from repro.interp import DEFAULT_MEASUREMENT_ENGINE, ENGINE_TREE

#: Paper Table 2: (functions, relevant loops) per application.
TABLE2 = {"lulesh": (343, 29), "milc": (622, 55)}

GRIDS = {
    "lulesh": {
        "parameters": {"p": [27, 64], "size": [6, 9]},
        "contention": {"model": "logquad", "beta": 0.06},
    },
    "milc": {"parameters": {"p": [4, 8], "size": [16, 32]}},
}


def campaign_for(app: str, **overrides) -> Campaign:
    spec = {
        "app": app,
        "noise": "gaussian",
        "repetitions": 5,
        "compare_black_box": True,
        "seed": 21,
        **GRIDS[app],
        **overrides,
    }
    return Campaign.from_spec(spec)


def payloads(campaign: Campaign) -> dict[str, str]:
    return {
        name: json.dumps(
            STAGES[name].to_payload(campaign.artifacts[name]), sort_keys=True
        )
        for name in ("measure", "model", "validate")
    }


@pytest.mark.parametrize("app", sorted(GRIDS))
def test_default_engine_campaign_equals_tree(app):
    default = campaign_for(app)
    tree = campaign_for(app, engine=ENGINE_TREE)
    assert default.engine == DEFAULT_MEASUREMENT_ENGINE != ENGINE_TREE
    for campaign in (default, tree):
        row = campaign.run().classification.table2_row()
        assert (row["functions"], row["loops_relevant"]) == TABLE2[app]

    assert payloads(default) == payloads(tree)
    # Both engines report the runner's lane accounting: every repetition
    # of a design point is one planned lane, deduplicated onto one
    # executed lane (a tensor-pass lane, or one tree-walker run).
    points = default.artifacts["design"].size
    for campaign in (default, tree):
        assert campaign.measure_telemetry["lanes"] == {
            "planned": 5 * points,
            "executed": points,
            "deduped": 4 * points,
        }
    # Engine identity keys the measure stage: caches and artifacts of
    # one engine never serve the other, while upstream stages share.
    assert default.fingerprints["measure"] != tree.fingerprints["measure"]
    assert default.fingerprints["plan"] == tree.fingerprints["plan"]


def test_spec_rejects_removed_engine():
    """A spec naming the deleted closure compiler fails fast, listing the
    registered engines."""
    spec = {"app": "synthetic", "parameters": {"p": [2, 4], "s": [3, 5]}}
    with pytest.raises(RegistryError) as err:
        Campaign.from_spec({**spec, "engine": "compiled"})
    assert "unknown engine 'compiled'" in str(err.value)
    assert "valid engines: tree, vectorized" in str(err.value)
