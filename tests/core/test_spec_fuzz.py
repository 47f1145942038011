"""Campaign specs under mutation: junk ends in a typed error.

Each example mutates a small valid synthetic spec (drops, retypes or
replaces a value, adds a junk ``noise`` or ``contention`` table, renames
a parameter, or adds an unknown key); ``Campaign.from_spec(spec).run()``
must then either finish or raise a :class:`~repro.errors.ReproError`,
never a bare ``TypeError``/``KeyError``/... from inside a stage.

No draw starts a process pool or grows the run: a valid ``jobs`` stays
1, ``repetitions`` at most 2 and the design at most 2 x 2, and
``workspace``/``cache_dir`` are either junk that is not a path or
directories under the test's temporary directory, so nothing is written
into the checkout.
"""

from __future__ import annotations

import copy
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.stages import Campaign
from repro.errors import ReproError

BASE = {
    "app": "synthetic",
    "parameters": {"p": [2, 4], "s": [3, 5]},
    "mode": "taint",
    "design": "reduced",
    "engine": "vectorized",
    "jobs": 1,
    "seed": 7,
    "repetitions": 2,
    "noise": "gaussian",
    "contention": "none",
    "compare_black_box": True,
    "cov_threshold": 0.1,
}

#: Junk of every TOML/JSON type that is not a string.  The numbers stay
#: small: no valid ``jobs`` above 1, no ``repetitions`` above 2.
NON_STRING_JUNK = [
    None, True, False, 0, -1, 1, 0.0, -0.5, 2.5, math.nan, math.inf,
    -math.inf, [], [1], ["x"], [math.nan], {}, {"a": 1}, {"model": "gaussian"},
]
#: Strings name no workload, engine or design (``"none"`` is a valid
#: noise, contention, mode and CoV screen).
JUNK = st.sampled_from(NON_STRING_JUNK + ["", "x", "none", "gaussian"])

#: Keys whose default would grow the run when dropped (5 repetitions).
KEEP = frozenset({"repetitions"})
PATH_KEYS = ("workspace", "cache_dir")


def drop(data, spec, tmp_path):
    keys = sorted(set(spec) - KEEP)
    if keys:
        del spec[data.draw(st.sampled_from(keys))]


def replace(data, spec, tmp_path):
    key = data.draw(st.sampled_from(sorted(set(BASE) | set(PATH_KEYS))))
    if key in PATH_KEYS:
        # Never a relative path: it would land in the working directory.
        spec[key] = data.draw(
            st.sampled_from(NON_STRING_JUNK + ["", "ws", "cache"])
        )
        if spec[key] in ("ws", "cache"):
            spec[key] = str(tmp_path / spec[key])
    else:
        spec[key] = data.draw(JUNK)


def replace_parameter_value(data, spec, tmp_path):
    table = spec.get("parameters")
    if not isinstance(table, dict) or not table:
        return
    name = data.draw(st.sampled_from(sorted(table)))
    values = table[name]
    if isinstance(values, list) and values and data.draw(st.booleans()):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(JUNK)
    else:
        table[name] = data.draw(JUNK)


def rename_parameter(data, spec, tmp_path):
    table = spec.get("parameters")
    if not isinstance(table, dict) or not table:
        return
    name = data.draw(st.sampled_from(sorted(table)))
    table[data.draw(st.sampled_from(["p", "s", "q", ""]))] = table.pop(name)


def junk_component(data, spec, tmp_path):
    key = data.draw(st.sampled_from(["noise", "contention"]))
    table = {
        "model": data.draw(
            st.sampled_from(["gaussian", "logquad", "bandwidth", "none", "x"])
            | JUNK
        )
    }
    field = data.draw(
        st.sampled_from(
            ["relative_sigma", "absolute_sigma", "beta", "saturation_ranks",
             "bogus"]
        )
    )
    table[field] = data.draw(JUNK)
    if data.draw(st.booleans()):
        del table["model"]
    spec[key] = table


def unknown_key(data, spec, tmp_path):
    key = data.draw(
        st.text(min_size=1, max_size=8).filter(
            lambda k: k not in Campaign.SPEC_KEYS
        )
    )
    spec[key] = data.draw(JUNK)


MUTATIONS = (
    drop,
    replace,
    replace_parameter_value,
    rename_parameter,
    junk_component,
    unknown_key,
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_spec_finishes_or_raises_typed_error(tmp_path, data):
    spec = copy.deepcopy(BASE)
    for mutation in data.draw(
        st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)
    ):
        mutation(data, spec, tmp_path)
    try:
        Campaign.from_spec(spec).run()
    except ReproError:
        pass
