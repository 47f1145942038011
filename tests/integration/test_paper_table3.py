"""Paper Table 3 as a tier-1 invariant: per-parameter kernel/loop coverage.

``benchmarks/bench_table3_param_pruning.py`` regenerates the table but
is not collected by the default test run.  This module keeps every one
of its assertions (section A1: ``p`` touches exactly two LULESH regions,
``size`` the most, ``iters`` one loop, the combined column is not the
sum; every MILC lattice extent and ``p`` cover at least 40 kernels, the
MD driver parameters at least one each, ``mass``/``beta`` none) and pins
the whole matrix, (functions, loops) per parameter, as this repository
computes it.
"""

from __future__ import annotations

from repro.core.classify import table3_counts

#: The benchmark's parameter rows.
LULESH_PARAMS = ["p", "size", "regions", "balance", "cost", "iters"]
MILC_PARAMS = [
    "p", "nx", "ny", "nz", "nt",
    "steps", "niter", "warms", "trajecs", "nrestart", "mass", "beta",
]

#: (functions, loops) per row, plus the combined column.
LULESH_MATRIX = {
    "p": (2, 2),
    "size": (22, 23),
    "regions": (6, 7),
    "balance": (1, 1),
    "cost": (1, 1),
    "iters": (1, 1),
    "combined": (25, 29),
}
MILC_MATRIX = {
    **{name: (51, 51) for name in ("p", "nx", "ny", "nz", "nt")},
    **{name: (1, 1) for name in ("steps", "niter", "warms", "trajecs", "nrestart")},
    "mass": (0, 0),
    "beta": (0, 0),
    "combined": (54, 55),
}


def matrix(counts) -> dict[str, tuple[int, int]]:
    return {name: (c["functions"], c["loops"]) for name, c in counts.items()}


def test_lulesh_table3(lulesh_program, lulesh_taint):
    counts = table3_counts(lulesh_program, lulesh_taint, LULESH_PARAMS)
    assert matrix(counts) == LULESH_MATRIX

    # The benchmark's shape assertions.
    assert counts["p"]["functions"] == 2
    assert counts["p"]["loops"] == 2
    assert counts["size"]["functions"] == max(
        counts[q]["functions"] for q in LULESH_PARAMS
    )
    assert counts["iters"]["loops"] == 1
    assert counts["combined"]["functions"] < sum(
        counts[q]["functions"] for q in LULESH_PARAMS
    )


def test_milc_table3(milc_program, milc_taint):
    counts = table3_counts(milc_program, milc_taint, MILC_PARAMS)
    assert matrix(counts) == MILC_MATRIX

    # The benchmark's shape assertions ("identical with the ground truth
    # established by experts", section A1).
    for ext in ("nx", "ny", "nz", "nt", "p"):
        assert counts[ext]["functions"] >= 40
    assert counts["mass"]["functions"] == 0
    assert counts["beta"]["functions"] == 0
    for md in ("steps", "niter", "warms", "trajecs"):
        assert counts[md]["functions"] >= 1
