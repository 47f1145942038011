"""Host-speed yardstick: a fixed CPU-bound reference computation.

Campaign latency on a shared host drifts with whatever else the host is
running.  The benchmark therefore times this computation just before and
just after every campaign and reports the campaign in yardstick units,
which cancels drift that lasts longer than one campaign.

The computation mirrors the campaign's own mix of work in one thread:
building and evaluating closure-compiled expression trees, dictionary
bookkeeping, JSON round trips, SHA-256 stream hashing and small NumPy
factorisations.  It keeps no
state between passes, so it leaves nothing behind for the garbage
collector to scan during a campaign, and it imports nothing from
``repro``, so no change to the program under test can change it.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

import numpy as np

#: Passes per timing; the median discards a single preempted pass.
REPETITIONS = 3


def _tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.5:
            return ("c", rng.randint(1, 9))
        return ("x",)
    return (rng.choice("+*-"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _compile(node: tuple):
    op = node[0]
    if op == "c":
        value = node[1]
        return lambda env: value
    if op == "x":
        return lambda env: env["x"]
    a = _compile(node[1])
    b = _compile(node[2])
    if op == "+":
        return lambda env: a(env) + b(env)
    if op == "*":
        return lambda env: (a(env) * b(env)) % 1_000_003
    return lambda env: a(env) - b(env)


def _pass() -> int:
    rng = random.Random(99)
    programs = [_compile(_tree(rng, 8)) for _ in range(20)]
    acc = 0
    for x in range(10):
        env = {"x": x}
        for program in programs:
            acc += program(env)
    counts: dict = {}
    for i in range(150):
        for j in range(60):
            key = ("fn", i % 7, j % 5)
            counts[key] = counts.get(key, 0) + i * j
    table = {
        f"fn{i}": {"calls": i, "samples": [float(i * j) for j in range(5)]}
        for i in range(800)
    }
    back = json.loads(json.dumps(table, sort_keys=True))
    digest = b""
    for k in range(1000):
        digest = hashlib.sha256(repr((k, acc, "fn", (1, 2))).encode()).digest()
    design = np.arange(1.0, 41.0).reshape(20, 2) ** 1.5
    for k in range(60):
        _, r = np.linalg.qr(design + k)
        acc += int(r[0, 0])
    return acc + len(back) + len(counts) + digest[0]


def yardstick_seconds() -> float:
    """One yardstick timing: the median of :data:`REPETITIONS` passes."""
    times = []
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        _pass()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
