"""Measurement noise models.

Empirical modeling suffers from "random noise and ... systemic interference"
(paper section 4.5).  Crucially, "disturbances disproportionately affect
regions of code with short runtimes" — noise has an *absolute* floor
component (OS jitter, timer resolution, measurement hooks) that dwarfs a
getter's nanoseconds while being invisible on a second-long kernel.  That
asymmetry is what makes black-box Extra-P fit spurious parametric models to
constant functions (section B1); we reproduce it with a two-component
model:

    measured = base * (1 + eps_rel) + |eps_abs|
    eps_rel ~ N(0, relative_sigma),  eps_abs ~ N(0, absolute_sigma)

Deterministic seeding: every (function, configuration, repetition) triple
derives its own RNG stream, so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..registry import register_noise


class NoiseModel(Protocol):
    """Perturbs a true simulated time into a measured time."""

    def perturb(self, base: float, rng: np.random.Generator) -> float:
        """One noisy measurement of *base*."""


@register_noise("none")
@dataclass(frozen=True)
class NoNoise:
    """Ideal measurement (used to establish ground truth)."""

    def perturb(self, base: float, rng: np.random.Generator) -> float:  # noqa: D102
        return base


@register_noise("gaussian")
@dataclass(frozen=True)
class GaussianNoise:
    """Relative + absolute-floor Gaussian noise (default).

    ``relative_sigma`` — multiplicative component (fraction of base).
    ``absolute_sigma`` — additive floor in cost units; dominates short
    functions and is negligible for long ones.
    """

    relative_sigma: float = 0.02
    absolute_sigma: float = 200.0

    def perturb(self, base: float, rng: np.random.Generator) -> float:  # noqa: D102
        rel = rng.normal(0.0, self.relative_sigma)
        absn = abs(rng.normal(0.0, self.absolute_sigma))
        return max(0.0, base * (1.0 + rel) + absn)


def stream_seed(
    seed: int, function: str, config_key: tuple, repetition: int
) -> int:
    """The 64-bit RNG seed of one (function, configuration, repetition)
    measurement — the integer :func:`rng_for` hands to ``default_rng``."""
    digest = hashlib.sha256(
        repr((seed, function, config_key, repetition)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(
    seed: int, function: str, config_key: tuple, repetition: int
) -> np.random.Generator:
    """Deterministic per-measurement RNG stream.

    The stream is derived by hashing the experiment seed with the function
    name, the configuration, and the repetition index, so adding functions
    or configurations never reshuffles other measurements.
    """
    return np.random.default_rng(stream_seed(seed, function, config_key, repetition))


# ----------------------------------------------------------------------
# batched sampling
#
# A batched chunk draws thousands of per-(function, config, repetition)
# samples per sweep.  ``default_rng(int)`` costs ~25us each — almost all
# of it the pure-Python ``SeedSequence`` entropy mixing and PCG64 seeding.
# Both steps are deterministic integer arithmetic, so we vectorize the
# seed-sequence mixing over all streams at once and seed each PCG64
# through a precomputed-words shim, keeping every stream bit-identical to
# ``rng_for`` (enforced by a lazy self-test against ``default_rng`` on
# first use, and by tests/measure/test_batched.py element-for-element).

#: O'Neill seed-sequence mixing constants (numpy's ``SeedSequence``).
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _seedseq_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for every 64-bit
    seed in *seeds* at once: ``(N,) uint64 -> (N, 4) uint64``."""
    n = len(seeds)
    s = np.asarray(seeds, dtype=np.uint64)
    ent = np.empty((n, 2), dtype=np.uint32)
    ent[:, 0] = s & np.uint64(0xFFFFFFFF)
    ent[:, 1] = s >> np.uint64(32)
    pool = np.empty((n, 4), dtype=np.uint32)

    hc = np.full(n, _INIT_A, dtype=np.uint32)

    def hashmix(value: np.ndarray, hc: np.ndarray) -> np.ndarray:
        value ^= hc
        hc *= _MULT_A
        value *= hc
        value ^= value >> _XSHIFT
        return value

    # First pass: hash the (zero-padded) entropy words into the pool.
    for i in range(4):
        src = ent[:, i].copy() if i < 2 else np.zeros(n, dtype=np.uint32)
        pool[:, i] = hashmix(src, hc)
    # Second pass: cross-mix every pool word into every other.
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                h = hashmix(pool[:, i_src].copy(), hc)
                r = pool[:, i_dst] * _MIX_L - h * _MIX_R
                r ^= r >> _XSHIFT
                pool[:, i_dst] = r
    # (No third pass: 2 entropy words never exceed the pool size of 4.)
    # generate_state(4, uint64): 8 hashed uint32 words, paired little-endian.
    hc = np.full(n, _INIT_B, dtype=np.uint32)
    out32 = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        data = pool[:, i % 4].copy()
        data ^= hc
        hc *= _MULT_B
        data *= hc
        data ^= data >> _XSHIFT
        out32[:, i] = data
    out = out32.astype(np.uint64)
    return out[:, 0::2] | (out[:, 1::2] << np.uint64(32))


class _WordShim(np.random.bit_generator.ISeedSequence):
    """A ``SeedSequence`` stand-in returning precomputed state words.

    ``PCG64(seed_seq)`` seeds at C speed from whatever the sequence's
    ``generate_state`` returns; handing it the words we already computed
    in bulk skips the ~20us per-stream Python mixing entirely.
    """

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: np.ndarray | None = None

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if dtype is not np.uint64 and dtype != np.uint64:
            raise NotImplementedError("shim serves uint64 words only")
        return self.words[:n_words]


#: Tri-state: None = unverified, True = fast path proven bit-identical,
#: False = mismatch detected (fall back to scalar ``rng_for`` forever).
_FAST_OK: bool | None = None


def _fast_path_ok() -> bool:
    """Lazily self-test the fast stream construction against numpy.

    Run once per process: a handful of seeds spanning the 64-bit range
    must yield bit-identical ``standard_normal`` draws through both
    paths.  Any numpy-internal change flips the whole module to the
    scalar reference path — slower, never wrong.
    """
    global _FAST_OK
    if _FAST_OK is None:
        probe = np.array(
            [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1],
            dtype=np.uint64,
        )
        try:
            words = _seedseq_words(probe)
            shim = _WordShim()
            ok = True
            for i, s in enumerate(probe):
                shim.words = words[i]
                fast = np.random.Generator(np.random.PCG64(shim))
                ref = np.random.default_rng(int(s))
                if (
                    fast.standard_normal(2).tolist()
                    != ref.standard_normal(2).tolist()
                ):
                    ok = False
                    break
            _FAST_OK = ok
        except Exception:
            _FAST_OK = False
    return _FAST_OK


def _fast_generators(seeds: Sequence[int]):
    """Yield one ``Generator`` per seed, bit-identical to
    ``default_rng(seed)``, amortizing stream setup over the block."""
    words = _seedseq_words(np.asarray(seeds, dtype=np.uint64))
    shim = _WordShim()
    pcg = np.random.PCG64
    gen = np.random.Generator
    for i in range(len(words)):
        shim.words = words[i]
        yield gen(pcg(shim))


def perturb_block(
    noise: NoiseModel,
    seed: int,
    items: Sequence[tuple[str, tuple, float]],
    repetitions: int,
) -> list[list[float]]:
    """All repetitions of every (function, config_key, base) item.

    Bit-identical to the scalar reference

    .. code-block:: python

        [[noise.perturb(base, rng_for(seed, function, key, rep))
          for rep in range(repetitions)]
         for function, key, base in items]

    but with stream setup vectorized across the whole block and — for
    the built-in :class:`GaussianNoise` — the perturbation arithmetic
    applied as one array expression.  Bit-identity holds because
    ``Generator.normal(0.0, sigma)`` is exactly
    ``sigma * standard_normal()`` and the two-component model's scalar
    arithmetic maps 1:1 onto float64 ufuncs.
    """
    if isinstance(noise, NoNoise):
        return [[base] * repetitions for _, _, base in items]
    if not items or repetitions <= 0:
        return [[] for _ in items]
    if not _fast_path_ok():
        return [
            [
                noise.perturb(base, rng_for(seed, function, key, rep))
                for rep in range(repetitions)
            ]
            for function, key, base in items
        ]
    # Stream seeds: sha256(repr((seed, function, key, rep))) as in
    # :func:`stream_seed`, with the (seed, function, key) prefix encoded
    # once per item instead of once per repetition.  The f-string
    # reassembles ``repr`` of the 4-tuple exactly: ``repr`` of a tuple is
    # "(" + ", ".join(repr(element)) + ")".
    sha = hashlib.sha256
    seeds_list: list[int] = []
    append = seeds_list.append
    for function, key, _ in items:
        prefix = f"({seed!r}, {function!r}, {key!r}, ".encode()
        for rep in range(repetitions):
            digest = sha(prefix + b"%d)" % rep).digest()
            append(int.from_bytes(digest[:8], "little"))
    if isinstance(noise, GaussianNoise):
        n = len(seeds_list)
        words = _seedseq_words(np.asarray(seeds_list, dtype=np.uint64))
        z = np.empty((n, 2))
        shim = _WordShim()
        pcg = np.random.PCG64
        gen_cls = np.random.Generator
        for i in range(n):
            shim.words = words[i]
            gen_cls(pcg(shim)).standard_normal(out=z[i])
        bases = np.repeat(
            np.array([base for _, _, base in items], dtype=float),
            repetitions,
        )
        rel = noise.relative_sigma * z[:, 0]
        absn = np.abs(noise.absolute_sigma * z[:, 1])
        samples = np.maximum(0.0, bases * (1.0 + rel) + absn)
        per_item = samples.reshape(len(items), repetitions)
        return [row.tolist() for row in per_item]
    # Generic noise models: scalar perturb per stream, fast stream setup.
    out: list[list[float]] = []
    gens = _fast_generators(seeds_list)
    for function, key, base in items:
        out.append(
            [noise.perturb(base, next(gens)) for _ in range(repetitions)]
        )
    return out
