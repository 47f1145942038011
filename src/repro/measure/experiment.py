"""Experiment configurations, designs, and one configuration's run.

An experiment sweeps a set of model parameters over value lists (paper
Table 2: 5x5 grids for LULESH/MILC), runs the profiled program per
configuration, and collects *repetitions* of noisy per-function timings
(5 in the paper, 125 measurements total for a 25-point design).

Each configuration executes **once** (the simulator is deterministic)
and its repetitions come from sampling the noise model with
per-(function, configuration, repetition) RNG streams — equivalent to
repeating the run, at a fraction of the cost.  The runner that plans,
executes and merges a whole design is
:class:`~repro.measure.parallel.ExperimentRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from ..errors import DesignError
from ..interp import ENGINE_TREE
from ..interp.config import DEFAULT_CONFIG, ExecConfig
from ..interp.runtime import LibraryRuntime
from ..interp.values import Value
from ..ir.program import Program
from ..mpisim.contention import ContentionModel
from .instrumentation import InstrumentationPlan
from .noise import NoiseModel, rng_for
from .profiler import APP_KEY, ProfileResult, profile_run

ConfigKey = tuple[float, ...]


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to execute one configuration."""

    args: Mapping[str, Value]
    runtime: LibraryRuntime | None = None
    ranks_per_node: int = 1
    exec_config: ExecConfig = DEFAULT_CONFIG
    entry: str | None = None


class Workload(Protocol):
    """A modelable application: fixed program, configurable execution."""

    name: str
    #: Model parameter names, in canonical order (e.g. ("p", "size")).
    parameters: tuple[str, ...]

    def program(self) -> Program:
        """The (configuration-independent) program structure."""

    def setup(self, config: Mapping[str, float]) -> RunSetup:
        """Execution setup for one parameter configuration."""

    def taint_config(self) -> dict[str, float]:
        """A small, representative configuration for the taint run
        (the paper uses LULESH size=5 on 8 ranks; MILC size=128 on 32)."""

    def sources(self) -> dict[str, str]:
        """Entry-argument -> label mapping for explicitly marked
        parameters (implicit parameters like ``p`` come from the library
        database)."""


def full_factorial(
    parameter_values: Mapping[str, Sequence[float]]
) -> list[dict[str, float]]:
    """All combinations of the given per-parameter value lists."""
    names = list(parameter_values)
    if not names:
        raise DesignError("empty design")
    for name in names:
        if not parameter_values[name]:
            raise DesignError(
                f"parameter '{name}' has an empty value list"
            )
    combos = product(*(parameter_values[n] for n in names))
    return [dict(zip(names, combo)) for combo in combos]


def one_at_a_time(
    parameter_values: Mapping[str, Sequence[float]],
    base: Mapping[str, float] | None = None,
) -> list[dict[str, float]]:
    """Sweep each parameter alone, holding others at their smallest value.

    Valid when all dependencies are additive-only (paper section A2): the
    design size drops from a product to a sum of the value-list lengths.
    """
    names = list(parameter_values)
    if not names:
        raise DesignError("empty design")
    for name in names:
        if not parameter_values[name]:
            raise DesignError(
                f"parameter '{name}' has an empty value list"
            )
    baseline = {
        n: (base[n] if base and n in base else min(parameter_values[n]))
        for n in names
    }
    configs: list[dict[str, float]] = [dict(baseline)]
    seen = {tuple(sorted(baseline.items()))}
    for name in names:
        for value in parameter_values[name]:
            cfg = dict(baseline)
            cfg[name] = value
            key = tuple(sorted(cfg.items()))
            if key not in seen:
                seen.add(key)
                configs.append(cfg)
    return configs


def config_key(parameters: Sequence[str], config: Mapping[str, float]) -> ConfigKey:
    """Canonical hashable key of a configuration."""
    return tuple(float(config[p]) for p in parameters)


def unique_configurations(
    parameters: Sequence[str], design: Iterable[Mapping[str, float]]
) -> tuple[list[dict[str, float]], list[ConfigKey]]:
    """The design's configurations and keys, each key once, in order.

    :class:`Measurements` hold one repetition list per configuration
    key, so a repeated design point is measured once: it stays at its
    first occurrence and later occurrences are dropped.  Every measure
    path (the runner and the service broker) plans from this list, so a
    repeated point yields ``repetitions`` samples wherever it runs.
    """
    unique: dict[ConfigKey, dict[str, float]] = {}
    for config in design:
        unique.setdefault(config_key(parameters, config), dict(config))
    return list(unique.values()), list(unique)


@dataclass
class Measurements:
    """Measured per-function times of one experiment.

    ``data[function][config_key]`` is the list of repeated measurements;
    ``APP_KEY`` holds whole-application times.  Configuration keys follow
    the order of ``parameters``.
    """

    parameters: tuple[str, ...]
    data: dict[str, dict[ConfigKey, list[float]]] = field(default_factory=dict)
    #: Per-configuration call counts (function -> key -> calls per run).
    calls: dict[str, dict[ConfigKey, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arity = len(self.parameters)
        for table in (self.data, self.calls):
            for fn, per_fn in table.items():
                if any(len(key) != arity for key in per_fn):
                    raise ValueError(
                        f"configuration arity mismatch for '{fn}': "
                        f"expected {arity} values per key"
                    )

    def add(self, function: str, key: ConfigKey, value: float) -> None:
        self.data.setdefault(function, {}).setdefault(key, []).append(value)

    def functions(self) -> list[str]:
        """Measured functions (APP_KEY excluded), sorted."""
        return sorted(n for n in self.data if n != APP_KEY)

    def configs(self) -> list[ConfigKey]:
        """All configuration keys present, sorted."""
        keys: set[ConfigKey] = set()
        for per_fn in self.data.values():
            keys.update(per_fn)
        return sorted(keys)

    def points(self, function: str) -> tuple[np.ndarray, np.ndarray]:
        """(X, y): configuration matrix and mean measured times."""
        per_fn = self.data.get(function, {})
        keys = sorted(per_fn)
        X = np.array(keys, dtype=float).reshape(len(keys), len(self.parameters))
        values = [per_fn[k] for k in keys]
        if len({len(v) for v in values}) == 1:
            # Row means of one C-contiguous matrix reduce exactly like
            # np.mean of each configuration's list.
            y = np.asarray(values, dtype=float).mean(axis=1)
        else:
            y = np.array([float(np.mean(v)) for v in values])
        return X, y

    def repetitions(self, function: str, key: ConfigKey) -> list[float]:
        """Raw repeated measurements of one configuration."""
        return list(self.data.get(function, {}).get(key, []))

    def max_cov(self, function: str) -> float:
        """Largest coefficient of variation across configurations.

        The paper's B1 screening keeps only functions with CoV <= 0.1
        everywhere ("values with a coefficient of variance larger than 0.1
        ... are too affected by noise to be reliable").  The usual case —
        every configuration measured the same number of times — reduces
        over one (configs, repetitions) matrix instead of looping
        configurations in Python (this screen runs inside the model
        stage, once per measured function).
        """
        per_fn = self.data.get(function, {})
        if not per_fn:
            return 0.0
        values = list(per_fn.values())
        lengths = {len(v) for v in values}
        if len(lengths) == 1:
            if lengths.pop() < 2:
                return 0.0
            arr = np.asarray(values, dtype=float)
            means = arr.mean(axis=1)
            ok = means > 0
            if not np.any(ok):
                return 0.0
            stds = arr[ok].std(axis=1, ddof=1)
            return float(np.max(stds / means[ok]))
        worst = 0.0
        for vals in values:
            arr = np.asarray(vals, dtype=float)
            mean = arr.mean()
            if mean > 0 and len(arr) > 1:
                worst = max(worst, float(arr.std(ddof=1) / mean))
        return worst

    def reliable_functions(self, cov_threshold: float = 0.1) -> list[str]:
        """Functions passing the CoV screen."""
        return [
            fn
            for fn in self.functions()
            if self.max_cov(fn) <= cov_threshold
        ]


@dataclass
class ConfigRunResult:
    """Everything one configuration's run produced.

    ``samples[function]`` holds the per-repetition noisy measurements in
    repetition order; ``calls[function]`` the call count of the single
    profiled run.  The container is picklable and JSON-able (see
    :mod:`repro.codec`) so it can cross process boundaries and live
    in the on-disk run cache.
    """

    key: ConfigKey
    profile: ProfileResult
    samples: dict[str, list[float]] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    #: True when the result was served from a run cache: provenance, not
    #: part of the value (never stored; set on load).
    cached: bool = field(default=False, compare=False)


def run_configuration(
    program: Program,
    setup: RunSetup,
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    key: ConfigKey,
    engine: str = ENGINE_TREE,
) -> ConfigRunResult:
    """Profile one configuration and derive its noisy repetitions.

    The RNG stream of every sample is derived purely from
    ``(seed, function, key, repetition)`` via :func:`~repro.measure.noise.rng_for`
    — never from execution order — so results are bit-identical whether
    configurations run serially, in any order, or on different processes.
    *engine* selects the execution engine; the built-in engines produce
    bit-identical profiles, so it does not perturb measurements either.
    """
    factor = contention.factor(setup.ranks_per_node)
    profile = profile_run(
        program,
        setup.args,
        plan,
        runtime=setup.runtime,
        exec_config=setup.exec_config,
        contention_factor=factor,
        entry=setup.entry,
        engine=engine,
    )
    result = ConfigRunResult(key=key, profile=profile)
    for name, node in profile.flat().items():
        if not name:
            continue
        base = node.time(factor)
        result.calls[name] = node.calls
        result.samples[name] = [
            noise.perturb(base, rng_for(seed, name, key, rep))
            for rep in range(repetitions)
        ]
    app_base = profile.total_time()
    result.samples[APP_KEY] = [
        noise.perturb(app_base, rng_for(seed, APP_KEY, key, rep))
        for rep in range(repetitions)
    ]
    return result


def merge_results_dense(
    parameters: tuple[str, ...],
    results: Sequence[ConfigRunResult],
) -> tuple[Measurements, dict[ConfigKey, ProfileResult]]:
    """Combine per-configuration results into one measurements container.

    The one merge of the measure path (the runner and the service
    broker).  Each configuration key appears once in *results* — both
    drop repeated design points first (:func:`unique_configurations`)
    — so each (function, key) repetition list is assigned wholesale,
    one dict probe per (function, key) rather than one per sample.
    Callers pass *results* in canonical design order: merge order is
    the only execution-order-dependent step, so fixing it here is what
    makes parallel and distributed runs bit-identical to serial ones.
    """
    measurements = Measurements(parameters=parameters)
    profiles: dict[ConfigKey, ProfileResult] = {}
    data = measurements.data
    calls = measurements.calls
    for result in results:
        profiles[result.key] = result.profile
        for name, values in result.samples.items():
            data.setdefault(name, {})[result.key] = list(values)
        for name, count in result.calls.items():
            calls.setdefault(name, {})[result.key] = count
    return measurements, profiles
