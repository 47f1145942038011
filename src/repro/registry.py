"""Decorator-based component registries (the Campaign API's plug points).

Experiment frameworks live or die by how new components are added:
benchbuild registers projects and experiments by declaration, not by
editing a central dict.  This module provides the same mechanism for the
six pluggable component kinds of the repro pipeline:

* **workloads** (``@register_workload``) — modelable applications;
* **engines** (``@register_engine``) — execution engines (tree/vectorized);
* **noise models** (``@register_noise``) — measurement-noise generators;
* **contention models** (``@register_contention``) — co-location slowdown
  laws;
* **designs** (``@register_design``) — experiment-design strategies;
* **model-search backends** (``@register_model_backend``) — PMNF
  hypothesis-fitting strategies (loop reference vs batched LAPACK).

The bundled components self-register when their defining modules are
imported; :func:`load_builtin_components` imports them all so CLI commands
and :meth:`Campaign.from_spec` always see the full set.  User code
registers its own components with the same decorators **before** invoking
the CLI or building a campaign::

    from repro.registry import register_workload

    @register_workload("mini-fem", params=("p", "n"))
    class MiniFemWorkload: ...

Registered names then appear everywhere the built-ins do: ``repro apps``,
CLI app arguments, and campaign specs.
"""

from __future__ import annotations

import importlib
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import MeasurementError, RegistryError


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its factory plus free-form metadata."""

    name: str
    factory: Callable
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """One-line summary (metadata ``help`` or the factory docstring)."""
        doc = self.metadata.get("help") or (self.factory.__doc__ or "")
        return str(doc).strip().splitlines()[0] if str(doc).strip() else ""


class Registry:
    """A named set of factories, populated by decorator."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # -- registration ---------------------------------------------------

    def register(self, name: str | None = None, **metadata) -> Callable:
        """Decorator registering *factory* under *name*.

        Without arguments the component's ``name`` attribute (or
        ``__name__``) is used.  Usable bare (``@register``) or called
        (``@register("lulesh", params=...)``).  Re-registering a name
        replaces the previous entry (latest wins), so user code can
        override a built-in.
        """
        if callable(name):  # bare @register usage
            factory, name = name, None
            self._add(factory, None, metadata)
            return factory

        def decorate(factory: Callable) -> Callable:
            self._add(factory, name, metadata)
            return factory

        return decorate

    def _add(
        self, factory: Callable, name: str | None, metadata: Mapping
    ) -> None:
        key = name or getattr(factory, "name", None)
        if not isinstance(key, str) or not key:
            key = getattr(factory, "__name__", None)
        if not isinstance(key, str) or not key:
            raise RegistryError(
                f"cannot infer a name for {self.kind} {factory!r}; "
                "pass one explicitly"
            )
        self._entries[key] = RegistryEntry(
            name=key, factory=factory, metadata=dict(metadata)
        )

    # -- lookup -----------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RegistryEntry]:
        for name in self.names():
            yield self._entries[name]

    def entry(self, name: str) -> RegistryEntry:
        """The entry registered under *name* (raises :class:`RegistryError`
        listing the valid names on a miss)."""
        try:
            return self._entries[name]
        except KeyError:
            valid = ", ".join(self.names()) or "<none registered>"
            raise RegistryError(
                f"unknown {self.kind} {name!r} (valid {self.kind}s: {valid})"
            ) from None

    def get(self, name: str) -> Callable:
        """The factory registered under *name*."""
        return self.entry(name).factory

    def create(self, name: str, *args, **kwargs):
        """Instantiate the component registered under *name*."""
        return self.get(name)(*args, **kwargs)

    def identity(self, name: str) -> str:
        """Stable identity of the registered factory, for fingerprints.

        Includes the factory's import path, not just the registered name:
        re-registering a name with a different implementation ("latest
        wins" overrides) must invalidate artifacts computed by the
        previous one.
        """
        factory = self.get(name)
        module = getattr(factory, "__module__", "?")
        qualname = getattr(
            factory, "__qualname__", getattr(factory, "__name__", "?")
        )
        return f"{name}={module}.{qualname}"


#: Modelable applications (LULESH, MILC, synthetic, user workloads).
WORKLOAD_REGISTRY = Registry("app")
#: Execution engines consumed by :func:`repro.interp.make_engine`.
ENGINE_REGISTRY = Registry("engine")
#: Measurement-noise models.
NOISE_REGISTRY = Registry("noise model")
#: Co-location contention models.
CONTENTION_REGISTRY = Registry("contention model")
#: Experiment-design strategies consumed by the campaign design stage.
DESIGN_REGISTRY = Registry("design strategy")
#: Model-search backends consumed by :class:`repro.modeling.Modeler`
#: (``loop`` reference vs ``batched`` stacked-LAPACK implementation).
MODEL_BACKEND_REGISTRY = Registry("model-search backend")

register_workload = WORKLOAD_REGISTRY.register
register_engine = ENGINE_REGISTRY.register
register_noise = NOISE_REGISTRY.register
register_contention = CONTENTION_REGISTRY.register
register_design = DESIGN_REGISTRY.register
register_model_backend = MODEL_BACKEND_REGISTRY.register


def finite_real(value: object) -> "float | None":
    """*value* as a float when it is a real number that is finite as a
    float, else None.  Booleans are not numbers here: TOML/JSON ``true``
    is not 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def check_nonnegative(component: object, name: str) -> None:
    """Raise :class:`~repro.errors.MeasurementError` unless *component*'s
    field *name* is a finite real >= 0.

    Noise and contention parameters reach both the tree-walker's scalar
    arithmetic and the vectorized engine's array arithmetic; a negative
    or non-finite one is where the two would part ways.
    """
    value = getattr(component, name)
    number = finite_real(value)
    if number is None or number < 0:
        raise MeasurementError(
            f"{type(component).__name__}.{name} must be a finite number "
            f">= 0, got {value!r}"
        )


#: Modules whose import populates the registries with bundled components.
_BUILTIN_MODULES = (
    "repro.interp",  # tree + vectorized engines
    "repro.measure.noise",  # none + gaussian noise
    "repro.mpisim.contention",  # none/logquad/bandwidth contention
    "repro.core.experiment_design",  # reduced/full-factorial/one-at-a-time
    "repro.modeling.backends",  # loop + batched model-search backends
    "repro.apps.lulesh",
    "repro.apps.milc",
    "repro.apps.synthetic",
)


def load_builtin_components() -> None:
    """Import every bundled component module (idempotent).

    Registration happens at import; callers that accept component *names*
    (the CLI, :meth:`Campaign.from_spec`) invoke this first so the bundled
    workloads/engines/models are always visible alongside user-registered
    ones.
    """
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


__all__ = [
    "CONTENTION_REGISTRY",
    "DESIGN_REGISTRY",
    "ENGINE_REGISTRY",
    "MODEL_BACKEND_REGISTRY",
    "NOISE_REGISTRY",
    "Registry",
    "RegistryEntry",
    "WORKLOAD_REGISTRY",
    "check_nonnegative",
    "finite_real",
    "load_builtin_components",
    "register_contention",
    "register_design",
    "register_engine",
    "register_model_backend",
    "register_noise",
    "register_workload",
]
