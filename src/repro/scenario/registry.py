"""String-keyed registry of scenario components.

Every building block a :class:`~repro.scenario.spec.ScenarioSpec` can name —
topologies, traffic workloads, power models, routing tables and evaluation
schemes — is registered here under a ``(kind, name)`` key.  Declaring a new
scenario then never requires a new module: implement a builder, register it
with :func:`register`, and reference it by name from a spec (the pluggable-app
pattern of SDN controller frameworks).

The registry is deliberately dumb: it stores plain callables and knows
nothing about their signatures.  The contracts per kind are documented in
:mod:`repro.scenario.components` (builders) and
:mod:`repro.scenario.schemes` (schemes).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..exceptions import ConfigurationError

#: The component kinds a scenario is composed of.
KINDS = ("topology", "traffic", "power", "routing", "scheme", "event")

_REGISTRY: Dict[Tuple[str, str], Callable[..., Any]] = {}


def register(kind: str, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class/function decorator registering a component under ``(kind, name)``.

    Example::

        @register("topology", "fattree")
        def _fattree(k: int = 4, **params) -> Topology:
            return build_fattree(k, **params)

    Raises:
        ConfigurationError: On an unknown kind or a duplicate name.
    """
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; expected one of {KINDS}"
        )

    def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
        key = (kind, name)
        if key in _REGISTRY and _REGISTRY[key] is not builder:
            raise ConfigurationError(
                f"{kind} component {name!r} is already registered"
            )
        _REGISTRY[key] = builder
        return builder

    return decorator


def resolve(kind: str, name: str) -> Callable[..., Any]:
    """The builder registered under ``(kind, name)``.

    Raises:
        ConfigurationError: With the list of registered names, so a typo in a
            spec tells the user what is available.
    """
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown component kind {kind!r}; expected one of {KINDS}"
        )
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        known = component_names(kind)
        raise ConfigurationError(
            f"unknown {kind} component {name!r}; registered {kind} components: "
            f"{', '.join(known) if known else '(none)'}"
        ) from None


def registered_name(kind: str, component: Callable[..., Any]) -> str:
    """The first name (sorted) *component* is registered under as a *kind*,
    or its ``__name__`` if it is not registered."""
    names = [name for (k, name), value in _REGISTRY.items() if k == kind and value is component]
    return min(names, default=component.__name__)


def component_names(kind: str) -> List[str]:
    """Sorted names registered under *kind*."""
    return sorted(name for (k, name) in _REGISTRY if k == kind)


def registered_components() -> Dict[str, List[str]]:
    """``kind -> sorted names`` for every kind (the ``list-components`` view)."""
    return {kind: component_names(kind) for kind in KINDS}
