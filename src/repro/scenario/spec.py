"""Typed, declarative scenario specifications.

A :class:`ScenarioSpec` names every ingredient of an experiment — topology,
traffic workload, power model, optional baseline routing and one or more
evaluation schemes — by its registry name plus plain keyword parameters.
Specs are plain data: parameters must be JSON-serialisable, so every spec
serialises to/from a dict (and therefore JSON) without loss, and
:meth:`ScenarioSpec.config_hash` — the key campaign stores file results
under — is a SHA-256 over that dict.  :func:`apply_spec_setting` (one
``SECTION.KEY`` override, behind ``run-scenario --set`` and campaign axes) and
:func:`read_spec_file` (the ``--spec`` loader of both commands) sit here so
that nothing below the command line imports :mod:`repro.experiments`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError
from .registry import KINDS, resolve

#: Default utilisation SLO used by activation-based schemes.
DEFAULT_UTILISATION_THRESHOLD = 0.9

#: Bump to give every scenario a new config hash after a change that makes
#: stored results stale.  Version 3: specs carry the dynamic ``events`` axis
#: and results gained event/reaction fields.
CONFIG_HASH_VERSION = 3

#: Part of the hashed payload (see :meth:`ScenarioSpec.config_hash`): the
#: reference of the function that once ran a spec dict.  No such function
#: exists any more; the string stays so every stored config hash keeps its key.
_RUN_FUNCTION = "repro.scenario.engine:run_scenario_dict"


def _plain(value: Any, context: str) -> Any:
    """Normalise a parameter value to plain JSON types (tuples become lists).

    Raises:
        ConfigurationError: If the value cannot be represented in JSON —
            specs must stay declarative so they hash and serialise stably.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item, context) for item in value]
    if isinstance(value, Mapping):
        plain: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"{context}: mapping keys must be strings, got {key!r}"
                )
            plain[key] = _plain(item, context)
        return plain
    raise ConfigurationError(
        f"{context}: parameter values must be JSON-serialisable "
        f"(None/bool/int/float/str/list/dict), got {type(value).__qualname__}"
    )


class ComponentSpec:
    """One named component plus its keyword parameters.

    Attributes:
        name: Registry name of the component (e.g. ``"geant"``).
        params: Plain-data keyword parameters passed to the registered
            builder (normalised: tuples become lists).
    """

    #: Registry kind; overridden by each concrete spec class.
    kind = "component"

    __slots__ = ("name", "params")

    def __init__(self, name: str, params: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        if params and kwargs:
            raise ConfigurationError(
                "pass component parameters either as a mapping or as keywords, not both"
            )
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"component name must be a non-empty string, got {name!r}")
        merged = dict(params or {})
        merged.update(kwargs)
        self.name = name
        self.params = _plain(merged, f"{self.kind} {name!r}")

    def kwargs(self) -> Dict[str, Any]:
        """The parameters as a keyword-argument dictionary (a fresh copy)."""
        return {key: value for key, value in self.params.items()}

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": self.kwargs()}

    @classmethod
    def from_dict(cls, data: Any) -> "ComponentSpec":
        """Build a spec from ``{"name": ..., "params": {...}}`` or a bare name."""
        if isinstance(data, str):
            return cls(data)
        if isinstance(data, cls):
            return data
        if not isinstance(data, Mapping) or "name" not in data:
            raise ConfigurationError(
                f"a {cls.kind} spec must be a name or a {{'name', 'params'}} mapping, "
                f"got {data!r}"
            )
        allowed = {"name", "params", "label"} if cls is SchemeSpec else {"name", "params"}
        unknown = set(data) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind} spec keys {sorted(unknown)} in {dict(data)!r}"
            )
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                f"{cls.kind} spec 'params' must be a mapping, got {params!r}"
            )
        if cls is SchemeSpec:
            label = data.get("label")
            if label is not None and not isinstance(label, str):
                raise ConfigurationError(
                    f"scheme spec 'label' must be a string, got {label!r}"
                )
            return SchemeSpec(data["name"], params=params, label=label)
        return cls(data["name"], params=params)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the named component is unknown."""
        resolve(self.kind, self.name)  # raises with the registered-name list

    def build(self, *args: Any, **overrides: Any) -> Any:
        """Resolve the registered builder and call it.

        Positional arguments come first (each kind's contract is documented
        in :mod:`repro.scenario.components`), then the spec parameters, with
        *overrides* taking precedence.
        """
        builder = resolve(self.kind, self.name)
        merged = self.kwargs()
        merged.update(overrides)
        return builder(*args, **merged)

    def _key(self) -> str:
        return json.dumps(
            [type(self).__qualname__, self.to_dict()], sort_keys=True
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__qualname__}({self.name!r}, params={self.params!r})"


class TopologySpec(ComponentSpec):
    """Names a registered topology builder (``fattree``, ``geant``, ...)."""

    kind = "topology"
    __slots__ = ()


class TrafficSpec(ComponentSpec):
    """Names a registered traffic workload (``sinewave``, ``gravity``, ...)."""

    kind = "traffic"
    __slots__ = ()


class PowerSpec(ComponentSpec):
    """Names a registered power model (``cisco``, ``commodity``, ...)."""

    kind = "power"
    __slots__ = ()


class RoutingSpec(ComponentSpec):
    """Names a registered routing-table builder (``ospf-invcap``, ...)."""

    kind = "routing"
    __slots__ = ()


class EventSpec(ComponentSpec):
    """Names a registered timeline event (``link-failure``, ``traffic-surge``, ...).

    Events are the scenario's dynamic axis: each spec resolves (via
    :meth:`~ComponentSpec.build`) to one or more
    :class:`~repro.scenario.timeline.TimelineEvent` objects that the
    timeline engine merges with the trace intervals.
    """

    kind = "event"
    __slots__ = ()


class SchemeSpec(ComponentSpec):
    """Names a registered evaluation scheme (``response``, ``elastictree``, ...).

    Attributes:
        label: Key of this scheme's series in the scenario result; defaults
            to the scheme name (set it when evaluating the same scheme twice
            with different parameters).
    """

    kind = "scheme"
    __slots__ = ("label",)

    def __init__(
        self,
        name: str,
        params: Optional[Mapping[str, Any]] = None,
        label: Optional[str] = None,
        **kwargs: Any,
    ):
        super().__init__(name, params=params, **kwargs)
        self.label = label or name

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        if self.label != self.name:
            data["label"] = self.label
        return data


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment: topology × traffic × power × schemes.

    Attributes:
        topology: The network under evaluation.
        traffic: The demand workload replayed over it.
        power: The device power model.
        schemes: Evaluation schemes compared on the same stack, in order.
        routing: Optional baseline routing-table builder exposed to schemes
            and drivers (e.g. OSPF-InvCap for latency comparisons).
        events: Dynamic mid-run events (failures, repairs, traffic surges)
            merged with the trace by the timeline engine, in order.
        utilisation_threshold: Link-utilisation SLO used by activation-based
            schemes unless a scheme overrides it in its own params.
        name: Human-readable scenario name (also the default result name).
    """

    topology: TopologySpec
    traffic: TrafficSpec
    power: PowerSpec
    schemes: Tuple[SchemeSpec, ...] = ()
    routing: Optional[RoutingSpec] = None
    events: Tuple[EventSpec, ...] = ()
    utilisation_threshold: float = DEFAULT_UTILISATION_THRESHOLD
    name: str = "scenario"

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "events", tuple(self.events))
        labels = [scheme.label for scheme in self.schemes]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"scheme labels are not unique: {labels}")
        if not 0.0 < self.utilisation_threshold <= 1.0:
            raise ConfigurationError(
                "utilisation_threshold must be in (0, 1], "
                f"got {self.utilisation_threshold}"
            )

    def validate(self) -> "ScenarioSpec":
        """Check every named component against the registry; returns ``self``."""
        self.topology.validate()
        self.traffic.validate()
        self.power.validate()
        if self.routing is not None:
            self.routing.validate()
        for scheme in self.schemes:
            scheme.validate()
        for event in self.events:
            event.validate()
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The plain-dict (JSON-ready) form consumed by :meth:`from_dict`."""
        data: Dict[str, Any] = {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "traffic": self.traffic.to_dict(),
            "power": self.power.to_dict(),
            "schemes": [scheme.to_dict() for scheme in self.schemes],
            "utilisation_threshold": self.utilisation_threshold,
        }
        if self.routing is not None:
            data["routing"] = self.routing.to_dict()
        if self.events:
            # Omitted when empty so event-free specs keep a stable dict shape.
            data["events"] = [event.to_dict() for event in self.events]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"a scenario spec must be a mapping, got {data!r}")
        missing = {"topology", "traffic", "power"} - set(data)
        if missing:
            raise ConfigurationError(
                f"scenario spec is missing sections: {sorted(missing)}"
            )
        unknown = set(data) - {
            "name",
            "topology",
            "traffic",
            "power",
            "routing",
            "schemes",
            "events",
            "utilisation_threshold",
        }
        if unknown:
            raise ConfigurationError(f"unknown scenario spec keys: {sorted(unknown)}")
        for key in ("schemes", "events"):
            if not isinstance(data.get(key, ()), (list, tuple)):
                raise ConfigurationError(
                    f"scenario spec {key!r} must be a list, got {data[key]!r}"
                )
        threshold = data.get("utilisation_threshold", DEFAULT_UTILISATION_THRESHOLD)
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"scenario spec 'utilisation_threshold' must be a number, got {threshold!r}"
            ) from None
        return cls(
            topology=TopologySpec.from_dict(data["topology"]),
            traffic=TrafficSpec.from_dict(data["traffic"]),
            power=PowerSpec.from_dict(data["power"]),
            schemes=tuple(
                SchemeSpec.from_dict(scheme) for scheme in data.get("schemes", ())
            ),
            routing=(
                RoutingSpec.from_dict(data["routing"]) if data.get("routing") else None
            ),
            events=tuple(
                EventSpec.from_dict(event) for event in data.get("events", ())
            ),
            utilisation_threshold=threshold,
            name=str(data.get("name", "scenario")),
        )

    def config_hash(self) -> str:
        """SHA-256 identifying this scenario's configuration.

        The campaign store's idempotency key, stable across processes and
        hash seeds.  :func:`_plain` made every parameter plain JSON data at
        construction, so one sorted-key dump is canonical.  The envelope
        (``cache_version`` / ``function`` / ``params``) dates from when a
        spec was hashed as a cached function call (``function`` is
        :data:`_RUN_FUNCTION`); its bytes are kept so that rows in existing
        stores stay addressable.
        """
        payload = json.dumps(
            {
                "cache_version": CONFIG_HASH_VERSION,
                "function": _RUN_FUNCTION,
                "params": {"spec": self.to_dict()},
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def sweep_point(self) -> "ScenarioSpec":
        """This spec itself: the point
        :func:`~repro.experiments.runner.execute_point_outcome` runs.

        Nothing in ``src/`` calls it; the benchmark harness's
        ``experiments.point_ms_p50`` probe times
        ``execute_point_outcome(spec.sweep_point())``.
        """
        return self

    def with_schemes(self, *schemes: SchemeSpec, name: Optional[str] = None) -> "ScenarioSpec":
        """A copy evaluating different schemes on the same stack."""
        return replace(
            self, schemes=tuple(schemes), name=name if name is not None else self.name
        )


def _with_params(entry: Any, target: str) -> Dict[str, Any]:
    """A component entry as a ``{"name", "params"}`` dict with a params dict.

    A bare name or a null ``params`` means no parameters, as in
    :meth:`ComponentSpec.from_dict`.
    """
    if isinstance(entry, str):
        return {"name": entry, "params": {}}
    if isinstance(entry, dict):
        if entry.get("params") is None:
            entry["params"] = {}
        if isinstance(entry["params"], dict):
            return entry
    raise ConfigurationError(f"setting {target!r}: cannot set a parameter of {entry!r}")


def apply_spec_setting(data: Dict[str, Any], target: str, value: Any) -> None:
    """Apply one ``SECTION.KEY`` override to a scenario spec dict, in place.

    This is the shared implementation behind the ``run-scenario --set`` flag
    and campaign parameter axes.  *target* addresses ``scenario.<field>``,
    a component section's parameter (``traffic.num_pairs``), one event's
    parameter (``events.0.time_s``) or a scheme's parameter by its label
    (``response.num_paths``).

    Raises:
        ConfigurationError: If the target does not address the spec.
    """
    section, dot, key = target.partition(".")
    if not dot or not key:
        raise ConfigurationError(
            f"setting target must look like SECTION.KEY, got {target!r}"
        )
    if section == "scenario":
        data[key] = value
        return
    if section in ("topology", "traffic", "power", "routing"):
        entry = data.get(section)
        if entry is None:
            raise ConfigurationError(
                f"setting {target!r}: the spec has no {section} section yet"
            )
        entry = _with_params(entry, target)
        entry["params"][key] = value
        data[section] = entry
        return
    if section == "events":
        # events.<index>.<param> targets one entry of the events list.
        index_text, dot, param = key.partition(".")
        events = data.get("events", [])
        if not dot or not param or not index_text.isdigit():
            raise ConfigurationError(
                f"setting {target!r}: events overrides look like "
                "events.<index>.<param> (e.g. events.0.time_s)"
            )
        index = int(index_text)
        if index >= len(events):
            raise ConfigurationError(
                f"setting {target!r}: the spec has {len(events)} event(s); "
                f"index {index} is out of range"
            )
        event = _with_params(events[index], target)
        event["params"][param] = value
        events[index] = event
        data["events"] = events
        return
    # Otherwise the section names a scheme by its label.
    for index, scheme in enumerate(data.get("schemes", [])):
        # A null or empty label reads as the scheme's name, as in SchemeSpec.
        label = scheme if isinstance(scheme, str) else scheme.get("label") or scheme.get("name")
        if label != section:
            continue
        scheme = _with_params(scheme, target)
        scheme["params"][key] = value
        data["schemes"][index] = scheme
        return
    raise ConfigurationError(
        f"setting {target!r}: {section!r} is neither a spec section "
        "(scenario/topology/traffic/power/routing/events) nor a scheme label"
    )


def read_spec_file(path: str) -> Dict[str, Any]:
    """The JSON object held by a spec file (``"-"`` reads standard input).

    The one ``--spec`` loader behind ``run-scenario`` and ``run-campaign``.

    Raises:
        ConfigurationError: Naming the file, if it cannot be read, does not
            parse as JSON or holds something other than a JSON object.
    """
    shown = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except OSError as error:
        raise ConfigurationError(
            f"cannot read spec file {shown}: {error.strerror or error}"
        ) from error
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"spec file {shown} is not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"spec file {shown} must hold a JSON object, got {type(data).__name__}"
        )
    return data


__all__ = [
    "DEFAULT_UTILISATION_THRESHOLD",
    "KINDS",
    "ComponentSpec",
    "TopologySpec",
    "TrafficSpec",
    "PowerSpec",
    "RoutingSpec",
    "EventSpec",
    "SchemeSpec",
    "ScenarioSpec",
    "apply_spec_setting",
    "read_spec_file",
]
