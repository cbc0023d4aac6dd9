"""Declarative campaign specifications: a base scenario plus sweep axes.

A :class:`CampaignSpec` is to a grid of experiments what a
:class:`~repro.scenario.spec.ScenarioSpec` is to one experiment: plain,
JSON-round-tripping data.  It holds a **base** scenario spec dict plus
**axes** — lists of topologies, traffic models, power models, routing
tables, scheme sets, event schedules, seeds and ``--set``-style parameter
ranges.  :meth:`CampaignSpec.expand` takes the cartesian product of the
axes, applies each combination to the base spec and yields one validated
:class:`CampaignPoint` per grid point, each carrying its axis coordinates
and the scenario's :meth:`~repro.scenario.spec.ScenarioSpec.config_hash` —
the idempotency key the results store and resume logic are built on.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..scenario.spec import ScenarioSpec, apply_spec_setting

#: Bump when the campaign spec schema or expansion semantics change in a
#: way that makes stored campaign ids incomparable.
CAMPAIGN_SCHEMA_VERSION = 1

#: Component axes that replace a whole spec section per grid point.
_SECTION_AXES = ("topology", "traffic", "power", "routing")

#: Every axis key a campaign spec may declare, in canonical expansion
#: order (the rightmost axis varies fastest, like :func:`itertools.product`).
AXIS_KEYS = _SECTION_AXES + ("schemes", "events", "seed", "set")


def _compact(value: Any) -> str:
    """A short deterministic rendering of an axis value for labels/names."""
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _component_label(entry: Any) -> str:
    """``name`` or ``name(param=value,...)`` for one component axis entry."""
    if isinstance(entry, str):
        return entry
    name = entry.get("name", "?")
    params = entry.get("params") or {}
    if not params:
        return str(name)
    inner = ",".join(f"{key}={_compact(value)}" for key, value in sorted(params.items()))
    return f"{name}({inner})"


def _scheme_set_label(entry: Sequence[Any]) -> str:
    """Joined scheme labels of one scheme-set axis entry."""
    labels = []
    for scheme in entry:
        if isinstance(scheme, str):
            labels.append(scheme)
        else:
            labels.append(str(scheme.get("label") or scheme.get("name", "?")))
    return "+".join(labels) if labels else "none"


def _event_schedule_label(entry: Sequence[Any]) -> str:
    """Joined event kinds of one event-schedule axis entry."""
    names = [
        event if isinstance(event, str) else str(event.get("name", "?"))
        for event in entry
    ]
    return "+".join(names) if names else "none"


def _require_list(axis: str, values: Any) -> List[Any]:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigurationError(
            f"campaign axis {axis!r} must be a non-empty list, got {values!r}"
        )
    return list(values)


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point of a campaign.

    Attributes:
        index: Position in the expanded grid (axis order, rightmost axis
            fastest).
        name: Deterministic point name — the campaign name plus the axis
            coordinates — which is also the scenario's name (and therefore
            part of its config hash).
        axes: Axis coordinates as ``{axis: label}`` (``set`` axes are keyed
            by their ``SECTION.KEY`` target).
        spec: The fully applied, validated scenario spec.
        config_hash: The scenario's config hash — the store's
            idempotency key.
    """

    index: int
    name: str
    axes: Dict[str, Any]
    spec: ScenarioSpec
    config_hash: str


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid of scenarios: base spec × axes.

    Attributes:
        name: Campaign name (also the prefix of every point name).
        base: The base scenario spec as a plain dict; each axis overrides
            one aspect of it per grid point.
        axes: Mapping of axis key to its values — see :data:`AXIS_KEYS`:
            ``topology``/``traffic``/``power``/``routing`` list component
            entries (bare name or ``{"name", "params"}``), ``schemes`` lists
            scheme *sets* (each a list), ``events`` lists event *schedules*
            (each a list, possibly empty), ``seed`` lists integers applied
            as the traffic workload's ``seed`` parameter and ``set`` maps
            ``SECTION.KEY`` targets to value lists (the ``--set`` axis).
    """

    name: str
    base: Dict[str, Any]
    axes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"campaign name must be a non-empty string, got {self.name!r}"
            )
        if not isinstance(self.base, Mapping):
            raise ConfigurationError(
                f"campaign base must be a scenario spec mapping, got {self.base!r}"
            )
        if not isinstance(self.axes, Mapping):
            raise ConfigurationError(
                f"campaign axes must be a mapping, got {self.axes!r}"
            )
        unknown = set(self.axes) - set(AXIS_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown campaign axes {sorted(unknown)}; expected {list(AXIS_KEYS)}"
            )
        # Freeze plain-data copies so the spec cannot alias caller state.
        object.__setattr__(self, "base", copy.deepcopy(dict(self.base)))
        object.__setattr__(self, "axes", copy.deepcopy(dict(self.axes)))
        for axis in _SECTION_AXES + ("schemes", "events"):
            if axis in self.axes:
                _require_list(axis, self.axes[axis])
        if "seed" in self.axes:
            for seed in _require_list("seed", self.axes["seed"]):
                if not isinstance(seed, int) or isinstance(seed, bool):
                    raise ConfigurationError(
                        f"campaign seed axis values must be integers, got {seed!r}"
                    )
        if "set" in self.axes:
            ranges = self.axes["set"]
            if not isinstance(ranges, Mapping) or not ranges:
                raise ConfigurationError(
                    "campaign 'set' axis must be a non-empty mapping of "
                    f"SECTION.KEY targets to value lists, got {ranges!r}"
                )
            for target, values in ranges.items():
                if "." not in target:
                    raise ConfigurationError(
                        f"campaign 'set' target must look like SECTION.KEY, got {target!r}"
                    )
                _require_list(f"set.{target}", values)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """The plain-dict (JSON-ready) form consumed by :meth:`from_dict`."""
        return {
            "name": self.name,
            "base": copy.deepcopy(self.base),
            "axes": copy.deepcopy(self.axes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign spec from :meth:`to_dict` output (or JSON)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"a campaign spec must be a mapping, got {data!r}")
        unknown = set(data) - {"name", "base", "axes"}
        if unknown:
            raise ConfigurationError(f"unknown campaign spec keys: {sorted(unknown)}")
        if "base" not in data:
            raise ConfigurationError("campaign spec is missing its 'base' scenario")
        # Pass values through raw: __post_init__ owns the type validation
        # (a dict() here would turn a non-mapping base into a raw
        # ValueError before the ConfigurationError guard could fire).
        return cls(
            name=str(data.get("name", "campaign")),
            base=data["base"],
            axes=data.get("axes", {}),
        )

    def campaign_id(self) -> str:
        """Stable identity of this campaign (schema-versioned spec hash)."""
        payload = json.dumps(
            {"campaign_schema": CAMPAIGN_SCHEMA_VERSION, "spec": self.to_dict()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def _axis_items(self) -> List[Tuple[str, List[Any]]]:
        """``(axis key, values)`` in canonical expansion order."""
        items: List[Tuple[str, List[Any]]] = []
        for axis in AXIS_KEYS:
            if axis not in self.axes:
                continue
            if axis == "set":
                for target in sorted(self.axes["set"]):
                    items.append((target, list(self.axes["set"][target])))
            else:
                items.append((axis, list(self.axes[axis])))
        return items

    def _apply(self, data: Dict[str, Any], axis: str, value: Any) -> Any:
        """Apply one axis value to a spec dict; returns the coordinate label."""
        if axis in _SECTION_AXES:
            data[axis] = copy.deepcopy(value)
            return _component_label(value)
        if axis == "schemes":
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"each 'schemes' axis entry must be a list of schemes, got {value!r}"
                )
            data["schemes"] = copy.deepcopy(list(value))
            return _scheme_set_label(value)
        if axis == "events":
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"each 'events' axis entry must be a list of events, got {value!r}"
                )
            data["events"] = copy.deepcopy(list(value))
            return _event_schedule_label(value)
        if axis == "seed":
            apply_spec_setting(data, "traffic.seed", value)
            return value
        # Remaining axes are SECTION.KEY parameter-range targets.
        apply_spec_setting(data, axis, copy.deepcopy(value))
        return value if isinstance(value, (int, float, bool, str)) else _compact(value)

    def grid_size(self) -> int:
        """Number of points :meth:`expand` will produce."""
        size = 1
        for _axis, values in self._axis_items():
            size *= len(values)
        return size

    def expand(self) -> List[CampaignPoint]:
        """The full grid: one validated :class:`CampaignPoint` per combination.

        Raises:
            ConfigurationError: If any expanded scenario is invalid, or two
                grid points collapse to the same config hash (the axes are
                redundant — resume bookkeeping would silently merge them).
        """
        axis_items = self._axis_items()
        names = [axis for axis, _values in axis_items]
        combos = itertools.product(*[values for _axis, values in axis_items])
        points: List[CampaignPoint] = []
        seen: Dict[str, str] = {}
        for index, combo in enumerate(combos):
            data = copy.deepcopy(self.base)
            coordinates: Dict[str, Any] = {}
            try:
                for axis, value in zip(names, combo, strict=True):
                    coordinates[axis] = self._apply(data, axis, value)
                point_name = self.name + "".join(
                    f"/{axis}={_compact(coordinates[axis])}" for axis in names
                )
                data["name"] = point_name
                spec = ScenarioSpec.from_dict(data).validate()
                if not spec.schemes:
                    raise ConfigurationError(
                        "the expanded scenario names no schemes; give the base "
                        "spec a 'schemes' list or add a 'schemes' axis"
                    )
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"campaign {self.name!r}, point {index} "
                    f"({coordinates or 'no axes'}): {error}"
                ) from error
            # Redundancy check on the name-independent *normalised* spec
            # (bare names and {"name", "params"} forms compare equal): the
            # point name encodes the coordinates, so config hashes always
            # differ, but two points whose scenarios are otherwise
            # identical mean one axis overwrites (or repeats) another —
            # the grid would silently double-run and miscount points.
            identity = json.dumps(
                {
                    key: value
                    for key, value in spec.to_dict().items()
                    if key != "name"
                },
                sort_keys=True,
            )
            if identity in seen:
                raise ConfigurationError(
                    f"campaign {self.name!r}: points {seen[identity]!r} and "
                    f"{point_name!r} expand to identical scenarios — the axes "
                    "are redundant (e.g. a repeated axis entry, or a 'seed' "
                    "axis plus a 'set' range over traffic.seed); remove one"
                )
            seen[identity] = point_name
            config_hash = spec.config_hash()
            points.append(
                CampaignPoint(
                    index=index,
                    name=point_name,
                    axes=coordinates,
                    spec=spec,
                    config_hash=config_hash,
                )
            )
        if not points:
            raise ConfigurationError(f"campaign {self.name!r} expands to no points")
        return points


__all__ = [
    "AXIS_KEYS",
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignPoint",
    "CampaignSpec",
]
