"""The layout of a scenario result: pinned, checked on load, declared once.

Three dumps of the shipped ``examples/scenario_geant_failure.json`` — it
has events, reaction records, schemes that track utilisation (``response``,
``ecmp``) and one that does not (``greente``) — are hashed as sorted-key
JSON: the canonical result dict, the headline metrics and the replay
stream's ``interval`` records.  Wall-clock values are dropped first; every
other key, value and nesting is part of the pin.

Every column comes from :class:`repro.outcome.IntervalOutcome`'s fields, so
a malformed column is refused by name on load, and a field added to the
declaration shows up in every view of the result without touching any
other module.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro import outcome
from repro.campaign import CampaignSpec, CampaignStore, run_campaign
from repro.campaign.report import campaign_report
from repro.campaign.store import canonical_result_dict
from repro.exceptions import ConfigurationError
from repro.outcome import IntervalOutcome, MalformedResultError, Reducer, ScenarioResult, declare
from repro.scenario import registry, run_scenario
from repro.scenario.schemes import ECMPRuntime
from repro.service import handlers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYOUT_DIGESTS = {
    "result": "272b55327ef2799ae22b6a4dec9ae38085259643e3fa90cafe70b2fa6dd35dab",
    "headline": "5462dd4d69040c7d1af2a9edfea38d7e8b69354aa5a868f29da2e388c4d020b7",
    "stream": "659d52ec61a59534bba87cf7dbe837befa28295f5d6ab397e67a0aa92616384f",
}

#: The headline metrics that are wall-clock measurements.
WALL_CLOCK_METRICS = ("mean_compute_s", "total_compute_s")


@pytest.fixture(scope="module")
def failure_spec():
    with open(
        os.path.join(REPO_ROOT, "examples", "scenario_geant_failure.json"), encoding="utf-8"
    ) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def dumps(failure_spec):
    result = run_scenario(failure_spec)
    headline = {
        label: {k: v for k, v in entry.items() if k not in WALL_CLOCK_METRICS}
        for label, entry in result.headline_metrics().items()
    }
    emitted = []
    handlers.replay_stream({"spec": failure_spec}, emitted.append)
    stream = [
        dict(
            record,
            schemes={
                label: {k: v for k, v in payload.items() if k != "compute_seconds"}
                for label, payload in record["schemes"].items()
            },
        )
        for record in emitted
        if record["type"] == "interval"
    ]
    return {
        "result": canonical_result_dict(result.to_dict()),
        "headline": headline,
        "stream": stream,
    }


@pytest.mark.parametrize("dump", sorted(LAYOUT_DIGESTS))
def test_result_layout_is_pinned(dumps, dump):
    encoded = json.dumps(dumps[dump], sort_keys=True)
    assert hashlib.sha256(encoded.encode()).hexdigest() == LAYOUT_DIGESTS[dump]


def test_the_pinned_spec_covers_every_column_shape(dumps):
    """The pins are only as good as the spec: it must exercise events,
    reaction records, and schemes with and without a utilisation series."""
    result = dumps["result"]
    assert result["events"]
    assert set(result["reaction"]) == {"response", "greente", "ecmp"}
    assert set(result["max_utilisation"]) == set(result["violations"]) == {"response", "ecmp"}
    assert "peak_utilisation" not in dumps["headline"]["greente"]
    assert len(dumps["stream"]) == len(result["times_s"])



def test_every_headline_metric_has_a_declared_direction(dumps):
    """``response`` tracks every column and reacted to every event, so it
    carries every headline metric there is — each with a direction."""
    directions = outcome.metric_directions()
    emitted = {metric for entry in dumps["headline"].values() for metric in entry}
    assert emitted | set(WALL_CLOCK_METRICS) == set(directions)
    assert directions["mean_savings_percent"] is False
    assert directions["reaction_events"] is True


# --------------------------------------------------------------------- #
# Loading: every column is checked against its declaration
# --------------------------------------------------------------------- #
def stored_row(**columns):
    row = {
        "name": "legacy",
        "config_hash": "f00d" * 16,
        "times_s": [0.0, 900.0],
        "power_percent": {"a": [40.0, 50.0]},
    }
    row.update(columns)
    return row


@pytest.mark.parametrize(
    "key, value",
    [
        ("violations", {"a": "false"}),  # a string is not a list of bools
        ("violations", {"a": [1, 0]}),  # neither are 0/1
        ("recomputations", {"a": 1.7}),  # a count is an integer
        ("recomputations", {"a": None}),
        ("recomputations", {"a": -1}),
        ("power_percent", {"a": [40.0, 50.0, 60.0]}),  # longer than times_s
        ("max_utilisation", {"a": [0.5]}),  # shorter
        ("power_percent", [1, 2]),  # not keyed by scheme
        ("compute_seconds", {"a": [0.1, True]}),
        ("times_s", "0, 900"),
        ("events", [1]),
        ("reaction", {"a": "x"}),
        ("reaction", [1]),
        ("spec", 5),
    ],
)
def test_a_malformed_column_is_refused_by_name(key, value):
    with pytest.raises(MalformedResultError, match=repr(key)) as raised:
        ScenarioResult.from_dict(stored_row(**{key: value}))
    assert isinstance(raised.value, ConfigurationError)


def test_well_formed_columns_load_as_their_declared_types():
    result = ScenarioResult.from_dict(
        stored_row(
            power_percent={"a": [40, 50.5]},
            recomputations={"a": 1},
            violations={"a": [False, True]},
        )
    )
    assert result.columns["power_percent"] == {"a": [40.0, 50.5]}
    assert all(type(value) is float for value in result.columns["power_percent"]["a"])
    assert result.headline_metrics()["a"]["violation_intervals"] == 1.0
    assert result.columns["max_utilisation"] == {}


# --------------------------------------------------------------------- #
# Adding a per-interval quantity is a one-module change
# --------------------------------------------------------------------- #
@dataclass
class DeliveringOutcome(IntervalOutcome):
    """The declaration with one more quantity, as a new field would add it."""

    delivered_percent: Optional[float] = field(
        default=None,
        metadata=declare(
            "delivered_percent",
            float,
            Reducer("min_delivered_percent", min, lower_is_better=False),
            tracked=True,
        ),
    )


class DeliveringECMP(ECMPRuntime):
    def step(self, state, time_s, matrix, view):
        base = super().step(state, time_s, matrix, view)
        return DeliveringOutcome(**vars(base), delivered_percent=100.0 - time_s / 1e4)


def test_a_field_added_to_the_declaration_reaches_every_view(tmp_path, monkeypatch):
    monkeypatch.setattr(outcome, "COLUMNS", outcome.columns_of(DeliveringOutcome))
    monkeypatch.setitem(registry._REGISTRY, ("scheme", "_test-delivering"), DeliveringECMP)
    label = "_test-delivering"
    spec = {
        "name": "delivering",
        "topology": {"name": "fattree", "params": {"k": 4}},
        "traffic": {"name": "sinewave", "params": {"mode": "near", "num_intervals": 2}},
        "power": {"name": "commodity", "params": {"ports_at_peak": 4}},
        "schemes": [label],
    }

    result = run_scenario(spec)
    data = result.to_dict()
    series = data["delivered_percent"][label]
    assert len(series) == 2 and series[0] == 100.0 > series[1]
    assert ScenarioResult.from_dict(json.loads(json.dumps(data))).to_dict() == data
    assert result.headline_metrics()[label]["min_delivered_percent"] == series[1]

    campaign = CampaignSpec.from_dict({"name": "delivering", "base": spec, "axes": {"seed": [0]}})
    store_path = tmp_path / "store.sqlite"
    summary = run_campaign(campaign, store_path=store_path)
    with CampaignStore(store_path, read_only=True) as store:
        (row,) = store.metric_rows(summary.campaign_id)
        assert row["min_delivered_percent"] == series[1]
        report = campaign_report(store, summary.campaign_id, "min_delivered_percent", ["scheme"], {})
    assert report["dominance"]["lower_is_better"] is False

    emitted = []
    handlers.replay_stream({"spec": spec}, emitted.append)
    streamed = [record for record in emitted if record["type"] == "interval"]
    assert [record["schemes"][label]["delivered_percent"] for record in streamed] == series
