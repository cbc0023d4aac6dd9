"""Tests for the declarative Scenario API (registry, specs, engine, CLI)."""

import dataclasses
import inspect
import json
import os
import re

import pytest

from repro.campaign import canonical_result_dict
from repro.core.response import ResponseConfig
from repro.exceptions import ConfigurationError, InfeasibleError, SolverError, TrafficError
from repro.experiments.runner import main
from repro.obs import trace
from repro.optim.greente import greente_heuristic
from repro.scenario import (
    PowerSpec,
    RoutingSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    component_names,
    register,
    registered_components,
    resolve,
    run_scenario,
)
from repro.routing.ospf import ospf_delays
from repro.scenario import schemes
from repro.scenario.engine import scheme_outcomes

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
DOCS_DIR = os.path.join(os.path.dirname(__file__), "..", "docs")


def tiny_fattree_spec(**overrides):
    """A fast fat-tree scenario used across the engine tests."""
    settings = dict(
        name="tiny-fattree",
        topology=TopologySpec("fattree", k=4),
        traffic=TrafficSpec("sinewave", mode="near", num_intervals=2, seed=4),
        power=PowerSpec("commodity", ports_at_peak=4),
        schemes=(SchemeSpec("response", num_paths=3, k=4), SchemeSpec("ecmp")),
    )
    settings.update(overrides)
    return ScenarioSpec(**settings)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #


def test_registry_contains_the_paper_cross_product():
    components = registered_components()
    assert {"fattree", "geant", "genuity", "abovenet", "pop-access"} <= set(
        components["topology"]
    )
    assert {"sinewave", "gravity", "geant-trace", "google-trace"} <= set(
        components["traffic"]
    )
    assert {"cisco", "commodity", "alternative"} <= set(components["power"])
    assert {
        "ecmp",
        "greente",
        "elastictree",
        "lp-relax",
        "pathmilp",
        "response",
        "response-lat",
        "response-ospf",
        "response-heuristic",
    } <= set(components["scheme"])


def test_unknown_component_error_lists_registered_names():
    with pytest.raises(ConfigurationError) as excinfo:
        resolve("topology", "nope")
    message = str(excinfo.value)
    assert "nope" in message
    assert "fattree" in message and "geant" in message  # the fix is in the message


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="unknown component kind"):
        resolve("solver", "greente")
    with pytest.raises(ConfigurationError, match="unknown component kind"):
        register("solver", "x")


def test_register_decorator_and_duplicate_rejection():
    @register("scheme", "_test-flat")
    def _flat(scenario):  # pragma: no cover - never executed
        raise AssertionError

    assert resolve("scheme", "_test-flat") is _flat
    assert "_test-flat" in component_names("scheme")
    with pytest.raises(ConfigurationError, match="already registered"):
        register("scheme", "_test-flat")(lambda scenario: None)


# --------------------------------------------------------------------- #
# Specs: round-trip, hashing, validation
# --------------------------------------------------------------------- #


def test_spec_round_trip_preserves_equality_and_hash():
    spec = tiny_fattree_spec()
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.config_hash() == spec.config_hash()
    via_json = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert via_json == spec
    assert via_json.config_hash() == spec.config_hash()


def test_spec_hash_changes_with_parameters():
    spec = tiny_fattree_spec()
    other = tiny_fattree_spec(
        traffic=TrafficSpec("sinewave", mode="far", num_intervals=2, seed=4)
    )
    assert spec.config_hash() != other.config_hash()


@pytest.mark.parametrize(
    "example, expected",
    [
        (
            "scenario_geant_gravity.json",
            "39f30d5b67779daff326b8b80d77dc40b8fb8b8ac6dff016fdb9ae4e7a94b83a",
        ),
        (
            "scenario_geant_failure.json",
            "82681561181b364995bc70f5b189ebdd83f2209179891b7fdd3c36c94ca8cb0d",
        ),
    ],
)
def test_example_config_hashes_are_pinned(example, expected):
    """Literal hashes: a config hash is a key in stores that already exist."""
    with open(os.path.join(EXAMPLES_DIR, example), encoding="utf-8") as handle:
        assert ScenarioSpec.from_dict(json.load(handle)).config_hash() == expected


def test_spec_tuples_normalise_to_lists():
    spec = TrafficSpec("gravity", levels=(0.1, 0.5), pairs=(("FR", "DE"),))
    assert spec.params["levels"] == [0.1, 0.5]
    assert spec.params["pairs"] == [["FR", "DE"]]
    rebuilt = TrafficSpec.from_dict(spec.to_dict())
    assert rebuilt == spec


def test_spec_rejects_non_json_params():
    import numpy as np

    # NumPy scalars, callables and objects never reach the config hash.
    for value in (object(), np.int64(4), len, PowerSpec("cisco")):
        with pytest.raises(ConfigurationError, match="JSON-serialisable"):
            TopologySpec("fattree", k=value)


def test_spec_from_dict_accepts_bare_names_and_rejects_unknown_keys():
    spec = ScenarioSpec.from_dict(
        {
            "topology": "geant",
            "traffic": {"name": "gravity", "params": {"num_pairs": 4, "num_endpoints": 3}},
            "power": "cisco",
            "schemes": ["ospf"],
        }
    )
    assert spec.topology.name == "geant"
    assert spec.schemes[0].label == "ospf"
    with pytest.raises(ConfigurationError, match="missing sections"):
        ScenarioSpec.from_dict({"topology": "geant"})
    with pytest.raises(ConfigurationError, match="unknown scenario spec keys"):
        ScenarioSpec.from_dict(
            {"topology": "geant", "traffic": "gravity", "power": "cisco", "oops": 1}
        )


#: Malformed shapes of an otherwise valid spec document, and the key each
#: complaint must name (all were uncaught TypeError / ValueError once).
MALFORMED_SPEC_SHAPES = [
    ({"topology": {"name": "geant", "params": [1, 2]}}, "topology spec 'params'"),
    ({"traffic": {"name": "gravity", "params": "x"}}, "traffic spec 'params'"),
    ({"utilisation_threshold": "abc"}, "'utilisation_threshold'"),
    ({"utilisation_threshold": None}, "'utilisation_threshold'"),
    ({"schemes": None}, "'schemes'"),
    ({"schemes": 5}, "'schemes'"),
    ({"events": 5}, "'events'"),
    ({"events": "link-failure"}, "'events'"),
    ({"schemes": [{"name": "ospf", "label": [1]}]}, "scheme spec 'label'"),
]


@pytest.mark.parametrize("shape, complaint", MALFORMED_SPEC_SHAPES)
def test_spec_from_dict_names_the_malformed_key(shape, complaint):
    document = {"topology": "geant", "traffic": "gravity", "power": "cisco", "schemes": ["ospf"]}
    with pytest.raises(ConfigurationError, match=complaint):
        ScenarioSpec.from_dict({**document, **shape})


def test_greente_rejects_a_bad_ordering_at_construction():
    """``ordering`` is a constant of the runtime now: an unknown parameter."""
    unknown = r"unknown greente scheme parameters \['ordering'\]"
    with pytest.raises(ConfigurationError, match=unknown):
        resolve("scheme", "greente")(ordering="bogus")
    with pytest.raises(ConfigurationError, match=unknown):
        run_scenario(tiny_fattree_spec(schemes=(SchemeSpec("greente", ordering="bogus"),)))


#: Scheme parameters outside their range and what the complaint must name.
#: ``k`` of 0 or 2.5 was an unmapped ``ValueError`` (a 500 over HTTP), a
#: negative ``time_limit_s`` an ``OptimizeWarning`` and an *unlimited* solve,
#: ``utilisation_limit`` 0 accepted; ``greedy`` with a ``latency_beta``
#: silently dropped constraint (4).  REsPoNse once took its own
#: ``utilisation_threshold`` (activating at one SLO while the timeline judged
#: violations by the spec's) and a ``use_peak_matrix`` that only re-decided
#: what ``on_demand_method`` decides; both are unknown parameters now, and
#: so are ``time_limit_s`` (one constant per MILP) and ``always_on_method``
#: (the always-on paths are the path MILP's), which rows 6–9, 16, 20 and 21
#: once range-checked: their complaint is the parameter in the unknown list.
OUT_OF_RANGE_SCHEME_PARAMS = [
    ("response", {"k": 0}, "k must be a positive integer"),
    ("greente", {"k": 2.5}, "k must be a positive integer"),
    ("pathmilp", {"k": True}, "k must be a positive integer"),
    ("optimal", {"k": -1}, "k must be a positive integer"),
    ("lp-relax", {"k": "x"}, "k must be a positive integer"),
    ("always-on", {"k": 0}, "k must be a positive integer"),
    ("response", {"time_limit_s": -1}, r"time_limit_s'\]; supported"),
    ("response", {"time_limit_s": "a"}, r"time_limit_s'\]; supported"),
    ("pathmilp", {"time_limit_s": 0}, r"time_limit_s'\]; supported"),
    ("optimal", {"time_limit_s": False}, r"time_limit_s'\]; supported"),
    ("response", {"utilisation_limit": 0}, "utilisation_limit must be"),
    ("response-ospf", {"utilisation_limit": -1}, "utilisation_limit must be"),
    ("greedy", {"utilisation_limit": 1.5}, "utilisation_limit must be"),
    ("elastictree", {"utilisation_limit": "1"}, "utilisation_limit must be"),
    ("lp-relax", {"utilisation_limit": 0.0}, "utilisation_limit must be"),
    ("response", {"on_demand_method": "magic"}, "unknown on-demand method 'magic'"),
    (
        "response",
        {"always_on_method": "annealing"},
        r"unknown response scheme parameters \['always_on_method'\]",
    ),
    ("response", {"latency_beta": -0.5}, "latency_beta must be non-negative"),
    ("response", {"stress_exclude_fraction": 2.0}, "stress_exclude_fraction must be"),
    ("response", {"num_paths": 1}, "at least 2 paths"),
    (
        "response-lat",
        {"always_on_method": "greedy"},
        r"unknown response scheme parameters \['always_on_method'\]",
    ),
    (
        "always-on",
        {"always_on_method": "greedy", "latency_beta": 0.25},
        r"unknown always-on scheme parameters \['always_on_method'\]",
    ),
    ("response", {"utilisation_threshold": 0.5}, "unknown response scheme parameters"),
    ("response-heuristic", {"use_peak_matrix": False}, "unknown response scheme parameters"),
]


@pytest.mark.parametrize("name, params, complaint", OUT_OF_RANGE_SCHEME_PARAMS)
def test_scheme_parameters_are_range_checked_at_construction(name, params, complaint):
    with pytest.raises(ConfigurationError, match=complaint):
        resolve("scheme", name)(**params)
    with pytest.raises(ConfigurationError, match=complaint):
        run_scenario(tiny_fattree_spec(schemes=(SchemeSpec(name, **params),)))


def _gravity(total_traffic_bps):
    params = {"num_pairs": 6, "num_endpoints": 5, "total_traffic_bps": total_traffic_bps}
    return {"traffic": {"name": "gravity", "params": params}}


def _uniform(flow_bps):
    params = {"num_pairs": 6, "num_endpoints": 5, "flow_bps": flow_bps}
    return {"traffic": {"name": "uniform", "params": params}}


#: Traffic volumes that are not finite or negative, as spec overrides, and
#: the exception and complaint of each.  The NaNs ran (``nan < 0`` is false:
#: a 200 over HTTP with ECMP at 46.9 % power); ``inf`` reached HiGHS
#: (``passModel`` refused it: a 500), and the negatives were a
#: ``TrafficError`` the service did not map (a 500 too).
NON_FINITE_OR_NEGATIVE_VOLUMES = [
    (_gravity(float("nan")), TrafficError, "traffic must be finite and non-negative, got nan"),
    (_uniform(float("nan")), TrafficError, "demand must be finite and non-negative, got nan"),
    (
        {"events": [{"name": "traffic-surge", "params": {"start_s": 0, "factor": float("nan")}}]},
        ConfigurationError,
        "surge factor must be finite and non-negative, got nan",
    ),
    (_gravity(float("inf")), TrafficError, "traffic must be finite and non-negative, got inf"),
    (_gravity(-1.0), TrafficError, "traffic must be finite and non-negative, got -1.0"),
    (_uniform(-1.0), TrafficError, "demand must be finite and non-negative, got -1.0"),
]


def volume_spec(overrides):
    """A GÉANT scenario (uniform traffic, ECMP) with *overrides* applied."""
    document = {
        "name": "volumes",
        "topology": "geant",
        "power": "cisco",
        "schemes": ["ecmp"],
        **_uniform(1e8),
    }
    return {**document, **overrides}


@pytest.mark.parametrize("overrides, error, complaint", NON_FINITE_OR_NEGATIVE_VOLUMES)
def test_non_finite_or_negative_volumes_are_rejected(overrides, error, complaint):
    with pytest.raises(error, match=complaint):
        run_scenario(volume_spec(overrides))


def test_run_scenario_cli_reports_a_bad_scheme_parameter_as_usage(tmp_path, capsys):
    spec = tiny_fattree_spec(schemes=(SchemeSpec("greente", k=2.5),))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    with pytest.raises(SystemExit) as exit_info:
        main(["run-scenario", "--spec", str(path)])
    assert exit_info.value.code == 2
    assert "k must be a positive integer, got 2.5" in capsys.readouterr().err


#: Scheme parameters no runtime takes — a typo, and each option that became a
#: constant — as ``(scheme, parameter)``; the complaint must name the parameter.
UNKNOWN_SCHEME_PARAMS = [
    ("greedy", "bogus"),
    ("greente", "ordering"),
    ("pathmilp", "time_limit_s"),
    ("optimal", "time_limit_s"),
    ("response", "time_limit_s"),
    ("response", "always_on_method"),
    ("response", "include_failover"),
    ("always-on", "always_on_method"),
]


#: What ``response*`` stands for in the documentation's parameter table.
RESPONSE_SCHEMES = ("response", "response-lat", "response-ospf", "response-heuristic")


def documented_scheme_parameters():
    """``scheme -> parameters`` as the "Scheme parameters and their ranges"
    table of ``docs/scenarios.md`` lists them."""
    with open(os.path.join(DOCS_DIR, "scenarios.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("### Scheme parameters and their ranges\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.MULTILINE)[0]
    listed = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue  # prose, the header and its rule
        parameter, schemes_cell = [cell.strip() for cell in line.strip("|").split("|")][:2]
        for scheme in re.findall(r"`([^`]+)`", schemes_cell):
            for name in RESPONSE_SCHEMES if scheme == "response*" else (scheme,):
                listed.setdefault(name, set()).add(parameter.strip("`"))
    return listed


def test_the_docs_parameter_table_lists_what_each_scheme_accepts():
    listed = documented_scheme_parameters()
    registered = [name for name in component_names("scheme") if not name.startswith("_")]
    assert set(listed) <= set(registered)
    for name in registered:  # names starting with "_" are registered by tests
        runtime = resolve("scheme", name)
        if issubclass(runtime, schemes.ResponseRuntime):
            accepted = {field.name for field in dataclasses.fields(ResponseConfig)}
        elif runtime.__init__ is object.__init__:
            accepted = set()
        else:
            accepted = set(inspect.signature(runtime.__init__).parameters) - {"self"}
        assert listed.get(name, set()) == accepted, name


@pytest.mark.parametrize("scheme, parameter", UNKNOWN_SCHEME_PARAMS)
def test_run_scenario_cli_reports_an_unknown_scheme_parameter_as_usage(scheme, parameter, capsys):
    """``--set greedy.bogus=1`` was a ``TypeError`` traceback out of the
    runtime's constructor."""
    stack = ["--topology", "geant", "--traffic", "gravity", "--power", "cisco"]
    with pytest.raises(SystemExit) as exit_info:
        main(["run-scenario", *stack, "--scheme", scheme, "--set", f"{scheme}.{parameter}=1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"unknown {scheme} scheme parameters ['{parameter}']; supported: " in err
    assert "Traceback" not in err


def test_response_lat_honours_the_latency_bound_pair_by_pair():
    """Constraint (4) under the default (MILP) method, where it is enforced."""
    built = build_scenario(
        ScenarioSpec(
            name="lat",
            topology=TopologySpec("geant"),
            traffic=TrafficSpec("gravity", num_pairs=20, num_endpoints=6, seed=2),
            power=PowerSpec("cisco"),
            schemes=(SchemeSpec("response-lat"), SchemeSpec("response")),
        )
    )
    outcomes = scheme_outcomes(built)
    bounded = outcomes["response-lat"]["plan"].always_on.routing
    free = outcomes["response"]["plan"].always_on.routing
    delays = ospf_delays(built.topology, pairs=built.pairs)
    for pair in built.pairs:
        assert bounded.path(*pair).latency(built.topology) <= 1.25 * delays[pair] + 1e-12
    # The bound binds: without it some always-on path is longer than allowed.
    assert any(
        free.path(*pair).latency(built.topology) > 1.25 * delays[pair] + 1e-12
        for pair in built.pairs
    )


def test_duplicate_scheme_labels_rejected():
    with pytest.raises(ConfigurationError, match="labels are not unique"):
        tiny_fattree_spec(schemes=(SchemeSpec("ospf"), SchemeSpec("ospf")))
    # Distinct labels make the same scheme usable twice.
    spec = tiny_fattree_spec(
        schemes=(
            SchemeSpec("response", label="resp-k3", k=3),
            SchemeSpec("response", label="resp-k4", k=4),
        )
    )
    assert [scheme.label for scheme in spec.schemes] == ["resp-k3", "resp-k4"]
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_validate_names_the_unknown_component():
    spec = tiny_fattree_spec(power=PowerSpec("fusion"))
    with pytest.raises(ConfigurationError, match="unknown power component 'fusion'"):
        spec.validate()


# --------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------- #


def test_build_scenario_constructs_the_stack():
    built = build_scenario(tiny_fattree_spec())
    assert built.topology.name == "fattree-k4"
    assert len(built.trace) == 2
    assert built.pairs and all(len(pair) == 2 for pair in built.pairs)
    assert built.baseline_power_w > 0


def test_run_scenario_returns_uniform_result():
    spec = tiny_fattree_spec()
    result = run_scenario(spec)
    assert result.name == "tiny-fattree"
    assert result.config_hash == spec.config_hash()
    assert set(result.columns["power_percent"]) == {"response", "ecmp"}
    assert len(result.columns["power_percent"]["response"]) == len(result.times_s) == 2
    assert result.columns["recomputations"]["response"] == 0
    assert 0 < result.mean_power_percent("response") < 100
    headline = result.headline_metrics()
    assert headline["response"]["mean_savings_percent"] > headline["ecmp"]["mean_savings_percent"]
    # to_dict round-trips through JSON (the CLI --json output).
    assert json.loads(json.dumps(result.to_dict()))["name"] == "tiny-fattree"


def test_run_scenario_requires_schemes():
    with pytest.raises(ConfigurationError, match="names no schemes"):
        run_scenario(tiny_fattree_spec(schemes=()))


def test_a_scenario_without_schemes_is_rejected_by_every_entry():
    """The driver's one "names no schemes" check covers every way in."""
    from repro.scenario.engine import run_built_scenario

    built = build_scenario(tiny_fattree_spec(schemes=()))
    for run in (run_built_scenario, scheme_outcomes):
        with pytest.raises(ConfigurationError, match="names no schemes"):
            run(built)


@pytest.mark.parametrize(
    "example", ["scenario_geant_failure.json", "scenario_geant_gravity.json"]
)
def test_every_run_entry_gives_the_same_result(example):
    """Solo, hooked, grouped and the harness's point hook are one driver."""
    from repro.experiments.runner import execute_point_outcome
    from repro.scenario.engine import build_scenario_group, run_built_scenario

    with open(os.path.join(EXAMPLES_DIR, example), encoding="utf-8") as handle:
        spec = ScenarioSpec.from_dict(json.load(handle))
    expected = canonical_result_dict(run_scenario(spec).to_dict())
    streamed = []
    results = [
        run_built_scenario(build_scenario(spec)),
        run_built_scenario(
            build_scenario(spec),
            on_interval=lambda step, outcomes: streamed.append(step.index),
        ),
        run_built_scenario(build_scenario_group([spec])[0]),
        execute_point_outcome(spec.sweep_point()).value,
    ]
    for result in results:
        assert canonical_result_dict(result.to_dict()) == expected
    assert streamed == list(range(len(expected["times_s"])))


@pytest.mark.parametrize(
    ("topology", "traffic"),
    [
        ("geant", {"name": "gravity", "params": {"num_pairs": 6, "num_endpoints": 5}}),
        ("geant", {"name": "uniform", "params": {"num_pairs": 6, "flow_bps": 1e8,
                                                 "pair_method": "random"}}),
        ({"name": "fattree", "params": {"k": 4}},
         {"name": "sinewave", "params": {"mode": "far", "num_intervals": 2}}),
        ({"name": "rocketfuel", "params": {"name": "rf", "num_pops": 8, "num_links": 12}},
         {"name": "gravity", "params": {"num_pairs": 4, "pair_method": "random"}}),
        ({"name": "random", "params": {"num_nodes": 8, "num_links": 12}},
         {"name": "gravity", "params": {"num_pairs": 4, "num_endpoints": 4}}),
    ],
)
def test_a_spec_that_names_no_seed_means_seed_zero(topology, traffic):
    """One ``config_hash``, one result: an omitted seed used to reach
    ``default_rng(None)``, so three runs of one hash gave three powers (and a
    store served whichever came first)."""

    def spec(**seeds):
        document = {
            "name": "seedless",
            "topology": topology,
            "traffic": {"name": traffic["name"], "params": {**traffic["params"], **seeds}},
            "power": "cisco" if topology != "fattree" else "commodity",
            "schemes": ["ecmp", "ospf"],
        }
        return ScenarioSpec.from_dict(document)

    runs = [canonical_result_dict(run_scenario(spec()).to_dict()) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    seeded = canonical_result_dict(run_scenario(spec(seed=0)).to_dict())
    for result in (seeded, runs[0]):
        # Naming the seed changes what the spec says, nothing it computes.
        del result["config_hash"], result["spec"]
    assert seeded == runs[0]
    assert spec().config_hash() != spec(seed=0).config_hash()


def test_never_expressed_cross_product_geant_gravity_response_vs_elastictree():
    """The acceptance scenario: GEANT x gravity x cisco, REsPoNse vs ElasticTree.

    Runs end-to-end from a single JSON spec, and the JSON round trip is the
    same experiment: same config hash, same series.
    """
    spec = ScenarioSpec(
        name="geant-gravity",
        topology=TopologySpec("geant"),
        traffic=TrafficSpec(
            "gravity", num_pairs=12, num_endpoints=6, seed=1, calibrate=True,
            levels=[0.25, 1.0],
        ),
        power=PowerSpec("cisco"),
        schemes=(SchemeSpec("response", num_paths=3, k=3), SchemeSpec("elastictree")),
    )
    first = run_scenario(ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))))
    assert set(first.columns["power_percent"]) == {"response", "elastictree"}
    assert all(0 < value <= 100 for value in first.columns["power_percent"]["response"])
    second = run_scenario(spec)
    assert second.config_hash == first.config_hash == spec.config_hash()
    assert second.columns["power_percent"] == first.columns["power_percent"]


def test_matrix_traffic_and_routing_sections():
    spec = ScenarioSpec(
        name="explicit",
        topology=TopologySpec("example"),
        traffic=TrafficSpec(
            "matrix", demands=[["A", "K", 2e6], ["C", "K", 1e6]], interval_s=60.0
        ),
        power=PowerSpec("cisco"),
        routing=RoutingSpec("ospf-invcap"),
        schemes=(SchemeSpec("ospf"),),
    )
    built = build_scenario(spec)
    assert built.pairs == [("A", "K"), ("C", "K")]
    assert built.trace[0].demand("A", "K") == 2e6
    assert built.routing is not None
    assert built.routing.get("A", "K") is not None
    result = run_scenario(spec)
    assert result.columns["power_percent"]["ospf"] == [100.0]


#: Explicit matrices the topology cannot take, and what the complaint must
#: name.  An unknown endpoint was a 500 under ``response`` / ``greente``
#: (networkx's ``NodeNotFound`` out of the candidate paths), a 200 at 100 %
#: power under ``ospf`` and a late ``PathNotFoundError`` under ``ecmp``; a
#: short or non-numeric row was a bare ``ValueError``; a bool or a numeric
#: string was read as a volume, and a negative row hid behind a later one.
BAD_EXPLICIT_MATRICES = [
    ([["DE", "XX", 1e8]], "'XX' is not a topology node"),
    ([["XX", "DE", 1e8]], "'XX' is not a topology node"),
    ([["DE", "FR"]], r"a matrix row is \[origin, dest, bps\]"),
    ([["DE", "FR", 1e8, 1]], r"a matrix row is \[origin, dest, bps\]"),
    (["DE"], r"a matrix row is \[origin, dest, bps\]"),
    ([["DE", "FR", "lots"]], "bps must be a finite non-negative number"),
    ([["DE", "FR", "1e8"]], "bps must be a finite non-negative number"),
    ([["DE", "FR", True]], "bps must be a finite non-negative number"),
    ([["DE", "FR", -1e8], ["DE", "FR", 2e8]], "bps must be a finite non-negative number"),
]


def explicit_matrix_spec(demands, scheme="ospf"):
    return {
        "name": "explicit",
        "topology": "geant",
        "traffic": {"name": "matrix", "params": {"demands": demands}},
        "power": "cisco",
        "schemes": [scheme],
    }


@pytest.mark.parametrize("demands, complaint", BAD_EXPLICIT_MATRICES)
@pytest.mark.parametrize("scheme", ["ospf", "response"])
def test_a_bad_explicit_matrix_is_a_traffic_error(scheme, demands, complaint):
    with pytest.raises(TrafficError, match=complaint):
        run_scenario(explicit_matrix_spec(demands, scheme))


# --------------------------------------------------------------------- #
# The optimal lower bound's heuristic fallback
# --------------------------------------------------------------------- #


def _optimal_with_failing_milp(monkeypatch, error):
    def failing_milp(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(schemes, "solve_path_milp", failing_milp)
    return run_scenario(tiny_fattree_spec(schemes=(SchemeSpec("optimal"),)))


@pytest.mark.parametrize("error", [SolverError("no incumbent"), InfeasibleError("x")])
def test_optimal_falls_back_to_greente_on_solver_failures(monkeypatch, tmp_path, read_trace, error):
    built = build_scenario(tiny_fattree_spec())
    heuristic = [
        100.0
        * greente_heuristic(
            built.topology, built.power_model, matrix, k=3, allow_overload=True, ordering="demand"
        ).power_w
        / built.baseline_power_w
        for matrix in built.trace.matrices()
    ]
    trace.configure_tracing(tmp_path / "trace.ndjson")
    try:
        result = _optimal_with_failing_milp(monkeypatch, error)
    finally:
        trace.disable_tracing()
    power = result.columns["power_percent"]
    assert power["optimal"] == heuristic
    solves = [r for r in read_trace(tmp_path / "trace.ndjson") if r["name"] == "scheme.solve"]
    assert solves and all(r["attrs"]["fallback"] is True for r in solves)


def test_optimal_does_not_hide_a_bug_behind_the_heuristic(monkeypatch):
    with pytest.raises(TypeError, match="a bug"):
        _optimal_with_failing_milp(monkeypatch, TypeError("a bug"))


# --------------------------------------------------------------------- #
# GreenTE candidate caching (one code path)
# --------------------------------------------------------------------- #


def test_cached_candidates_reset_on_new_topology():
    from repro.routing.ksp import CandidatePaths, clear_network_table
    from repro.simulator.failures import TopologyView
    from repro.topology.fattree import build_fattree, hosts

    clear_network_table()
    first_topology = build_fattree(4)
    host_names = hosts(first_topology)
    pairs = [(host_names[0], host_names[4])]
    first = CandidatePaths.shared(first_topology)
    assert CandidatePaths.shared(first_topology) is first
    assert first.for_pairs(pairs, 2) == first.for_pairs(pairs, 2)
    assert first.paths_enumerated == 2
    # An equal network, even a new topology object, resumes the same provider.
    assert CandidatePaths.shared(build_fattree(4)) is first
    # A degraded view or a mutated topology is another network: its own provider.
    degraded = TopologyView(first_topology, failed_links=[first_topology.link_keys()[0]])
    second = CandidatePaths.shared(degraded.topology)
    assert second is not first and second.paths_enumerated == 0
    mutated = build_fattree(4)
    mutated.add_link(host_names[0], host_names[4], capacity_bps=1e9)
    third = CandidatePaths.shared(mutated)
    assert third is not first and third is not second and third.paths_enumerated == 0


# --------------------------------------------------------------------- #
# CLI subcommands
# --------------------------------------------------------------------- #


def test_cli_list_components(capsys):
    assert main(["list-components"]) == 0
    output = capsys.readouterr().out
    for kind in ("topology:", "traffic:", "power:", "routing:", "scheme:", "event:"):
        assert kind in output
    assert "fattree" in output and "response" in output
    # Event kinds are enumerated so campaign event-schedule axes are
    # discoverable alongside the other component kinds.
    assert "link-failure" in output and "traffic-surge" in output


def test_cli_list_components_json(capsys):
    import json as json_module

    assert main(["list-components", "--json"]) == 0
    listing = json_module.loads(capsys.readouterr().out)
    assert set(listing) == {"topology", "traffic", "power", "routing", "scheme", "event"}
    assert "link-failure" in listing["event"]
    assert "response" in listing["scheme"]
    assert main(["list-components", "--json", "--kind", "event"]) == 0
    only_events = json_module.loads(capsys.readouterr().out)
    assert set(only_events) == {"event"}


def test_scenario_result_from_dict_tolerates_pre_events_rows():
    """Rows stored before the events axis existed must still load."""
    from repro.scenario import ScenarioResult

    legacy = {
        "name": "legacy",
        "config_hash": "f00d" * 16,
        "times_s": [0.0, 900.0],
        "power_percent": {"response": [40.0, 50.0]},
        "recomputations": {"response": 1},
        "max_utilisation": {"response": [0.4, 0.5]},
        # No spec/events/compute_seconds/violations/reaction fields.
    }
    result = ScenarioResult.from_dict(legacy)
    assert result.mean_power_percent("response") == 45.0
    assert result.events == []
    assert result.columns["compute_seconds"] == {}
    assert result.columns["violations"] == {}
    assert result.reaction == {}
    assert result.spec == {}
    # headline_metrics still works without the newer series.
    metrics = result.headline_metrics()["response"]
    assert metrics["recomputations"] == 1.0
    assert metrics["peak_utilisation"] == 0.5
    assert "mean_compute_s" not in metrics


def test_example_scenario_does_not_follow_the_hash_seed(run_under_hash_seeds):
    """Same JSON under two hash seeds, wall-clock step costs aside (tied
    powers: ``test_tied_link_powers_do_not_follow_the_hash_seed``)."""
    spec_path = os.path.join(EXAMPLES_DIR, "scenario_geant_failure.json")
    first, second = (
        canonical_result_dict(json.loads(output))
        for output in run_under_hash_seeds(
            ["-m", "repro.experiments", "run-scenario", "--spec", spec_path, "--json"]
        )
    )
    assert first == second
    assert "compute_seconds" not in first and first["power_percent"]


def test_cli_run_scenario_from_json_spec(tmp_path, capsys):
    spec = tiny_fattree_spec(schemes=(SchemeSpec("ospf"),))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))

    assert main(["run-scenario", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert f"config hash: {spec.config_hash()}\n" in out
    assert "ospf: mean power 100.0%" in out


@pytest.mark.parametrize("command", ("run-scenario", "run-campaign"))
@pytest.mark.parametrize(
    "content, complaint",
    [
        (None, "cannot read spec file"),
        ('{"topology": ', "is not valid JSON"),
        ('["geant"]', "must hold a JSON object, got list"),
    ],
)
def test_cli_spec_file_errors_are_one_usage_line(tmp_path, capsys, command, content, complaint):
    """A missing, malformed or non-object ``--spec`` file is a usage error
    naming the file (exit 2), never a traceback."""
    spec_path = tmp_path / "broken.json"
    if content is not None:
        spec_path.write_text(content)
    arguments = [command, "--spec", str(spec_path)]
    if command == "run-campaign":
        arguments += ["--store", str(tmp_path / "store.sqlite")]
    with pytest.raises(SystemExit) as exit_info:
        main(arguments)
    assert exit_info.value.code == 2
    error_line = capsys.readouterr().err.strip().splitlines()[-1]
    assert complaint in error_line and str(spec_path) in error_line
    assert not (tmp_path / "store.sqlite").exists()


def test_cli_run_scenario_from_flags_and_set_overrides(capsys):
    assert (
        main(
            [
                "run-scenario",
                "--topology",
                "fattree",
                "--traffic",
                "sinewave",
                "--power",
                "commodity",
                "--scheme",
                "ecmp",
                "--set",
                "topology.k=4",
                "--set",
                "traffic.num_intervals=2",
                "--set",
                "traffic.mode=near",
                "--set",
                "scenario.name=from-flags",
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "from-flags"
    assert payload["spec"]["topology"]["params"]["k"] == 4
    assert len(payload["power_percent"]["ecmp"]) == 2


def test_cli_set_on_null_params_and_label(tmp_path, capsys):
    """A ``null`` params or label reads as absent, as ``from_dict`` reads it."""
    spec = tiny_fattree_spec().to_dict()
    spec["topology"]["params"] = None
    spec["schemes"] = [{"name": "response", "label": None, "params": None}]
    spec_path = tmp_path / "nulls.json"
    spec_path.write_text(json.dumps(spec))
    arguments = ["run-scenario", "--spec", str(spec_path), "--set", "topology.k=4"]
    assert main([*arguments, "--set", "response.k=4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["topology"] == {"name": "fattree", "params": {"k": 4}}
    assert payload["spec"]["schemes"] == [{"name": "response", "params": {"k": 4}}]
    # Params that are not a mapping are a usage error, not a traceback.
    spec["topology"]["params"] = [4]
    spec_path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exit_info:
        main(arguments)
    assert exit_info.value.code == 2
    assert "--set topology.k=4: setting 'topology.k'" in capsys.readouterr().err


def test_cli_run_scenario_rejects_unknown_component(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "run-scenario",
                "--topology",
                "moebius",
                "--traffic",
                "sinewave",
                "--power",
                "commodity",
                "--scheme",
                "ecmp",
            ]
        )
    assert "registered topology components" in capsys.readouterr().err


def test_cli_run_scenario_requires_sections(capsys):
    with pytest.raises(SystemExit):
        main(["run-scenario", "--topology", "geant"])
    assert "missing" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Ported drivers: bit-identical to the pre-redesign construction
# --------------------------------------------------------------------- #


def test_fig4_is_bit_identical_to_pre_redesign_pipeline():
    """The ported Figure 4 driver reproduces the hand-wired stack exactly.

    This replays the pre-redesign fig4 computation — direct constructor
    calls, no Scenario API — and requires float-for-float equality with
    ``run_fig4``, which now builds everything through ``run_scenario``.
    """
    from repro.core.planner import activate_paths
    from repro.core.response import build_response_plan
    from repro.experiments.fig4 import run_fig4
    from repro.optim.elastictree import elastictree_subset
    from repro.power.accounting import full_power, network_power
    from repro.power.commodity import CommoditySwitchPowerModel
    from repro.routing.ecmp import ecmp_active_elements
    from repro.topology.fattree import build_fattree
    from repro.traffic.sinewave import fattree_sine_pairs, sine_wave_trace

    k, num_intervals, threshold, seed = 4, 4, 0.9, 4
    expected = {}

    topology = build_fattree(k)
    power_model = CommoditySwitchPowerModel(ports_at_peak=k)
    baseline = full_power(topology, power_model).total_w
    for mode in ("near", "far"):
        trace = sine_wave_trace(
            topology, mode=mode, num_intervals=num_intervals, seed=seed
        )
        pairs = fattree_sine_pairs(topology, mode, seed=seed)
        plan = build_response_plan(
            topology,
            power_model,
            pairs=pairs,
            config=ResponseConfig(num_paths=3, k=4),
        )
        response, elastictree = [], []
        for matrix in trace.matrices():
            activation = activate_paths(
                topology, power_model, plan, matrix, utilisation_threshold=threshold
            )
            response.append(activation.power_percent)
            subset = elastictree_subset(topology, power_model, matrix)
            elastictree.append(100.0 * subset.power_w / baseline)
        expected[f"response_{mode}"] = response
        expected[f"elastictree_{mode}"] = elastictree
    far_trace = sine_wave_trace(
        topology, mode="far", num_intervals=num_intervals, seed=seed
    )
    ecmp = []
    for matrix in far_trace.matrices():
        nodes, links = ecmp_active_elements(topology, matrix)
        ecmp_power = network_power(topology, power_model, nodes, links).total_w
        ecmp.append(100.0 * ecmp_power / baseline)
    expected["ecmp"] = ecmp

    result = run_fig4(
        k=k,
        num_intervals=num_intervals,
        utilisation_threshold=threshold,
        include_elastictree=True,
        seed=seed,
    )
    assert set(result.power_percent) == set(expected)
    for key, series in expected.items():
        assert result.power_percent[key] == series  # exact, not approx
