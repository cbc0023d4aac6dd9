"""Tests for ``experiments/runner.py``: the figure CLI and the point-probe shim.

The sweep runner this file was named after is retired (the name stays so the
test ids do); what is pinned here is what remains of it — the function
references, the error-isolating ``execute_point_outcome`` the benchmark
harness times, ``apply_spec_setting`` (now in ``repro.scenario``) and the
figure command line.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    FIGURE_REGISTRY,
    execute_point_outcome,
    function_reference,
    main,
    point,
    resolve_function,
)
from repro.scenario import PowerSpec, ScenarioSpec, TopologySpec, TrafficSpec, apply_spec_setting


# Module-level point functions: a point names its function by import reference.
def _square(value):
    return value * value


def _square_or_boom(value):
    if value < 0:
        raise ValueError(f"no negatives: {value}")
    return value * value


# --------------------------------------------------------------------- #
# Points, references and hashing
# --------------------------------------------------------------------- #
def test_function_reference_roundtrip():
    reference = function_reference(_square)
    assert reference.endswith(":_square")
    assert resolve_function(reference) is _square
    assert function_reference(reference) == reference
    with pytest.raises(ConfigurationError):
        function_reference(lambda x: x)
    with pytest.raises(ConfigurationError):
        function_reference("not-a-reference")


def test_config_hash_is_order_insensitive_and_param_sensitive():
    def spec(traffic):
        return ScenarioSpec(
            topology=TopologySpec("fattree", k=4),
            traffic=TrafficSpec("sinewave", params=traffic),
            power=PowerSpec("commodity"),
        )

    first = spec({"mode": "near", "seed": 4})
    assert spec({"seed": 4, "mode": "near"}).config_hash() == first.config_hash()
    assert spec({"mode": "near", "seed": 5}).config_hash() != first.config_hash()


# --------------------------------------------------------------------- #
# Error-isolating outcome backend
# --------------------------------------------------------------------- #
def test_execute_point_outcome_captures_error_and_timing():
    good = execute_point_outcome(point(_square_or_boom, value=3))
    assert good.ok and good.value == 9 and good.error is None
    assert good.elapsed_s >= 0.0
    bad = execute_point_outcome(point(_square_or_boom, value=-1))
    assert not bad.ok and bad.value is None
    assert "ValueError" in bad.error and "no negatives" in bad.error


def test_apply_spec_setting_targets_and_errors():
    data = {"topology": "geant", "schemes": ["response"]}
    apply_spec_setting(data, "scenario.name", "renamed")
    assert data["name"] == "renamed"
    apply_spec_setting(data, "topology.k", 4)
    assert data["topology"] == {"name": "geant", "params": {"k": 4}}
    apply_spec_setting(data, "response.num_paths", 3)
    assert data["schemes"][0] == {"name": "response", "params": {"num_paths": 3}}
    with pytest.raises(ConfigurationError):
        apply_spec_setting(data, "traffic.num_pairs", 4)  # no traffic section
    with pytest.raises(ConfigurationError):
        apply_spec_setting(data, "nonsense", 1)  # no SECTION.KEY shape
    with pytest.raises(ConfigurationError):
        apply_spec_setting(data, "events.0.time_s", 1.0)  # no events yet
    with pytest.raises(ConfigurationError):
        apply_spec_setting(data, "unknown-label.x", 1)


# --------------------------------------------------------------------- #
# Figure-level integration and CLI
# --------------------------------------------------------------------- #
def test_registry_covers_all_figure_drivers():
    from repro import experiments

    for name, reference in FIGURE_REGISTRY.items():
        assert resolve_function(reference) is getattr(
            experiments, reference.rpartition(":")[2]
        ), name


def test_cli_list_and_unknown(capsys):
    assert main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert "fig4" in listed and "fig9" in listed
    with pytest.raises(SystemExit):
        main(["definitely-not-an-experiment"])


def test_cli_deduplicates_repeated_names(capsys):
    assert main(["fig7", "fig7"]) == 0
    out = capsys.readouterr().out
    assert out.count("fig7:") == 1


def test_cli_retired_sweep_flags_are_unknown(capsys):
    """The fan-out and pickle-cache flags went with the sweep runner."""
    for command in ([], ["run-scenario", "--topology", "geant"]):
        for flag in (["--parallel"], ["--processes", "2"], ["--cache-dir", "x"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + flag)
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
