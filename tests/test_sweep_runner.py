"""Tests for ``experiments/runner.py``: the figure CLI and the point hook.

The sweep runner this file was named after is retired (the name stays so the
test ids do); what is pinned here is what remains of it — the
error-isolating ``execute_point_outcome`` the benchmark harness times,
``apply_spec_setting`` (now in ``repro.scenario``) and the figure command
line.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import execute_point_outcome, main
from repro.scenario import (
    PowerSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    TrafficSpec,
    apply_spec_setting,
)


# --------------------------------------------------------------------- #
# Hashing
# --------------------------------------------------------------------- #
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
    spec = ScenarioSpec(
        name="tiny-fattree",
        topology=TopologySpec("fattree", k=4),
        traffic=TrafficSpec("sinewave", mode="near", num_intervals=2, seed=4),
        power=PowerSpec("commodity", ports_at_peak=4),
        schemes=(SchemeSpec("ecmp"),),
    )
    assert spec.sweep_point() is spec
    value, error, elapsed_s = execute_point_outcome(spec)
    assert error is None and value.name == "tiny-fattree"
    assert len(value.columns["power_percent"]["ecmp"]) == 2
    assert elapsed_s >= 0.0
    bad = execute_point_outcome(spec.with_schemes())
    assert bad.value is None and bad.elapsed_s >= 0.0
    assert "Traceback" in bad.error
    assert "ConfigurationError" in bad.error and "names no schemes" in bad.error


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
def test_registry_covers_all_figure_drivers(capsys):
    """Every figure ``--list`` prints is a module exporting ``run_<name>``."""
    import importlib

    from repro import experiments

    assert main(["--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == sorted(experiments._EXPORTS) and len(listed) == 14
    for name in listed:
        module = importlib.import_module(f"repro.experiments.{name}")
        assert getattr(experiments, f"run_{name}") is getattr(module, f"run_{name}"), name


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
