"""Tests for the sweep runner: caching, parallel/serial equality, hashing."""

import logging
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    FIGURE_REGISTRY,
    Sweep,
    _cache_file,
    apply_spec_setting,
    execute_point_outcome,
    function_reference,
    grid,
    main,
    point,
    resolve_function,
    run_sweep,
)


# Module-level point functions: sweep points must be importable by workers.
def _square(value):
    return value * value


def _square_or_boom(value):
    if value < 0:
        raise ValueError(f"no negatives: {value}")
    return value * value


def _record_and_square(value, marker_dir):
    """Squares *value* and leaves a side-effect marker (to count executions)."""
    import os

    with open(os.path.join(marker_dir, f"ran-{value}"), "a") as handle:
        handle.write("x")
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
    first = point(_square, value=3)
    assert point(_square, value=3).config_hash() == first.config_hash()
    assert point(_square, value=4).config_hash() != first.config_hash()
    multi_a = point(_record_and_square, value=1, marker_dir="/tmp/x")
    multi_b = point(_record_and_square, marker_dir="/tmp/x", value=1)
    assert multi_a.config_hash() == multi_b.config_hash()


def test_config_hash_numpy_scalars_match_python_equivalents():
    import numpy as np

    numpy_point = point(
        _square,
        a=np.int64(3),
        b=np.float64(1.5),
        c=np.bool_(True),
        d=np.array([1.0, 2.0]),
    )
    python_point = point(_square, a=3, b=1.5, c=True, d=[1.0, 2.0])
    assert numpy_point.config_hash() == python_point.config_hash()
    assert point(_square, a=np.int32(3)).config_hash() == point(_square, a=3).config_hash()
    # 2-D arrays canonicalise like nested lists.
    assert (
        point(_square, m=np.arange(4.0).reshape(2, 2)).config_hash()
        == point(_square, m=[[0.0, 1.0], [2.0, 3.0]]).config_hash()
    )


def test_config_hash_nested_dataclasses_match_top_level():
    import dataclasses

    @dataclasses.dataclass
    class Inner:
        x: int

    @dataclasses.dataclass
    class Outer:
        inner: Inner
        y: int

    # The same Inner value must hash identically whether it appears at top
    # level or nested inside another dataclass (regression: asdict used to
    # flatten nested dataclasses into anonymous dicts).
    from repro.experiments.runner import _canonical_value

    direct = _canonical_value(Inner(x=1))
    nested = _canonical_value(Outer(inner=Inner(x=1), y=2))
    assert nested[1]["inner"] == direct
    # And a plain dict with the same shape is NOT confused with a dataclass.
    assert _canonical_value({"x": 1}) != direct


def test_config_hash_distinguishes_callable_and_object_params():
    # Callable-valued params hash by import reference, not by (empty) __dict__.
    with_square = point(_record_and_square, fn=_square)
    with_other = point(_record_and_square, fn=_record_and_square)
    assert with_square.config_hash() != with_other.config_hash()
    # Lambdas cannot be stably identified: fail loudly, never alias entries.
    with pytest.raises(ConfigurationError):
        point(_record_and_square, fn=lambda x: x).config_hash()
    # Plain objects hash by class + attributes, stable across instances.
    from repro.power import CiscoRouterPowerModel

    one = point(_square, model=CiscoRouterPowerModel()).config_hash()
    two = point(_square, model=CiscoRouterPowerModel()).config_hash()
    assert one == two

    # Objects whose repr embeds a memory address (no __dict__ to inspect)
    # cannot be keyed stably: reject instead of silently aliasing entries.
    class Slotted:
        __slots__ = ("value",)

        def __init__(self):
            self.value = 1

    with pytest.raises(ConfigurationError):
        point(_square, model=Slotted()).config_hash()


def test_grid_cartesian_product():
    points = grid(k=[4, 8], seed=[0, 1])
    assert points == [
        {"k": 4, "seed": 0},
        {"k": 4, "seed": 1},
        {"k": 8, "seed": 0},
        {"k": 8, "seed": 1},
    ]


# --------------------------------------------------------------------- #
# Execution: serial, parallel and cached
# --------------------------------------------------------------------- #
def test_run_sweep_serial_preserves_order():
    results = run_sweep(_square, [{"value": v} for v in (3, 1, 2)])
    assert results == [9, 1, 4]


def test_parallel_and_serial_results_are_equal():
    sweep = Sweep()
    for value in range(8):
        sweep.add(_square, label=str(value), value=value)
    serial = sweep.run(parallel=False)
    parallel = sweep.run(parallel=True)
    assert serial == parallel == [v * v for v in range(8)]


def test_cache_avoids_recomputation(tmp_path):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    cache_dir = tmp_path / "cache"
    sweep = Sweep(cache_dir=cache_dir)
    for value in (2, 5):
        sweep.add(_record_and_square, label=str(value), value=value, marker_dir=str(marker_dir))

    first = sweep.run()
    assert first == [4, 25]
    assert len(sweep.cached_points()) == 2
    assert sorted(p.name for p in marker_dir.iterdir()) == ["ran-2", "ran-5"]

    second = sweep.run()  # served from disk: no new side effects
    assert second == first
    assert all((marker_dir / name).read_text() == "x" for name in ("ran-2", "ran-5"))

    assert sweep.clear_cache() == 2
    assert sweep.cached_points() == []
    third = sweep.run()  # recomputes after the cache was cleared
    assert third == first
    assert (marker_dir / "ran-2").read_text() == "xx"


def test_parallel_run_writes_shared_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    sweep = Sweep(cache_dir=cache_dir, processes=2)
    for value in range(4):
        sweep.add(_square, label=str(value), value=value)
    assert sweep.run(parallel=True) == [0, 1, 4, 9]
    assert len(sweep.cached_points()) == 4
    # A fresh serial sweep over the same points reads the same entries.
    again = Sweep(sweep.points, cache_dir=cache_dir)
    assert again.run() == [0, 1, 4, 9]


def test_run_labelled_requires_unique_labels():
    sweep = Sweep().add(_square, label="dup", value=1).add(_square, label="dup", value=2)
    with pytest.raises(ConfigurationError):
        sweep.run_labelled()
    assert sweep.run() == [1, 4]


def test_corrupt_cache_entry_logs_and_recomputes(tmp_path, caplog):
    """A truncated/garbage per-point pickle must not sink the sweep."""
    sweep = Sweep(cache_dir=tmp_path).add(_square, label="4", value=4)
    assert sweep.run() == [16]

    cache_path = _cache_file(tmp_path, sweep.points[0])
    assert cache_path.exists()
    cache_path.write_bytes(b"this is not a pickle")
    with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
        assert sweep.run() == [16]  # recomputed, not crashed
    assert any("corrupt sweep cache entry" in record.message for record in caplog.records)
    with open(cache_path, "rb") as handle:  # the entry was rewritten intact
        assert pickle.load(handle) == 16

    # Truncated mid-write (e.g. a killed process): same recovery.
    cache_path.write_bytes(pickle.dumps(16)[:3])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
        assert sweep.run() == [16]
    assert any("recomputing" in record.message for record in caplog.records)


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


def test_fig4_cached_rerun_is_identical(tmp_path):
    from repro.experiments import run_fig4

    fresh = run_fig4(num_intervals=3, include_elastictree=False, cache_dir=tmp_path)
    cached = run_fig4(num_intervals=3, include_elastictree=False, cache_dir=tmp_path)
    assert cached.power_percent == fresh.power_percent
    assert list(tmp_path.glob("*.pkl"))  # per-point results landed on disk


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
