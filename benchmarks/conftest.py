"""Benchmark-suite configuration.

Every benchmark regenerates one table/figure of the paper's evaluation via
the drivers in :mod:`repro.experiments`, records the headline numbers in
``extra_info`` (so they appear in the benchmark JSON/summary), and asserts
the qualitative claim of the corresponding figure.

The benchmarks are expensive end-to-end reproductions, not micro-benchmarks:
each one runs a single round (``run_once`` fixture).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
