"""REP501 fixture, linted with ``lintkit_fixtures/rep501`` as the repo root:
``src/``, ``benchmarks/`` and ``examples/`` there are caller roots, ``tests/`` is not."""

from repro.scenario.registry import register


# Flagged.
def uncalled():  # expect: REP501
    return 1


def reexported_only():  # expect: REP501
    return 2


def recursive(depth):  # expect: REP501
    return depth and recursive(depth - 1)


def tested_only():  # expect: REP501
    return 3


class Widget:
    def used(self):
        return _private_helper()

    def unused(self):  # expect: REP501
        return self.used()

    def __len__(self):
        return 0


# Clean.
def _private_helper():
    return 4


def reexported_and_called():
    return 5


def called_from_bench():
    return Widget()


@register("scheme", "rep501-fixture")
def registered_component():
    return 6


@register("scheme", "rep501-fixture-class")
class RegisteredRuntime:
    def solve(self):
        return 7


# repro: allow[REP501] the oracle tests/check_surface.py compares against
def reference_oracle():  # expect-suppressed: REP501
    return 8


# Stale allow: the name has a caller, so the comment suppresses nothing.
# repro: allow[REP501] nothing calls this  # expect: REP000
def called_after_all():
    return called_from_bench()


called_after_all()
