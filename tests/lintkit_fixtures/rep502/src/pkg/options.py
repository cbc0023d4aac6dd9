"""REP502 fixture, linted with ``lintkit_fixtures/rep502`` as the repo root:
calls under ``src/`` and ``benchmarks/`` there set options, ``tests/`` does not."""

from http.server import BaseHTTPRequestHandler

from repro.scenario.registry import register


# Flagged.
def keyword_only(
    value,
    *,
    passed=1,
    never_passed=None,  # expect: REP502
):
    return value, passed, never_passed


def positional_default(
    first,
    reached=2,
    not_reached=3,  # expect: REP502
):
    return first + reached + not_reached


def tested_only(
    value,
    only_tests_pass=False,  # expect: REP502
):
    return value, only_tests_pass


class Widget:
    def __init__(
        self,
        size,
        colour="red",  # expect: REP502
    ):
        self.size, self.colour = size, colour

    def render(
        self,
        depth=0,  # expect: REP502
    ):
        return self.size * depth


class Gadget(Widget):
    def render(self, depth=0):  # overrides Widget.render: the base owns the signature
        return -depth

    def polish(
        self,
        cloth="silk",  # expect: REP502
    ):
        return cloth


# Clean.
def by_position(first, second=0, third=0):
    return first + second + third


def through_kwargs(value, option=None, other=None):
    return value, option, other


def _private(value, unused=None):
    return value, unused


class Handler(BaseHTTPRequestHandler):
    def send_error(self, code, message=None, explain=None):  # overrides a library base
        return code, message, explain


@register("scheme", "rep502-decorated")
def decorated_component(k=4, seed=0):
    return k, seed


def call_form_component(k=4, seed=0):
    return k, seed


register("topology", "rep502-call-form")(call_form_component)


def seam(
    value,
    # repro: allow[REP502] the fake clock tests/check_options.py injects
    now=None,  # expect-suppressed: REP502
):
    return value, now


# Stale allow: a bench passes the flag, so the comment suppresses nothing.
def passed_after_all(
    value,
    # repro: allow[REP502] nothing passes this  # expect: REP000
    flag=False,
):
    return value, flag
