"""A test-like module: outside the caller roots, so what it passes sets nothing."""

from pkg.options import seam, tested_only

assert tested_only(1, only_tests_pass=True) == (1, True)
assert seam(1, now=5.0) == (1, 5.0)
