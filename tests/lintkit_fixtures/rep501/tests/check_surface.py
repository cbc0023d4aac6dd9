"""A test-like module: outside the caller roots, so it keeps nothing alive."""

from pkg.surface import reference_oracle, tested_only, uncalled

assert tested_only() == 3 and uncalled() == 1 and reference_oracle() == 8
