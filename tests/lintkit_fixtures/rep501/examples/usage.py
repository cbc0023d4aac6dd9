"""Documented usage: a caller root."""

from pkg import reexported_and_called

print(reexported_and_called())
