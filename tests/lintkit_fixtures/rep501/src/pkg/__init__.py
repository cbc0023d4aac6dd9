"""Re-export hub: neither the imports nor the ``__all__`` strings are callers."""

from .surface import reexported_and_called, reexported_only

__all__ = ["reexported_and_called", "reexported_only"]
