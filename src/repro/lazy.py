"""Package re-exports imported on first use (PEP 562).

A package whose ``__init__`` imports the names it re-exports makes every
import of any of its submodules pay for all of them: ``import
repro.campaign.store`` would load the scenario stack behind the campaign
runner.  :func:`lazy_exports` builds the package's module ``__getattr__``
instead, so a re-exported name is imported from its submodule when it is
first asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]) -> Callable[[str], Any]:
    """The ``__getattr__`` of *package* that imports each name of
    ``exports[submodule]`` from ``package.submodule`` on first access."""
    owners: Dict[str, str] = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)  # the next access skips this hook
        return value

    return __getattr__
