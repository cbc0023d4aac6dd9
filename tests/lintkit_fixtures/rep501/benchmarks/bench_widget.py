"""A bench: a caller root (attribute references count)."""

import pkg.surface

print(pkg.surface.called_from_bench().used())
