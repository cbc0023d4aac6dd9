# lint-as: src/repro/routing/highs.py
"""REP503 fixture: the solver binding reaching HiGHS through scipy.optimize's
package, at module level or inside a function."""

from scipy.optimize._highspy import _core  # expect: REP503


def highs():
    import scipy.optimize._highspy._core as core  # expect: REP503

    return core._Highs() if core is _core else None
