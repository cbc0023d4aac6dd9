"""The one solver binding: SciPy's vendored HiGHS, driven directly.

Every LP and MILP of the library — the flow LP of :mod:`repro.routing.mcf`,
the path MILP of :mod:`repro.optim.pathmilp`, the arc MILP of
:mod:`repro.optim.model` — is a :class:`HighsModel`, and no other module
interprets a HiGHS status.

The binding is loaded from its extension file, not imported through its
package: ``import scipy.optimize`` would first import every SciPy optimiser,
which takes longer than the rest of the library together.  The module is
registered in ``sys.modules`` under its own name, so a later ``import
scipy.optimize`` (the ``linprog`` and ``milp`` references of the tests)
reuses it rather than loading a second copy.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from types import ModuleType
from typing import Any, Optional, Tuple

import numpy as np
import scipy
from scipy import sparse

from ..exceptions import SolverError
from ..obs import metrics, trace

#: Private to SciPy: what SciPy's own LP and MILP front ends drive, and the
#: only HiGHS binding here that lets a model outlive one solve.
BINDING = "scipy.optimize._highspy._core"


def _load_binding() -> ModuleType:
    """The binding's module, as already imported or else loaded from the
    extension file beside ``scipy/__init__.py`` (SciPy >= 1.15's layout)."""
    if BINDING in sys.modules:
        return sys.modules[BINDING]
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix) for suffix in EXTENSION_SUFFIXES]
    found = [path for path in paths if os.path.exists(path)]
    if not found:
        raise ImportError(f"no {BINDING} extension in {folder}")
    loader = ExtensionFileLoader(BINDING, found[0])
    spec = importlib.util.spec_from_file_location(BINDING, found[0], loader=loader)
    if spec is None:
        raise ImportError(f"{found[0]} is not a loadable extension")
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[BINDING] = module
    return module


try:
    _core = _load_binding()
    HighsLp = _core.HighsLp
    HighsModelStatus = _core.HighsModelStatus
    HighsStatus = _core.HighsStatus
    HighsVarType = _core.HighsVarType
    MatrixFormat = _core.MatrixFormat
    _Highs = _core._Highs
    kHighsInf = _core.kHighsInf

    for _method in (
        "changeColsBounds",
        "changeRowBounds",
        "getDualRay",
        "getInfo",
        "getSolution",
    ):
        getattr(_Highs, _method)
except (ImportError, AttributeError) as error:
    raise ImportError(
        "repro.routing.highs drives HiGHS through scipy.optimize._highspy._core, verified on "
        f"SciPy 1.17.1 (HiGHS 1.12); SciPy {scipy.__version__} does not provide it: {error}"
    ) from error

_SIMPLEX_ITERATIONS = metrics.counter(
    "repro_mcf_simplex_iterations_total",
    "Simplex iterations of the MCF module's LP solves, by the basis the solve "
    "started from: none, or the previous solve's",
)
_ITERATIONS_BY_START = {
    start: _SIMPLEX_ITERATIONS.labels(start=start) for start in ("fresh", "warm")
}
_LP_MODELS = metrics.counter(
    "repro_mcf_models_total", "LP models the MCF module assembled and passed to HiGHS"
)
#: Each formulation counts its solves under its own ``kind``.
MILP_SOLVES = metrics.counter(
    "repro_milp_solves_total", "HiGHS MILP solves, by formulation (path or arc)"
)
_MILP_NODES = metrics.counter(
    "repro_milp_nodes_total", "Branch-and-bound nodes of the MILP solves, as HiGHS counts them"
)

Options = Tuple[Tuple[str, object], ...]

#: What SciPy's ``linprog(method="highs")`` sets before it solves; every
#: other HiGHS option keeps its default, here and in :func:`milp_options`.
#: Both tuples turn the console log off first: HiGHS writes to the
#: process's C-level stdout while it is on, a rejected option's message
#: included.
LINPROG_OPTIONS: Options = (
    ("log_to_console", False),
    ("presolve", "on"),
    ("simplex_strategy", 1),  # dual simplex
    ("highs_debug_level", 0),
    ("output_flag", False),
)

#: HiGHS's ``primal_feasibility_tolerance``, which no option set here
#: changes: a solution HiGHS calls optimal may miss a row or column bound by
#: this much, absolutely, in the units of the model it was given.
PRIMAL_FEASIBILITY_TOLERANCE = 1e-7

#: A MIP stopped by one of these returns its incumbent, if it has one.
_LIMITS = (
    HighsModelStatus.kTimeLimit,
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kSolutionLimit,
)


def milp_options(limit_s: float) -> Options:
    """What SciPy's ``milp`` sets for a relative gap of 0 and a wall-clock
    limit of *limit_s* seconds, with HiGHS's feasibility-jump heuristic off.

    A solve ends when its incumbent is within HiGHS's absolute gap
    (``mip_abs_gap``, 1e-6) of the dual bound.  The path MILP's objective is
    integral (:func:`repro.optim.pathmilp._tie_broken_cost`), so that is its
    one optimum.  Feasibility jump found incumbents the root node finds
    anyway, and took about 40 % of the path MILPs' solve time.
    """
    return (
        ("log_to_console", False),
        ("mip_rel_gap", 0.0),
        ("mip_heuristic_run_feasibility_jump", False),
        ("time_limit", float(limit_s)),
    )


class HighsModel:
    """``min cost @ x`` subject to ``row_lower <= A x <= row_upper``,
    ``col_lower <= x <= col_upper`` and ``x[integer]`` integral, held by one
    HiGHS instance.

    Rows, columns and options reach HiGHS as SciPy's front ends (the
    references in ``tests/test_mcf_session.py`` and
    ``tests/test_path_model.py``) hand them over, so the first :meth:`solve`
    returns that front end's answer bit for bit.  Unlike them, the model
    stays: :meth:`set_bounds` and :meth:`set_equality` change bounds in place
    and the next :meth:`solve` of an LP starts from the basis HiGHS kept.

    Every status the binding returns is looked at, a rejected option's
    included.  After a failure the instance is dropped and any further call
    raises.
    """

    def __init__(
        self,
        cost: np.ndarray,
        matrix: sparse.csc_array,
        row_lower: np.ndarray,
        row_upper: np.ndarray,
        col_lower: np.ndarray,
        col_upper: np.ndarray,
        options: Options,
        integer: Optional[np.ndarray] = None,
    ) -> None:
        lp = HighsLp()
        lp.num_row_, lp.num_col_ = matrix.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = matrix.shape
        lp.a_matrix_.format_ = MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = cost
        lp.col_lower_, lp.col_upper_ = col_lower, col_upper
        lp.row_lower_, lp.row_upper_ = row_lower, row_upper
        self._mip = integer is not None
        if integer is not None:
            kinds = (HighsVarType.kContinuous, HighsVarType.kInteger)
            lp.integrality_ = [kinds[flag] for flag in integer.tolist()]
        # The binding is untyped: instances and statuses are ``Any``.
        self._highs: Optional[Any] = _Highs()
        #: The basis the next LP solve starts from: none, or the last one's.
        self._start = "fresh"
        #: Simplex iterations of every LP solve so far.
        self.iterations = 0
        #: Of the last solution returned: whether HiGHS proved it optimal
        #: (else it is a MIP's incumbent at a limit), its objective value and
        #: a MIP's relative gap.
        self.optimal, self.objective, self.gap = False, float("inf"), 0.0
        for option, value in options:
            self._checked("setOptionValue", option, value)
        self._checked("passModel", lp)
        if not self._mip:
            _LP_MODELS.inc()

    def _live(self) -> Any:
        if self._highs is None:
            raise SolverError("HiGHS failed earlier; this model takes no further calls")
        return self._highs

    def _fail(self, reason: str) -> SolverError:
        self._highs = None
        return SolverError(f"solver failed: HiGHS {reason}")

    def _checked(self, method: str, *arguments: object) -> None:
        """Call a ``_Highs`` method that reports a ``HighsStatus``."""
        self._check(method, getattr(self._live(), method)(*arguments))

    def _check(self, method: str, status: Any) -> None:
        # kWarning is let through, as SciPy's front ends do (HiGHS warns,
        # for one, when it drops a matrix entry below its 1e-9 threshold).
        if status == HighsStatus.kError:
            raise self._fail(f"{method} returned {status.name}")

    def set_bounds(self, columns: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        """Give *columns* the bounds ``[lower, upper]``."""
        self._checked("changeColsBounds", len(columns), columns.astype(np.int32), lower, upper)

    def set_equality(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Give *rows* the bounds ``values <= A x <= values``."""
        for row, value in zip(rows.tolist(), values.tolist(), strict=True):
            self._checked("changeRowBounds", row, value, value)

    def dual_ray(self) -> Optional[np.ndarray]:
        """The Farkas certificate of the last solve, one multiplier per row,
        when it found the LP infeasible and HiGHS holds a ray (presolve, for
        one, may decide without); else ``None``."""
        status, exists, values = self._live().getDualRay()
        self._check("getDualRay", status)
        return np.array(values) if exists else None

    def solve(self) -> Optional[np.ndarray]:
        """The optimal ``x`` — or, for a MIP, the incumbent a time, iteration
        or solution limit stopped at (:attr:`optimal` tells which) — or
        ``None`` when the model is infeasible.

        Raises:
            SolverError: On any other outcome, naming HiGHS's model status.
        """
        # repro: allow[REP101] mip_solve_ms span attribute, never read by a result
        started = time.perf_counter()
        self._checked("run")
        # repro: allow[REP101] mip_solve_ms span attribute, never read by a result
        elapsed_ms = 1e3 * (time.perf_counter() - started)
        highs = self._live()
        info = highs.getInfo()
        if self._mip:
            _MILP_NODES.inc(info.mip_node_count)
            enclosing = trace.current_span()
            if enclosing is not None:
                attrs = enclosing.attrs
                enclosing.set(
                    mip_nodes=attrs.get("mip_nodes", 0) + int(info.mip_node_count),
                    mip_gap=max(attrs.get("mip_gap", 0.0), float(info.mip_gap)),
                    mip_solve_ms=attrs.get("mip_solve_ms", 0.0) + elapsed_ms,
                )
        else:
            iterations = int(info.simplex_iteration_count)
            self.iterations += iterations
            _ITERATIONS_BY_START[self._start].inc(iterations)
            self._start = "warm"
        status = highs.getModelStatus()
        if status == HighsModelStatus.kInfeasible:
            return None
        self.optimal = status == HighsModelStatus.kOptimal
        self.objective = float(info.objective_function_value)
        self.gap = float(info.mip_gap) if self._mip else 0.0
        if not self.optimal and not (
            self._mip and status in _LIMITS and self.objective != kHighsInf
        ):
            raise self._fail(f"stopped with model status {highs.modelStatusToString(status)!r}")
        return np.array(highs.getSolution().col_value)
