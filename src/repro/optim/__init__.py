"""Energy-aware routing optimisation: exact MILPs, heuristics and baselines."""

from .elastictree import elastictree_subset
from .greedy import greedy_minimum_subset
from .greente import greente_heuristic
from .lp_relax import lp_relaxation_with_rounding
from .model import solve_arc_milp
from .pathmilp import solve_path_milp
from .solution import EnergyAwareSolution, element_power_coefficients

__all__ = [
    "elastictree_subset",
    "greedy_minimum_subset",
    "greente_heuristic",
    "lp_relaxation_with_rounding",
    "solve_arc_milp",
    "solve_path_milp",
    "EnergyAwareSolution",
    "element_power_coefficients",
]
