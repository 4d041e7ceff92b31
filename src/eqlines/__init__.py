"""Exact equiangular line systems from sign matrices, with automorphism
group analysis over GF(p^2) and the Gaussian integers/rationals."""

from .exactalg import Ring, RingSpec
from .hadamard import SignMatrix, check_modular_hadamard, from_recipe
from .sic import SicSystem, construct_sic, verify_sic
from .analysis import sandwich_report, sic_aut_parts, hadamard_aut

__version__ = "0.1.0"

__all__ = [
    "Ring", "RingSpec",
    "SignMatrix", "check_modular_hadamard", "from_recipe",
    "SicSystem", "construct_sic", "verify_sic",
    "sandwich_report", "sic_aut_parts", "hadamard_aut",
    "__version__",
]
