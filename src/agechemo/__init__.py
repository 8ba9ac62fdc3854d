"""Tracking control of age-structured chemostats: simulation and certification.

Two independent numerical routes solve the same closed loop: a spectral
modal simulator and an exact delay-model oracle.  A certificate module
computes the constants of the attractivity estimate and verifies the decay
inequalities along simulated traces.  The root exports one entry point per
layer; everything else is reached through its module.
"""

from .config import load_config
from .controller import ControllerGains
from .delay import simulate_closed_loop
from .galerkin import characteristic_roots, simulate
from .lyapunov import build_certificate
from .model import solve_equilibrium
from .scenario import run

__version__ = "0.1.0"
