"""Tracking control of age-structured chemostats: simulation and certification.

Two independent numerical routes solve the same closed loop: a spectral
modal simulator and an exact delay-model oracle.  A certificate module
computes the constants of the attractivity estimate and verifies the decay
inequalities along simulated traces.
"""

from .config import ScenarioConfig, load_config
from .controller import ControllerGains
from .delay import (
    DelayState,
    OracleTrace,
    init_delay_state,
    pi_functional,
    pi_weight,
    simulate_closed_loop,
)
from .galerkin import (
    GalerkinBasis,
    GalerkinSystem,
    GalerkinTrace,
    assemble,
    build_basis,
    characteristic_roots,
    simulate,
)
from .grid import GridFunction
from .lyapunov import (
    Certificate,
    b3_search,
    build_certificate,
    observer_quadratic,
    rate_constants,
    saturation_fact_check,
    sigma_search,
    verify_decay,
)
from .model import (
    Equilibrium,
    ModelParams,
    calibrate_birth_modulus,
    check_initial_condition,
    lotka_sharpe_residual,
    solve_equilibrium,
)
from .scenario import RunReport, compare_routes, run
from .trajectories import (
    Trajectory,
    ValidityReport,
    make_constant,
    make_periodic,
    make_ramp,
    make_transition,
    reference_profile,
    validate,
)

__version__ = "0.1.0"
