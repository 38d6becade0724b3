"""drclqr: LQR gains, disturbance-response controllers, and certified bounds.

The package answers one question constructively: how well does the optimal
H-order disturbance-response controller (an input formed from the H most
recent disturbances) approximate optimal state feedback, as a function of H?
It synthesizes both controllers, evaluates their exact average costs, and
checks the measured gaps against closed-form exponential bounds built from
(tau, rho) stability certificates.

Module map:

    model         system/certificate types, validation, certificates
    riccati       DARE solver and the optimal gain
    lyapunov      infinite-horizon Gramian, discrete Sylvester solves
    drc           (M, J) assembly, optimal DRC, every order's gaps, induced
                  policies, residuals
    cost          analytic / Monte-Carlo / covariance cost evaluation
    bounds        every closed-form bound, the instability witness
    prestabilize  unstable plants via a pre-stabilizing gain
    cli           system files, the H-sweep experiment, the drclqr command
"""

from .bounds import (
    BoundInputs,
    cost_gap_bound,
    gain_gap_bound,
    gramian_power_bound,
    instability_witness,
    optimal_cost_gap_bound,
    schur_lambda_min,
    witness_plant,
)
from .cost import CostReport, cost_of_drc, cost_of_gain, drc_state_covariance, simulate
from .drc import (
    DRCPolicy,
    DRCSystemMatrices,
    assemble,
    induced_drc,
    optimal_drc,
    order_gaps,
    solve_drc,
    truncation_residual,
)
from .exceptions import (
    AsymmetricMatrix,
    DimensionMismatch,
    DrclqrError,
    InvalidHorizon,
    NoConvergence,
    NonFinite,
    NotPositiveDefinite,
    NotStabilizing,
    ParseError,
    SingularPencil,
    Unstable,
)
from .lyapunov import gramian, solve_dsylvester
from .model import (
    LQRSystem,
    StabilityCertificate,
    ValidationReport,
    estimate_certificate,
    joint_certificate,
    spectral_norm,
    spectral_radius,
    validate_system,
)
from .prestabilize import PrestabilizedSystem, default_prestabilizer, recover_gain, transform
from .riccati import RiccatiSolution, dare_residual, solve_dare
from .cli import SweepResult, load_system, run_sweep, save_system

__version__ = "0.1.0"

__all__ = [
    "AsymmetricMatrix",
    "BoundInputs",
    "CostReport",
    "DRCPolicy",
    "DRCSystemMatrices",
    "DimensionMismatch",
    "DrclqrError",
    "InvalidHorizon",
    "LQRSystem",
    "NoConvergence",
    "NonFinite",
    "NotPositiveDefinite",
    "NotStabilizing",
    "ParseError",
    "PrestabilizedSystem",
    "RiccatiSolution",
    "SingularPencil",
    "StabilityCertificate",
    "SweepResult",
    "Unstable",
    "ValidationReport",
    "assemble",
    "cost_gap_bound",
    "cost_of_drc",
    "cost_of_gain",
    "dare_residual",
    "default_prestabilizer",
    "drc_state_covariance",
    "estimate_certificate",
    "gain_gap_bound",
    "gramian",
    "gramian_power_bound",
    "induced_drc",
    "instability_witness",
    "joint_certificate",
    "load_system",
    "optimal_cost_gap_bound",
    "optimal_drc",
    "order_gaps",
    "recover_gain",
    "run_sweep",
    "save_system",
    "schur_lambda_min",
    "simulate",
    "solve_dare",
    "solve_drc",
    "solve_dsylvester",
    "spectral_norm",
    "spectral_radius",
    "transform",
    "truncation_residual",
    "validate_system",
    "witness_plant",
]
