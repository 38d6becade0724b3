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

Every public name resolves on first use: ``drclqr.solve_dare`` (or
``from drclqr import solve_dare``) imports :mod:`drclqr.riccati` then, and
not before, so a command imports only the modules it runs.  The lookup is
made anew on every access and returns the home module's current binding,
so a name patched in its home module is seen patched here too.
"""

import importlib

# Each public name and the module it resolves from: the module that
# defines it, except spectral_radius, which model re-exports from lyapunov.
_HOME = {
    "AsymmetricMatrix": "exceptions",
    "BoundInputs": "bounds",
    "CostReport": "cost",
    "DRCPolicy": "drc",
    "DRCSystemMatrices": "drc",
    "DimensionMismatch": "exceptions",
    "DrclqrError": "exceptions",
    "InvalidHorizon": "exceptions",
    "LQRSystem": "model",
    "NoConvergence": "exceptions",
    "NonFinite": "exceptions",
    "NotPositiveDefinite": "exceptions",
    "NotStabilizing": "exceptions",
    "ParseError": "exceptions",
    "PrestabilizedSystem": "prestabilize",
    "RiccatiSolution": "riccati",
    "SingularPencil": "exceptions",
    "StabilityCertificate": "model",
    "SweepResult": "cli",
    "Unstable": "exceptions",
    "ValidationReport": "model",
    "assemble": "drc",
    "cost_gap_bound": "bounds",
    "cost_of_drc": "cost",
    "cost_of_gain": "cost",
    "dare_residual": "riccati",
    "default_prestabilizer": "prestabilize",
    "drc_state_covariance": "cost",
    "estimate_certificate": "model",
    "gain_gap_bound": "bounds",
    "gramian": "lyapunov",
    "gramian_power_bound": "bounds",
    "induced_drc": "drc",
    "instability_witness": "bounds",
    "joint_certificate": "model",
    "load_system": "cli",
    "optimal_cost_gap_bound": "bounds",
    "optimal_drc": "drc",
    "order_gaps": "drc",
    "recover_gain": "prestabilize",
    "run_sweep": "cli",
    "save_system": "cli",
    "schur_lambda_min": "bounds",
    "simulate": "cost",
    "solve_dare": "riccati",
    "solve_drc": "drc",
    "solve_dsylvester": "lyapunov",
    "spectral_norm": "model",
    "spectral_radius": "model",
    "transform": "prestabilize",
    "truncation_residual": "drc",
    "validate_system": "model",
    "witness_plant": "bounds",
}
_MODULES = frozenset(_HOME.values())

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the submodule ``name``, or the home module of a public name, on first use (PEP 562).

    A public name is looked up in its home module on every access and never
    stored here, so it always reads the home module's current binding.
    """
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MODULES | set(__all__))
