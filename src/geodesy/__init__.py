"""Structure-preserving spectral-element time integrators.

The package builds ordinary-differential-equation integrators from a small
discrete-calculus toolkit on the reference interval: nodal and edge bases on
Gauss-Lobatto nodes, cochains with an incidence-matrix coboundary, and two
discrete Hodge pairings. A collocation pairing yields a symplectic integrator
equivalent to Gauss collocation; a Galerkin pairing yields an integrator that
conserves energy exactly up to quadrature. Classical one-step methods and a
set of benchmark problems are included for comparison, driven by the
``geodesy`` command-line tool.
"""

__version__ = "0.1.0"

from .basis import (
    NodalBasis,
    QuadratureRule,
    edge_eval_all,
    gauss_rule,
    gll_rule,
    legendre_eval,
    nodal_deriv_all,
    nodal_eval_all,
)
from .errors import (
    DomainError,
    EvaluationError,
    GeodesyError,
    IntegrationError,
    NewtonNonConvergence,
    SingularJacobianError,
)
from .integrators import (
    ElementSolution,
    Method,
    Trajectory,
    default_qrhs,
    explicit_euler_step,
    integrate,
    mci_residual,
    mci_step,
    mgi_residual,
    mgi_step,
    rk4_step,
    sample_trajectory,
    symplectic_euler_step,
)
from .mimetic import (
    Cochain,
    CochainKind,
    ElementGrid,
    canonical_hodge_1to0,
    coboundary,
    dual_mass_matrix,
    galerkin_mass_dual,
    galerkin_pairing,
    incidence_matrix,
    reconstruct0,
    reconstruct1,
    reduce0,
    reduce1,
)
from .newton import NewtonConfig, NewtonResult, newton_solve
from .problems import (
    ProblemSpec,
    get_problem,
    make_circle,
    make_harmonic_oscillator,
    make_kepler,
    make_lotka_volterra,
    make_pendulum,
    problem_names,
)
from .systems import OdeSystem, SeparablePartition, hamiltonian_vector_field, pointwise
from .tableau import ButcherTableau, butcher_tableau_mci, gauss_collocation_tableau

__all__ = [
    "ButcherTableau",
    "Cochain",
    "CochainKind",
    "DomainError",
    "ElementGrid",
    "ElementSolution",
    "EvaluationError",
    "GeodesyError",
    "IntegrationError",
    "Method",
    "NewtonConfig",
    "NewtonNonConvergence",
    "NewtonResult",
    "NodalBasis",
    "OdeSystem",
    "ProblemSpec",
    "QuadratureRule",
    "SeparablePartition",
    "SingularJacobianError",
    "Trajectory",
    "butcher_tableau_mci",
    "canonical_hodge_1to0",
    "coboundary",
    "default_qrhs",
    "dual_mass_matrix",
    "edge_eval_all",
    "explicit_euler_step",
    "galerkin_mass_dual",
    "galerkin_pairing",
    "gauss_collocation_tableau",
    "gauss_rule",
    "get_problem",
    "gll_rule",
    "hamiltonian_vector_field",
    "incidence_matrix",
    "integrate",
    "legendre_eval",
    "make_circle",
    "make_harmonic_oscillator",
    "make_kepler",
    "make_lotka_volterra",
    "make_pendulum",
    "mci_residual",
    "mci_step",
    "mgi_residual",
    "mgi_step",
    "newton_solve",
    "pointwise",
    "nodal_deriv_all",
    "nodal_eval_all",
    "problem_names",
    "reconstruct0",
    "reconstruct1",
    "reduce0",
    "reduce1",
    "rk4_step",
    "sample_trajectory",
    "symplectic_euler_step",
    "__version__",
]
