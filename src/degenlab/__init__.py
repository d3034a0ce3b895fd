"""degenlab: a numerical laboratory for elliptic operators whose coefficient
degenerates or blows up on a characteristic hyperplane, regularized by a
two-parameter weight family, with quotient (boundary-comparison) transforms,
sharp trace/Hardy constants, certified scalar minimization, and
eps-stability harnesses."""

__version__ = "0.1.0"

from .weights import (
    CharacteristicSolution,
    DivergentIntegralError,
    QuadratureError,
    SingularWeightError,
    WeightFamily,
    chi,
    gamma_ratio,
    omega,
    psi,
    rho,
    v_char,
    v_char_grad_x,
    xi,
)
from .potentials import (
    gamma_small,
    gamma_v_bound,
    phi_big,
    phi_limit_infinity,
    phi_limit_zero,
    potentials,
    v_limit,
    v_limit_deriv,
    w_deep,
)
from .certify import (
    CertificationReport,
    certify_infimum,
    v_minimum,
    verify_gamma_rectangle,
    verify_phi_bound,
    verify_v_inequality,
)
from .geometry import (
    AmbiguousProjectionError,
    ChartError,
    EmbeddedCurve,
    HalfGrid,
    build_half_grid,
    fermi_mu,
    mean_curvature_check,
    signed_distance,
)
from .assembly import (
    AssembledOperator,
    AuxiliaryWeight,
    ConstantWeight,
    DiscreteField,
    OperatorSpec,
    RhoWeight,
    SolveReport,
    assemble,
    convergence_study,
    manufactured_problem,
    solve_linear,
)
from .ratio import (
    AuxiliaryRhsBundle,
    OddProblem,
    auxiliary_effective_dimension,
    auxiliary_rhs,
    effective_dimension,
    ratio_field,
    reconstruct,
    verify_ratio_equation,
)
from .spectral import (
    EigenResult,
    HalfDiskMesh,
    NodalField,
    boundary_hardy_quotient,
    eigen_stability_sweep,
    growth_monitor,
    hardy_quotient,
    isometry_transform,
    trace_eigen,
)
from .holder import (
    EmptyRegionError,
    ExponentEstimate,
    ProblemFamily,
    Region,
    StabilityReport,
    SweepAbort,
    alpha_window,
    c1alpha_seminorm,
    epsilon_sweep,
    exponent_estimate,
    holder_seminorm,
    moser_bound_check,
)
