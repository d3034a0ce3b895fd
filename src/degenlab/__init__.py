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
    psi,
    rho,
    v_char,
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
    ChartError,
    EmbeddedCurve,
    HalfGrid,
    Region,
    build_half_grid,
    fermi_mu,
)
from .assembly import (
    AssembledOperator,
    AuxiliaryWeight,
    DiscreteField,
    RhoWeight,
    SolveReport,
    assemble,
    convergence_study,
    manufactured_problem,
    solve_linear,
)
from .ratio import (
    OddProblem,
    ratio_field,
    verify_ratio_equation,
)
from .spectral import (
    EigenResult,
    HalfDiskMesh,
    eigen_stability_sweep,
    growth_monitor,
    hardy_quotient,
    trace_eigen,
)
from .holder import (
    EmptyRegionError,
    ExponentEstimate,
    ProblemFamily,
    StabilityReport,
    SweepAbort,
    c1alpha_seminorm,
    epsilon_sweep,
    exponent_estimate,
    holder_seminorm,
    measure_sweep,
    solve_family,
)
