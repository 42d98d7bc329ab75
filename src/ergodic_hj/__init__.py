"""Ergodic constants and large-time behavior for the viscous
Hamilton-Jacobi equation u_t - lap(u) + |Du|^m = f(x), 1 < m <= 2, with
coercive unbounded right-hand sides.
"""

from .asymptotics import (
    BarrierVerdict,
    LargeTimeReport,
    barrier_check_lower,
    barrier_check_upper,
    estimate_c_hat,
    pick_reference_time,
    run_large_time,
)
from .ergodic import (
    ErgodicApprox,
    ErgodicConstantEstimate,
    argmax_confinement,
    estimate_lambda_star,
    scaling_check_super,
    solve_periodic,
    solve_state_constraint,
)
from .errors import (
    AlignmentError,
    BlowUpError,
    BracketInconsistencyError,
    CoercivityError,
    ConfigError,
    GridMismatchError,
    StagnationError,
    TableRangeError,
)
from .grid import (
    Grid,
    GridFunction,
    export_csv,
    import_table,
    make_grid,
    restrict,
    sample,
    sup_norm_diff,
)
from .parabolic import (
    DiagnosticsTrace,
    EvolutionState,
    evolve,
    gradient_monitor,
    holder_quotient,
)
from .problem import (
    InitialSpec,
    ProblemSpec,
    SourceSpec,
    check_h2_ratio,
    coercivity_envelope,
    eval_source,
    h1_certificate,
    h2_certificate,
    torus_half_width,
)
from .reference import (
    OracleSolution,
    hopf_cole_eigenvalue,
    hopf_cole_parabolic,
    manufactured,
    manufactured_oscillatory,
)
from .scheme import (
    SchemeConfig,
    cfl_timestep,
    discrete_laplacian,
    numerical_hamiltonian,
    residual_ergodic,
    residual_scaled_sub,
    residual_scaled_super,
)

__version__ = "0.1.0"
