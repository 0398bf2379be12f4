"""Stationary distributions of ancestral block counting processes.

Library and CLI for Moran and general multiple-merger Wright-Fisher
population models with mutation and selection: exact simulators, linear
recursion solvers, closed-form laws, the geometric-law toolkit, and
moment-duality computations.
"""

__version__ = "0.1.0"

from .measures import (  # noqa: F401
    Atoms,
    BetaDensity,
    CustomDensity,
    LambdaMeasure,
    ModelParams,
    MoranParams,
    UniformScaled,
    Zero,
    cnk,
    is_positive_recurrent,
    lambda_rate,
    sigma_lambda,
)
from .recursions import (  # noqa: F401
    StationaryPmf,
    solve_lambda_truncated,
    solve_moran,
    solve_moran_nullspace,
    solve_star,
)
from .closedform import (  # noqa: F401
    PgfEvaluator,
    beta31_pgf,
    bs_geometric_pmf,
    bs_rho,
    crow_kimura_geometric,
    moran_closed,
    moran_factorial_moments,
    moran_mean,
    star_closed,
    verify_master_equation,
    wf_closed,
    wf_factorial_moments,
    wf_mean,
)
from .duality import (  # noqa: F401
    MomentSequence,
    ancestral_type_h,
    bs_absorption,
    bs_w_generating,
    kimura_fixation,
    moran_fixation,
    solve_w_moments,
)
from .geomfix import (  # noqa: F401
    AtomicMeasure,
    MobiusInvolution,
    apply_S,
    build_discrete_fixed_point,
    check_geometric,
    phi_iterate,
    pushforward_to_lambda,
    rho_star,
)
from .simulate import (  # noqa: F401
    JumpPath,
    OccupancyEstimate,
    occupancy,
    simulate_killed_asg,
    simulate_lambda_L,
    simulate_moran_L,
    simulate_moran_X,
)
