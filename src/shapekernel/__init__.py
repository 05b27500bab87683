"""Kernel regression with hard shape constraints enforced on whole regions.

The package estimates functions in (vector-valued) reproducing-kernel
Hilbert spaces subject to affine matrix inequalities on derivatives over
compact boxes — nonnegativity, monotonicity, convexity, state bounds — and
enforces them *everywhere* on the region, not just at sample points, by
buffering finitely many anchor constraints with covering-based margins.

Layers, bottom to top:

``kernels``   closed-form kernels and their mixed partial derivatives
``atoms``     functionals, RKHS atoms, Gram machinery, models
``covering``  input/feature-space coverings and buffer widths
``conic``     embedded interior-point cone solver
``tighten``   shape constraints to conic row records
``assemble``  representer reduction, solving, certificates
``soap``      adaptive covering refinement
``bench``     experiment harness and CLI
"""

from .atoms import (
    Atom,
    DiffFunctional,
    Model,
    SdpOperator,
    apply_functional,
    atom_inner,
    gram,
)
from .assemble import (
    BoundReport,
    Equality,
    NormBound,
    NormMin,
    Observation,
    ProblemSpec,
    Ridge,
    collect_atoms,
    compute_bounds,
    recover_model,
    relax_records,
    solve_problem,
    solve_reference,
)
from .conic import (
    ConeBlock,
    ConeProgram,
    Solution,
    SolverSettings,
    solve,
)
from .covering import (
    InputBall,
    OmegaElement,
    cover_box,
    eta_for,
    eta_radial,
    eta_sampled,
    fill_distance,
    grid_cover,
    omega_cover,
)
from .kernels import (
    DecomposableGaussianKernel,
    GaussianKernel,
    Kernel,
    LaplacianKernel,
    LTIControlKernel,
    kernel_from_config,
)
from .soap import (
    SoapInfeasible,
    SoapState,
    detect_saturated,
    record_slack,
    run_soap,
)
from .tighten import (
    AnchorRecord,
    InclusionRecord,
    ShapeConstraint,
    discretize,
    tighten_omega,
    tighten_soc,
    verify_pointwise,
)

__version__ = "0.1.0"
