"""Antiplane shear friction laboratory.

Finite element solver for a scalar quasivariational inequality with
slip-dependent friction, a boundary optimal control layer on top of it,
and harnesses that measure how solutions respond to vanishing data
perturbations.
"""

from .fem import (
    GAMMA1,
    GAMMA2,
    GAMMA3,
    FrictionBound,
    Mesh,
    MeshSpec,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    eval_j,
    v_norm,
)
from .constants import (
    ConstantsReport,
    constants_report,
    poincare_constant,
    smallness_margin,
    trace_constant,
)
from .qvi import (
    DiscreteProblem,
    ProblemData,
    SolveReport,
    SolverConfig,
    SolverError,
    TykhonovIndex,
    membership_violation,
    solve_qvi,
)
from .tykhonov import (
    CONVERGENT,
    NON_CONVERGENT,
    ConvergenceReport,
    Schedule,
    run_convergence,
)
from .control import (
    AdmissiblePair,
    ControlError,
    ControlPatches,
    ControlResult,
    CostWeights,
    OCReport,
    StateSolver,
    minimize_cost,
    run_oc_sequence,
)
from .config import ConfigError, parse_config

__all__ = [
    "GAMMA1",
    "GAMMA2",
    "GAMMA3",
    "FrictionBound",
    "Mesh",
    "MeshSpec",
    "assemble_load",
    "assemble_mass",
    "assemble_stiffness",
    "build_mesh",
    "eval_j",
    "v_norm",
    "ConstantsReport",
    "constants_report",
    "poincare_constant",
    "smallness_margin",
    "trace_constant",
    "DiscreteProblem",
    "ProblemData",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "TykhonovIndex",
    "membership_violation",
    "solve_qvi",
    "CONVERGENT",
    "NON_CONVERGENT",
    "ConvergenceReport",
    "Schedule",
    "run_convergence",
    "AdmissiblePair",
    "ControlError",
    "ControlPatches",
    "ControlResult",
    "CostWeights",
    "OCReport",
    "StateSolver",
    "minimize_cost",
    "run_oc_sequence",
    "ConfigError",
    "parse_config",
]

__version__ = "0.1.0"
