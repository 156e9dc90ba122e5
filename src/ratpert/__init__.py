"""Perturbation diagnostics for rational maps.

Core objects: extended-range complex arithmetic (XComplex), rational map
specs with critical points, critical-orbit records with derivative
cocycles, summability evidence, the orbit-sum functional and its moment
vector, obstruction sequences, periodic-cycle solves of the linearized
conjugacy equation, holomorphic continuation of repelling cycles, and
unicritical parameter scans.
"""

from .continuation import (
    ContinuationResult,
    MotionCheck,
    continue_cycle,
    motion_velocity_check,
)
from .cycles import (
    Cycle,
    CycleAlphaSolution,
    cycle_from_point,
    default_cycle_seeds,
    find_cycles,
    solve_alpha_on_cycle,
)
from .errors import (
    CriticalRelationError,
    DegenerateMapError,
    InvalidCycleError,
    InvalidOrbitError,
    NoWitnessError,
    NotSummableError,
    ParabolicCycleError,
    ParseError,
    PoleError,
    PoleProximityError,
    RatpertError,
    RootFindingError,
    ShapeError,
)
from .fields import VectorFieldSpec
from .maps import (
    MapSpec,
    default_escape_radius,
    eval_map,
    perturbed,
)
from .mu import (
    MuResult,
    WitnessResult,
    find_witness_field,
    moment_vector,
    mu_constant_unicritical,
    mu_functional,
)
from .obstruction import ObstructionSeries, obstruction_direct, obstruction_sequence
from .orbits import (
    OrbitRecord,
    ParameterClass,
    SummabilityReport,
    classify_parameter,
    iterate_orbit,
    julia_sample,
    summability_report,
)
from .polynomial import Polynomial, poly_roots
from .scan import (
    HeatmapGrid,
    Rectangle,
    ScanConfig,
    ScanRow,
    growth_heatmap,
    render_escape,
    scan_parameters,
)
from .xcomplex import XComplex, mantissa_ulp_gap

__version__ = "0.1.0"

__all__ = [
    "ContinuationResult",
    "MotionCheck",
    "continue_cycle",
    "motion_velocity_check",
    "Cycle",
    "CycleAlphaSolution",
    "cycle_from_point",
    "default_cycle_seeds",
    "find_cycles",
    "solve_alpha_on_cycle",
    "CriticalRelationError",
    "DegenerateMapError",
    "InvalidCycleError",
    "InvalidOrbitError",
    "NoWitnessError",
    "NotSummableError",
    "ParabolicCycleError",
    "ParseError",
    "PoleError",
    "PoleProximityError",
    "RatpertError",
    "RootFindingError",
    "ShapeError",
    "VectorFieldSpec",
    "MapSpec",
    "default_escape_radius",
    "eval_map",
    "perturbed",
    "MuResult",
    "WitnessResult",
    "find_witness_field",
    "moment_vector",
    "mu_constant_unicritical",
    "mu_functional",
    "ObstructionSeries",
    "obstruction_direct",
    "obstruction_sequence",
    "OrbitRecord",
    "ParameterClass",
    "SummabilityReport",
    "classify_parameter",
    "iterate_orbit",
    "julia_sample",
    "summability_report",
    "Polynomial",
    "poly_roots",
    "HeatmapGrid",
    "Rectangle",
    "ScanConfig",
    "ScanRow",
    "growth_heatmap",
    "render_escape",
    "scan_parameters",
    "XComplex",
    "mantissa_ulp_gap",
    "__version__",
]
