"""padlab: exact p-adic linear algebra, horospherical dynamics, and
effective entropy-gap bounds.

Layers, from the ground up:

 - scalar / matrix: exact Q_p arithmetic with floating valuation and
   certified digit tracking; max-norm geometry, elimination, char polys,
   Hensel root finding, Z_p-module bases.
 - liegroup: exp / log between congruence balls, Baker-Campbell-Hausdorff
   in two independent modes, horospherical factorization of group balls.
 - dynamics: adjoint eigenspace decompositions, contraction data, Bowen
   balls and their volume/counting laws, partition atoms.
 - entropylab: finite symbolic models (Markov measures on refinement
   trees), KL/Pinsker machinery, entropy gaps, telescoping bounds.
 - spectral: closed-form evaluators for the quantitative constants
   (Harish-Chandra function, matrix-coefficient bounds, equidistribution
   and rigidity constants).

Importing the package loads no numpy.  The entropylab names of __all__ are
resolved on first access (PEP 562), which imports entropylab and numpy with
it; nothing else loads numpy.
"""

import importlib

from .errors import (
    BoundViolated,
    BudgetExceeded,
    DivergentSeries,
    DivisionByZero,
    DomainError,
    IrreducibilityError,
    LevelTooSmall,
    NegativeExponent,
    NegativeGap,
    NoConvergence,
    NoHyperbolicity,
    NotDiagonalizable,
    NotSplitAtPrecision,
    PadlabError,
    PrecisionExhausted,
    SingularAtPrecision,
    SupportMismatch,
    SymbolCountMismatch,
)
from .scalar import DEFAULT_PRECISION, PadicContext, PadicScalar
from .matrix import PadicMatrix, hensel_roots, nullspace, poly_eval, zp_module_basis
from .liegroup import (
    FactorResult,
    GroupSpec,
    ball_membership,
    bch,
    exp,
    horospherical_factor,
    log,
)
from .dynamics import (
    BowenCounts,
    HorosphericalDecomposition,
    atom_representatives,
    bowen_ball,
    bowen_count_oracle,
    bowen_volume_ratio,
    decompose,
    entropy,
    min_partition_level,
    mod_character,
)
from .spectral import (
    ConstantsBundle,
    ball_measure_at,
    cartan_valuations,
    equidistribution_bound,
    kappa,
    mixing_bound,
    oh_bound,
    test_vector_norm,
    theorem1_rhs,
    xi_pgl2,
)

__all__ = [
    "BoundViolated",
    "BowenCounts",
    "BudgetExceeded",
    "ConstantsBundle",
    "CylinderFunction",
    "DEFAULT_PRECISION",
    "DivergentSeries",
    "DivisionByZero",
    "DomainError",
    "FactorResult",
    "GapIdentity",
    "GroupSpec",
    "HorosphericalDecomposition",
    "IrreducibilityError",
    "LevelTooSmall",
    "MarkovMeasure",
    "NegativeExponent",
    "NegativeGap",
    "NoConvergence",
    "NoHyperbolicity",
    "NotDiagonalizable",
    "NotSplitAtPrecision",
    "PadicContext",
    "PadicMatrix",
    "PadicScalar",
    "PadlabError",
    "PinskerReport",
    "PrecisionExhausted",
    "ProbVector",
    "SingularAtPrecision",
    "SupportMismatch",
    "SymbolCountMismatch",
    "TelescopeReport",
    "atom_representatives",
    "ball_membership",
    "ball_measure_at",
    "bch",
    "bowen_ball",
    "bowen_count_oracle",
    "bowen_volume_ratio",
    "cartan_valuations",
    "decompose",
    "entropy",
    "entropy_gap",
    "entropy_rate",
    "equidistribution_bound",
    "exp",
    "f_sequence",
    "hensel_roots",
    "horospherical_factor",
    "kappa",
    "log",
    "min_partition_level",
    "mixing_bound",
    "mod_character",
    "nullspace",
    "oh_bound",
    "phi",
    "pinsker_check",
    "poly_eval",
    "telescope_bound_check",
    "test_vector_norm",
    "theorem1_rhs",
    "xi_pgl2",
    "zp_module_basis",
]


def __getattr__(name):
    # the numpy-backed Markov lab is imported on first access to it or to one
    # of its names, which are those of __all__ not imported above
    if name != "entropylab" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.entropylab")
    if name == "entropylab":
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | {"entropylab"})
