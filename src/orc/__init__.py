"""Convex-set and convex-function oracles and the reductions among them.

The package implements the seven classical oracle contracts (membership,
separation, optimization, violation, validity, evaluation, subgradient)
over sandwiched convex bodies, a separation-from-membership reduction
via randomized finite-difference subgradients of a height function, a
central-cut ellipsoid optimizer, an analytic-centre cutting-plane
optimizer, and the web of indicator / support function / epigraph-body
correspondences connecting the rest.
"""

from .bodies import (Ball, BodySpec, BoxBody, Ellipsoid, ExactMembership,
                     ExactOptimization, ExactSeparation, ExactValidity,
                     ExactViolation, FlipNoise, FuncSpec, HPolytope,
                     Indicator, Linear, MaxOfLinear, Quadratic, Simplex,
                     brute_force_lp, exact_eval, exact_grad, exact_membership,
                     exact_support, random_hpolytope)
from .core import (EVAL, GRAD, MEM, OPT, SEP, VAL, VIOL, GradAnswer,
                   MembershipAnswer, OptimizationAnswer, ProblemGeometry,
                   QueryLedger, RandomStream, SeparationAnswer, ValidityAnswer,
                   ViolationAnswer, amplify, check_precision, rows_of,
                   wrap_with_ledger)
from .ellipsoid import (EllipsoidState, MaxItersExhausted, OptimizerConfig,
                        OracleInconsistency, ellipsoid_cut, opt_from_viol,
                        optimize_linear, viol_from_opt)
from .geometry import Box, HalfSpace, as_unit_vector, as_vector, unit
from .height import HeightOracle
from .reductions import (EmptyInteriorPropagated, EpigraphBody, VerticalCut,
                         eval_from_mem_epigraph, eval_from_mem_indicator,
                         eval_support_from_val, grad_conjugate_from_opt,
                         grad_from_sep_epigraph, grad_from_sep_indicator, inner_sep_eps,
                         mem_from_eval_indicator, mem_from_sep, opt_from_mem,
                         opt_from_val, sep_from_grad_indicator, sep_from_opt,
                         support_eval_from_opt, val_from_eval_support)
from .separation import ANCHORED, THEORETICAL, DegenerateGradient, SepFromMem
from .subgrad import (EstimatorParams, expected_flatness_defect,
                      sample_box_points, separate_convex_func)

__version__ = "0.1.0"
