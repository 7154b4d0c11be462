"""Exact symbolic toolkit for the generalized symmetries, variational
symmetries and local conservation laws of the light-cone Klein-Gordon
equation u_xy = u. All arithmetic is exact rational."""

from .arith import Rational, RationalMatrix, XYPoly, nullspace, rank
from .jet import (F, FieldId, FreeJetPoly, ReducedJetPoly, U,
                  apply_operator_free, apply_operator_reduced, eval_exp_family,
                  euler_operator, iterated_derivative, reduce, reduced_J)
from .noether import (ConservedCurrent, CurrentCandidate, count_order_n_currents,
                      current_C0, current_Ctilde, current_minimal,
                      is_cl_characteristic, is_variational_linear,
                      lift_linear_characteristic, onshell_divergence,
                      symmetry_action_on_current)
from .opalg import (TDOperator, basis_op, commutator, kg_operator,
                    monomial_op, skew_self_split)
from .parser import ParseError, parse_jet, parse_operator
from .symmetry import (DeterminingSystem, SymmetryBasis, graded_dimension,
                       independence_rank, is_generalized_symmetry,
                       reduced_bracket, solve_linear_determining)

__version__ = "0.1.0"
