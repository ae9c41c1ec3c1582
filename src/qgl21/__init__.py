"""Exact symbolic engine for the q-boson-fermion realization of the quantum
superalgebra U_q(gl(2/1)): deformed oscillator and fermion arithmetic,
straightening identities, the induced representation, the realization map,
and exact verification of every defining relation both symbolically and on
truncated Fock-space matrices."""

from .scalars import (
    QScalar, PoleError, q_integer, q_power, p_power, monomial,
    ZERO, ONE, Q, QINV, P1, P2, P3, EPS, EPS_INV,
)
from .walgebra import (
    WMonomial, WElement, generator, w_mul, supercommutator, substitute_gl11,
    render_element, ParityError, SubstitutionError,
    Gl11Rep, trivial_gl11_rep, fermionic_gl11_rep,
)
from .superalgebra import (
    UElement, Relation, StraightenTerm, relation_set, relation_families,
    straighten, oracle_straighten, check_straightening_identities,
    e13_definition, e31_definition,
)
from .induced import (
    A0Rep, InducedVector, validate_gl11_rep, highest_weight_a0rep,
    validate_a0rep, act, act_oracle, apply_uelement, check_relations_on_module,
    RepresentationError,
)
from .realization import (
    FockMatrix, realization_map, rho, image_of_uelement, verify_realization,
    fock_matrix, check_relations_on_fock, dyson_check, relation_shifts,
)
from .parsing import parse, parse_w, parse_scalar, ParseError
from .qmatrix import QMatrix
from .reporting import CheckResult, render_report, all_passed

__all__ = [name for name in dir() if not name.startswith("_")]
