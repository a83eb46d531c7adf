"""The identity engine.

Every identity the artifact is responsible for has a RelationID in REGISTRY
and exactly one evaluator, which returns None when the identity holds and a
failure witness otherwise.  Uniform identities are rows of data tables, each
registered by one loop with one shared evaluator:

* COUNT_ROWS -- the length of a cover list is a closed form of the stratum;
* SUPPORT_ROWS -- operators map each (i,j) block only into allowed blocks;
* Q_COMMUTATION_ROWS and CUBIC_ROWS -- the generator relations;
* IDENTITY_ROWS -- "lhs = rhs" or "lhs = 0" between operator expressions;
* MODULE_ROWS -- module operators against their closed-form actions.

The few that fit no table are functions registered with ``@_relation``.
Registration order is report order.  An identity passes only when its
residual operator is exactly zero, and a failure names the first nonzero
entry in row-major order.  The same registry drives geometry-mode runs
(operators over the subspace lattice) and module-mode runs (operators on an
abstract module's standard basis); each relation declares the modes it
applies to.  All passes are exact -- there are no tolerances anywhere.

Each relation is evaluated once, by ``pgaw.symmetry.evaluate``, on the
path the certificate of the set's root chose before the evaluator ran.
On a set ``build_geometry_operators`` made, that evaluation reads one
representative row per G_y-orbit; the first nonzero row of a residual is
always one of them, so witnesses are the full evaluation's.  On a
perturbed clone of such a set it reads the rows the perturbation reaches
and the first position of each stratum outside them, which again hold
the full evaluation's witness.  An evaluator combines only the set's own
operators: the identity, the projections E*, the named operators and
their products, sums, scalar multiples and (for a 0/1 family)
transposes.  Any other set -- a module, a set built by hand, a clone of
one -- is evaluated in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from .geometry import GeometryIndex, build_geometry
from .modules import AbstractModule, eigen_scalar, weighted_shift
from .operators import (
    DERIVED,
    GEOMETRY,
    MODULE,
    OperatorSet,
    SparseOperator,
    build_geometry_operators,
    expr_a_via_lr,
    expr_a_via_rl,
    expr_askey1,
    expr_askey2,
    expr_back_l1r1,
    expr_back_l2r2,
    expr_back_r1l1,
    expr_back_r2l2,
    expr_f0_backslash,
    expr_f0_central,
    expr_f0_slash,
    expr_f_via_lr,
    expr_f_via_rl,
    expr_fminus,
    expr_fminus_central,
    expr_fplus,
    expr_fplus_central,
)
from .rings import QuadRing, q_int
from .symmetry import evaluate


@dataclass(frozen=True)
class Relation:
    """One verifiable identity: unique id, human description, applicable modes."""

    id: str
    description: str
    suite: str
    modes: tuple[str, ...]


@dataclass(frozen=True)
class Outcome:
    id: str
    status: str  # "pass" | "fail"
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    context: dict
    outcomes: list[Outcome] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def failures(self) -> list[Outcome]:
        return [o for o in self.outcomes if not o.passed]

    def outcome(self, rel_id: str) -> Outcome:
        for o in self.outcomes:
            if o.id == rel_id:
                return o
        raise KeyError(rel_id)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BOTH = (GEOMETRY, MODULE)
_GEO = (GEOMETRY,)
_MOD = (MODULE,)

_registry: list[Relation] = []
_evaluators: dict[str, Callable[[OperatorSet], Optional[str]]] = {}


def _register(rel_id: str, description: str, suite: str, modes, evaluator):
    if rel_id in _evaluators:
        raise ValueError(f"duplicate relation id {rel_id}")
    _registry.append(Relation(rel_id, description, suite, tuple(modes)))
    _evaluators[rel_id] = evaluator


def _relation(rel_id: str, description: str, suite: str, modes):
    def wrap(fn):
        _register(rel_id, description, suite, modes, fn)
        return fn
    return wrap


def _residual_witness(residual: SparseOperator, ops: OperatorSet) -> Optional[str]:
    if residual.is_zero():
        return None
    r, c, v = residual.first_nonzero()
    return f"row={ops.labels[r]}, col={ops.labels[c]}, residual={v}"


# -- counts (geometry only) --------------------------------------------------

def _count_check(ops: OperatorSet, lists: str, expected) -> Optional[str]:
    geom = ops.geometry
    covers = getattr(geom, lists)
    for p, (i, j) in enumerate(geom.ij):
        want = expected(i, j, geom)
        got = len(covers[p])
        if got != want:
            return (f"element {ops.labels[p]} in stratum ({i},{j}): "
                    f"degree {got}, expected {want}")
    return None


@_relation("counts.level_sizes",
           "|P_l| equals the Gaussian binomial (h+k choose l)_q for every level l",
           "counts", _GEO)
def _(ops):
    from .rings import gaussian_binomial
    geom = ops.geometry
    for d in range(geom.n + 1):
        want = gaussian_binomial(geom.n, d, geom.q)
        got = len(geom.by_level[d])
        if got != want:
            return f"level {d}: {got} elements, expected {want}"
    return None


# (id, description, GeometryIndex cover list, its length for an element of
# stratum (i, j) of the geometry g)
COUNT_ROWS = (
    ("counts.slash_down",
     "every element of stratum (i,j) slash-covers exactly q^j*[i] elements",
     "slash_covers_of", lambda i, j, g: g.q ** j * q_int(i, g.q)),
    ("counts.backslash_down",
     "every element of stratum (i,j) backslash-covers exactly [j] elements",
     "backslash_covers_of", lambda i, j, g: q_int(j, g.q)),
    ("counts.slash_up",
     "every element of stratum (i,j) is slash-covered by exactly [k-i] elements",
     "slash_covered_by", lambda i, j, g: q_int(g.k - i, g.q)),
    ("counts.backslash_up",
     "every element of stratum (i,j) is backslash-covered by exactly "
     "q^(k-i)*[h-j] elements",
     "backslash_covered_by", lambda i, j, g: g.q ** (g.k - i) * q_int(g.h - j, g.q)),
)
for _id, _desc, _lists, _expected in COUNT_ROWS:
    _register(_id, _desc, "counts", _GEO,
              partial(_count_check, lists=_lists, expected=_expected))


# -- structure ----------------------------------------------------------------

@_relation("struct.estar_sum", "sum of the level projections E*_l is the identity",
           "structure", _BOTH)
def _(ops):
    total = ops.estar_level(0)
    for level in range(1, ops.h + ops.k + 1):
        total = total + ops.estar_level(level)
    return _residual_witness(total - ops.identity(), ops)


@_relation("struct.estar_orth", "E*_a E*_b = delta_ab E*_a for all level pairs",
           "structure", _BOTH)
def _(ops):
    for a in range(ops.h + ops.k + 1):
        ea = ops.estar_level(a)
        for b in range(ops.h + ops.k + 1):
            prod = ea @ ops.estar_level(b)
            w = _residual_witness(prod - ea if a == b else prod, ops)
            if w:
                return f"pair (l={a}, l={b}): {w}"
    return None


@_relation("struct.estar_split",
           "E*_l is the sum of the stratum projections E*_(i,j) with i+j=l",
           "structure", _BOTH)
def _(ops):
    for level in range(ops.h + ops.k + 1):
        blocks = [ops.estar_stratum(i, level - i)
                  for i in range(ops.k + 1) if 0 <= level - i <= ops.h]
        w = _residual_witness(ops.estar_level(level) - sum(blocks[1:], blocks[0]), ops)
        if w:
            return f"level {level}: {w}"
    return None


def _support_check(ops: OperatorSet, names, shifts) -> Optional[str]:
    """First entry of the named operators that leaves the allowed blocks."""
    ij = ops.ij

    def allowed(r, c):
        return (ij[r][0] - ij[c][0], ij[r][1] - ij[c][1]) in shifts

    for name in names:
        hit = ops[name].support_violation(allowed)
        if hit is not None:
            r, c, v = hit
            return (f"{name}[{ops.labels[r]}, {ops.labels[c]}] = {v} "
                    f"maps stratum {ij[c]} outside its allowed image")
    return None


# (id, description, operators, allowed shifts (di, dj) from the block of a
# basis vector to the blocks of its image)
SUPPORT_ROWS = (
    ("struct.l1_support", "L1 maps the (i,j) block into the (i-1,j) block",
     ("L1",), {(-1, 0)}),
    ("struct.l2_support", "L2 maps the (i,j) block into the (i,j-1) block",
     ("L2",), {(0, -1)}),
    ("struct.r1_support", "R1 maps the (i,j) block into the (i+1,j) block",
     ("R1",), {(1, 0)}),
    ("struct.r2_support", "R2 maps the (i,j) block into the (i,j+1) block",
     ("R2",), {(0, 1)}),
    ("struct.r_support", "R maps the (i,j) block into the (i-1,j+1) block",
     ("R",), {(-1, 1)}),
    ("struct.l_support", "L maps the (i,j) block into the (i+1,j-1) block",
     ("L",), {(1, -1)}),
    ("struct.f_support", "F0, F+, F- and F preserve every (i,j) block",
     ("F0", "Fplus", "Fminus", "F"), {(0, 0)}),
    ("struct.a_support",
     "A maps the (i,j) block into the (i+1,j-1), (i,j), (i-1,j+1) blocks",
     ("A",), {(1, -1), (0, 0), (-1, 1)}),
    ("struct.omega_support", "Omega0, Omega1, Omega2 preserve every (i,j) block",
     ("Omega0", "Omega1", "Omega2"), {(0, 0)}),
)
for _id, _desc, _names, _shifts in SUPPORT_ROWS:
    _register(_id, _desc, "structure", _BOTH,
              partial(_support_check, names=_names, shifts=_shifts))


# -- generator relations -------------------------------------------------------

def _q_commutation(ops: OperatorSet, x: str, y: str, left=1, right=1) -> SparseOperator:
    """Residual of left * X Y = right * Y X."""
    return (ops[x] @ ops[y]).scale(left) - (ops[y] @ ops[x]).scale(right)


def _q_commutes(ops: OperatorSet, x: str, y: str, q_side) -> Optional[str]:
    q = ops.ring.q_power(1)
    res = _q_commutation(ops, x, y, q if q_side == "left" else 1,
                         q if q_side == "right" else 1)
    return _residual_witness(res, ops)


# (id, description, X, Y, the side of X Y = Y X that carries a factor q)
Q_COMMUTATION_ROWS = (
    ("gen.k1l1", "K1 L1 = q L1 K1", "K1", "L1", "right"),
    ("gen.k1l2", "K1 L2 = L2 K1", "K1", "L2", None),
    ("gen.k1r1", "q K1 R1 = R1 K1", "K1", "R1", "left"),
    ("gen.k1r2", "K1 R2 = R2 K1", "K1", "R2", None),
    ("gen.k2l1", "K2 L1 = L1 K2", "K2", "L1", None),
    ("gen.k2l2", "q K2 L2 = L2 K2", "K2", "L2", "left"),
    ("gen.k2r1", "K2 R1 = R1 K2", "K2", "R1", None),
    ("gen.k2r2", "K2 R2 = q R2 K2", "K2", "R2", "right"),
    ("gen.l1r2", "L1 R2 = R2 L1", "L1", "R2", None),
    ("gen.l2r1", "L2 R1 = R1 L2", "L2", "R1", None),
    ("gen.l1l2", "q L1 L2 = L2 L1", "L1", "L2", "left"),
    ("gen.r1r2", "R1 R2 = q R2 R1", "R1", "R2", "right"),
)
for _id, _desc, _x, _y, _side in Q_COMMUTATION_ROWS:
    _register(_id, _desc, "generators", _BOTH,
              partial(_q_commutes, x=_x, y=_y, q_side=_side))


def _cubic(ops: OperatorSet, x: str, y: str, q_first: bool, k_pair, offset: int):
    """Residual of a X^2 Y - (q+1) X Y X + b Y X^2 = -q^((h+k+offset)/2)(q+1) Ka Kb X,
    with (a, b) = (q, 1) if q_first else (1, q)."""
    ring = ops.ring
    q = ring.q_power(1)
    a, b = (q, 1) if q_first else (1, q)
    ka, kb = k_pair
    x, y = ops[x], ops[y]
    xx = x @ x
    lhs = (xx @ y).scale(a) - (x @ (y @ x)).scale(q + 1) + (y @ xx).scale(b)
    rhs = (ops[ka] @ ops[kb] @ x).scale(ring.q_half(ops.h + ops.k + offset) * (q + 1))
    return _residual_witness(lhs + rhs, ops)


# (id, description, X, Y, q multiplies X^2 Y rather than Y X^2, (Ka, Kb), offset)
CUBIC_ROWS = (
    ("gen.cubic_r1",
     "R1^2 L1 - (q+1) R1 L1 R1 + q L1 R1^2 = -q^((h+k)/2-1)(q+1) K1^-1 K2 R1",
     "R1", "L1", False, ("K1i", "K2"), -2),
    ("gen.cubic_r2",
     "q R2^2 L2 - (q+1) R2 L2 R2 + L2 R2^2 = -q^((h+k)/2)(q+1) K1 K2^-1 R2",
     "R2", "L2", True, ("K1", "K2i"), 0),
    ("gen.cubic_l1",
     "q L1^2 R1 - (q+1) L1 R1 L1 + R1 L1^2 = -q^((h+k)/2)(q+1) K1^-1 K2 L1",
     "L1", "R1", True, ("K1i", "K2"), 0),
    ("gen.cubic_l2",
     "L2^2 R2 - (q+1) L2 R2 L2 + q R2 L2^2 = -q^((h+k)/2-1)(q+1) K1 K2^-1 L2",
     "L2", "R2", False, ("K1", "K2i"), -2),
)
for _id, _desc, _x, _y, _q_first, _k_pair, _offset in CUBIC_ROWS:
    _register(_id, _desc, "generators", _BOTH,
              partial(_cubic, x=_x, y=_y, q_first=_q_first, k_pair=_k_pair,
                      offset=_offset))


@_relation("gen.mixed_balance",
           "L1R1 - R1L1 + L2R2 - R2L2 = q^((h+k)/2)(q-1)^-1 (K1K2^-1 - K1^-1K2)",
           "generators", _BOTH)
def _(ops):
    ring = ops.ring
    lhs = ops["L1"] @ ops["R1"] - ops["R1"] @ ops["L1"] \
        + ops["L2"] @ ops["R2"] - ops["R2"] @ ops["L2"]
    rhs = (ops["K1"] @ ops["K2i"] - ops["K1i"] @ ops["K2"]) \
        .scale(ring.q_half(ops.h + ops.k) * ring.inv(ring.q_power(1) - 1))
    return _residual_witness(lhs - rhs, ops)


# -- identities between operators -------------------------------------------------
#
# An operand is the name of an operator, a pair of names for their
# product, or a function of the OperatorSet.  A row with rhs None states
# lhs = 0.

@dataclass(frozen=True)
class _Commutator:
    """The operand [X, Y] of two named operators."""

    x: str
    y: str

    def __call__(self, ops: OperatorSet) -> SparseOperator:
        x, y = ops[self.x], ops[self.y]
        return x @ y - y @ x


def _operand(ops: OperatorSet, spec) -> SparseOperator:
    if isinstance(spec, str):
        return ops[spec]
    if isinstance(spec, tuple):
        x, y = spec
        return ops[x] @ ops[y]
    return spec(ops)


def _astar_closed_form(ops: OperatorSet) -> SparseOperator:
    """The sum of q^i E*_(i,j) over the strata, from E*_(0,0)."""
    total = ops.estar_stratum(0, 0)
    for i in range(ops.k + 1):
        q_i = ops.ring.q_power(i)
        for j in range(ops.h + 1):
            if i or j:
                total = total + ops.estar_stratum(i, j).scale(q_i)
    return total


def _identity_check(ops: OperatorSet, lhs, rhs) -> Optional[str]:
    residual = _operand(ops, lhs)
    if rhs is not None:
        residual = residual - _operand(ops, rhs)
    return _residual_witness(residual, ops)


# (id, description, suite, modes, lhs, rhs)
IDENTITY_ROWS = (
    ("f.f0_slash",
     "combinatorial F0 = L1R1 - R1L1 + (q-1)^-1 (q^((h+k)/2) K1^-1 K2 "
     "- q^(k/2) K1 - q^(h/2) K2 + I)",
     "f", _GEO, "F0", expr_f0_slash),
    ("f.f0_backslash",
     "F0 = R2L2 - L2R2 + (q-1)^-1 (q^((h+k)/2) K1 K2^-1 "
     "- q^(k/2) K1 - q^(h/2) K2 + I)",
     "f", _BOTH, "F0", expr_f0_backslash),
    ("f.fplus_def", "combinatorial F+ = L2R2 - q^(k/2)(q-1)^-1 K1 (q^(h/2) K2^-1 - I)",
     "f", _GEO, "Fplus", expr_fplus),
    ("f.fminus_def", "combinatorial F- = R1L1 - q^(h/2)(q-1)^-1 (q^(k/2) K1^-1 - I) K2",
     "f", _GEO, "Fminus", expr_fminus),
    ("f.fsum", "combinatorial F equals F0 + F+ + F-", "f", _GEO, "F", DERIVED["F"]),
    ("f.via_lr", "F = L1R1 + L2R2 - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)",
     "f", _BOTH, "F", expr_f_via_lr),
    ("f.via_rl", "F = R1L1 + R2L2 - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)",
     "f", _BOTH, "F", expr_f_via_rl),
    ("f.back_l1r1", "L1R1 = F0 + F- + (q-1)^-1 (q^(k/2) K1 - I)",
     "f", _BOTH, ("L1", "R1"), expr_back_l1r1),
    ("f.back_r1l1", "R1L1 = F- + q^(h/2)(q-1)^-1 (q^(k/2) K1^-1 - I) K2",
     "f", _BOTH, ("R1", "L1"), expr_back_r1l1),
    ("f.back_l2r2", "L2R2 = F+ + q^(k/2)(q-1)^-1 K1 (q^(h/2) K2^-1 - I)",
     "f", _BOTH, ("L2", "R2"), expr_back_l2r2),
    ("f.back_r2l2", "R2L2 = F0 + F+ + (q-1)^-1 (q^(h/2) K2 - I)",
     "f", _BOTH, ("R2", "L2"), expr_back_r2l2),
    ("f.comm_0p", "[F0, F+] = 0", "f", _BOTH, _Commutator("F0", "Fplus"), None),
    ("f.comm_0m", "[F0, F-] = 0", "f", _BOTH, _Commutator("F0", "Fminus"), None),
    ("f.comm_pm", "[F+, F-] = 0", "f", _BOTH, _Commutator("Fplus", "Fminus"), None),
    ("a.r_prod", "combinatorial R equals L1 R2", "rla", _GEO, "R", ("L1", "R2")),
    ("a.l_prod", "combinatorial L equals L2 R1", "rla", _GEO, "L", ("L2", "R1")),
    ("a.rl_transpose", "R equals the transpose of L",
     "rla", _GEO, "R", lambda ops: ops["L"].transpose()),
    ("a.sum", "combinatorial A equals R + L + F", "rla", _GEO, "A", DERIVED["A"]),
    ("a.via_lr", "A = (L1+L2)(R1+R2) - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)",
     "rla", _BOTH, "A", expr_a_via_lr),
    ("a.via_rl", "A = (R1+R2)(L1+L2) - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)",
     "rla", _BOTH, "A", expr_a_via_rl),
    ("a.astar_diag", "A* is diagonal with entry q^i on the (i,j) block",
     "rla", _BOTH, "Astar", _astar_closed_form),
    *((f"center.omega{i}_{gen.lower()}", f"[Omega{i}, {gen}] = 0", "center", _BOTH,
       _Commutator(f"Omega{i}", gen), None)
      for i in (0, 1, 2) for gen in ("L1", "L2", "R1", "R2", "K1", "K2")),
    ("center.f0_rebuild",
     "F0 = (q-1)^-1 (q^((h+k)/2) Omega0 K1 K2 - q^(k/2) K1 - q^(h/2) K2 + I)",
     "center", _BOTH, "F0", expr_f0_central),
    ("center.fplus_rebuild",
     "F+ = (q-1)^-1 (q^(k/2) Omega2 - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K2 + K2^-1)"
     " - 2q^(k/2+1) I)) K1",
     "center", _BOTH, "Fplus", expr_fplus_central),
    ("center.fminus_rebuild",
     "F- = (q-1)^-1 (q^(h/2) Omega1 - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K1 + K1^-1)"
     " - 2q^(h/2+1) I)) K2",
     "center", _BOTH, "Fminus", expr_fminus_central),
    ("aw.askey1",
     "A^2 A* - (q+1/q) A A* A + A* A^2 - Y(A A* + A* A) - P A* = Omega A + G",
     "aw", _BOTH, expr_askey1, None),
    ("aw.askey2",
     "A*^2 A - (q+1/q) A* A A* + A A*^2 = Y A*^2 + Omega A* + G*",
     "aw", _BOTH, expr_askey2, None),
    *((f"aw.comm_{coeff.lower()}_{a.lower()}",
       f"[{coeff.replace('star', '*')}, {a.replace('star', '*')}] = 0",
       "aw", _BOTH, _Commutator(coeff, a), None)
      for coeff in ("Y", "P", "Omega", "G", "Gstar") for a in ("A", "Astar")),
)
for _id, _desc, _suite, _modes, _lhs, _rhs in IDENTITY_ROWS:
    _register(_id, _desc, _suite, _modes, partial(_identity_check, lhs=_lhs, rhs=_rhs))


# -- module-only eigen tables -------------------------------------------------------

def _eigen(*names: str):
    """Operand: the sum of the diagonals of the closed forms ``names``, each
    memoized on the set."""
    def operand(ops: OperatorSet) -> SparseOperator:
        t, ring = ops.basis, ops.ring
        diags = [ops.diagonal(name, lambda w, name=name: eigen_scalar(name, t, *w, ring))
                 for name in names]
        return sum(diags[1:], diags[0])
    return operand


def _shift_action(ops: OperatorSet, name: str, di: int) -> SparseOperator:
    """The operator sending w[i+di, j-di] to eigen_scalar(name, i, j) w[i,j]."""
    t, ring = ops.basis, ops.ring
    return weighted_shift(t, -di, di, lambda i, j: eigen_scalar(name, t, i - di, j + di, ring))


@_relation("module.k_eigen",
           "K1, K1^-1, K2, K2^-1 act on w[i,j] by q^(k/2-i), q^(i-k/2), "
           "q^(j-h/2), q^(h/2-j)",
           "module", _MOD)
def _(ops):
    for name in ("K1", "K1i", "K2", "K2i"):
        w = _residual_witness(ops[name] - _eigen(name)(ops), ops)
        if w:
            return f"{name}: {w}"
    return None


# (id, description, lhs, rhs) of the identities checked on modules only
MODULE_ROWS = (
    ("module.double_l1r1",
     "L1R1 acts on w[i,j] by q^(alpha+j) [i-alpha+1][k-rho-alpha-i]",
     ("L1", "R1"), _eigen("L1R1")),
    ("module.double_r1l1",
     "R1L1 acts on w[i,j] by q^(alpha+j) [i-alpha][k-rho-alpha-i+1]",
     ("R1", "L1"), _eigen("R1L1")),
    ("module.double_l2r2",
     "L2R2 acts on w[i,j] by q^(k+beta-i) [j-rho-beta+1][h-beta-j]",
     ("L2", "R2"), _eigen("L2R2")),
    ("module.double_r2l2",
     "R2L2 acts on w[i,j] by q^(k+beta-i) [j-rho-beta][h-beta-j+1]",
     ("R2", "L2"), _eigen("R2L2")),
    ("module.f0_eigen", "F0 acts on w[i,j] by q^(k-i)[j-rho] - [j]",
     "F0", _eigen("a0")),
    ("module.fplus_eigen",
     "F+ acts on w[i,j] by q^(k-i)(q^(beta+1)[j-rho-beta][h-beta-j] - [beta])",
     "Fplus", _eigen("aplus")),
    ("module.fminus_eigen",
     "F- acts on w[i,j] by q^j(q^(alpha+1)[i-alpha][k-rho-alpha-i] - [alpha])",
     "Fminus", _eigen("aminus")),
    ("module.f_eigen_sum", "F acts on w[i,j] by the sum of the three displayed parts",
     "F", _eigen("a0", "aplus", "aminus")),
    ("module.omega0_scalar", "Omega0 acts on the whole module by q^-rho",
     "Omega0", _eigen("Omega0")),
    ("module.omega1_scalar", "Omega1 acts on the whole module by q[k-rho-alpha] + [alpha]",
     "Omega1", _eigen("Omega1")),
    ("module.omega2_scalar", "Omega2 acts on the whole module by q[h-rho-beta] + [beta]",
     "Omega2", _eigen("Omega2")),
    ("module.y_eigen", "Y acts on w[i,j] by q^(h+k-l) + q^l - 1 + q^-1 with l = i+j",
     "Y", _eigen("Y")),
    ("module.p_eigen",
     "P acts on w[i,j] by q(q-1)^-2 ((q^(h+k-l)+q^l-1+q^-1)^2 - q^(h+k-2)(q+1)^2)",
     "P", _eigen("P")),
    ("module.omega_eigen",
     "Omega acts on w[i,j] by -(q^(h+k-rho-beta) + q^(k+beta-1) "
     "+ q^(k+l-rho-alpha) + q^(l+alpha-1))",
     "Omega", _eigen("Omega")),
    ("module.g_eigen", "G acts on w[i,j] by the displayed (q-1)^-1 combination at l = i+j",
     "G", _eigen("G")),
    ("module.gstar_eigen", "G* acts on w[i,j] by q^(k+l-rho-1)(q+1)",
     "Gstar", _eigen("Gstar")),
    ("module.r_action", "R w[i+1,j-1] = c_(i,j) w[i,j] with the displayed c",
     "R", partial(_shift_action, name="c", di=1)),
    ("module.l_action", "L w[i-1,j+1] = b_(i,j) w[i,j] with the displayed b",
     "L", partial(_shift_action, name="b", di=-1)),
    ("module.a_action",
     "A w[i,j] = b_(i+1,j-1) w[i+1,j-1] + a_(i,j) w[i,j] + c_(i-1,j+1) w[i-1,j+1]",
     "A", lambda ops: (_shift_action(ops, "c", 1) + _shift_action(ops, "b", -1)
                       + _eigen("a0", "aplus", "aminus")(ops))),
)
for _id, _desc, _lhs, _rhs in MODULE_ROWS:
    _register(_id, _desc, "module", _MOD, partial(_identity_check, lhs=_lhs, rhs=_rhs))


REGISTRY: tuple[Relation, ...] = tuple(_registry)
EVALUATORS = dict(_evaluators)
SUITES = tuple(dict.fromkeys(rel.suite for rel in REGISTRY))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def relations_for(mode: str, suites: Optional[Sequence[str]] = None) -> list[Relation]:
    """The relations of the named suites (all by default) that apply to mode.

    A named suite without a relation in mode raises ValueError, so a run
    never passes vacuously."""
    wanted = set(SUITES if not suites or "all" in suites else suites)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    out = [r for r in REGISTRY if mode in r.modes and r.suite in wanted]
    for suite in dict.fromkeys(suites or ()):
        if suite != "all" and not any(r.suite == suite for r in out):
            raise ValueError(f"suite {suite} has no relations in {mode} mode")
    return out


def select_relations(mode: str, suites, relation_ids) -> list[Relation]:
    """The relations a run of mode evaluates: the named ids when given (they
    override suites; a repeated id runs once), else relations_for(mode,
    suites).  ValueError names an unknown id or one outside mode."""
    if not relation_ids:
        return relations_for(mode, suites)
    known = {r.id: r for r in REGISTRY}
    out = []
    for rid in dict.fromkeys(relation_ids):
        rel = known.get(rid)
        if rel is None:
            raise ValueError(f"unknown relation id {rid!r}")
        if mode not in rel.modes:
            raise ValueError(f"relation {rid} does not apply to {mode} mode")
        out.append(rel)
    return out


def _outcome(ops: OperatorSet, rel_id: str, evaluator) -> Outcome:
    witness = evaluate(ops, evaluator)
    return Outcome(rel_id, "pass" if witness is None else "fail", witness)


def run_relation(ops: OperatorSet, rel_id: str) -> Outcome:
    """One relation's outcome from one evaluation.

    On a certified geometry set the evaluator runs on one representative
    row per stratum and its result there is the outcome: each representative
    is the first position of its stratum and residuals are G_y-invariant,
    so the first nonzero row of a residual is a representative row and the
    witness is the full evaluation's.  The certificate vouches for every
    operator the set holds, and the evaluator reads no other: an operand
    it builds itself raises TypeError there.  A perturbed clone (it holds
    its perturbed operators and reads the rest from its parent) of a
    certified set runs on its root's row view, at the rows its perturbation
    reaches and the first position of each stratum outside them, with the
    same witness.  What this trusts is listed in ``pgaw.symmetry``.  Any
    other set -- a module, a set built by hand, a clone of one -- runs on
    the full set."""
    return _outcome(ops, rel_id, EVALUATORS[rel_id])


def run_suites(ops: OperatorSet, suites: Optional[Sequence[str]] = None,
               relation_ids: Optional[Sequence[str]] = None) -> VerificationReport:
    """Run the selected relations of ops's mode (all suites by default), in order."""
    report = VerificationReport(_context_of(ops))
    for rel in select_relations(ops.mode, suites, relation_ids):
        start = time.perf_counter()
        report.outcomes.append(run_relation(ops, rel.id))
        report.timings[rel.id] = time.perf_counter() - start
    return report


def _context_of(ops: OperatorSet) -> dict:
    if ops.mode == GEOMETRY:
        return {"mode": GEOMETRY, "q": ops.basis.q, "h": ops.h, "k": ops.k,
                "y": ops.basis.y.label(), "size": ops.dim}
    q = getattr(ops.ring, "q", None)
    return {"mode": MODULE, "q": q if q is not None else "symbolic",
            "h": ops.h, "k": ops.k, "type": ops.basis.triple(), "dim": ops.dim}


run_geometry_suite = run_suites


def run_module_suite(module: AbstractModule, suites: Optional[Sequence[str]] = None,
                     relation_ids: Optional[Sequence[str]] = None
                     ) -> VerificationReport:
    return run_suites(module.ops, suites, relation_ids)


def verify_counts(geom: GeometryIndex,
                  relation_ids: Optional[Sequence[str]] = None) -> VerificationReport:
    """The covering-degree and level-size checks alone, or the named ones
    among them: no operators needed, as every counts relation reads only
    the lattice."""
    return run_suites(OperatorSet(QuadRing(geom.q), {}, geom), ["counts"], relation_ids)


def verify_y_invariance(q: int, h: int, k: int, y_list,
                        suites: Optional[Sequence[str]] = None) -> VerificationReport:
    """Full suite plus multiplicity map for every y; all must agree."""
    from .decompose import compute_multiplicities

    report = VerificationReport({"mode": "y-invariance", "q": q, "h": h, "k": k,
                                 "y_choices": [y.label() for y in y_list]})
    ring = QuadRing(q)
    verdicts = None
    mults = None
    # First disagreement of each kind; both outcomes are always emitted once.
    verdicts_witness = None
    mults_witness = None
    for y in y_list:
        geom = build_geometry(q, h, k, y)
        ops = build_geometry_operators(geom, ring)
        sub = run_geometry_suite(ops, suites)
        label = y.label()
        report.outcomes.append(Outcome(
            f"yinv.suite[{label}]",
            "pass" if sub.passed else "fail",
            None if sub.passed else f"failures: {[o.id for o in sub.failures()]}"))
        this_verdicts = [(o.id, o.status) for o in sub.outcomes]
        if verdicts is None:
            verdicts = this_verdicts
        elif this_verdicts != verdicts and verdicts_witness is None:
            verdicts_witness = f"relation verdicts differ for y={label}"
        this_mults = {t.triple(): m for t, m in compute_multiplicities(geom, ops).items()}
        if mults is None:
            mults = this_mults
        elif this_mults != mults and mults_witness is None:
            mults_witness = f"multiplicity map differs for y={label}: {this_mults} vs {mults}"
    for rel_id, witness in (("yinv.verdicts_agree", verdicts_witness),
                            ("yinv.multiplicities_agree", mults_witness)):
        report.outcomes.append(Outcome(rel_id, "fail" if witness else "pass", witness))
    return report


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def askey1_with_coefficient(ops: OperatorSet, middle) -> Outcome:
    """Evaluate the first relation with a replaced middle coefficient."""
    return _outcome(ops, "aw.askey1[tampered-coefficient]",
                    lambda o: _residual_witness(expr_askey1(o, middle=middle), o))


def k1l1_with_coefficient(ops: OperatorSet, coeff) -> Outcome:
    """Evaluate K1 L1 = coeff * L1 K1 (the true identity has coeff = q)."""
    return _outcome(ops, "gen.k1l1[tampered-coefficient]",
                    lambda o: _residual_witness(_q_commutation(o, "K1", "L1", right=coeff), o))
