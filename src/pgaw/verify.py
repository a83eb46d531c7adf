"""The identity engine.

Every identity the artifact is responsible for has a RelationID in REGISTRY
and exactly one evaluator; an evaluator either produces a residual operator
(which must be exactly zero) or checks a support/count predicate.  The same
registry drives geometry-mode runs (operators over the subspace lattice) and
module-mode runs (operators on an abstract module's standard basis); each
relation declares the modes it applies to.  All passes are exact -- there
are no tolerances anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .geometry import GeometryIndex, build_geometry
from .modules import AbstractModule, eigen_scalar
from .operators import (
    GEOMETRY,
    MODULE,
    OperatorSet,
    SparseOperator,
    build_geometry_operators,
    commutator,
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


def _relation(rel_id: str, description: str, suite: str, modes):
    def wrap(fn):
        if rel_id in _evaluators:
            raise ValueError(f"duplicate relation id {rel_id}")
        _registry.append(Relation(rel_id, description, suite, tuple(modes)))
        _evaluators[rel_id] = fn
        return fn
    return wrap


def _residual_witness(residual: SparseOperator, ops: OperatorSet) -> Optional[str]:
    if residual.is_zero():
        return None
    r, c, v = residual.first_nonzero()
    return f"row={ops.labels[r]}, col={ops.labels[c]}, residual={v}"


def _support_witness(op_name: str, ops: OperatorSet, allowed) -> Optional[str]:
    hit = ops[op_name].support_violation(allowed)
    if hit is None:
        return None
    r, c, v = hit
    return (f"{op_name}[{ops.labels[r]}, {ops.labels[c]}] = {v} "
            f"maps stratum {ops.ij[c]} outside its allowed image")


# -- counts (geometry only) --------------------------------------------------

def _count_check(ops: OperatorSet, lists, expected) -> Optional[str]:
    geom = ops.geometry
    for p, (i, j) in enumerate(geom.ij):
        want = expected(i, j, geom)
        got = len(lists[p])
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


@_relation("counts.slash_down",
           "every element of stratum (i,j) slash-covers exactly q^j*[i] elements",
           "counts", _GEO)
def _(ops):
    return _count_check(ops, ops.geometry.slash_covers_of,
                        lambda i, j, g: g.q ** j * q_int(i, g.q))


@_relation("counts.backslash_down",
           "every element of stratum (i,j) backslash-covers exactly [j] elements",
           "counts", _GEO)
def _(ops):
    return _count_check(ops, ops.geometry.backslash_covers_of,
                        lambda i, j, g: q_int(j, g.q))


@_relation("counts.slash_up",
           "every element of stratum (i,j) is slash-covered by exactly [k-i] elements",
           "counts", _GEO)
def _(ops):
    return _count_check(ops, ops.geometry.slash_covered_by,
                        lambda i, j, g: q_int(g.k - i, g.q))


@_relation("counts.backslash_up",
           "every element of stratum (i,j) is backslash-covered by exactly "
           "q^(k-i)*[h-j] elements",
           "counts", _GEO)
def _(ops):
    return _count_check(ops, ops.geometry.backslash_covered_by,
                        lambda i, j, g: g.q ** (g.k - i) * q_int(g.h - j, g.q))


# -- structure ----------------------------------------------------------------

@_relation("struct.estar_sum", "sum of the level projections E*_l is the identity",
           "structure", _BOTH)
def _(ops):
    total = SparseOperator.zero(ops.dim)
    for level in range(ops.h + ops.k + 1):
        total = total + ops.estar_level(level)
    return _residual_witness(total - ops.identity(), ops)


@_relation("struct.estar_orth", "E*_a E*_b = delta_ab E*_a for all level pairs",
           "structure", _BOTH)
def _(ops):
    for a in range(ops.h + ops.k + 1):
        ea = ops.estar_level(a)
        for b in range(ops.h + ops.k + 1):
            prod = ea @ ops.estar_level(b)
            want = ea if a == b else SparseOperator.zero(ops.dim)
            w = _residual_witness(prod - want, ops)
            if w:
                return f"pair (l={a}, l={b}): {w}"
    return None


@_relation("struct.estar_split",
           "E*_l is the sum of the stratum projections E*_(i,j) with i+j=l",
           "structure", _BOTH)
def _(ops):
    for level in range(ops.h + ops.k + 1):
        total = SparseOperator.zero(ops.dim)
        for i in range(ops.k + 1):
            j = level - i
            if 0 <= j <= ops.h:
                total = total + ops.estar_stratum(i, j)
        w = _residual_witness(ops.estar_level(level) - total, ops)
        if w:
            return f"level {level}: {w}"
    return None


@_relation("struct.l1_support", "L1 maps the (i,j) block into the (i-1,j) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "L1", ops, lambda r, c: ij[r] == (ij[c][0] - 1, ij[c][1]))


@_relation("struct.l2_support", "L2 maps the (i,j) block into the (i,j-1) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "L2", ops, lambda r, c: ij[r] == (ij[c][0], ij[c][1] - 1))


@_relation("struct.r1_support", "R1 maps the (i,j) block into the (i+1,j) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "R1", ops, lambda r, c: ij[r] == (ij[c][0] + 1, ij[c][1]))


@_relation("struct.r2_support", "R2 maps the (i,j) block into the (i,j+1) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "R2", ops, lambda r, c: ij[r] == (ij[c][0], ij[c][1] + 1))


@_relation("struct.r_support", "R maps the (i,j) block into the (i-1,j+1) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "R", ops, lambda r, c: ij[r] == (ij[c][0] - 1, ij[c][1] + 1))


@_relation("struct.l_support", "L maps the (i,j) block into the (i+1,j-1) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    return _support_witness(
        "L", ops, lambda r, c: ij[r] == (ij[c][0] + 1, ij[c][1] - 1))


@_relation("struct.f_support", "F0, F+, F- and F preserve every (i,j) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    for name in ("F0", "Fplus", "Fminus", "F"):
        w = _support_witness(name, ops, lambda r, c: ij[r] == ij[c])
        if w:
            return w
    return None


@_relation("struct.a_support",
           "A maps the (i,j) block into the (i+1,j-1), (i,j), (i-1,j+1) blocks",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij

    def allowed(r, c):
        i, j = ij[c]
        return ij[r] in ((i + 1, j - 1), (i, j), (i - 1, j + 1))

    return _support_witness("A", ops, allowed)


@_relation("struct.omega_support", "Omega0, Omega1, Omega2 preserve every (i,j) block",
           "structure", _BOTH)
def _(ops):
    ij = ops.ij
    for name in ("Omega0", "Omega1", "Omega2"):
        w = _support_witness(name, ops, lambda r, c: ij[r] == ij[c])
        if w:
            return w
    return None


# -- generator relations -------------------------------------------------------

def _q(ops):
    return ops.ring.q_power(1)


@_relation("gen.k1l1", "K1 L1 = q L1 K1", "generators", _BOTH)
def _(ops):
    res = ops.prod("K1", "L1") - ops.prod("L1", "K1").scale(_q(ops))
    return _residual_witness(res, ops)


@_relation("gen.k1l2", "K1 L2 = L2 K1", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("K1", "L2") - ops.prod("L2", "K1"), ops)


@_relation("gen.k1r1", "q K1 R1 = R1 K1", "generators", _BOTH)
def _(ops):
    res = ops.prod("K1", "R1").scale(_q(ops)) - ops.prod("R1", "K1")
    return _residual_witness(res, ops)


@_relation("gen.k1r2", "K1 R2 = R2 K1", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("K1", "R2") - ops.prod("R2", "K1"), ops)


@_relation("gen.k2l1", "K2 L1 = L1 K2", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("K2", "L1") - ops.prod("L1", "K2"), ops)


@_relation("gen.k2l2", "q K2 L2 = L2 K2", "generators", _BOTH)
def _(ops):
    res = ops.prod("K2", "L2").scale(_q(ops)) - ops.prod("L2", "K2")
    return _residual_witness(res, ops)


@_relation("gen.k2r1", "K2 R1 = R1 K2", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("K2", "R1") - ops.prod("R1", "K2"), ops)


@_relation("gen.k2r2", "K2 R2 = q R2 K2", "generators", _BOTH)
def _(ops):
    res = ops.prod("K2", "R2") - ops.prod("R2", "K2").scale(_q(ops))
    return _residual_witness(res, ops)


@_relation("gen.l1r2", "L1 R2 = R2 L1", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("L1", "R2") - ops.prod("R2", "L1"), ops)


@_relation("gen.l2r1", "L2 R1 = R1 L2", "generators", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("L2", "R1") - ops.prod("R1", "L2"), ops)


@_relation("gen.l1l2", "q L1 L2 = L2 L1", "generators", _BOTH)
def _(ops):
    res = ops.prod("L1", "L2").scale(_q(ops)) - ops.prod("L2", "L1")
    return _residual_witness(res, ops)


@_relation("gen.r1r2", "R1 R2 = q R2 R1", "generators", _BOTH)
def _(ops):
    res = ops.prod("R1", "R2") - ops.prod("R2", "R1").scale(_q(ops))
    return _residual_witness(res, ops)


@_relation("gen.cubic_r1",
           "R1^2 L1 - (q+1) R1 L1 R1 + q L1 R1^2 = -q^((h+k)/2-1)(q+1) K1^-1 K2 R1",
           "generators", _BOTH)
def _(ops):
    ring, q = ops.ring, _q(ops)
    r1, l1 = ops["R1"], ops["L1"]
    lhs = (ops.prod("R1", "R1") @ l1) - (r1 @ ops.prod("L1", "R1")).scale(q + 1) \
        + (l1 @ ops.prod("R1", "R1")).scale(q)
    rhs = (ops.prod("K1i", "K2") @ r1).scale(ring.q_half(ops.h + ops.k - 2) * (q + 1))
    return _residual_witness(lhs + rhs, ops)


@_relation("gen.cubic_r2",
           "q R2^2 L2 - (q+1) R2 L2 R2 + L2 R2^2 = -q^((h+k)/2)(q+1) K1 K2^-1 R2",
           "generators", _BOTH)
def _(ops):
    ring, q = ops.ring, _q(ops)
    r2, l2 = ops["R2"], ops["L2"]
    lhs = (ops.prod("R2", "R2") @ l2).scale(q) - (r2 @ ops.prod("L2", "R2")).scale(q + 1) \
        + (l2 @ ops.prod("R2", "R2"))
    rhs = (ops.prod("K1", "K2i") @ r2).scale(ring.q_half(ops.h + ops.k) * (q + 1))
    return _residual_witness(lhs + rhs, ops)


@_relation("gen.cubic_l1",
           "q L1^2 R1 - (q+1) L1 R1 L1 + R1 L1^2 = -q^((h+k)/2)(q+1) K1^-1 K2 L1",
           "generators", _BOTH)
def _(ops):
    ring, q = ops.ring, _q(ops)
    r1, l1 = ops["R1"], ops["L1"]
    lhs = (ops.prod("L1", "L1") @ r1).scale(q) - (l1 @ ops.prod("R1", "L1")).scale(q + 1) \
        + (r1 @ ops.prod("L1", "L1"))
    rhs = (ops.prod("K1i", "K2") @ l1).scale(ring.q_half(ops.h + ops.k) * (q + 1))
    return _residual_witness(lhs + rhs, ops)


@_relation("gen.cubic_l2",
           "L2^2 R2 - (q+1) L2 R2 L2 + q R2 L2^2 = -q^((h+k)/2-1)(q+1) K1 K2^-1 L2",
           "generators", _BOTH)
def _(ops):
    ring, q = ops.ring, _q(ops)
    r2, l2 = ops["R2"], ops["L2"]
    lhs = (ops.prod("L2", "L2") @ r2) - (l2 @ ops.prod("R2", "L2")).scale(q + 1) \
        + (r2 @ ops.prod("L2", "L2")).scale(q)
    rhs = (ops.prod("K1", "K2i") @ l2).scale(ring.q_half(ops.h + ops.k - 2) * (q + 1))
    return _residual_witness(lhs + rhs, ops)


@_relation("gen.mixed_balance",
           "L1R1 - R1L1 + L2R2 - R2L2 = q^((h+k)/2)(q-1)^-1 (K1K2^-1 - K1^-1K2)",
           "generators", _BOTH)
def _(ops):
    ring = ops.ring
    lhs = ops.prod("L1", "R1") - ops.prod("R1", "L1") \
        + ops.prod("L2", "R2") - ops.prod("R2", "L2")
    rhs = (ops.prod("K1", "K2i") - ops.prod("K1i", "K2")) \
        .scale(ring.q_half(ops.h + ops.k)) \
        .scale(ring.inv(ring.q_power(1) - 1))
    return _residual_witness(lhs - rhs, ops)


# -- F family -------------------------------------------------------------------

@_relation("f.f0_slash",
           "combinatorial F0 = L1R1 - R1L1 + (q-1)^-1 (q^((h+k)/2) K1^-1 K2 "
           "- q^(k/2) K1 - q^(h/2) K2 + I)",
           "f", _GEO)
def _(ops):
    return _residual_witness(ops["F0"] - expr_f0_slash(ops), ops)


@_relation("f.f0_backslash",
           "F0 = R2L2 - L2R2 + (q-1)^-1 (q^((h+k)/2) K1 K2^-1 "
           "- q^(k/2) K1 - q^(h/2) K2 + I)",
           "f", _BOTH)
def _(ops):
    return _residual_witness(ops["F0"] - expr_f0_backslash(ops), ops)


@_relation("f.fplus_def",
           "combinatorial F+ = L2R2 - q^(k/2)(q-1)^-1 K1 (q^(h/2) K2^-1 - I)",
           "f", _GEO)
def _(ops):
    return _residual_witness(ops["Fplus"] - expr_fplus(ops), ops)


@_relation("f.fminus_def",
           "combinatorial F- = R1L1 - q^(h/2)(q-1)^-1 (q^(k/2) K1^-1 - I) K2",
           "f", _GEO)
def _(ops):
    return _residual_witness(ops["Fminus"] - expr_fminus(ops), ops)


@_relation("f.fsum", "combinatorial F equals F0 + F+ + F-", "f", _GEO)
def _(ops):
    return _residual_witness(
        ops["F"] - (ops["F0"] + ops["Fplus"] + ops["Fminus"]), ops)


@_relation("f.via_lr", "F = L1R1 + L2R2 - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)",
           "f", _BOTH)
def _(ops):
    return _residual_witness(ops["F"] - expr_f_via_lr(ops), ops)


@_relation("f.via_rl", "F = R1L1 + R2L2 - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)",
           "f", _BOTH)
def _(ops):
    return _residual_witness(ops["F"] - expr_f_via_rl(ops), ops)


@_relation("f.back_l1r1", "L1R1 = F0 + F- + (q-1)^-1 (q^(k/2) K1 - I)", "f", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("L1", "R1") - expr_back_l1r1(ops), ops)


@_relation("f.back_r1l1", "R1L1 = F- + q^(h/2)(q-1)^-1 (q^(k/2) K1^-1 - I) K2",
           "f", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("R1", "L1") - expr_back_r1l1(ops), ops)


@_relation("f.back_l2r2", "L2R2 = F+ + q^(k/2)(q-1)^-1 K1 (q^(h/2) K2^-1 - I)",
           "f", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("L2", "R2") - expr_back_l2r2(ops), ops)


@_relation("f.back_r2l2", "R2L2 = F0 + F+ + (q-1)^-1 (q^(h/2) K2 - I)", "f", _BOTH)
def _(ops):
    return _residual_witness(ops.prod("R2", "L2") - expr_back_r2l2(ops), ops)


@_relation("f.comm_0p", "[F0, F+] = 0", "f", _BOTH)
def _(ops):
    return _residual_witness(commutator(ops["F0"], ops["Fplus"]), ops)


@_relation("f.comm_0m", "[F0, F-] = 0", "f", _BOTH)
def _(ops):
    return _residual_witness(commutator(ops["F0"], ops["Fminus"]), ops)


@_relation("f.comm_pm", "[F+, F-] = 0", "f", _BOTH)
def _(ops):
    return _residual_witness(commutator(ops["Fplus"], ops["Fminus"]), ops)


# -- R, L, A, A* ------------------------------------------------------------------

@_relation("a.r_prod", "combinatorial R equals L1 R2", "rla", _GEO)
def _(ops):
    return _residual_witness(ops["R"] - ops.prod("L1", "R2"), ops)


@_relation("a.l_prod", "combinatorial L equals L2 R1", "rla", _GEO)
def _(ops):
    return _residual_witness(ops["L"] - ops.prod("L2", "R1"), ops)


@_relation("a.rl_transpose", "R equals the transpose of L", "rla", _GEO)
def _(ops):
    return _residual_witness(ops["R"] - ops["L"].transpose(), ops)


@_relation("a.sum", "combinatorial A equals R + L + F", "rla", _GEO)
def _(ops):
    return _residual_witness(ops["A"] - (ops["R"] + ops["L"] + ops["F"]), ops)


@_relation("a.via_lr", "A = (L1+L2)(R1+R2) - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)",
           "rla", _BOTH)
def _(ops):
    return _residual_witness(ops["A"] - expr_a_via_lr(ops), ops)


@_relation("a.via_rl", "A = (R1+R2)(L1+L2) - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)",
           "rla", _BOTH)
def _(ops):
    return _residual_witness(ops["A"] - expr_a_via_rl(ops), ops)


@_relation("a.astar_diag", "A* is diagonal with entry q^i on the (i,j) block",
           "rla", _BOTH)
def _(ops):
    ring = ops.ring
    expected = SparseOperator.diagonal([ring.q_power(i) for i, _ in ops.ij])
    return _residual_witness(ops["Astar"] - expected, ops)


# -- center -----------------------------------------------------------------------

def _central_commutator(idx: int, gen: str):
    rel_id = f"center.omega{idx}_{gen.lower()}"

    @_relation(rel_id, f"[Omega{idx}, {gen}] = 0", "center", _BOTH)
    def _(ops, _idx=idx, _gen=gen):
        return _residual_witness(commutator(ops[f"Omega{_idx}"], ops[_gen]), ops)


for _idx in (0, 1, 2):
    for _gen in ("L1", "L2", "R1", "R2", "K1", "K2"):
        _central_commutator(_idx, _gen)


@_relation("center.f0_rebuild",
           "F0 = (q-1)^-1 (q^((h+k)/2) Omega0 K1 K2 - q^(k/2) K1 - q^(h/2) K2 + I)",
           "center", _BOTH)
def _(ops):
    return _residual_witness(ops["F0"] - expr_f0_central(ops), ops)


@_relation("center.fplus_rebuild",
           "F+ = (q-1)^-1 (q^(k/2) Omega2 - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K2 + K2^-1)"
           " - 2q^(k/2+1) I)) K1",
           "center", _BOTH)
def _(ops):
    return _residual_witness(ops["Fplus"] - expr_fplus_central(ops), ops)


@_relation("center.fminus_rebuild",
           "F- = (q-1)^-1 (q^(h/2) Omega1 - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K1 + K1^-1)"
           " - 2q^(h/2+1) I)) K2",
           "center", _BOTH)
def _(ops):
    return _residual_witness(ops["Fminus"] - expr_fminus_central(ops), ops)


# -- generalized Askey-Wilson pair -------------------------------------------------

@_relation("aw.askey1",
           "A^2 A* - (q+1/q) A A* A + A* A^2 - Y(A A* + A* A) - P A* = Omega A + G",
           "aw", _BOTH)
def _(ops):
    return _residual_witness(expr_askey1(ops), ops)


@_relation("aw.askey2",
           "A*^2 A - (q+1/q) A* A A* + A A*^2 = Y A*^2 + Omega A* + G*",
           "aw", _BOTH)
def _(ops):
    return _residual_witness(expr_askey2(ops), ops)


def _aw_commutator(coeff: str, against: str):
    pretty = {"Y": "Y", "P": "P", "Omega": "Omega", "G": "G", "Gstar": "G*"}
    rel_id = f"aw.comm_{coeff.lower()}_{against.lower()}"

    @_relation(rel_id, f"[{pretty[coeff]}, {against.replace('star', '*')}] = 0",
               "aw", _BOTH)
    def _(ops, _c=coeff, _a=against):
        return _residual_witness(commutator(ops[_c], ops[_a]), ops)


for _c in ("Y", "P", "Omega", "G", "Gstar"):
    for _a in ("A", "Astar"):
        _aw_commutator(_c, _a)


# -- module-only eigen tables -------------------------------------------------------

def _module_diag(ops: OperatorSet, name: str) -> SparseOperator:
    t, ring = ops.module_type, ops.ring
    return SparseOperator.diagonal(
        [eigen_scalar(name, t, i, j, ring) for i, j in ops.ij])


def _module_table_relation(rel_id: str, op_name: str, scalar_name: str, desc: str):
    @_relation(rel_id, desc, "module", _MOD)
    def _(ops, _op=op_name, _s=scalar_name):
        if "@" in _op:
            a, b = _op.split("@")
            mat = ops.prod(a, b)
        else:
            mat = ops[_op]
        return _residual_witness(mat - _module_diag(ops, _s), ops)


@_relation("module.k_eigen",
           "K1, K1^-1, K2, K2^-1 act on w[i,j] by q^(k/2-i), q^(i-k/2), "
           "q^(j-h/2), q^(h/2-j)",
           "module", _MOD)
def _(ops):
    for name in ("K1", "K1i", "K2", "K2i"):
        w = _residual_witness(ops[name] - _module_diag(ops, name), ops)
        if w:
            return f"{name}: {w}"
    return None


_module_table_relation(
    "module.double_l1r1", "L1@R1", "L1R1",
    "L1R1 acts on w[i,j] by q^(alpha+j) [i-alpha+1][k-rho-alpha-i]")
_module_table_relation(
    "module.double_r1l1", "R1@L1", "R1L1",
    "R1L1 acts on w[i,j] by q^(alpha+j) [i-alpha][k-rho-alpha-i+1]")
_module_table_relation(
    "module.double_l2r2", "L2@R2", "L2R2",
    "L2R2 acts on w[i,j] by q^(k+beta-i) [j-rho-beta+1][h-beta-j]")
_module_table_relation(
    "module.double_r2l2", "R2@L2", "R2L2",
    "R2L2 acts on w[i,j] by q^(k+beta-i) [j-rho-beta][h-beta-j+1]")
_module_table_relation(
    "module.f0_eigen", "F0", "a0",
    "F0 acts on w[i,j] by q^(k-i)[j-rho] - [j]")
_module_table_relation(
    "module.fplus_eigen", "Fplus", "aplus",
    "F+ acts on w[i,j] by q^(k-i)(q^(beta+1)[j-rho-beta][h-beta-j] - [beta])")
_module_table_relation(
    "module.fminus_eigen", "Fminus", "aminus",
    "F- acts on w[i,j] by q^j(q^(alpha+1)[i-alpha][k-rho-alpha-i] - [alpha])")
_module_table_relation(
    "module.f_eigen_sum", "F", "a",
    "F acts on w[i,j] by the sum of the three displayed parts")
_module_table_relation(
    "module.omega0_scalar", "Omega0", "Omega0",
    "Omega0 acts on the whole module by q^-rho")
_module_table_relation(
    "module.omega1_scalar", "Omega1", "Omega1",
    "Omega1 acts on the whole module by q[k-rho-alpha] + [alpha]")
_module_table_relation(
    "module.omega2_scalar", "Omega2", "Omega2",
    "Omega2 acts on the whole module by q[h-rho-beta] + [beta]")
_module_table_relation(
    "module.y_eigen", "Y", "Y",
    "Y acts on w[i,j] by q^(h+k-l) + q^l - 1 + q^-1 with l = i+j")
_module_table_relation(
    "module.p_eigen", "P", "P",
    "P acts on w[i,j] by q(q-1)^-2 ((q^(h+k-l)+q^l-1+q^-1)^2 - q^(h+k-2)(q+1)^2)")
_module_table_relation(
    "module.omega_eigen", "Omega", "Omega",
    "Omega acts on w[i,j] by -(q^(h+k-rho-beta) + q^(k+beta-1) "
    "+ q^(k+l-rho-alpha) + q^(l+alpha-1))")
_module_table_relation(
    "module.g_eigen", "G", "G",
    "G acts on w[i,j] by the displayed (q-1)^-1 combination at l = i+j")
_module_table_relation(
    "module.gstar_eigen", "Gstar", "Gstar",
    "G* acts on w[i,j] by q^(k+l-rho-1)(q+1)")


@_relation("module.r_action", "R w[i+1,j-1] = c_(i,j) w[i,j] with the displayed c",
           "module", _MOD)
def _(ops):
    t, ring = ops.module_type, ops.ring
    index = {bj: p for p, bj in enumerate(ops.ij)}
    expected: dict = {}
    for (i, j), row in index.items():
        src = (i + 1, j - 1)
        if src in index:
            c_val = eigen_scalar("c", t, i, j, ring)
            if c_val:
                expected.setdefault(row, {})[index[src]] = c_val
    return _residual_witness(ops["R"] - SparseOperator(ops.dim, expected), ops)


@_relation("module.l_action", "L w[i-1,j+1] = b_(i,j) w[i,j] with the displayed b",
           "module", _MOD)
def _(ops):
    t, ring = ops.module_type, ops.ring
    index = {bj: p for p, bj in enumerate(ops.ij)}
    expected: dict = {}
    for (i, j), row in index.items():
        src = (i - 1, j + 1)
        if src in index:
            b_val = eigen_scalar("b", t, i, j, ring)
            if b_val:
                expected.setdefault(row, {})[index[src]] = b_val
    return _residual_witness(ops["L"] - SparseOperator(ops.dim, expected), ops)


@_relation("module.a_action",
           "A w[i,j] = b_(i+1,j-1) w[i+1,j-1] + a_(i,j) w[i,j] + c_(i-1,j+1) w[i-1,j+1]",
           "module", _MOD)
def _(ops):
    t, ring = ops.module_type, ops.ring
    index = {bj: p for p, bj in enumerate(ops.ij)}
    expected: dict = {}
    for (i, j), col in index.items():
        targets = (
            ((i + 1, j - 1), eigen_scalar("b", t, i + 1, j - 1, ring)),
            ((i, j), eigen_scalar("a", t, i, j, ring)),
            ((i - 1, j + 1), eigen_scalar("c", t, i - 1, j + 1, ring)),
        )
        for target, value in targets:
            if target in index and value:
                expected.setdefault(index[target], {})[col] = value
    return _residual_witness(ops["A"] - SparseOperator(ops.dim, expected), ops)


REGISTRY: tuple[Relation, ...] = tuple(_registry)
EVALUATORS = dict(_evaluators)
SUITES = tuple(dict.fromkeys(rel.suite for rel in REGISTRY))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def relations_for(mode: str, suites: Optional[Sequence[str]] = None) -> list[Relation]:
    wanted = set(SUITES if not suites or "all" in suites else suites)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    return [r for r in REGISTRY if mode in r.modes and r.suite in wanted]


def _select(mode: str, suites, relation_ids) -> list[Relation]:
    if not relation_ids:
        return relations_for(mode, suites)
    known = {r.id: r for r in REGISTRY}
    out = []
    for rid in relation_ids:
        rel = known.get(rid)
        if rel is None:
            raise ValueError(f"unknown relation id {rid!r}")
        if mode not in rel.modes:
            raise ValueError(f"relation {rid} does not apply to {mode} mode")
        out.append(rel)
    return out


def run_relation(ops: OperatorSet, rel_id: str) -> Outcome:
    witness = EVALUATORS[rel_id](ops)
    if witness is None:
        return Outcome(rel_id, "pass")
    return Outcome(rel_id, "fail", witness)


def run_suites(ops: OperatorSet, suites: Optional[Sequence[str]] = None,
               context: Optional[dict] = None,
               relation_ids: Optional[Sequence[str]] = None) -> VerificationReport:
    report = VerificationReport(context if context is not None else _context_of(ops))
    for rel in _select(ops.mode, suites, relation_ids):
        start = time.perf_counter()
        report.outcomes.append(run_relation(ops, rel.id))
        report.timings[rel.id] = time.perf_counter() - start
    return report


def _context_of(ops: OperatorSet) -> dict:
    if ops.mode == GEOMETRY and ops.geometry is not None:
        geom = ops.geometry
        return {"mode": GEOMETRY, "q": geom.q, "h": geom.h, "k": geom.k,
                "y": geom.y.label(), "size": geom.size}
    t = ops.module_type
    q = getattr(ops.ring, "q", None)
    return {"mode": MODULE, "q": q if q is not None else "symbolic",
            "h": ops.h, "k": ops.k,
            "type": t.triple() if t is not None else None, "dim": ops.dim}


def run_geometry_suite(ops: OperatorSet, suites: Optional[Sequence[str]] = None,
                       relation_ids: Optional[Sequence[str]] = None
                       ) -> VerificationReport:
    return run_suites(ops, suites, _context_of(ops), relation_ids)


def run_module_suite(module: AbstractModule, suites: Optional[Sequence[str]] = None,
                     relation_ids: Optional[Sequence[str]] = None
                     ) -> VerificationReport:
    return run_suites(module.ops, suites, None, relation_ids)


def verify_generator_relations(ops: OperatorSet) -> VerificationReport:
    """The seventeen relations among L1, L2, R1, R2, K1, K2 alone."""
    return run_suites(ops, ["generators"])


def verify_F_relations(ops: OperatorSet) -> VerificationReport:
    """Both routes to the F family, the back-substitutions, mutual commutation."""
    return run_suites(ops, ["f"])


def verify_center(ops: OperatorSet) -> VerificationReport:
    """Centrality of Omega0..2 and the F-family rebuilds from the center."""
    return run_suites(ops, ["center"])


def verify_main_theorem(ops: OperatorSet) -> VerificationReport:
    """The generalized Askey-Wilson pair and its coefficient centrality."""
    return run_suites(ops, ["aw"])


def verify_counts(geom: GeometryIndex) -> VerificationReport:
    """The covering-degree and level-size checks alone (no operators needed)."""
    ops = OperatorSet(GEOMETRY, QuadRing(geom.q), geom.h, geom.k, geom.ij,
                      geom.labels(), geometry=geom)
    return run_suites(ops, ["counts"],
                      {"mode": GEOMETRY, "q": geom.q, "h": geom.h, "k": geom.k,
                       "y": geom.y.label(), "size": geom.size})


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
    witness = _residual_witness(expr_askey1(ops, middle=middle), ops)
    if witness is None:
        return Outcome("aw.askey1[tampered-coefficient]", "pass")
    return Outcome("aw.askey1[tampered-coefficient]", "fail", witness)


def k1l1_with_coefficient(ops: OperatorSet, coeff) -> Outcome:
    """Evaluate K1 L1 = coeff * L1 K1 (the true identity has coeff = q)."""
    res = ops.prod("K1", "L1") - ops.prod("L1", "K1").scale(coeff)
    witness = _residual_witness(res, ops)
    if witness is None:
        return Outcome("gen.k1l1[tampered-coefficient]", "pass")
    return Outcome("gen.k1l1[tampered-coefficient]", "fail", witness)
