"""Sparse exact operators and the named operator families.

A SparseOperator is a square matrix (M0 + sqrt(q) M1) / d: two dict-of-rows
numerator matrices over one shared positive integer denominator d, with M1
empty unless some entry is irrational.  Over Q(sqrt q) (geometry mode and
numeric modules) every numerator is a Python int, so products, sums and
zero tests run on integer arithmetic: a product combines the parts as
M0 N0 + q M1 N1 and M0 N1 + M1 N0 over d e, a sum cross-multiplies the
denominators, and a residual is zero iff both parts are empty.  A
difference X - Y over a shared d subtracts Y's entries from a copy of X's
rows, negating only the entries X lacks, and leaves both operands as they
were.  Symbolic entries (RatFunc) go through the same row kernels as their
own numerators over d = 1.  ``entry`` and the witnesses render the
canonical scalar (int, Fraction, QuadScalar or RatFunc).

The 0/1 operators -- the geometry incidence families, the identity and
the projections E* -- are int rows stored as M0 over d = 1 with no
per-entry conversion.  A product with a diagonal operand (the K diagonals
and their products, the identity, E*) is a row or column scaling of the
other operand, chosen by the row kernel from its input.

The geometry's 0/1 families are data (``FAMILIES``): words of cover
steps whose walks from u end at the ones of row u.  Reversing each word
and inverting each step gives the family of the transpose (``TRANSPOSES``).

A LazyOperator produces each row when it is first read, and keeps it.
Every diagonal that is a function of the weight is one, made by
``weight_diagonal``: the K's, the identity, E* and a module's closed
forms.  So is every other operator of a set ``build_geometry_operators``
made: the 0/1 families walk their words, and a certified set's derived
operators come from their representative rows (``pgaw.symmetry``).  So
is a perturbed clone's operator (``plus_entries``).  Any other operator
is stored in full.  A product ``x @ y`` reads a lazy y
only at the rows x reaches (``rows_for``), so a product of representative
rows produces no other row of y; any other read of M0 or M1 (that of x
in ``x @ y`` included) produces every row once, after which the operator
is a plain one.  d and q are known without a row, and on a certified
set ``nnz`` alone reads only the representative rows.

An OperatorSet holds the named operators over one basis: the subspace
lattice (a GeometryIndex: geometry mode, entries in Q(sqrt q)) or an
abstract module's (a ModuleType: module mode, numeric or symbolic
entries).  It is fixed once built: its builder passes in the ring, the
inputs and the basis, any other name is derived from its one definition
in ``DERIVED`` at its first read, and nothing is assigned later.  Only a
set that ``build_geometry_operators`` made has a ``pgaw.symmetry``
certificate, and it vouches for every operator the set holds.  A
``perturbed`` clone holds only its perturbed operator, the root's plus
the perturbed entries, whose rows it makes from the root's when they are
first read (``plus_entries``), and reads every other name from its
parent; a clone of a certified set is evaluated on its root's row view
(``pgaw.symmetry``).  Operators with two independent definitions are
built both ways; the verifier compares them.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Callable, Optional

from .geometry import COVER_LISTS, GeometryIndex
from .rings import QuadRing, QuadScalar, RingMismatchError

GEOMETRY = "geometry"
MODULE = "module"


def _split(s):
    """Scalar s as (n0, n1, d, q) with s = (n0 + n1*sqrt(q))/d and integer d > 0.

    n0 and n1 are ints for int, Fraction and QuadScalar values; any other
    scalar (a RatFunc) is its own numerator over d = 1.  q is None when
    n1 is zero.
    """
    t = type(s)
    if t is int:
        return s, 0, 1, None
    if t is Fraction:
        return s.numerator, 0, s.denominator, None
    if t is QuadScalar:
        d = lcm(s.a.denominator, s.b.denominator)
        return (s.a.numerator * (d // s.a.denominator),
                s.b.numerator * (d // s.b.denominator), d, s.q)
    return s, 0, 1, None


def _value(n0, n1, d: int, q):
    """The canonical scalar (n0 + n1*sqrt(q))/d: int, Fraction, QuadScalar or RatFunc."""
    if n1:
        return QuadScalar(Fraction(n0, d), Fraction(n1, d), q)
    if d == 1:
        return n0
    v = Fraction(n0, d) if type(n0) is int else n0 / d
    if type(v) is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _common_q(*qs):
    """The one q among the irrational parts; mixing two raises RingMismatchError."""
    out = None
    for q in qs:
        if q is not None:
            if out is not None and q != out:
                raise RingMismatchError(f"mixed ring parameters q={out} and q={q}")
            out = q
    return out


# -- row kernels: dict-of-rows matrices of numerators, zeros never stored ------

def _diagonal(x: dict):
    """{r: x[r][r]} when x is diagonal, else None; stops at the first
    off-diagonal row."""
    diag = {}
    for r, row in x.items():
        if len(row) != 1 or r not in row:
            return None
        diag[r] = row[r]
    return diag


def _rows_mul(x: dict, y: dict) -> dict:
    """x @ y; a diagonal operand makes it a column (y) or row (x) scaling.

    y is scanned for a diagonal only when x has at least as many rows: on
    fewer rows (the representative rows of ``pgaw.symmetry``) the product
    below costs O(nnz x) against a diagonal y, less than the scan.  A
    product of nonzero field elements is nonzero, so scaling stores no
    zero; a row or column that meets a missing diagonal entry is dropped."""
    diag = _diagonal(y) if len(x) >= len(y) else None
    if diag is not None:
        out = {}
        for r, row in x.items():
            scaled = {c: v * diag[c] for c, v in row.items() if c in diag}
            if scaled:
                out[r] = scaled
        return out
    diag = _diagonal(x)
    if diag is not None:
        return {r: {c: s * v for c, v in y[r].items()}
                for r, s in diag.items() if r in y}
    out = {}
    for r, row in x.items():
        acc: dict = {}
        for m, xv in row.items():
            yrow = y.get(m)
            if yrow is None:
                continue
            if type(xv) is int and xv == 1:
                for c, yv in yrow.items():
                    if c in acc:
                        acc[c] += yv
                    else:
                        acc[c] = yv
            else:
                for c, yv in yrow.items():
                    if c in acc:
                        acc[c] += xv * yv
                    else:
                        acc[c] = xv * yv
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _rows_scale(x: dict, s) -> dict:
    """s * x; a product of nonzero field elements is nonzero."""
    if type(s) is int:
        if s == 1:
            return x
        if not s:
            return {}
        if s == -1:  # negating a RatFunc is cheaper than multiplying it
            return {r: {c: -v for c, v in row.items()} for r, row in x.items()}
    return {r: {c: s * v for c, v in row.items()} for r, row in x.items()}


def _rows_lincomb(x: dict, a, y: dict, b) -> dict:
    """a * x + b * y.  No input is changed, and the output shares no row
    with one unless it is x or y itself (the other term empty or zero, its
    own coefficient 1).  b = -1 subtracts y's entries and negates only those
    new to the output."""
    if not b or not y:
        return _rows_scale(x, a)
    if not a or not x:
        return _rows_scale(y, b)
    out = _rows_scale(x, a)
    if out is x:
        out = {r: dict(row) for r, row in x.items()}
    if type(b) is int and b == -1:
        for r, row in y.items():
            mine = out.get(r)
            if mine is None:
                out[r] = {c: -v for c, v in row.items()}
                continue
            for c, v in row.items():
                if c not in mine:
                    mine[c] = -v
                    continue
                s = mine[c] - v
                if s:
                    mine[c] = s
                else:
                    del mine[c]
            if not mine:
                del out[r]
        return out
    scaled = _rows_scale(y, b)
    for r, row in scaled.items():
        mine = out.get(r)
        if mine is None:
            out[r] = dict(row) if scaled is y else row
            continue
        for c, v in row.items():
            if c not in mine:
                mine[c] = v
                continue
            s = mine[c] + v
            if s:
                mine[c] = s
            else:
                del mine[c]
        if not mine:
            del out[r]
    return out


def _content(d: int, parts) -> int:
    """gcd of d and every numerator; 1 when some numerator is not an int."""
    g = d
    for part in parts:
        for row in part.values():
            try:
                g = gcd(g, *row.values())
            except TypeError:  # a RatFunc or Fraction numerator
                return 1
            if g == 1:
                return 1
    return g


def _rows_transpose(x: dict) -> dict:
    out: dict = {}
    for r, row in x.items():
        for c, v in row.items():
            out.setdefault(c, {})[r] = v
    return out


class SparseOperator:
    """Square sparse matrix (M0 + sqrt(q) M1) / d over one shared denominator.

    M0 and M1 are dict-of-rows numerator matrices; d is a positive int.  In
    geometry and numeric module mode every numerator is a Python int, so
    products, sums and zero tests run on integer arithmetic; a RatFunc entry
    (symbolic module mode) is its own numerator over d = 1.  M1 is empty,
    and q None, unless some entry is irrational.  No zero numerator and no
    empty row is stored, so the operator is zero iff both parts are empty.
    """

    __slots__ = ("dim", "d", "m0", "m1", "q")

    def __init__(self, dim: int, rows: Optional[dict] = None):
        """The operator with the given scalar dict-of-rows entries."""
        self.dim = dim
        self.d, self.m0, self.m1, self.q = 1, {}, {}, None
        if not rows:
            return
        split = {r: {c: _split(v) for c, v in row.items() if v}
                 for r, row in rows.items()}
        d = lcm(*(e[2] for row in split.values() for e in row.values()))
        m0: dict = {}
        m1: dict = {}
        for r, row in split.items():
            for c, (n0, n1, e, _) in row.items():
                f = d // e
                if n0:
                    m0.setdefault(r, {})[c] = n0 * f if f != 1 else n0
                if n1:
                    m1.setdefault(r, {})[c] = n1 * f
        self._set(d, m0, m1, _common_q(*(e[3] for row in split.values()
                                         for e in row.values())))

    def _set(self, d: int, m0: dict, m1: dict, q) -> "SparseOperator":
        """Store the parts in lowest terms: d coprime to the numerators' gcd."""
        g = _content(d, (m0, m1)) if d != 1 else 1
        if g != 1:
            d //= g
            m0 = {r: {c: v // g for c, v in row.items()} for r, row in m0.items()}
            m1 = {r: {c: v // g for c, v in row.items()} for r, row in m1.items()}
        self.d, self.m0, self.m1 = d, m0, m1
        self.q = q if m1 else None
        return self

    def _new(self, d: int, m0: dict, m1: dict, q) -> "SparseOperator":
        op = SparseOperator.__new__(SparseOperator)
        op.dim = self.dim
        return op._set(d, m0, m1, q)

    # -- constructors --------------------------------------------------------

    @classmethod
    def diagonal(cls, values) -> "SparseOperator":
        return cls(len(values), {r: {r: v} for r, v in enumerate(values)})

    # -- queries --------------------------------------------------------------

    def entry(self, r: int, c: int):
        return _value(self.m0.get(r, {}).get(c, 0), self.m1.get(r, {}).get(c, 0),
                      self.d, self.q)

    def _positions(self):
        """Stored (row, col) positions in row-major order."""
        m0, m1 = self.m0, self.m1
        for r in sorted(m0.keys() | m1.keys()):
            for c in sorted(m0.get(r, {}).keys() | m1.get(r, {}).keys()):
                yield r, c

    def nnz(self) -> int:
        if not self.m1:
            return sum(len(row) for row in self.m0.values())
        return sum(1 for _ in self._positions())

    def is_zero(self) -> bool:
        return not self.m0 and not self.m1

    def first_nonzero(self):
        """(row, col, value) of the first entry in row-major order, or None."""
        for r, c in self._positions():
            return r, c, self.entry(r, c)
        return None

    def support_violation(self, allowed: Callable[[int, int], bool]):
        """First (row, col, value) with allowed(row, col) false, else None."""
        for r, c in self._positions():
            if not allowed(r, c):
                return r, c, self.entry(r, c)
        return None

    # -- arithmetic -----------------------------------------------------------

    def _combine(self, other: "SparseOperator", sign: int) -> "SparseOperator":
        """self + sign * other, cross-multiplying the denominators."""
        q = _common_q(self.q, other.q)
        d = lcm(self.d, other.d)
        a, b = d // self.d, sign * (d // other.d)
        return self._new(d, _rows_lincomb(self.m0, a, other.m0, b),
                         _rows_lincomb(self.m1, a, other.m1, b), q)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "SparseOperator":
        return self._new(self.d, _rows_scale(self.m0, -1), _rows_scale(self.m1, -1),
                         self.q)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        """(X0 + r X1)/d @ (Y0 + r Y1)/e = (X0Y0 + q X1Y1 + r (X0Y1 + X1Y0))/(de),
        reading other only at the rows self reaches (``rows_for``)."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        other = other.rows_for(self)
        q = _common_q(self.q, other.q)
        x0, x1, y0, y1 = self.m0, self.m1, other.m0, other.m1
        m0 = _rows_mul(x0, y0)
        m1: dict = {}
        if x1 or y1:
            m0 = _rows_lincomb(m0, 1, _rows_mul(x1, y1), q)
            m1 = _rows_lincomb(_rows_mul(x0, y1), 1, _rows_mul(x1, y0), 1)
        return self._new(self.d * other.d, m0, m1, q)

    def scale(self, s) -> "SparseOperator":
        """s * self for a scalar s: (n0 + n1 r)(M0 + r M1) over e d."""
        n0, n1, e, qs = _split(s)
        if n0 == 1 and not n1 and e == 1:
            return self
        q = _common_q(self.q, qs)
        m0, m1 = self.m0, self.m1
        return self._new(self.d * e,
                         _rows_lincomb(m0, n0, m1, q * n1 if n1 else 0),
                         _rows_lincomb(m1, n0, m0, n1), q)

    def transpose(self) -> "SparseOperator":
        return self._new(self.d, _rows_transpose(self.m0), _rows_transpose(self.m1),
                         self.q)

    def with_entry_added(self, r: int, c: int, delta) -> "SparseOperator":
        """Copy with delta added at (r, c), every row stored."""
        return self + SparseOperator(self.dim, {r: {c: delta}})

    def rows_for(self, x: "SparseOperator") -> "SparseOperator":
        """An operator holding every row of self that x @ self reads: self,
        whose rows are all at hand."""
        return self

    def _row(self, u: int) -> tuple:
        """Row u as (M0 row, M1 row), each None when empty."""
        return self.m0.get(u), self.m1.get(u)

    def rows_produced(self):
        """The positions whose rows this operator has produced: all of them."""
        return range(self.dim)

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz()})"


def _stored_operator(dim: int, d: int, m0: dict, m1: dict, q) -> SparseOperator:
    """The operator (M0 + sqrt(q) M1) / d, stored as given.

    Precondition: the parts are in lowest terms, no numerator is zero, no
    row is empty, and q is None iff M1 is empty; no gcd pass is made."""
    op = SparseOperator(dim)
    op.d, op.m0, op.m1, op.q = d, m0, m1, q
    return op


class LazyOperator(SparseOperator):
    """An operator whose rows are produced when first read, and kept.

    ``rule(u)`` gives row u as (M0 row, M1 row), each a dict of nonzero
    numerators over the denominator d or None when empty; d and q are
    known up front.  ``rows_for`` produces only the rows ``x @ self`` reads.
    Any read of M0 or M1 produces every row once and stores them as a
    plain operator does (the slots are filled by ``__getattr__``), so the
    full-path kernels read plain dicts.

    The owner is the OperatorSet the operator belongs to.  While the owner
    has a symmetry certificate, the operator is invariant and every row is
    a permuted representative row, so ``nnz`` reads the representative
    rows alone."""

    __slots__ = ("_rule", "_memo", "_owner")

    def __init__(self, dim: int, d: int, q, rule: Callable, memo: Optional[dict] = None,
                 owner: Optional["OperatorSet"] = None):
        self.dim, self.d, self.q = dim, d, q
        self._rule = rule
        self._memo = {} if memo is None else memo  # None once every row is stored
        self._owner = None if owner is None else weakref.ref(owner)

    def __getattr__(self, name):
        if name not in ("m0", "m1"):
            raise AttributeError(name)
        m0: dict = {}
        m1: dict = {}
        for u in range(self.dim):
            r0, r1 = self._memo.get(u) or self._rule(u)
            if r0:
                m0[u] = r0
            if r1:
                m1[u] = r1
        self.m0, self.m1 = m0, m1
        self._rule = self._memo = None
        return m0 if name == "m0" else m1

    def _row(self, u: int) -> tuple:
        if self._memo is None:
            return super()._row(u)
        row = self._memo.get(u)
        if row is None:
            row = self._memo[u] = self._rule(u)
        return row

    def rows_for(self, x: SparseOperator) -> SparseOperator:
        """The rows of self at the column support of x, as an operator."""
        parts = x.m0, x.m1  # read first: when x is self, this stores every row
        if self._memo is None:
            return self
        columns: set = set()
        for part in parts:
            for xrow in part.values():
                columns.update(xrow)
        memo, rule = self._memo, self._rule
        m0: dict = {}
        m1: dict = {}
        for c in columns:
            row = memo.get(c)
            if row is None:
                row = memo[c] = rule(c)
            r0, r1 = row
            if r0:
                m0[c] = r0
            if r1:
                m1[c] = r1
        return _stored_operator(self.dim, self.d, m0, m1, self.q if m1 else None)

    def rows_produced(self):
        return range(self.dim) if self._memo is None else self._memo.keys()

    def nnz(self) -> int:
        """On a certified owner, the sum over the strata of |S| times the
        number of positions in the representative's row; else in full."""
        owner = self._owner() if self._owner is not None else None
        if self._memo is None or owner is None or owner.certificate is None:
            return super().nnz()
        total = 0
        for members in owner.geometry.strata.values():
            r0, r1 = self._row(members[0])
            width = len(r0.keys() | r1.keys()) if r0 and r1 else len(r0 or r1 or ())
            total += len(members) * width
        return total


def plus_entries(x: SparseOperator, added: SparseOperator) -> LazyOperator:
    """x + added for an operator added of few rows, as a LazyOperator whose
    row u is made from x's row u when first read (x's own row where added
    has none, over the same denominator), so it reads x only at the rows
    it is read at.  In lowest terms when added.d == 1: adding a multiple of
    d to a numerator keeps its gcd with d."""
    d = lcm(x.d, added.d)
    a, b = d // x.d, d // added.d

    def rule(u):
        return tuple(_rows_lincomb({u: row} if row else {}, a,
                                   {u: extra} if extra else {}, b).get(u)
                     for row, extra in zip(x._row(u), (added.m0.get(u), added.m1.get(u))))
    return LazyOperator(x.dim, d, _common_q(x.q, added.q), rule)


def weight_diagonal(ij, value: Callable,
                    owner: Optional["OperatorSet"] = None) -> LazyOperator:
    """The diagonal operator whose entry at u is value(ij[u]), its row u
    produced from ij[u] when first read.  value is called once per distinct
    weight, and the numerators are put over the lcm of the denominators, in
    lowest terms: a prime power of the lcm is that of some split value's
    denominator, whose numerator is prime to it."""
    split = {w: _split(v) for w in set(ij) if (v := value(w))}
    d = lcm(*(den for _, _, den, _ in split.values()))
    numerators = {w: (n0 * (d // den) if den != d else n0, n1 * (d // den))
                  for w, (n0, n1, den, _) in split.items()}
    q = _common_q(*(qs for _, n1, _, qs in split.values() if n1))

    def rule(u):
        n0, n1 = numerators.get(ij[u], (0, 0))
        return ({u: n0} if n0 else None), ({u: n1} if n1 else None)
    return LazyOperator(len(ij), d, q, rule, owner=owner)


class _Labels(dict):
    """Position p -> ``basis.label(p)``, each made at its first read and kept."""

    def __init__(self, basis):
        self._label = basis.label

    def __missing__(self, p: int) -> str:
        label = self[p] = self._label(p)
        return label


class DiagonalReaders:
    """The identity and the projections E* on ``diagonal(key, value)``, for an
    OperatorSet and its row view (``pgaw.symmetry.RowView``)."""

    def identity(self):
        return self.diagonal("identity", lambda w: 1)

    def estar_level(self, level: int):
        """E*_level, whose row u is e_u when u is on that level."""
        return self.diagonal(level, lambda w: int(w[0] + w[1] == level))

    def estar_stratum(self, i: int, j: int):
        """E*_(i,j), whose row u is e_u when u is in the stratum (i, j)."""
        return self.diagonal((i, j), lambda w: int(w == (i, j)))


class OperatorSet(DiagonalReaders):
    """The named operators over one basis (see the module docstring), which
    alone gives ``mode``, ``h``, ``k``, the weights ``ij`` and ``dim``;
    ``labels[p]`` is made from it when a failure witness first names p, and
    a perturbed clone shares its parent's.  ``from_lattice`` is set by
    ``build_geometry_operators`` alone, and only such a set has a
    certificate: a clone of such a set runs on the set's row view, and a
    module, a set built by hand or a clone of either runs in full."""

    def __init__(self, ring, inputs: dict, basis,
                 parent: Optional["OperatorSet"] = None, from_lattice: bool = False,
                 deltas: Optional[dict] = None):
        self.ring = ring
        self.basis = basis
        self.mode = GEOMETRY if isinstance(basis, GeometryIndex) else MODULE
        self.h, self.k, self.ij = basis.h, basis.k, basis.ij
        self.dim = len(self.ij)
        self.geometry = basis if self.mode == GEOMETRY else None
        self.parent = parent
        self.labels = parent.labels if parent is not None else _Labels(basis)
        self.ops: dict[str, SparseOperator] = dict(inputs)  # inputs, then derived
        # True only when ``build_geometry_operators`` made the inputs from the
        # geometry's strata, cover lists and meet_y, which ``pgaw.symmetry``
        # checks on the lattice
        self.from_lattice = from_lattice
        # name -> what a perturbed clone adds to its root's operator name
        self.deltas: dict[str, SparseOperator] = deltas or {}
        self._diagonals: dict = {}

    def __getitem__(self, name: str) -> SparseOperator:
        """The operator this set holds, else the parent's, else DERIVED[name],
        derived once and stored (by ``pgaw.symmetry.derive``: from the
        representative rows when the set is certified)."""
        op = self.ops.get(name)
        if op is None:
            if self.parent is not None:
                return self.parent[name]
            from .symmetry import derive
            op = self.ops[name] = derive(self, DERIVED[name])
        return op

    def diagonal(self, key, value: Callable) -> SparseOperator:
        """``weight_diagonal`` of value over this basis, memoized by key: the
        identity, E*_l, E*_(i,j) and a module's closed forms.  A perturbed
        clone reads its parent's."""
        if self.parent is not None:
            return self.parent.diagonal(key, value)
        op = self._diagonals.get(key)
        if op is None:
            op = self._diagonals[key] = weight_diagonal(self.ij, value, self)
        return op

    @cached_property
    def certificate(self):
        """The symmetry certificate of this set: ``lattice_certificate`` of
        its geometry when ``build_geometry_operators`` made the set, else
        None (``pgaw.symmetry``); computed at first use."""
        if not self.from_lattice:
            return None
        from .symmetry import lattice_certificate
        return lattice_certificate(self.geometry)

    @property
    def root(self) -> "OperatorSet":
        """The set this one is a ``perturbed`` clone of, through every
        level; a set that is no clone is its own root."""
        return self if self.parent is None else self.parent.root

    def perturbed(self, name: str, r: int, c: int, delta=1) -> "OperatorSet":
        """Copy with delta added at (r, c) of the operator name (a negative
        control); ValueError when r or c is not a position.

        The clone holds only that operator, and reads every other name from
        this set.  Its operator is the root's plus ``deltas[name]``, every
        entry the clones on the way added to name (``plus_entries``), so no
        row of the root's is read before the clone's evaluation reads it.
        It is not the builder's, so it has no certificate of its own; when
        its root has one, ``pgaw.symmetry.evaluate`` runs it on the root's
        row view."""
        for axis, index in (("row", r), ("col", c)):
            if not 0 <= index < self.dim:
                raise ValueError(f"perturbed {name}: {axis} {index} is not a position "
                                 f"(0 <= {axis} < {self.dim})")
        added = SparseOperator(self.dim, {r: {c: delta}})
        if name in self.deltas:
            added = self.deltas[name] + added
        return OperatorSet(self.ring, {name: plus_entries(self.root[name], added)},
                           self.basis, parent=self, deltas={**self.deltas, name: added})

    def __repr__(self):
        return (f"OperatorSet(mode={self.mode}, dim={self.dim}, "
                f"h={self.h}, k={self.k}, ops={sorted(self.ops)})")


# e(h, k, i, j) with K = q^(e/2) on the weight (i, j)
K_EXPONENTS: dict[str, Callable[[int, int, int, int], int]] = {
    "K1": lambda h, k, i, j: k - 2 * i,
    "K1i": lambda h, k, i, j: 2 * i - k,
    "K2": lambda h, k, i, j: 2 * j - h,
    "K2i": lambda h, k, i, j: h - 2 * j,
}


def k_diagonals(ring, basis, owner: Optional[OperatorSet] = None
                ) -> dict[str, SparseOperator]:
    """The diagonal operators K1, K1i, K2 and K2i over the weights of a
    basis, q^(e/2) with e from ``K_EXPONENTS``; owner is the set they
    belong to."""
    h, k, ij = basis.h, basis.k, basis.ij
    return {name: weight_diagonal(ij, lambda w, e=e: ring.q_half(e(h, k, *w)), owner)
            for name, e in K_EXPONENTS.items()}


# ---------------------------------------------------------------------------
# geometry-mode construction
# ---------------------------------------------------------------------------

DOWN_SLASH, DOWN_BACK, UP_SLASH, UP_BACK = COVER_LISTS
_INVERSE = dict(zip(COVER_LISTS, (UP_SLASH, UP_BACK, DOWN_SLASH, DOWN_BACK)))

# Each 0/1 family as the words of cover steps whose walks from u end at the
# ones of row u.  L1, L2 go up a slash or backslash cover and R1, R2 down
# one; the others join two distinct covers of a common w: F- two slash
# upper covers, F+ two backslash lower covers, F0 two slash lower covers,
# F two upper covers of the same kind, R a backslash to a slash upper
# cover, L a slash to a backslash upper cover, and A any two upper covers.
FAMILIES: dict[str, tuple[tuple[str, ...], ...]] = {
    "L1": ((UP_SLASH,),),
    "L2": ((UP_BACK,),),
    "R1": ((DOWN_SLASH,),),
    "R2": ((DOWN_BACK,),),
    "F0": ((UP_SLASH, DOWN_SLASH),),
    "Fplus": ((UP_BACK, DOWN_BACK),),
    "Fminus": ((DOWN_SLASH, UP_SLASH),),
    "F": ((DOWN_SLASH, UP_SLASH), (DOWN_BACK, UP_BACK)),
    "R": ((DOWN_BACK, UP_SLASH),),
    "L": ((DOWN_SLASH, UP_BACK),),
    "A": tuple((down, up) for down in (DOWN_SLASH, DOWN_BACK) for up in (UP_SLASH, UP_BACK)),
}

# The families whose row u keeps a one at v only when meet_y[v] == meet_y[u]:
# F0 joins u, v with dim(u ∩ v ∩ y) = i_u, and no intersection is computed,
# since u ∩ y and v ∩ y are hyperplanes of w ∩ y, so that meet has
# dimension i_u exactly when u ∩ y = v ∩ y.  The condition is symmetric in
# u and v, so it carries over to the transpose.
SAME_MEET_Y = frozenset({"F0"})

# The family whose operator is the transpose of each family's, when each
# ``*_covered_by`` list is the inverse of its ``*_covers_of`` list: its
# words are the family's, each reversed with each step inverted.
_BY_WORDS = {(frozenset(words), name in SAME_MEET_Y): name for name, words in FAMILIES.items()}
TRANSPOSES = {name: _BY_WORDS[frozenset(tuple(_INVERSE[step] for step in reversed(word))
                                        for word in words), name in SAME_MEET_Y]
              for name, words in FAMILIES.items()}


def _walk(lists: list) -> Callable:
    """u -> the ends of the walks from u through these cover lists in turn."""
    *before, last = lists
    if not before:
        return last.__getitem__
    inner, step = _walk(before), last.__getitem__
    return lambda u: chain.from_iterable(map(step, inner(u)))


def _family_rule(geom: GeometryIndex, name: str) -> Callable:
    """Row u of a family: a 1 at the end of each walk along its words, u itself dropped."""
    walks = [_walk([getattr(geom, step) for step in word]) for word in FAMILIES[name]]
    ends = walks[0] if len(walks) == 1 else lambda u: chain.from_iterable(w(u) for w in walks)
    meet_y = geom.meet_y if name in SAME_MEET_Y else None

    def rule(u):
        row = dict.fromkeys(ends(u), 1)
        row.pop(u, None)
        if meet_y is not None:
            row = {v: 1 for v in row if meet_y[v] == meet_y[u]}
        return (row or None), None
    return rule


def build_geometry_operators(geom: GeometryIndex, ring: QuadRing) -> OperatorSet:
    """The set of operators over the lattice, with the K diagonals and the
    0/1 families of ``FAMILIES`` as inputs.

    No row is built here: each input produces a row when it is first read
    (``LazyOperator``), the K's from the row's weight and the 0/1 families
    as int numerators over d = 1.  The inputs belong to the set, so on a
    certified set they count their entries from the representative rows."""
    if getattr(ring, "kind", None) != "numeric" or ring.q != geom.q:
        raise RingMismatchError(
            "geometry operators need a numeric ring with matching q")
    ops = OperatorSet(ring, {}, geom, from_lattice=True)
    ops.ops.update(k_diagonals(ring, geom, owner=ops))
    for name in FAMILIES:
        ops.ops[name] = LazyOperator(geom.size, 1, None, _family_rule(geom, name), owner=ops)
    return ops


# ---------------------------------------------------------------------------
# defining expressions (shared by the builders and the verifier)
# ---------------------------------------------------------------------------

def _qm1_inv(ops):
    return ops.ring.inv(ops.ring.q_power(1) - 1)


def _f0_diag(ops: OperatorSet, head: SparseOperator) -> SparseOperator:
    """(q-1)^-1 (q^((h+k)/2) head - q^(k/2) K1 - q^(h/2) K2 + I)."""
    ring, h, k = ops.ring, ops.h, ops.k
    diag = head.scale(ring.q_half(h + k)) \
        - ops["K1"].scale(ring.q_half(k)) \
        - ops["K2"].scale(ring.q_half(h)) + ops.identity()
    return diag.scale(_qm1_inv(ops))


def _fplus_diag(ops: OperatorSet) -> SparseOperator:
    """q^(k/2) (q-1)^-1 K1 (q^(h/2) K2^-1 - I), the diagonal part of L2R2 - F+."""
    ring = ops.ring
    diag = (ops["K1"] @ ops["K2i"]).scale(ring.q_half(ops.h)) - ops["K1"]
    return diag.scale(ring.q_half(ops.k) * _qm1_inv(ops))


def _fminus_diag(ops: OperatorSet) -> SparseOperator:
    """q^(h/2) (q-1)^-1 (q^(k/2) K1^-1 - I) K2, the diagonal part of R1L1 - F-."""
    ring = ops.ring
    diag = (ops["K1i"] @ ops["K2"]).scale(ring.q_half(ops.k)) - ops["K2"]
    return diag.scale(ring.q_half(ops.h) * _qm1_inv(ops))


def _balance_diag(ops: OperatorSet, ka: str, kb: str) -> SparseOperator:
    """(q-1)^-1 (q^((h+k)/2) Ka Kb - I) for the diagonal pair (Ka, Kb)."""
    diag = (ops[ka] @ ops[kb]).scale(ops.ring.q_half(ops.h + ops.k)) - ops.identity()
    return diag.scale(_qm1_inv(ops))


def expr_f0_slash(ops: OperatorSet) -> SparseOperator:
    """F0 = L1R1 - R1L1 + (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - q^(k/2) K1 - q^(h/2) K2 + I)."""
    return ops["L1"] @ ops["R1"] - ops["R1"] @ ops["L1"] + _f0_diag(ops, ops["K1i"] @ ops["K2"])


def expr_f0_backslash(ops: OperatorSet) -> SparseOperator:
    """F0 = R2L2 - L2R2 + (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - q^(k/2) K1 - q^(h/2) K2 + I)."""
    return ops["R2"] @ ops["L2"] - ops["L2"] @ ops["R2"] + _f0_diag(ops, ops["K1"] @ ops["K2i"])


def expr_fplus(ops: OperatorSet) -> SparseOperator:
    """F+ = L2R2 - q^(k/2) (q-1)^-1 K1 (q^(h/2) K2^-1 - I)."""
    return ops["L2"] @ ops["R2"] - _fplus_diag(ops)


def expr_fminus(ops: OperatorSet) -> SparseOperator:
    """F- = R1L1 - q^(h/2) (q-1)^-1 (q^(k/2) K1^-1 - I) K2."""
    return ops["R1"] @ ops["L1"] - _fminus_diag(ops)


def expr_back_l1r1(ops: OperatorSet) -> SparseOperator:
    """L1R1 = F0 + F- + (q-1)^-1 (q^(k/2) K1 - I)."""
    ring = ops.ring
    diag = ops["K1"].scale(ring.q_half(ops.k)) - ops.identity()
    return ops["F0"] + ops["Fminus"] + diag.scale(_qm1_inv(ops))


def expr_back_r1l1(ops: OperatorSet) -> SparseOperator:
    """R1L1 = F- + q^(h/2) (q-1)^-1 (q^(k/2) K1^-1 - I) K2."""
    return ops["Fminus"] + _fminus_diag(ops)


def expr_back_l2r2(ops: OperatorSet) -> SparseOperator:
    """L2R2 = F+ + q^(k/2) (q-1)^-1 K1 (q^(h/2) K2^-1 - I)."""
    return ops["Fplus"] + _fplus_diag(ops)


def expr_back_r2l2(ops: OperatorSet) -> SparseOperator:
    """R2L2 = F0 + F+ + (q-1)^-1 (q^(h/2) K2 - I)."""
    ring = ops.ring
    diag = ops["K2"].scale(ring.q_half(ops.h)) - ops.identity()
    return ops["F0"] + ops["Fplus"] + diag.scale(_qm1_inv(ops))


def expr_f_via_lr(ops: OperatorSet) -> SparseOperator:
    """F = L1R1 + L2R2 - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)."""
    return ops["L1"] @ ops["R1"] + ops["L2"] @ ops["R2"] - _balance_diag(ops, "K1", "K2i")


def expr_f_via_rl(ops: OperatorSet) -> SparseOperator:
    """F = R1L1 + R2L2 - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)."""
    return ops["R1"] @ ops["L1"] + ops["R2"] @ ops["L2"] - _balance_diag(ops, "K1i", "K2")


def expr_a_via_lr(ops: OperatorSet) -> SparseOperator:
    """A = (L1+L2)(R1+R2) - (q-1)^-1 (q^((h+k)/2) K1 K2^-1 - I)."""
    return (ops["L1"] + ops["L2"]) @ (ops["R1"] + ops["R2"]) \
        - _balance_diag(ops, "K1", "K2i")


def expr_a_via_rl(ops: OperatorSet) -> SparseOperator:
    """A = (R1+R2)(L1+L2) - (q-1)^-1 (q^((h+k)/2) K1^-1 K2 - I)."""
    return (ops["R1"] + ops["R2"]) @ (ops["L1"] + ops["L2"]) \
        - _balance_diag(ops, "K1i", "K2")


def expr_omega0(ops: OperatorSet) -> SparseOperator:
    """Omega0 = q^(-(h+k)/2) ((q-1) F0 K1^-1 K2^-1 + q^(h/2) K1^-1 + q^(k/2) K2^-1 - K1^-1 K2^-1)."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    k1i_k2i = ops["K1i"] @ ops["K2i"]
    inner = (ops["F0"] @ k1i_k2i).scale(q - 1) \
        + ops["K1i"].scale(ring.q_half(h)) \
        + ops["K2i"].scale(ring.q_half(k)) \
        - k1i_k2i
    return inner.scale(ring.q_half(-(h + k)))


def expr_omega1(ops: OperatorSet) -> SparseOperator:
    """Omega1 = q^(-h/2) (q F0 K2^-1 + (q-1) F- K2^-1
    + (q^(k/2+1) K1 K2^-1 + q^((h+k)/2+1) K1^-1 - q K2^-1)/(q-1)) - q/(q-1) I."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    c = _qm1_inv(ops)
    frac = ((ops["K1"] @ ops["K2i"]).scale(ring.q_half(k + 2))
            + ops["K1i"].scale(ring.q_half(h + k + 2))
            - ops["K2i"].scale(q)).scale(c)
    inner = (ops["F0"] @ ops["K2i"]).scale(q) \
        + (ops["Fminus"] @ ops["K2i"]).scale(q - 1) + frac
    return inner.scale(ring.q_half(-h)) - ops.identity().scale(q * c)


def expr_omega2(ops: OperatorSet) -> SparseOperator:
    """Omega2 = q^(-k/2) (q F0 K1^-1 + (q-1) F+ K1^-1
    + (q^(h/2+1) K1^-1 K2 + q^((h+k)/2+1) K2^-1 - q K1^-1)/(q-1)) - q/(q-1) I."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    c = _qm1_inv(ops)
    frac = ((ops["K1i"] @ ops["K2"]).scale(ring.q_half(h + 2))
            + ops["K2i"].scale(ring.q_half(h + k + 2))
            - ops["K1i"].scale(q)).scale(c)
    inner = (ops["F0"] @ ops["K1i"]).scale(q) \
        + (ops["Fplus"] @ ops["K1i"]).scale(q - 1) + frac
    return inner.scale(ring.q_half(-k)) - ops.identity().scale(q * c)


def expr_f0_central(ops: OperatorSet) -> SparseOperator:
    """F0 = (q-1)^-1 (q^((h+k)/2) Omega0 K1 K2 - q^(k/2) K1 - q^(h/2) K2 + I)."""
    return _f0_diag(ops, ops["Omega0"] @ (ops["K1"] @ ops["K2"]))


def expr_fplus_central(ops: OperatorSet) -> SparseOperator:
    """F+ = (q-1)^-1 (q^(k/2) Omega2
    - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K2 + K2^-1) - 2 q^(k/2+1) I)) K1."""
    ring, h, k = ops.ring, ops.h, ops.k
    c = _qm1_inv(ops)
    inner = ((ops["Omega0"] @ ops["K2"]) + ops["K2i"]).scale(ring.q_half(h + k + 2)) \
        - ops.identity().scale(2 * ring.q_half(k + 2))
    return ((ops["Omega2"].scale(ring.q_half(k)) - inner.scale(c)).scale(c)) @ ops["K1"]


def expr_fminus_central(ops: OperatorSet) -> SparseOperator:
    """F- = (q-1)^-1 (q^(h/2) Omega1
    - (q-1)^-1 (q^((h+k)/2+1)(Omega0 K1 + K1^-1) - 2 q^(h/2+1) I)) K2."""
    ring, h, k = ops.ring, ops.h, ops.k
    c = _qm1_inv(ops)
    inner = ((ops["Omega0"] @ ops["K1"]) + ops["K1i"]).scale(ring.q_half(h + k + 2)) \
        - ops.identity().scale(2 * ring.q_half(h + 2))
    return ((ops["Omega1"].scale(ring.q_half(h)) - inner.scale(c)).scale(c)) @ ops["K2"]


def expr_y(ops: OperatorSet) -> SparseOperator:
    """Y = q^((h+k)/2) (K1 K2^-1 + K1^-1 K2) - q^-1 (q-1) I."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    return (ops["K1"] @ ops["K2i"] + ops["K1i"] @ ops["K2"]).scale(ring.q_half(h + k)) \
        - ops.identity().scale(ring.q_power(-1) * (q - 1))


def expr_p(ops: OperatorSet) -> SparseOperator:
    """P = q (q-1)^-2 (Y^2 - q^(h+k-2) (q+1)^2 I)."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    c = _qm1_inv(ops)
    y = ops["Y"]
    inner = (y @ y) - ops.identity().scale(ring.q_power(h + k - 2) * (q + 1) * (q + 1))
    return inner.scale(q * c * c)


def expr_omega_aw(ops: OperatorSet) -> SparseOperator:
    """Omega = -q^((h+k)/2-1) K1^-1 K2 ((q-1) Omega1 + (q+1) I)
    - q^(k-1) ((q-1) Omega2 + (q+1) I)."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    ident = ops.identity()
    t1 = (ops["K1i"] @ ops["K2"] @ (ops["Omega1"].scale(q - 1) + ident.scale(q + 1))) \
        .scale(ring.q_half(h + k - 2))
    t2 = (ops["Omega2"].scale(q - 1) + ident.scale(q + 1)).scale(ring.q_power(k - 1))
    return -(t1 + t2)


def expr_g(ops: OperatorSet) -> SparseOperator:
    """G = -(q-1)^-1 (q^((h+k)/2-1)(q K1^-1 K2 Y - q^((h+k)/2)(q+1) I) Omega1
            + q^(k-1)(q Y - q^((h+k)/2)(q+1) K1^-1 K2) Omega2)
    - (q+1)(q-1)^-2 ((q^((h+k)/2) K1^-1 K2 + q^k I) Y
            - q^((h+k)/2-1)(q+1)(q^k K1^-1 K2 + q^((h+k)/2) I))."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    c = _qm1_inv(ops)
    ident = ops.identity()
    y = ops["Y"]
    k1i_k2 = ops["K1i"] @ ops["K2"]
    qhk = ring.q_half(h + k)
    t1 = (((k1i_k2 @ y).scale(q) - ident.scale(qhk * (q + 1)))
          .scale(ring.q_half(h + k - 2))) @ ops["Omega1"]
    t2 = ((y.scale(q) - k1i_k2.scale(qhk * (q + 1)))
          .scale(ring.q_power(k - 1))) @ ops["Omega2"]
    t3 = ((k1i_k2.scale(qhk) + ident.scale(ring.q_power(k))) @ y) \
        - (k1i_k2.scale(ring.q_power(k)) + ident.scale(qhk)) \
        .scale(ring.q_half(h + k - 2) * (q + 1))
    return -((t1 + t2).scale(c)) - t3.scale((q + 1) * c * c)


def expr_gstar(ops: OperatorSet) -> SparseOperator:
    """G* = q^((h+3k)/2-1) (q+1) Omega0 K1^-1 K2."""
    ring, h, k = ops.ring, ops.h, ops.k
    q = ring.q_power(1)
    return (ops["Omega0"] @ (ops["K1i"] @ ops["K2"])) \
        .scale(ring.q_half(h + 3 * k - 2) * (q + 1))


# The one definition of each derived operator, read by OperatorSet.__getitem__.
DERIVED: dict[str, Callable[[OperatorSet], SparseOperator]] = {
    "F0": expr_f0_slash,
    "Fplus": expr_fplus,
    "Fminus": expr_fminus,
    "F": lambda ops: ops["F0"] + ops["Fplus"] + ops["Fminus"],
    "R": lambda ops: ops["L1"] @ ops["R2"],
    "L": lambda ops: ops["L2"] @ ops["R1"],
    "A": lambda ops: ops["R"] + ops["L"] + ops["F"],
    "Astar": lambda ops: ops["K1i"].scale(ops.ring.q_half(ops.k)),
    "Omega0": expr_omega0,
    "Omega1": expr_omega1,
    "Omega2": expr_omega2,
    "Y": expr_y,
    "P": expr_p,
    "Omega": expr_omega_aw,
    "G": expr_g,
    "Gstar": expr_gstar,
}


def expr_askey1(ops: OperatorSet, middle=None) -> SparseOperator:
    """Residual of A^2 A* - (q+1/q) A A* A + A* A^2 - Y(A A* + A* A) - P A* = Omega A + G."""
    ring = ops.ring
    if middle is None:
        middle = ring.q_power(1) + ring.q_power(-1)
    a, astar = ops["A"], ops["Astar"]
    a2 = a @ a
    a_astar = a @ astar
    astar_a = astar @ a
    lhs = (a2 @ astar) - (a_astar @ a).scale(middle) + (astar @ a2) \
        - (ops["Y"] @ (a_astar + astar_a)) - (ops["P"] @ astar)
    rhs = ops["Omega"] @ a + ops["G"]
    return lhs - rhs


def expr_askey2(ops: OperatorSet) -> SparseOperator:
    """Residual of A*^2 A - (q+1/q) A* A A* + A A*^2 = Y A*^2 + Omega A* + G*."""
    ring = ops.ring
    middle = ring.q_power(1) + ring.q_power(-1)
    a, astar = ops["A"], ops["Astar"]
    astar2 = astar @ astar
    astar_a = astar @ a
    lhs = (astar2 @ a) - (astar_a @ astar).scale(middle) + (a @ astar2)
    rhs = (ops["Y"] @ astar2) + (ops["Omega"] @ astar) + ops["Gstar"]
    return lhs - rhs
