"""Certified symmetry reduction of geometry-mode relations.

Every geometry operator is defined by inclusion and by dim(u ∩ y), so it
commutes with the permutation of the lattice induced by any element of G_y,
the stabiliser of y in GL(h+k, q): M[πr, πc] = M[r, c].  A residual built
from such operators with products, sums, scalars and transposes inherits
that invariance, so its row at u is zero iff its row at πu is.  Hence the
residual is zero iff its rows at one representative per G_y-orbit are zero,
and those orbits are the strata P_(i,j) (the symmetry reduction behind
Terwilliger-algebra methods; Terwilliger 1992, Schrijver 2005).

The witness comes from the same rows.  The representative of a stratum is
its first position.  If r is the first nonzero row of an invariant
residual, the representative p of r's stratum has p <= r and a nonzero
row, since row p is row r permuted; so p = r.  The first nonzero row of a
residual is therefore a representative row, and ``first_nonzero`` on the
representative rows is the full evaluation's witness.  The same holds for
``support_violation`` with a predicate of the strata of (row, col) alone,
whose violating entries form an invariant set.

An OperatorSet's certificate is computed at its first use and stored on
that set alone.  Only a set ``build_geometry_operators`` made
(``OperatorSet.from_lattice``) has one, ``lattice_certificate`` of its
geometry, which exists iff

(a) three elements of G_y -- ``standard_generators``, carried to y by a
    basis B adapted to y, so the vector c B goes to (c g) B -- induce
    permutations of the positions: each point goes to the span of its
    image, each higher subspace to the one common upper cover of the
    images of two of its lower covers, and the result is a bijection;
(b) a BFS from the first position of each stratum over the three
    permutations reaches every position of that stratum and none outside
    it, so the orbits are exactly ``geom.strata`` and each generator π
    preserves (i, j).  The BFS records its forest in two tables indexed
    by position: for each position u other than a representative, the
    index of a generator π and a predecessor p reached before it, such
    that u = π p;
(c) each ``*_covered_by`` list is the inverse of its ``*_covers_of`` list,
    and for each π and position u, meet_y[πu] = π meet_y[u] and the
    ``*_covers_of`` lists of πu are the images of u's (so all four are).

(a)-(c) read the lattice alone and need no operator.  They make the
builder's inputs invariant: the K diagonals are functions of the stratum,
which (b) makes π preserve, and the 0/1 families L1, L2, R1, R2, F0, F+,
F-, F, R, L and A are functions of the cover lists and meet_y, which (c)
makes π preserve.  The builder writes each input as a rule for one row,
which reads the row's stratum, cover lists and meet_y, and nothing else
(the words of ``operators.FAMILIES``), whose transposes (c)'s inversion
makes the families ``operators.TRANSPOSES`` names.  Any other set -- a
module, a ``perturbed`` clone, a set built by hand -- has no certificate.
A clone of a certified set runs on its root's row view (below); every
other set runs in full.

A certified set derives each operator of ``operators.DERIVED`` (``derive``)
by evaluating its definition on the RowView below, which gives the
operator's representative rows.  Every other row is produced when it is
first read, along the predecessors from a representative
(``Certificate.transport``): row πp is row p with each column c moved to
πc.  That is the operator's own row at πp, since the operator is
invariant.  Every row is thus a permuted representative row, so the
operator is in lowest terms as the representative rows are, and its nnz
is the sum over the strata of |S| times the size of the
representative's row.  Any other set derives in full.

A set is fixed once built: it holds its inputs and what it derives from
them by ``operators.DERIVED``, and takes no assignment.  So the certificate
vouches for every operator the set holds, also one derived after it was
computed.  An evaluator on the row view combines only the set's own
operators: any other operand raises TypeError.  What is trusted rather
than checked: that the row rules of ``build_geometry_operators`` read
only the strata, the cover lists and meet_y, and that it alone sets
``from_lattice``; that the derived operators are invariant (they are
products, sums and scalar multiples of the inputs and of the identity);
that every diagonal ``OperatorSet.diagonal`` makes is (its row rule reads
only the row's stratum); that operators are not changed in place, a row
once produced included, and ``OperatorSet.ops`` is not written to from
outside; that a ``support_violation`` predicate depends on the strata
alone; that the row view below multiplies out exactly the rows it starts
from of the full expressions; that u = π p for each non-representative
u, its generator π and its predecessor p, which holds by construction;
and that a clone's operators are its root's except at its perturbed
entries (``OperatorSet.perturbed`` holds the sum of the root's operator
and those entries, and reads every other name from its parent).

``evaluate`` reads the certificate of the set's root once, before the
evaluator runs.  With one, it runs the relation's evaluator on a RowView
of the set, in which operators, diagonals of the weight, products, sums,
scalars and transposes of 0/1 families are lazy expressions (``_Expr``)
multiplied out from the rows a query reads, left to right, as products
``rows @ op``, which read op only at the rows they reach; its result
there -- None or the witness -- is the outcome.  Without one, it runs
the evaluator on the set itself.  Either way the relation is evaluated
once.  A query of a residual other than ``is_zero``, ``first_nonzero``
and ``support_violation`` raises AttributeError.

A perturbed clone differs from its root only at its perturbed entries,
so each expression carries a reach: the rows where its value on the
clone may differ from its value on the root.  A perturbed leaf reaches
its perturbed rows, and its transpose (the root's transposed family plus
the perturbation transposed) its perturbed columns; X @ Y reaches X's
reach and the rows u with X[u, t] != 0 on the root for some t in Y's;
a sum reaches the union, and a scalar multiple keeps the reach.  That
column preimage is read from the root: exactly from the transposed
family's rows on a 0/1 family; on a derived operator, as that of its
``DERIVED`` definition built on the view (a superset, as the operator's
support lies in its terms'); as the same rows on a diagonal (each
representative row holding its diagonal entry alone, as every row then
does), which the K's are; and as every position on any other operator,
which no builder's set holds.  A query multiplies
out the reached rows and the first unreached position of each stratum.
Outside the reach the clone's residual is the root's, which is
invariant; so a nonzero unreached row u means a nonzero row at the first
unreached position of u's stratum, which is at or before u.  Hence the
clone's residual is zero iff those rows are, its first nonzero row (and
first violating entry) is among them, and the witness is the full
evaluation's.  A certified set itself is the case of an empty reach,
whose rows are the representative rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import add, sub
from typing import Callable, Optional

from .geometry import GeometryIndex, _rref
from .operators import (DERIVED, TRANSPOSES, DiagonalReaders, LazyOperator, OperatorSet,
                        SparseOperator, _stored_operator, plus_entries)

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# (a) generators of G_y and the permutations they induce
# ---------------------------------------------------------------------------

def _identity(n: int) -> Matrix:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def standard_generators(h: int, k: int) -> list[Matrix]:
    """Three elements of the stabiliser of span(e_(h+1), ..., e_(h+k)) in
    GL(h+k, q), the same 0/1 matrices for every q.

    Matrices act on row vectors (v -> v g), so row i of g is the image of
    e_i.  The stabiliser is the block upper-triangular group
    [[GL(h), *], [0, GL(k)]].  The three are a block-diagonal cycle of
    both blocks, a block-diagonal transvection e_1 -> e_1 + e_2 (with
    e_(h+1) -> e_(h+1) + e_(h+2) when k >= 2), and the bridge
    e_1 -> e_1 + e_(h+1) from the complement into y.  They need not
    generate the stabiliser: check (b) confirms that their orbits are the
    strata.
    """
    n = h + k
    cycle = [[0] * n for _ in range(n)]
    transvection, bridge = _identity(n), _identity(n)
    for start, size in ((0, h), (h, k)):
        for r in range(start, start + size):
            cycle[r][start + (r - start + 1) % size] = 1
        if size >= 2:
            transvection[start][start + 1] = 1
    bridge[0][h] = 1
    return [cycle, transvection, bridge]


def _matmul(a: Matrix, b: Matrix, q: int) -> Matrix:
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _adapted_basis(geom: GeometryIndex) -> Matrix:
    """Rows: unit vectors at the non-pivot columns of y, then y's RREF rows.

    It sends span(e_(h+1), ..., e_n) to y, and is the identity for the
    default y."""
    rows = geom.y.rows
    pivots = {next(c for c, x in enumerate(row) if x) for row in rows}
    units = [[int(c == p) for c in range(geom.n)] for p in range(geom.n) if p not in pivots]
    return units + [list(row) for row in rows]


def _inverse(m: Matrix, q: int) -> Matrix:
    """m^-1 over F_q for an invertible m: the right half of the RREF of [m | I]."""
    n = len(m)
    reduced = _rref([row + unit for row, unit in zip(m, _identity(n))], 2 * n, q)
    return [list(row[n:]) for row in reduced]


def _join_permutation(geom: GeometryIndex, m: Matrix) -> Optional[list[int]]:
    """The permutation of positions induced by x -> x m, or None when m is
    singular or the joins below do not give a bijection.

    A point goes to the span of its row's image, located by its RREF with
    ``geom.position``; a point sent to 0 means m is singular.  A subspace v of
    dimension d >= 2 is the join of any two distinct lower covers u1, u2,
    so its image is the one common upper cover of the images of u1 and u2,
    read from the cover lists level by level."""
    q = geom.q
    perm: list = [None] * geom.size
    for p in geom.by_level[0]:
        perm[p] = p
    for p in geom.by_level[1]:
        (image,) = _matmul(geom.rows(p), m, q)
        lead = next((x for x in image if x), 0)
        if not lead:
            return None
        inv = pow(lead, -1, q)
        perm[p] = geom.position([[x * inv % q for x in image]])
    slash_by, back_by = geom.slash_covered_by, geom.backslash_covered_by
    for level in geom.by_level[2:]:
        for v in level:
            below = geom.slash_covers_of[v] + geom.backslash_covers_of[v]
            if len(below) < 2:
                return None
            a, b = perm[below[0]], perm[below[1]]
            above = set(slash_by[a])
            above.update(back_by[a])
            common = [w for w in slash_by[b] + back_by[b] if w in above]
            if len(common) != 1:
                return None
            perm[v] = common[0]
    return perm if len(set(perm)) == len(perm) else None


def generator_permutations(geom: GeometryIndex) -> Optional[list[list[int]]]:
    """The permutation of positions induced by each generator of G_y, or None
    when some generator is singular or its joins give no bijection.

    With B the adapted basis, g sends the vector with coordinates c in B,
    i.e. c B, to (c g) B; that is x -> x B^-1 g B, which fixes y because g
    fixes span(e_(h+1), ..., e_n)."""
    q = geom.q
    basis = _adapted_basis(geom)
    inverse = _inverse(basis, q)
    perms = []
    for g in standard_generators(geom.h, geom.k):
        perm = _join_permutation(geom, _matmul(_matmul(inverse, g, q), basis, q))
        if perm is None:
            return None
        perms.append(perm)
    return perms


# ---------------------------------------------------------------------------
# (b) orbits, (c) invariance
# ---------------------------------------------------------------------------

def _orbit_forest(perms, geom: GeometryIndex) -> Optional[tuple[bytearray, array]]:
    """Check (b): a BFS from each stratum's first position over the
    generator permutations.  A permutation's inverse is a power of it, so
    the forward images reach the whole orbit.  None unless every position is
    reached from the representative of its own stratum; else the forest by
    position, (gens, preds): each non-representative u has the index
    gens[u] of a generator and a predecessor preds[u] reached before it,
    such that u = perms[gens[u]][preds[u]] (both are 0 at a representative)."""
    ij = geom.ij
    reached = bytearray(geom.size)
    gens, preds = bytearray(geom.size), array("i", [0]) * geom.size
    for members in geom.strata.values():
        rep = members[0]
        stratum = ij[rep]
        reached[rep] = 1
        queue = [rep]
        for p in queue:  # grows while it is read: breadth first
            for g, perm in enumerate(perms):
                u = perm[p]
                if ij[u] != stratum:
                    return None
                if not reached[u]:
                    reached[u] = 1
                    gens[u], preds[u] = g, p
                    queue.append(u)
    return (gens, preds) if all(reached) else None


def _preserves_lattice(geom: GeometryIndex, perm) -> bool:
    """For every position u: each ``*_covers_of`` list of perm[u] is perm of
    u's list, sorted, and meet_y[perm[u]] == perm[meet_y[u]]."""
    meet_y = geom.meet_y
    if any(meet_y[pu] != perm[mu] for pu, mu in zip(perm, meet_y)):
        return False
    image = perm.__getitem__
    for lists in (geom.slash_covers_of, geom.backslash_covers_of):
        for mine, pu in zip(lists, perm):
            if tuple(sorted(map(image, mine))) != lists[pu]:
                return False
    return True


def _covers_invert(geom: GeometryIndex) -> bool:
    """Each ``*_covered_by`` list is the ascending inverse of its ``*_covers_of`` list."""
    for down, up in ((geom.slash_covers_of, geom.slash_covered_by),
                     (geom.backslash_covers_of, geom.backslash_covered_by)):
        inverse: list = [[] for _ in up]
        for v, below in enumerate(down):
            for u in below:
                inverse[u].append(v)
        if any(tuple(mine) != theirs for mine, theirs in zip(inverse, up)):
            return False
    return True


@dataclass(frozen=True)
class Certificate:
    """Generator permutations whose orbits are the strata, the first
    position of each stratum, and the BFS forest that reaches every other
    position u from its representative, by position:
    u = perms[gens[u]][preds[u]] (``_orbit_forest``)."""

    perms: list
    reps: tuple[int, ...]
    gens: bytearray
    preds: array

    def transport(self, rows: SparseOperator, owner: OperatorSet) -> LazyOperator:
        """The invariant operator, belonging to owner, whose representative
        rows are those of rows (its other rows empty).  Row u of a
        non-representative is row preds[u] with its columns moved by
        perms[gens[u]]; it is produced when first read, with every row on
        the way from the representative, and kept.

        Every row is a permuted representative row, so the numerators'
        gcd is that of rows, which is in lowest terms already."""
        perms, gens, preds = self.perms, self.gens, self.preds
        memo = {p: (rows.m0.get(p), rows.m1.get(p)) for p in self.reps}

        def rule(u):
            chain = []
            while u not in memo:
                chain.append((u, perms[gens[u]]))
                u = preds[u]
            r0, r1 = memo[u]
            for u, perm in reversed(chain):
                r0 = {perm[c]: v for c, v in r0.items()} if r0 else None
                r1 = {perm[c]: v for c, v in r1.items()} if r1 else None
                memo[u] = r0, r1
            return r0, r1

        return LazyOperator(rows.dim, rows.d, rows.q, rule, memo, owner)


def lattice_certificate(geom: GeometryIndex) -> Optional[Certificate]:
    """Checks (a), (b) and (c) on the lattice alone, or None when one fails."""
    perms = generator_permutations(geom) if _covers_invert(geom) else None
    if perms is None:
        return None
    forest = _orbit_forest(perms, geom)
    if forest is None or not all(_preserves_lattice(geom, perm) for perm in perms):
        return None
    return Certificate(perms, tuple(members[0] for members in geom.strata.values()), *forest)


# ---------------------------------------------------------------------------
# reduced evaluation
# ---------------------------------------------------------------------------

_NOWHERE: frozenset = frozenset()


def _same(cols: frozenset) -> frozenset:
    return cols


def _product_reach(x: "_Expr", y: "_Expr") -> frozenset:
    """The rows where x @ y on a clone may differ from its root's: x's
    reach, and the rows u with x[u, t] != 0 on the root for some t in y's.
    Outside x's reach row u of x is the root's, so row u of x @ y differs
    only through a row t of y that does."""
    return x.reach | x.preimage(y.reach) if y.reach else x.reach


class _Expr:
    """A lazy expression of a row view.

    ``apply(rows)`` is rows @ self; ``reach`` holds the rows where its value
    on a perturbed clone may differ from its value on the clone's root
    (none when the view's set is the root); ``preimage(cols)`` is a
    superset of the rows u with self[u, t] != 0 on the root for some t in
    cols.  ``@``, ``+`` and ``-`` raise TypeError on a foreign operand when
    built."""

    __slots__ = ("view", "apply", "reach", "preimage", "_rows")

    def __init__(self, view: "RowView", apply: Callable[[SparseOperator], SparseOperator],
                 reach: frozenset = _NOWHERE,
                 preimage: Callable[[frozenset], frozenset] = _same):
        self.view, self.apply, self.reach, self.preimage = view, apply, reach, preimage
        self._rows = None

    def __matmul__(self, other):
        other = self.view.lift(other)
        f, g = self.apply, other.apply
        pf, pg = self.preimage, other.preimage
        return _Expr(self.view, lambda rows: g(f(rows)), _product_reach(self, other),
                     lambda cols: pf(pg(cols)))

    def _join(self, other, combine) -> "_Expr":
        """combine(self, other) for a sum or a difference."""
        other = self.view.lift(other)
        f, g = self.apply, other.apply
        pf, pg = self.preimage, other.preimage
        return _Expr(self.view, lambda rows: combine(f(rows), g(rows)), self.reach | other.reach,
                     lambda cols: pf(cols) | pg(cols))

    def __add__(self, other):
        return self._join(other, add)

    def __sub__(self, other):
        return self._join(other, sub)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "_Expr":
        f = self.apply
        return _Expr(self.view, lambda rows: f(rows).scale(s), self.reach, self.preimage)

    # -- the queries evaluators make of a residual -----------------------------

    def rows(self) -> SparseOperator:
        """The expression's rows at its reach and at the first position of
        each stratum outside it (other rows empty): the representative
        rows when the reach is empty."""
        if self._rows is None:
            self._rows = self.apply(self.view.start(self.reach))
        return self._rows

    def is_zero(self) -> bool:
        return self.rows().is_zero()

    def first_nonzero(self):
        return self.rows().first_nonzero()

    def support_violation(self, allowed: Callable[[int, int], bool]):
        """Sound only for a predicate of the strata of (row, col), which
        every generator permutation preserves."""
        return self.rows().support_violation(allowed)


class _Leaf(_Expr):
    """A named operator, or a diagonal of the weight (name None): read at
    the column support of the rows it is applied to.  On a perturbed clone
    delta holds what the clone adds to the root's operator name: the
    leaf's reach is delta's rows, and its transpose's delta's columns."""

    __slots__ = ("op", "name", "delta")

    def __init__(self, view, op: SparseOperator, name: Optional[str] = None,
                 delta: Optional[SparseOperator] = None):
        reach = _NOWHERE if delta is None else frozenset(delta.m0.keys() | delta.m1.keys())
        super().__init__(view, lambda rows: rows @ op, reach, view.preimage_of(name))
        self.op, self.name, self.delta = op, name, delta

    def transpose(self):
        """The leaf of the root's family ``TRANSPOSES`` names, plus delta
        transposed; no other leaf has one here."""
        if self.name not in TRANSPOSES:
            raise AttributeError(f"{self.name or 'a diagonal'} has no transpose on the row view")
        name, root = TRANSPOSES[self.name], self.view.root
        if self.delta is None:
            return _Leaf(self.view, root[name], name)
        delta = self.delta.transpose()
        return _Leaf(self.view, plus_entries(root[name], delta), name, delta)


class RowView(DiagonalReaders):
    """An OperatorSet whose root is certified, seen through the rows a query
    reads: ``view[name]`` and ``diagonal`` are leaves of the set's own
    operators, and every other attribute is the set's own."""

    def __init__(self, ops: OperatorSet):
        self._ops, self.root = ops, ops.root
        self._strata = ops.geometry.strata.values()
        self._reps = self._identity(self.root.certificate.reps)
        self._preimages: dict = {}

    def __getattr__(self, name):
        return getattr(self._ops, name)

    def _identity(self, rows) -> SparseOperator:
        return _stored_operator(self._ops.dim, 1, {r: {r: 1} for r in rows}, {}, None)

    def start(self, reach: frozenset) -> SparseOperator:
        """The identity restricted to reach and to the first position of
        each stratum outside reach."""
        if not reach:
            return self._reps
        rows = set(reach)
        for members in self._strata:
            first = next((p for p in members if p not in reach), None)
            if first is not None:
                rows.add(first)
        return self._identity(rows)

    def lift(self, op) -> _Expr:
        """op, an expression of this view; any other operand (a
        SparseOperator an evaluator built, say) is a programming error."""
        if not isinstance(op, _Expr) or op.view is not self:
            raise TypeError(f"{type(op).__name__} is not an expression of this row view")
        return op

    def __getitem__(self, name: str) -> _Expr:
        return _Leaf(self, self._ops[name], name, self._ops.deltas.get(name))

    def diagonal(self, key, value: Callable) -> _Expr:
        """The set's memoized diagonal: invariant, as the orbits are the strata."""
        return _Leaf(self, self._ops.diagonal(key, value))

    # -- column preimages on the root ------------------------------------------

    def preimage_of(self, name: Optional[str]) -> Callable[[frozenset], frozenset]:
        """The ``preimage`` of the leaf of the root's operator name, or of
        a diagonal of the weight (name None), worked out at its first call."""
        if name is None:
            return _same

        def preimage(cols):
            if not cols:
                return _NOWHERE
            rule = self._preimages.get(name)
            if rule is None:
                rule = self._preimages[name] = self._preimage_rule(name)
            return rule(cols)
        return preimage

    def _preimage_rule(self, name: str) -> Callable[[frozenset], frozenset]:
        """cols -> a superset of the rows u with X[u, t] != 0 for some t in
        cols, X the root's invariant operator name: exact on a family (the
        rows t of its transpose's family); on a derived operator, that of
        its ``DERIVED`` definition, built on this view and not multiplied
        out (X is a sum of its terms, so its support lies in theirs); cols
        on a diagonal (the K's); else every position."""
        root = self.root
        if name in TRANSPOSES:
            transposed = root[TRANSPOSES[name]]

            def family(cols):
                out: set = set()
                for t in cols:
                    for part in transposed._row(t):
                        out.update(part or ())
                return frozenset(out)
            return family
        if name in DERIVED:
            return DERIVED[name](self).preimage
        op = root[name]
        if all(set(part or ()) <= {p} for p in root.certificate.reps for part in op._row(p)):
            return _same
        everywhere = frozenset(range(self._ops.dim))
        return lambda cols: everywhere


def derive(ops: OperatorSet, definition: Callable[[OperatorSet], SparseOperator]
           ) -> SparseOperator:
    """definition(ops) for a ``DERIVED`` definition.  On a certified set it
    is multiplied out on the representative rows of a RowView, and every
    other row is moved along the certificate's forest when first read;
    any other set derives it in full."""
    cert = ops.certificate
    if cert is None:
        return definition(ops)
    return cert.transport(definition(RowView(ops)).rows(), ops)


def evaluate(ops: OperatorSet, evaluator: Callable[[OperatorSet], Optional[str]]
             ) -> Optional[str]:
    """The evaluator's result for ops, from its one run: None when the
    relation holds, else the witness.  It runs on a RowView when the root
    of ops (ops itself unless it is a perturbed clone) has a certificate,
    else on ops in full."""
    return evaluator(ops if ops.root.certificate is None else RowView(ops))
