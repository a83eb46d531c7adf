"""Direct, slow statements of what the program computes another way.

The tests check the program against these.  None of them is called by
``src/``: subspaces are compared by their RREF, the lattice is built from
its cover row codes with each meet read from the lower covers (no
intersection, no ``Subspace`` per cover), the symmetry certificate maps
subspaces by cover joins and checks no operator, a builder's set produces
each operator's rows when they are first read, and a certified set
derives its operators from its representative rows.  It also lists the
configurations and reference subspaces the tests run at.
"""

import itertools
from types import SimpleNamespace

from pgaw.geometry import Subspace, _rref
from pgaw.operators import (
    DERIVED,
    K_EXPONENTS,
    OperatorSet,
    SparseOperator,
    _stored_operator,
    build_geometry_operators,
)
from pgaw.rings import QuadRing, QuadScalar, RatFunc, _as_fraction
from pgaw import symmetry
from pgaw.symmetry import RowView, _adapted_basis, _matmul

# (q, h, k, rows of a non-coordinate y or None for the default y)
CONFIGS = (
    (2, 2, 1, None), (3, 2, 1, None), (2, 3, 1, None), (2, 3, 2, None), (3, 3, 1, None),
    (2, 2, 1, ((1, 1, 0),)),
    (3, 2, 1, ((1, 2, 1),)),
    (3, 3, 1, ((1, 2, 0, 1),)),
    (2, 3, 2, ((1, 0, 1, 0, 0), (0, 1, 0, 1, 1))),
)

# every configuration and y at which the tests build geometry operators:
# CONFIGS, and the span of e_1, ..., e_k that tests/test_operators.py uses
TESTED_YS = CONFIGS + tuple(
    (q, h, k, tuple(tuple(int(c == r) for c in range(h + k)) for r in range(k)))
    for q, h, k in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2)))

SLASH = "slash"
BACKSLASH = "backslash"
NONE = "none"


# ---------------------------------------------------------------------------
# subspaces by their vectors
# ---------------------------------------------------------------------------

def vectors(u: Subspace):
    """All vectors of u (exponential in dim)."""
    q, n = u.q, u.n
    for coeffs in itertools.product(range(q), repeat=u.dim):
        v = [0] * n
        for c, row in zip(coeffs, u.rows):
            if c:
                v = [(a + c * b) % q for a, b in zip(v, row)]
        yield tuple(v)


def reduce_vector(u: Subspace, vec) -> tuple:
    """Remainder of vec after elimination against u's RREF basis."""
    q = u.q
    v = [x % q for x in vec]
    for row in u.rows:
        lead = next(c for c, x in enumerate(row) if x)
        if v[lead]:
            f = v[lead]
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return tuple(v)


def contains_vector(u: Subspace, vec) -> bool:
    return not any(reduce_vector(u, vec))


def check_ambient(u: Subspace, other: Subspace) -> None:
    if u.n != other.n or u.q != other.q:
        raise ValueError("subspaces live in different ambient spaces")


def contains(u: Subspace, other: Subspace) -> bool:
    check_ambient(u, other)
    return all(contains_vector(u, r) for r in other.rows)


def sum_with(u: Subspace, other: Subspace) -> Subspace:
    check_ambient(u, other)
    return Subspace._trusted(_rref(list(u.rows) + list(other.rows), u.n, u.q), u.n, u.q)


def intersect(u: Subspace, other: Subspace) -> Subspace:
    """u ∩ other via the Zassenhaus block construction: the RREF of
    [[u, u], [other, 0]] on 2n columns, whose rows with a zero left half
    carry the intersection on their right half."""
    check_ambient(u, other)
    n, q = u.n, u.q
    block = [list(r) + list(r) for r in u.rows]
    block += [list(r) + [0] * n for r in other.rows]
    reduced = _rref(block, 2 * n, q)
    inter = [r[n:] for r in reduced if not any(r[:n])]
    return Subspace._trusted(_rref(inter, n, q), n, q)


def classify_ij(u: Subspace, y: Subspace) -> tuple[int, int]:
    """Stratum coordinates: i = dim(u ∩ y), j = dim(u) - i."""
    i = intersect(u, y).dim
    return i, u.dim - i


def cover_classify(u: Subspace, v: Subspace, y: Subspace) -> str:
    """slash / backslash / none for the candidate covering pair u ⊂ v."""
    check_ambient(u, v)
    if v.dim != u.dim + 1 or not contains(v, u):
        return NONE
    iu, _ = classify_ij(u, y)
    iv, _ = classify_ij(v, y)
    if iv == iu + 1:
        return SLASH
    if iv == iu:
        return BACKSLASH
    raise AssertionError("covering pair with dim(v ∩ y) - dim(u ∩ y) not in {0, 1}")


# ---------------------------------------------------------------------------
# the lattice by intersections
# ---------------------------------------------------------------------------

def upper_covers(u: Subspace):
    """Every subspace covering u, as u + <v> with v over the points of F_q^n / u.

    v runs over the vectors that vanish on u's pivot columns and have a
    leading 1: one representative per projective point of the quotient.
    Clearing v's leading column out of u's rows and inserting v by its
    pivot gives the RREF of u + <v> directly.
    """
    n, q = u.n, u.q
    pivots = [next(c for c, x in enumerate(row) if x) for row in u.rows]
    free = [c for c in range(n) if c not in pivots]
    for pos, lead in enumerate(free):
        rest = free[pos + 1:]
        at = sum(1 for p in pivots if p < lead)
        for values in itertools.product(range(q), repeat=len(rest)):
            v = [0] * n
            v[lead] = 1
            for c, x in zip(rest, values):
                v[c] = x
            v = tuple(v)
            rows = [row if not row[lead] else
                    tuple((a - row[lead] * b) % q for a, b in zip(row, v))
                    for row in u.rows]
            rows.insert(at, v)
            yield Subspace._trusted(tuple(rows), n, q)


def oracle_lattice(q: int, h: int, k: int, y: Subspace) -> SimpleNamespace:
    """The fields of ``GeometryIndex(q, h, k, y)``, built another way.

    Each level is the set of upper covers of the one below, from the zero
    subspace up, in lexicographic RREF order.  Each meet with y is an
    ``intersect``, each cover a ``Subspace`` located by its rows, and
    each cover list is sorted.  A row code is the row's entries read as a
    base-q numeral."""
    n = h + k
    levels = [[Subspace((), n, q)]]
    for _ in range(n):
        levels.append(sorted({w for u in levels[-1] for w in upper_covers(u)},
                             key=lambda w: w.rows))
    elements = [u for level in levels for u in level]
    index = {u: p for p, u in enumerate(elements)}
    meets = [intersect(u, y) for u in elements]
    ij = tuple((m.dim, u.dim - m.dim) for u, m in zip(elements, meets))
    strata: dict = {}
    for p, key in enumerate(ij):
        strata.setdefault(key, []).append(p)
    lists = tuple([[] for _ in elements] for _ in range(4))
    sc_of, bc_of, sc_by, bc_by = lists
    for pu, u in enumerate(elements):
        for pv in sorted(index[w] for w in upper_covers(u)):
            slash = ij[pv][0] == ij[pu][0] + 1
            (sc_of if slash else bc_of)[pv].append(pu)
            (sc_by if slash else bc_by)[pu].append(pv)
    starts = list(itertools.accumulate((len(level) for level in levels), initial=0))
    codes = tuple(tuple(int("".join(map(str, row)), q) for row in u.rows) for u in elements)
    return SimpleNamespace(
        elements=tuple(u.rows for u in elements),
        codes=codes,
        index={u: p for p, u in enumerate(codes)},
        meet_y=tuple(index[m] for m in meets),
        ij=ij,
        strata={key: tuple(strata[key]) for key in sorted(strata)},
        by_level=tuple(tuple(range(starts[d], starts[d + 1])) for d in range(n + 1)),
        slash_covers_of=tuple(map(tuple, sc_of)),
        backslash_covers_of=tuple(map(tuple, bc_of)),
        slash_covered_by=tuple(map(tuple, sc_by)),
        backslash_covered_by=tuple(map(tuple, bc_by)))


LATTICE_FIELDS = ("elements", "codes", "index", "meet_y", "ij", "strata", "by_level",
                  "slash_covers_of", "backslash_covers_of", "slash_covered_by",
                  "backslash_covered_by")


def lattice_mismatches(geom) -> list[str]:
    """The fields of geom that differ from ``oracle_lattice`` at its q, h,
    k and y (the elements compared by their rows), and "strata order" when
    the strata are listed in another order."""
    want = oracle_lattice(geom.q, geom.h, geom.k, geom.y)
    got = {name: getattr(geom, name) for name in LATTICE_FIELDS}
    got["elements"] = tuple(u.rows for u in geom.elements)
    out = [name for name in LATTICE_FIELDS if got[name] != getattr(want, name)]
    if list(geom.strata) != list(want.strata):
        out.append("strata order")
    return out


# ---------------------------------------------------------------------------
# scalars and operators as text
# ---------------------------------------------------------------------------

def quad(ring: QuadRing, a, b):
    """a + b sqrt(q) in ring, collapsed to a rational when b == 0."""
    return QuadScalar._make(_as_fraction(a), _as_fraction(b), ring.q)


def evaluate_at_q(x, ring: QuadRing):
    """The evaluation homomorphism s -> sqrt(q): a symbolic scalar (a
    ``RatFunc`` in s) to the numeric scalar of ring; others pass through."""
    if type(x) is RatFunc:
        return x.evaluate(ring.sqrt_q, ring.q_half(-1))
    return x


def coordinate_lines(op: SparseOperator, labels=None):
    """'row col value' lines of op in row-major order, positions or labels."""
    for r, c in op._positions():
        v = op.entry(r, c)
        if labels is None:
            yield f"{r} {c} {v}"
        else:
            yield f"{labels[r]} {labels[c]} {v}"


# ---------------------------------------------------------------------------
# symbolic scalars as {exponent: coefficient} dicts
# ---------------------------------------------------------------------------

def terms_add(x: dict, y: dict) -> dict:
    """x + y for Laurent polynomials in s; zero coefficients are dropped."""
    out = dict(x)
    for e, v in y.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def terms_neg(x: dict) -> dict:
    return {e: -v for e, v in x.items()}


def terms_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def terms_lift(x: dict, b: int, c: int) -> dict:
    """x (s-1)**b (s+1)**c."""
    for r in (1,) * b + (-1,) * c:
        x = terms_mul(x, {1: 1, 0: -r})
    return x


class DictRatFunc:
    """terms / ((s-1)^b (s+1)^c) with terms an {exponent: coefficient} dict,
    reduced by synthetic division by s - 1 and s + 1: the dict form of a
    symbolic scalar, against which the packed ``RatFunc`` is checked."""

    __slots__ = ("terms", "b", "c")

    def __init__(self, terms: dict, b: int = 0, c: int = 0):
        terms = {e: v for e, v in terms.items() if v}
        for r, limit in ((1, b), (-1, c)):
            n = 0
            while terms and n < limit and not sum(v * r ** (e % 2) for e, v in terms.items()):
                quotient, acc = {}, 0
                for e in range(max(terms), min(terms), -1):
                    acc = terms.get(e, 0) + r * acc
                    if acc:
                        quotient[e - 1] = acc
                terms, n = quotient, n + 1
            if r == 1:
                b -= n
            else:
                c -= n
        if not terms:
            b = c = 0
        self.terms, self.b, self.c = terms, b, c

    @classmethod
    def of(cls, x) -> "DictRatFunc":
        """An int or a Fraction, or a DictRatFunc as it is."""
        return x if isinstance(x, cls) else cls({0: x})

    def scalar(self):
        """The int or Fraction when the value is constant, else self."""
        if self.b or self.c or set(self.terms) - {0}:
            return self
        value = self.terms.get(0, 0)
        return value.numerator if value.denominator == 1 else value

    def __add__(self, other):
        other = DictRatFunc.of(other)
        b, c = max(self.b, other.b), max(self.c, other.c)
        return DictRatFunc(terms_add(terms_lift(self.terms, b - self.b, c - self.c),
                                     terms_lift(other.terms, b - other.b, c - other.c)),
                           b, c).scalar()

    __radd__ = __add__

    def __neg__(self):
        return DictRatFunc(terms_neg(self.terms), self.b, self.c)

    def __sub__(self, other):
        return self + -DictRatFunc.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = DictRatFunc.of(other)
        return DictRatFunc(terms_mul(self.terms, other.terms),
                           self.b + other.b, self.c + other.c).scalar()

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, DictRatFunc) and self.terms == other.terms
                and (self.b, self.c) == (other.b, other.c))


# ---------------------------------------------------------------------------
# operators and generator permutations
# ---------------------------------------------------------------------------

def from_entries(dim: int, entries) -> SparseOperator:
    """The operator with the given (row, col, value) entries."""
    rows: dict = {}
    for r, c, v in entries:
        rows.setdefault(r, {})[c] = v
    return SparseOperator(dim, rows)


def permutes(op: SparseOperator, perm) -> bool:
    """op[perm[r], perm[c]] == op[r, c] for every entry (perm a bijection):
    the invariance of an operator under one generator permutation.

    Each stored row is matched against its image row entry by entry: equal
    lengths and every entry found at its image make the two rows equal, as
    perm is injective and no zero is stored."""
    for part in (op.m0, op.m1):
        for r, row in part.items():
            image = part.get(perm[r])
            if image is None or len(image) != len(row):
                return False
            get = image.get
            for c, v in row.items():
                if get(perm[c]) != v:
                    return False
    return True


def _link(rows: dict, group) -> None:
    """rows[u][v] = 1 for every two distinct u, v of group (no empty row)."""
    if len(group) < 2:
        return
    ones = dict.fromkeys(group, 1)
    for u in group:
        row = rows.get(u)
        if row is None:
            rows[u] = row = dict(ones)
        else:
            row.update(ones)
        del row[u]  # no family joins u to itself


def batch_inputs(geom) -> dict:
    """The builder's inputs for geom, every row built in one pass.

    The K diagonals go through the general constructor.  L1 and L2 come
    from the upper cover lists and R1, R2 are their transposes.  One pass
    over every w joins the pairs of covers of w: F- two slash upper covers,
    F+ two backslash lower covers, F0 two slash lower covers with equal
    meet_y, F two upper covers of the same kind, R/L a backslash and a
    slash upper cover, and A any two upper covers."""
    ring = QuadRing(geom.q)
    size = geom.size
    ops = {name: SparseOperator.diagonal([ring.q_half(e(geom.h, geom.k, i, j))
                                          for i, j in geom.ij])
           for name, e in K_EXPONENTS.items()}
    for name, covered_by in (("L1", geom.slash_covered_by),
                             ("L2", geom.backslash_covered_by)):
        ops[name] = _stored_operator(size, 1, {u: dict.fromkeys(above, 1)
                                               for u, above in enumerate(covered_by)
                                               if above}, {}, None)
    ops["R1"] = ops["L1"].transpose()
    ops["R2"] = ops["L2"].transpose()
    fams = {name: {} for name in ("F0", "Fplus", "Fminus", "F", "R", "L", "A")}
    for w in range(size):
        up_slash = geom.slash_covered_by[w]
        up_back = geom.backslash_covered_by[w]
        _link(fams["Fminus"], up_slash)
        _link(fams["Fplus"], geom.backslash_covers_of[w])
        by_meet: dict = {}
        for u in geom.slash_covers_of[w]:
            by_meet.setdefault(geom.meet_y[u], []).append(u)
        for group in by_meet.values():
            _link(fams["F0"], group)
        _link(fams["F"], up_slash)
        _link(fams["F"], up_back)
        if up_slash and up_back:
            for u in up_back:
                fams["R"].setdefault(u, {}).update(dict.fromkeys(up_slash, 1))
            for v in up_slash:
                fams["L"].setdefault(v, {}).update(dict.fromkeys(up_back, 1))
        _link(fams["A"], up_slash + up_back)
    for name, rows in fams.items():
        ops[name] = _stored_operator(size, 1, rows, {}, None)
    return ops


def transport(cert, rows: SparseOperator) -> SparseOperator:
    """The invariant operator whose representative rows are those of rows,
    every row stored: row u of a non-representative is row preds[u] with
    its columns moved by perms[gens[u]], found by walking the predecessors
    back to a row already known, each row made once."""
    perms, gens, preds = cert.perms, cert.gens, cert.preds
    parts = []
    for part in (rows.m0, rows.m1):
        known = {p: part.get(p) for p in cert.reps}
        for u in range(rows.dim):
            path = []
            while u not in known:
                path.append(u)
                u = preds[u]
            row = known[u]
            for v in reversed(path):
                row = known[v] = row and {perms[gens[v]][c]: x for c, x in row.items()}
        parts.append({u: known[u] for u in range(rows.dim) if known[u]})
    return _stored_operator(rows.dim, rows.d, *parts, rows.q)


def oracle_operators(geom) -> dict:
    """Every named operator over geom, each stored in full: the batch
    inputs, and each DERIVED definition multiplied out on the
    representative rows of a set holding those inputs, then moved to every
    row by ``transport``, in the order of DERIVED (each definition reads
    only names before it)."""
    ops = hand_certified(geom, batch_inputs(geom))
    cert = ops.certificate
    for name, definition in DERIVED.items():
        if name not in ops.ops:
            ops.ops[name] = transport(cert, definition(RowView(ops)).rows())
    return dict(ops.ops)


def builder_inputs(geom) -> dict:
    """The inputs ``build_geometry_operators`` makes for geom, read from a
    fresh set, which holds nothing else yet."""
    return dict(build_geometry_operators(geom, QuadRing(geom.q)).ops)


def hand_made(geom, inputs: dict) -> OperatorSet:
    """A geometry set built by hand from inputs: it derives every other
    operator and evaluates every relation in full, as it has no certificate."""
    return OperatorSet(QuadRing(geom.q), inputs, geom)


def hand_certified(geom, inputs: dict) -> OperatorSet:
    """A set built by hand from inputs, each asserted invariant under every
    generator permutation, with ``lattice_certificate(geom)`` installed: it
    runs on the representative rows as a builder's set does."""
    cert = symmetry.lattice_certificate(geom)
    assert cert is not None
    for name, op in inputs.items():
        assert all(permutes(op, perm) for perm in cert.perms), f"{name} is not invariant"
    ops = hand_made(geom, inputs)
    ops.certificate = cert
    return ops


def uncertified_twin(ops: OperatorSet) -> OperatorSet:
    """A set built by hand from the batch inputs for the geometry of ops,
    so its certificate is None.

    It derives every operator in full and evaluates every relation in full,
    so the full side of a reduced-vs-full comparison shares nothing with
    the rows on demand and the representative-row derivation of a
    certified ops."""
    return hand_made(ops.geometry, batch_inputs(ops.geometry))


def vector_mask_permutations(geom):
    """The permutation of positions induced by each generator of G_y, found by
    mapping every vector, or None when some generator matrix is singular.

    A subspace is keyed by the bitmask of the codes of its vectors, so the
    image of u is located without an echelon form: map each vector of u
    (c B goes to (c g) B) and look the new mask up."""
    n, q = geom.n, geom.q
    basis = _adapted_basis(geom)
    coords = list(itertools.product(range(q), repeat=n))
    code = {v: i for i, v in enumerate(coords)}
    members = [[code[v] for v in vectors(u)] for u in geom.elements]
    bits = [1 << i for i in range(len(coords))]
    position = {sum(map(bits.__getitem__, m)): p for p, m in enumerate(members)}
    source = [code[tuple(v)] for v in _matmul(coords, basis, q)]
    perms = []
    for g in symmetry.standard_generators(geom.h, geom.k):
        target = [code[tuple(v)] for v in _matmul(_matmul(coords, g, q), basis, q)]
        if len(set(target)) != len(target):
            return None
        moved = [0] * len(coords)
        for src, dst in zip(source, target):
            moved[src] = bits[dst]
        perms.append([position[sum(map(moved.__getitem__, m))] for m in members])
    return perms
