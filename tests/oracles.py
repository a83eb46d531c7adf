"""Direct, slow statements of what the program computes another way.

The tests check the program against these.  None of them is called by
``src/``: subspaces are compared by their RREF, covers are generated rather
than tested, the symmetry certificate maps subspaces by cover joins and
checks no operator, and a certified set derives its operators from its
representative rows.
"""

import itertools

from pgaw.geometry import Subspace, _rref
from pgaw.operators import GEOMETRY, OperatorSet, SparseOperator, build_geometry_operators
from pgaw.rings import QuadRing
from pgaw import symmetry
from pgaw.symmetry import _adapted_basis, _matmul

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


def contains(u: Subspace, other: Subspace) -> bool:
    u._check_ambient(other)
    return all(contains_vector(u, r) for r in other.rows)


def sum_with(u: Subspace, other: Subspace) -> Subspace:
    u._check_ambient(other)
    return Subspace._trusted(_rref(list(u.rows) + list(other.rows), u.n, u.q), u.n, u.q)


def classify_ij(u: Subspace, y: Subspace) -> tuple[int, int]:
    """Stratum coordinates: i = dim(u ∩ y), j = dim(u) - i."""
    i = u.intersect(y).dim
    return i, u.dim - i


def cover_classify(u: Subspace, v: Subspace, y: Subspace) -> str:
    """slash / backslash / none for the candidate covering pair u ⊂ v."""
    u._check_ambient(v)
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


def builder_inputs(geom) -> dict:
    """The inputs ``build_geometry_operators`` makes for geom, read from a
    fresh set, which holds nothing else yet."""
    return dict(build_geometry_operators(geom, QuadRing(geom.q)).ops)


def hand_made(geom, inputs: dict) -> OperatorSet:
    """A geometry set built by hand from inputs: it derives every other
    operator and evaluates every relation in full, as it has no certificate."""
    return OperatorSet(GEOMETRY, QuadRing(geom.q), geom.h, geom.k, geom.ij, geom.labels(),
                       inputs, geometry=geom)


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
    """A set built by hand from the builder's inputs for the geometry of
    ops, so its certificate is None.

    It derives every operator in full and evaluates every relation in full,
    so the full side of a reduced-vs-full comparison shares nothing with
    the representative-row derivation of a certified ops."""
    return hand_made(ops.geometry, builder_inputs(ops.geometry))


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
