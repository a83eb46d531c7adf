import itertools
import random
from fractions import Fraction

import pytest

from oracles import coordinate_lines, from_entries, intersect, quad
from pgaw.geometry import Subspace, build_geometry
from pgaw.operators import (
    SparseOperator,
    _rows_lincomb,
    _rows_scale,
    build_geometry_operators,
    weight_diagonal,
)
from pgaw.rings import QuadRing, QuadScalar, RatFunc, RingMismatchError, SymbolicRing


def span(indices, n=3, q=2):
    return Subspace.span_of_basis_vectors(indices, n, q)


# ---------------------------------------------------------------------------
# sparse matrix container
# ---------------------------------------------------------------------------

def _dense(op):
    return [[op.entry(r, c) for c in range(op.dim)] for r in range(op.dim)]


def _random_scalar(rng, q):
    """int, Fraction, or QuadScalar over q; RatFunc (with a pole at q = 1)
    in place of QuadScalar when q is None (symbolic)."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3 * (q or 2)))
    if q is None:
        sym = SymbolicRing()
        v = sym.q_half(rng.randint(-3, 3)) * rng.randint(1, 3) + sym.bracket(rng.randint(-2, 3))
        return v * sym.inv(sym.q_power(1) - 1) if rng.randrange(2) else v
    return quad(QuadRing(q), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2 * q)))


def _random_sparse(rng, dim, q=2):
    entries = []
    for _ in range(rng.randint(0, dim * dim // 2)):
        entries.append((rng.randrange(dim), rng.randrange(dim), _random_scalar(rng, q)))
    return from_entries(dim, entries)


def _random_diagonal(rng, dim, q):
    """A diagonal operator with about a third of its entries zero (missing rows)."""
    return SparseOperator.diagonal(
        [0 if rng.randrange(3) == 0 else _random_scalar(rng, q) for _ in range(dim)])


def _oracle_cases(q, seed):
    """(result, expected entries) of every operation on random operands;
    q None draws symbolic entries."""
    rng = random.Random(seed)
    for _ in range(40):
        dim = rng.randint(1, 6)
        x, y = _random_sparse(rng, dim, q), _random_sparse(rng, dim, q)
        # diagonal operands take the row/column scaling path of the product
        dg, dg2, zero = (_random_diagonal(rng, dim, q), _random_diagonal(rng, dim, q),
                         SparseOperator(dim))
        dx, dy, ddg, ddg2 = _dense(x), _dense(y), _dense(dg), _dense(dg2)
        cells = [(r, c) for r in range(dim) for c in range(dim)]

        def product(a, b):
            return {(r, c): sum((a[r][m] * b[m][c] for m in range(dim)), 0)
                    for r, c in cells}

        products = product(dx, dy)
        scaled = {"x dg": product(dx, ddg), "dg y": product(ddg, dy),
                  "dg dg2": product(ddg, ddg2)}
        scalars = (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                   _random_scalar(rng, q),
                   QuadRing(q).sqrt_q if q else SymbolicRing().q_half(1))
        r0, c0, delta = rng.randrange(dim), rng.randrange(dim), _random_scalar(rng, q)
        results = [(x @ y, lambda r, c: products[r, c]),
                   (x @ dg, lambda r, c: scaled["x dg"][r, c]),
                   (dg @ y, lambda r, c: scaled["dg y"][r, c]),
                   (dg @ dg2, lambda r, c: scaled["dg dg2"][r, c]),
                   (x @ zero, lambda r, c: 0),
                   (zero @ y, lambda r, c: 0),
                   (zero @ dg, lambda r, c: 0),
                   (x + y, lambda r, c: dx[r][c] + dy[r][c]),
                   (x - y, lambda r, c: dx[r][c] - dy[r][c]),
                   (-x, lambda r, c: -dx[r][c]),
                   (x.transpose(), lambda r, c: dx[c][r]),
                   (x - x, lambda r, c: 0),
                   (x.with_entry_added(r0, c0, delta),
                    lambda r, c: dx[r][c] + (delta if (r, c) == (r0, c0) else 0))]
        results += [(x.scale(s), lambda r, c, s=s: s * dx[r][c]) for s in scalars]
        for op, want in results:
            yield op, {(r, c): want(r, c) for r, c in cells}


def test_sparse_matmul_against_dense_oracle():
    # @ (general, by a diagonal with missing rows on the left, on the right
    # and on both sides, by the zero operator), +, -, negation, transpose,
    # with_entry_added, scale by int, Fraction and QuadScalar or RatFunc,
    # entry, first_nonzero and == on entries mixing int, Fraction and
    # QuadScalar (q = 2, 3) or RatFunc (symbolic)
    for q in (2, 3, None):
        for op, expected in _oracle_cases(q, 11 + (q or 0)):
            assert {rc: op.entry(*rc) for rc in expected} == expected
            for v in map(op.entry, *zip(*expected)):
                # canonical: rational values never come back as QuadScalar
                assert type(v) in ((int, Fraction, QuadScalar) if q else
                                   (int, Fraction, RatFunc))
                assert type(v) is not QuadScalar or v.b
                assert type(v) is not Fraction or v.denominator > 1
            nonzero = [(r, c, v) for (r, c), v in sorted(expected.items()) if v]
            assert op.first_nonzero() == (nonzero[0] if nonzero else None)
            assert op.nnz() == len(nonzero)
            assert op.is_zero() == (not nonzero)
            assert op == from_entries(op.dim, nonzero)
            assert op != op.with_entry_added(op.dim - 1, 0, Fraction(1, 3))


def test_sparse_never_stores_zeros():
    for q in (2, 3, None):
        for op, _ in _oracle_cases(q, 3 + (q or 0)):
            assert op.d >= 1
            assert (op.q is None) == (not op.m1)
            for part in (op.m0, op.m1):
                for row in part.values():
                    assert row, "empty row stored"
                    assert all(v and (type(v) is int or q is None) for v in row.values()), \
                        "zero or non-integer numerator stored"


def test_mixed_q_rejected():
    x = SparseOperator.diagonal([QuadRing(2).sqrt_q, 1])
    y = SparseOperator.diagonal([QuadRing(3).sqrt_q, 1])
    for combine in (lambda: x @ y, lambda: x + y, lambda: x - y,
                    lambda: x.scale(QuadRing(3).sqrt_q), lambda: x == y,
                    lambda: x.with_entry_added(0, 0, QuadRing(3).sqrt_q)):
        with pytest.raises(RingMismatchError):
            combine()
    # rational operators carry no q and combine with either ring
    assert (x @ SparseOperator.diagonal([Fraction(1, 3), 2])).q == 2


def test_sparse_transpose_and_identity():
    rng = random.Random(4)
    x = _random_sparse(rng, 5)
    ident = SparseOperator.diagonal([1] * 5)
    assert x @ ident == x
    assert ident @ x == x
    assert x.transpose().transpose() == x
    assert (x - x).is_zero()


def test_first_nonzero_row_major():
    op = from_entries(4, [(2, 1, 5), (1, 3, 7), (1, 0, 2)])
    assert op.first_nonzero() == (1, 0, 2)
    assert SparseOperator(3).first_nonzero() is None


def test_with_entry_added():
    op = from_entries(3, [(0, 1, 2)])
    bumped = op.with_entry_added(0, 1, -2)
    assert bumped.is_zero()
    assert op.entry(0, 1) == 2  # original untouched
    assert op.with_entry_added(2, 2, 5).entry(2, 2) == 5


def test_diagonal_skips_zero_values():
    op = SparseOperator.diagonal([1, 0, Fraction(1, 2)])
    assert op.nnz() == 2


@pytest.mark.parametrize("q", [2, None])
def test_rows_lincomb_subtracts_as_negate_then_add(q):
    """a * x - y equals a * x + (-y) on int rows (q = 2) and on rows holding
    RatFunc numerators (symbolic); entries cancel and rows vanish, and the
    output of two nonempty operands shares no row with x or y."""
    rng = random.Random(15 if q else 16)
    kinds = set()
    for _ in range(40):
        dim = rng.randint(1, 6)
        x, y = _random_sparse(rng, dim, q).m0, _random_sparse(rng, dim, q).m0
        for r, row in x.items():  # rows and entries of x in y
            pick = rng.randrange(3)
            if pick == 0:
                y[r] = dict(row)
            elif pick == 1:
                c = rng.choice(list(row))
                y.setdefault(r, {})[c] = row[c]
        kinds.update(type(v) for rows in (x, y) for row in rows.values() for v in row.values())
        x0 = {r: dict(row) for r, row in x.items()}
        y0 = {r: dict(row) for r, row in y.items()}
        for a in (1, 2):
            got = _rows_lincomb(x, a, y, -1)
            assert got == _rows_lincomb(x, a, _rows_scale(y, -1), 1)
            assert all(row and all(row.values()) for row in got.values())
            if not x or not y:
                continue
            for row in got.values():
                row.clear()
                row[dim] = 1
            got[dim] = {dim: 1}
            assert x == x0 and y == y0
    assert RatFunc in kinds if q is None else kinds == {int}


# ---------------------------------------------------------------------------
# geometry operator families
# ---------------------------------------------------------------------------

def test_ring_mismatch_rejected(geometry_cache):
    g = geometry_cache(2, 2, 1)
    with pytest.raises(RingMismatchError):
        build_geometry_operators(g, QuadRing(3))


def test_k_diagonals_221(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    ring = ops.ring
    p = g.strata[(0, 1)][0]
    # on the (0,1) stratum K1 carries q^(1/2) and K2 carries q^0
    assert ops["K1"].entry(p, p) == ring.sqrt_q
    assert ops["K2"].entry(p, p) == 1
    assert (ops["K1"] @ ops["K1i"]) == SparseOperator.diagonal([1] * g.size)
    assert (ops["K2"] @ ops["K2i"]) == SparseOperator.diagonal([1] * g.size)


def test_l1_entry_example(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    u = g.position(span([1]).rows)
    v = g.position(span([1, 3]).rows)
    assert ops["L1"].entry(u, v) == 1
    assert ops["R1"] == ops["L1"].transpose()
    assert ops["R2"] == ops["L2"].transpose()


def test_r1_column_sums_match_up_degree(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    r1 = ops["R1"]
    for p, (i, j) in enumerate(g.ij):
        colsum = sum(r1.entry(r, p) for r in range(g.size))
        assert colsum == (2 ** (g.k - i) - 1) // (2 - 1)


def test_fminus_vanishes_when_k_is_one(ops_cache):
    # two distinct slash-covers of a common intersection would both contain y
    ops = ops_cache(2, 2, 1)
    assert ops["Fminus"].is_zero()


def test_fplus_pair_example(ops_cache, geometry_cache):
    # u, v both backslash-cover their intersection span{e3}; their join is
    # the full space, which backslash-covers both, so this is an F+ pair
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    u = g.position(span([1, 3]).rows)
    v = g.position(span([2, 3]).rows)
    assert ops["Fplus"].entry(u, v) == 1
    assert ops["Fminus"].entry(u, v) == 0
    assert ops["F0"].entry(u, v) == 0
    assert ops["F"].entry(u, v) == 1


@pytest.mark.parametrize("q,h,k", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2)])
@pytest.mark.parametrize("custom_y", [False, True])
def test_f0_matches_intersection_rule(ops_cache, geometry_cache, q, h, k, custom_y):
    # F0 joins u != v slash-covered by a common w with dim(u ∩ v ∩ y) = i_u;
    # for k = 1 every such pair qualifies, so (2,3,2) is the discriminating case
    if custom_y:
        g = build_geometry(q, h, k, span(range(1, k + 1), h + k, q))
        ops = build_geometry_operators(g, QuadRing(q))
    else:
        g, ops = geometry_cache(q, h, k), ops_cache(q, h, k)
    expected = {}
    for w in range(g.size):
        for u, v in itertools.permutations(g.slash_covers_of[w], 2):
            meet = intersect(g.elements[u], g.elements[v])
            if intersect(meet, g.y).dim == g.ij[u][0]:
                expected.setdefault(u, {})[v] = 1
    assert ops["F0"] == SparseOperator(g.size, expected)


def _pair_families(g):
    """The 0/1 families as scalar rows, from pairs of covers of a common w."""
    fam = {name: {} for name in ("F0", "Fplus", "Fminus", "F", "R", "L", "A")}
    fam["L1"] = {u: {v: 1 for v in g.slash_covered_by[u]}
                 for u in range(g.size) if g.slash_covered_by[u]}
    fam["L2"] = {u: {v: 1 for v in g.backslash_covered_by[u]}
                 for u in range(g.size) if g.backslash_covered_by[u]}
    for w in range(g.size):
        up_slash, up_back = g.slash_covered_by[w], g.backslash_covered_by[w]
        pairs = {"Fminus": itertools.permutations(up_slash, 2),
                 "Fplus": itertools.permutations(g.backslash_covers_of[w], 2),
                 "F0": ((u, v) for u, v in itertools.permutations(g.slash_covers_of[w], 2)
                        if g.meet_y[u] == g.meet_y[v]),
                 "R": itertools.product(up_back, up_slash),
                 "L": itertools.product(up_slash, up_back)}
        for u, v in itertools.permutations(up_slash + up_back, 2):
            fam["A"].setdefault(u, {})[v] = 1
            if g.ij[u][0] == g.ij[v][0]:
                fam["F"].setdefault(u, {})[v] = 1
        for name, uv in pairs.items():
            for u, v in uv:
                fam[name].setdefault(u, {})[v] = 1
    return fam


@pytest.mark.parametrize("q,h,k", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1)])
def test_integer_rows_stored_as_the_general_constructor_would(ops_cache, geometry_cache,
                                                               q, h, k):
    # the incidence families, the identity and the projections E* skip the
    # per-entry split; they must come out exactly as SparseOperator(size, rows)
    g, ops = geometry_cache(q, h, k), ops_cache(q, h, k)
    families = _pair_families(g)
    want = {name: SparseOperator(g.size, rows) for name, rows in families.items()}
    want["identity"] = SparseOperator.diagonal([1] * g.size)
    want["E*_2"] = SparseOperator.diagonal([int(i + j == 2) for i, j in g.ij])
    want["E*_(1,0)"] = SparseOperator.diagonal([int(ij == (1, 0)) for ij in g.ij])
    got = {name: ops[name] for name in families}
    got["identity"] = ops.identity()
    got["E*_2"] = ops.estar_level(2)
    got["E*_(1,0)"] = ops.estar_stratum(1, 0)
    for name, op in got.items():
        ref = want[name]
        assert (op.d, op.m0, op.m1, op.q) == (ref.d, ref.m0, ref.m1, ref.q), name
        assert op.d == 1 and all(op.m0.values()), name


def test_f_diagonals_vanish_and_f_symmetric(ops_cache):
    ops = ops_cache(2, 2, 1)
    for name in ("F0", "Fplus", "Fminus", "F", "A"):
        for p in range(ops.dim):
            assert ops[name].entry(p, p) == 0
    assert ops["F"] == ops["F"].transpose()
    assert ops["A"] == ops["A"].transpose()


def test_astar_diagonal_entries(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    for p, (i, _) in enumerate(g.ij):
        assert ops["Astar"].entry(p, p) == 2 ** i
    assert ops["Astar"].nnz() == g.size


def test_a_entry_matches_cover_condition(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    for pu, u in enumerate(g.elements):
        for pv, v in enumerate(g.elements):
            meet = intersect(u, v)
            adjacent = (pu != pv and u.dim == meet.dim + 1 and v.dim == meet.dim + 1)
            assert ops["A"].entry(pu, pv) == (1 if adjacent else 0)


def test_weight_diagonal_is_the_diagonal_in_lowest_terms():
    # one value per weight: rational, zero and irrational, over 4, 1, 6 and 9
    values = {(0, 0): Fraction(3, 4), (0, 1): 0,
              (1, 0): QuadScalar(Fraction(1, 6), Fraction(5, 2), 3), (1, 1): Fraction(-2, 9)}
    ij = ((0, 0), (1, 1), (0, 1), (1, 0), (0, 0), (1, 0), (1, 1))
    calls = []
    op = weight_diagonal(ij, lambda w: calls.append(w) or values[w])
    assert sorted(calls) == sorted(values) and not op.rows_produced()
    want = SparseOperator.diagonal([values[w] for w in ij])
    assert (op.d, op.q, op.m0, op.m1) == (want.d, want.q, want.m0, want.m1)
    assert op.d == 36 and 2 not in op.m0


def test_estar_projections(ops_cache):
    ops = ops_cache(2, 2, 1)
    e1 = ops.estar_level(1)
    assert e1.nnz() == 7  # the 7 lines of F_2^3
    e01 = ops.estar_stratum(0, 1)
    assert e01.nnz() == 6
    assert (e01 @ e01) == e01


def test_perturbed_copy_isolated(ops_cache):
    ops = ops_cache(2, 2, 1)
    tampered = ops.perturbed("A", 0, 1, 1)
    assert tampered["A"].entry(0, 1) == ops["A"].entry(0, 1) + 1
    assert tampered["L1"] is ops["L1"]
    assert ((ops["K1"] @ ops["K2"]) - (ops["K2"] @ ops["K1"])).is_zero()


@pytest.mark.parametrize("r,c,index", [(-1, 0, "row -1"), (16, 0, "row 16"),
                                       (0, -1, "col -1"), (0, 16, "col 16")])
def test_perturbed_rejects_an_index_that_is_not_a_position(ops_cache, r, c, index):
    ops = ops_cache(2, 2, 1)
    assert ops.dim == 16
    with pytest.raises(ValueError, match=rf"^perturbed A: {index} is not a position"):
        ops.perturbed("A", r, c, 1)


def test_a_clones_operator_equals_the_entry_added_in_full(geometry_cache):
    ops = build_geometry_operators(geometry_cache(2, 2, 1), QuadRing(2))
    base = ops["Omega1"]
    assert base.d > 1
    root = QuadRing(2).sqrt_q
    for delta, integral in ((1, True), (-3, True), (root, True), (Fraction(1, 3), False),
                            (root / 3, False)):
        op = ops.perturbed("Omega1", 2, 5, delta)["Omega1"]
        assert not op.rows_produced() and op.d % base.d == 0  # no row read yet
        eager = base.with_entry_added(2, 5, delta)
        assert op.entry(2, 5) == eager.entry(2, 5) and op == eager, delta
        if integral:  # the sum stays in lowest terms
            assert (op.d, op.m0, op.m1, op.q) == (eager.d, eager.m0, eager.m1, eager.q)


def test_coordinate_export(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    lines = list(coordinate_lines(ops["Astar"]))
    assert len(lines) == 16
    assert all(len(line.split(" ")) == 3 for line in lines)
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split()[:2])))
    labeled = list(coordinate_lines(ops["L1"], ops.labels))
    u = span([1]).label()
    v = span([1, 3]).label()
    assert f"{u} {v} 1" in labeled
