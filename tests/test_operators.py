import itertools
import random
from fractions import Fraction

import pytest

from pgaw.geometry import Subspace, build_geometry
from pgaw.operators import (
    SparseOperator,
    build_geometry_operators,
    commutator,
)
from pgaw.rings import QuadRing, RingMismatchError


def span(indices, n=3, q=2):
    return Subspace.span_of_basis_vectors(indices, n, q)


# ---------------------------------------------------------------------------
# sparse matrix container
# ---------------------------------------------------------------------------

def _dense(op):
    return [[op.entry(r, c) for c in range(op.dim)] for r in range(op.dim)]


def _random_sparse(rng, dim):
    entries = []
    for _ in range(rng.randint(0, dim * dim // 2)):
        entries.append((rng.randrange(dim), rng.randrange(dim),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return SparseOperator.from_entries(dim, entries)


def test_sparse_matmul_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(1, 6)
        x, y = _random_sparse(rng, dim), _random_sparse(rng, dim)
        dx, dy = _dense(x), _dense(y)
        expected = [[sum(dx[r][m] * dy[m][c] for m in range(dim))
                     for c in range(dim)] for r in range(dim)]
        assert _dense(x @ y) == expected
        assert _dense(x + y) == [[dx[r][c] + dy[r][c] for c in range(dim)]
                                 for r in range(dim)]
        assert _dense(x - y) == [[dx[r][c] - dy[r][c] for c in range(dim)]
                                 for r in range(dim)]


def test_sparse_never_stores_zeros():
    rng = random.Random(3)
    for _ in range(20):
        x, y = _random_sparse(rng, 5), _random_sparse(rng, 5)
        for op in (x + y, x - y, x @ y, x.scale(Fraction(2, 3)), (x - x)):
            for r, row in op.rows.items():
                assert row, "empty row stored"
                assert all(v for v in row.values()), "zero entry stored"


def test_sparse_transpose_and_identity():
    rng = random.Random(4)
    x = _random_sparse(rng, 5)
    ident = SparseOperator.identity(5)
    assert x @ ident == x
    assert ident @ x == x
    assert x.transpose().transpose() == x
    assert (x - x).is_zero()


def test_first_nonzero_row_major():
    op = SparseOperator.from_entries(4, [(2, 1, 5), (1, 3, 7), (1, 0, 2)])
    assert op.first_nonzero() == (1, 0, 2)
    assert SparseOperator.zero(3).first_nonzero() is None


def test_with_entry_added():
    op = SparseOperator.from_entries(3, [(0, 1, 2)])
    bumped = op.with_entry_added(0, 1, -2)
    assert bumped.is_zero()
    assert op.entry(0, 1) == 2  # original untouched
    assert op.with_entry_added(2, 2, 5).entry(2, 2) == 5


def test_diagonal_skips_zero_values():
    op = SparseOperator.diagonal([1, 0, Fraction(1, 2)])
    assert op.nnz() == 2


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
    assert (ops["K1"] @ ops["K1i"]) == SparseOperator.identity(g.size)
    assert (ops["K2"] @ ops["K2i"]) == SparseOperator.identity(g.size)


def test_l1_entry_example(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    u = g.index[span([1])]
    v = g.index[span([1, 3])]
    assert ops["L1"].entry(u, v) == 1
    assert ops["R1"] == ops["L1"].transpose()
    assert ops["R2"] == ops["L2"].transpose()


def test_r1_column_sums_match_up_degree(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    r1t = ops["R1"].transpose()
    for p, (i, j) in enumerate(g.ij):
        colsum = sum(r1t.rows.get(p, {}).values())
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
    u = g.index[span([1, 3])]
    v = g.index[span([2, 3])]
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
            meet = g.elements[u].intersect(g.elements[v])
            if meet.intersect(g.y).dim == g.ij[u][0]:
                expected.setdefault(u, {})[v] = 1
    assert ops["F0"] == SparseOperator(g.size, expected)


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
            meet = u.intersect(v)
            adjacent = (pu != pv and u.dim == meet.dim + 1 and v.dim == meet.dim + 1)
            assert ops["A"].entry(pu, pv) == (1 if adjacent else 0)


def test_estar_projections(ops_cache):
    ops = ops_cache(2, 2, 1)
    e1 = ops.estar_level(1)
    assert e1.nnz() == 7  # the 7 lines of F_2^3
    e01 = ops.estar_stratum(0, 1)
    assert e01.nnz() == 6
    assert (e01 @ e01) == e01


def test_product_memoization(ops_cache):
    ops = ops_cache(2, 2, 1)
    assert ops.prod("L1", "R1") is ops.prod("L1", "R1")
    assert ops.prod("L1", "R1") == ops["L1"] @ ops["R1"]


def test_perturbed_copy_isolated(ops_cache):
    ops = ops_cache(2, 2, 1)
    tampered = ops.perturbed("A", 0, 1, 1)
    assert tampered["A"].entry(0, 1) == ops["A"].entry(0, 1) + 1
    assert tampered["L1"] is ops["L1"]
    assert commutator(ops["K1"], ops["K2"]).is_zero()


def test_coordinate_export(ops_cache, geometry_cache):
    g = geometry_cache(2, 2, 1)
    ops = ops_cache(2, 2, 1)
    lines = list(ops["Astar"].coordinate_lines())
    assert len(lines) == 16
    assert all(len(line.split(" ")) == 3 for line in lines)
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split()[:2])))
    labeled = list(ops["L1"].coordinate_lines(ops.labels))
    u = span([1]).label()
    v = span([1, 3]).label()
    assert f"{u} {v} 1" in labeled
