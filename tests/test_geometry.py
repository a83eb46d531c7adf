import itertools
import random

import pytest

from oracles import (
    BACKSLASH,
    NONE,
    SLASH,
    TESTED_YS,
    classify_ij,
    contains,
    cover_classify,
    intersect,
    lattice_mismatches,
    sum_with,
    vectors,
)
from pgaw.geometry import Subspace, build_geometry, enumerate_subspaces
from pgaw.operators import build_geometry_operators
from pgaw.rings import QuadRing, gaussian_binomial
from pgaw.verify import run_geometry_suite


def span(indices, n, q=2):
    return Subspace.span_of_basis_vectors(indices, n, q)


def vector_set(sub):
    return frozenset(vectors(sub))


def all_subspaces_oracle(q, n):
    """Every subspace of F_q^n as a frozenset of vectors (span-closure oracle)."""
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    found = {frozenset({(0,) * n})}
    for d in range(1, n + 1):
        for combo in itertools.combinations(vectors, d):
            out = {(0,) * n}
            for v in combo:
                new = set()
                for c in range(q):
                    scaled = tuple((c * x) % q for x in v)
                    new.update(tuple((a + b) % q for a, b in zip(u, scaled))
                               for u in out)
                out = new
            found.add(frozenset(out))
    return found


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n,count", [(2, 2, 5), (2, 3, 16), (3, 2, 6)])
def test_enumeration_counts(q, n, count):
    subs = enumerate_subspaces(q, n)
    assert len(subs) == count
    assert len(set(subs)) == count


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_enumeration_matches_span_oracle(q, n):
    subs = enumerate_subspaces(q, n)
    assert {vector_set(s) for s in subs} == all_subspaces_oracle(q, n)


def test_enumeration_per_level_sizes():
    subs = enumerate_subspaces(2, 4)
    for d in range(5):
        assert sum(1 for s in subs if s.dim == d) == gaussian_binomial(4, d, 2)


def test_enumeration_order_deterministic():
    subs = enumerate_subspaces(2, 3)
    keys = [(s.dim, s.rows) for s in subs]
    assert keys == sorted(keys)
    assert subs == enumerate_subspaces(2, 3)
    assert subs[0].dim == 0 and subs[-1].dim == 3


def test_enumeration_rejects_bad_q():
    with pytest.raises(ValueError):
        enumerate_subspaces(4, 3)


def test_rref_canonical_form():
    for s in enumerate_subspaces(2, 4):
        pivots = []
        for row in s.rows:
            lead = next(c for c, x in enumerate(row) if x)
            assert row[lead] == 1
            pivots.append(lead)
            for other in s.rows:
                if other is not row:
                    assert other[lead] == 0
        assert pivots == sorted(pivots)


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------

def test_intersect_examples():
    u = span([1, 3], 3)
    assert intersect(u, u) == u
    zero = Subspace((), 3, 2)
    assert intersect(u, zero) == zero
    assert intersect(span([1, 3], 3), span([3], 3)) == span([3], 3)


def test_sum_examples():
    u = span([1], 3)
    assert sum_with(u, u) == u
    assert sum_with(u, Subspace((), 3, 2)) == u
    assert sum_with(span([1], 3), span([3], 3)) == span([1, 3], 3)


def test_rows_of_the_wrong_length_are_rejected():
    # a 7-entry y for (3,4,2), where n = 6
    rows = ((1, 0, 0, 0, 0, 1, 2), (0, 1, 0, 0, 2, 0, 1))
    with pytest.raises(ValueError, match="6 entries"):
        Subspace(rows, 6, 3)
    with pytest.raises(ValueError, match="6 entries"):
        build_geometry(3, 4, 2, Subspace(rows, 6, 3))
    with pytest.raises(ValueError, match="3 entries"):
        Subspace(((1, 0),), 3, 2)


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        intersect(span([1], 3), span([1], 4))
    with pytest.raises(ValueError):
        sum_with(span([1], 3, q=2), span([1], 3, q=3))


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (2, 4)])
def test_intersect_sum_against_vector_set_oracle(q, n):
    subs = enumerate_subspaces(q, n)
    rng = random.Random(5)
    sets = {s: vector_set(s) for s in subs}
    for _ in range(80):
        u, v = rng.choice(subs), rng.choice(subs)
        meet = intersect(u, v)
        join = sum_with(u, v)
        assert vector_set(meet) == sets[u] & sets[v]
        assert all(w in sets[join] for w in sets[u] | sets[v])
        assert meet.dim + join.dim == u.dim + v.dim
        assert contains(join, u) and contains(join, v)
        assert contains(u, meet) and contains(v, meet)


# ---------------------------------------------------------------------------
# stratification and covers
# ---------------------------------------------------------------------------

def test_classify_ij_examples():
    y = span([3], 3)
    assert classify_ij(span([1], 3), y) == (0, 1)
    assert classify_ij(y, y) == (1, 0)
    assert classify_ij(span([1, 2, 3], 3), y) == (1, 2)


def test_cover_classify_examples():
    y = span([3], 3)
    assert cover_classify(span([1], 3), span([1, 3], 3), y) == SLASH
    assert cover_classify(span([1], 3), span([1, 2], 3), y) == BACKSLASH
    assert cover_classify(span([1], 3), span([2, 3], 3), y) == NONE
    # not a cover: dimension jumps by two
    assert cover_classify(span([1], 3), span([1, 2, 3], 3), y) == NONE


def test_build_geometry_strata_221():
    g = build_geometry(2, 2, 1)
    assert g.size == 16
    assert {key: len(v) for key, v in g.strata.items()} == {
        (0, 0): 1, (0, 1): 6, (1, 0): 1, (1, 1): 3, (0, 2): 4, (1, 2): 1}
    assert g.y == span([3], 3)


def test_build_geometry_validation():
    with pytest.raises(ValueError):
        build_geometry(2, 1, 1)
    with pytest.raises(ValueError):
        build_geometry(2, 1, 2)
    with pytest.raises(ValueError):
        build_geometry(4, 2, 1)
    with pytest.raises(ValueError):
        build_geometry(2, 2, 1, y=span([1, 2], 3))  # dim y != k
    with pytest.raises(ValueError):
        build_geometry(2, 2, 1, y=span([1], 4))  # wrong ambient


def test_every_cover_is_classified_exactly_once(geometry_cache):
    g = geometry_cache(2, 2, 1)
    for d in range(g.n):
        for pu in g.by_level[d]:
            for pv in g.by_level[d + 1]:
                u, v = g.elements[pu], g.elements[pv]
                verdict = cover_classify(u, v, g.y)
                if not contains(v, u):
                    assert verdict == NONE
                    continue
                assert verdict in (SLASH, BACKSLASH)
                in_slash = pu in g.slash_covers_of[pv]
                in_back = pu in g.backslash_covers_of[pv]
                assert in_slash != in_back
                assert (verdict == SLASH) == in_slash
                assert (pv in g.slash_covered_by[pu]) == in_slash
                assert (pv in g.backslash_covered_by[pu]) == in_back


def _cover_lists_by_containment_scan(g):
    """Cover lists from testing every pair of adjacent levels for containment."""
    lists = tuple([[] for _ in range(g.size)] for _ in range(4))
    sc_of, bc_of, sc_by, bc_by = lists
    for d in range(g.n):
        for pu in g.by_level[d]:
            u = g.elements[pu]
            for pv in g.by_level[d + 1]:
                v = g.elements[pv]
                if not contains(v, u):
                    continue
                slash = intersect(v, g.y).dim == intersect(u, g.y).dim + 1
                (sc_of if slash else bc_of)[pv].append(pu)
                (sc_by if slash else bc_by)[pu].append(pv)
    return tuple(tuple(tuple(x) for x in lst) for lst in lists)


@pytest.mark.parametrize("q,h,k", [(2, 2, 1), (3, 2, 1), (2, 3, 1)])
@pytest.mark.parametrize("custom_y", [False, True])
def test_cover_lists_match_containment_scan(q, h, k, custom_y):
    y = span([1], h + k, q) if custom_y else None
    g = build_geometry(q, h, k, y)
    assert (g.slash_covers_of, g.backslash_covers_of,
            g.slash_covered_by, g.backslash_covered_by) == \
        _cover_lists_by_containment_scan(g)
    for p, u in enumerate(g.elements):
        assert g.elements[g.meet_y[p]] == intersect(u, g.y)


# every tested configuration, (3,3,2) and (2,4,2) with default and
# non-coordinate y's, and (5,2,1) and (7,2,1), whose row codes have digits
# above 2
ORACLE_YS = TESTED_YS + (
    (3, 3, 2, None),
    (3, 3, 2, ((1, 2, 0, 1, 0), (0, 0, 1, 1, 2))),
    (2, 4, 2, ((1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 1))),
    (5, 2, 1, None),
    (5, 2, 1, ((1, 3, 4),)),
    (7, 2, 1, None),
    (7, 2, 1, ((1, 6, 2),)),
)


@pytest.mark.parametrize("q,h,k,y_rows", ORACLE_YS)
def test_every_field_matches_the_oracle_lattice(q, h, k, y_rows):
    y = Subspace(y_rows, h + k, q) if y_rows else None
    g = build_geometry(q, h, k, y)
    assert all(type(u) is Subspace and (u.n, u.q) == (h + k, q) for u in g.elements)
    assert all(g.position(u.rows) == p for p, u in enumerate(g.elements))
    assert lattice_mismatches(g) == []
    assert set(g.phases) == {"enumerate", "covers", "meets"}


@pytest.mark.parametrize("q,h,k", [(2, 3, 2), (3, 3, 1), (5, 2, 1)])
def test_labels_and_rows_from_the_codes_are_the_subspaces(q, h, k):
    g = build_geometry(q, h, k)
    assert [g.label(p) for p in range(g.size)] == [u.label() for u in g.elements]
    assert [g.rows(p) for p in range(g.size)] == [u.rows for u in g.elements]


def test_a_passing_verify_makes_no_subspace_per_element():
    g = build_geometry(2, 3, 2)
    report = run_geometry_suite(build_geometry_operators(g, QuadRing(2)))
    assert report.failures() == [] and len(report.outcomes) == 88
    assert "elements" not in vars(g)


@pytest.mark.parametrize("q,h,k", [(2, 2, 1), (3, 2, 1), (2, 3, 2), (2, 4, 2)])
def test_cover_degree_counts(geometry_cache, q, h, k):
    g = geometry_cache(q, h, k)

    def qint(m):
        return (q ** m - 1) // (q - 1)

    for p, (i, j) in enumerate(g.ij):
        assert len(g.slash_covers_of[p]) == q ** j * qint(i)
        assert len(g.backslash_covers_of[p]) == qint(j)
        assert len(g.slash_covered_by[p]) == qint(k - i)
        assert len(g.backslash_covered_by[p]) == q ** (k - i) * qint(h - j)


def test_level_sizes_match_gaussian_binomials(geometry_cache):
    for h, k, size in [(3, 2, 374), (4, 2, 2825)]:
        g = geometry_cache(2, h, k)
        assert g.size == size
        for d in range(g.n + 1):
            assert len(g.by_level[d]) == gaussian_binomial(h + k, d, 2)


def test_strata_oracle_via_vector_sets():
    g = build_geometry(2, 2, 1)
    y_set = vector_set(g.y)
    for p, u in enumerate(g.elements):
        inter = vector_set(u) & y_set
        # |intersection| = 2^i over F_2
        i = len(inter).bit_length() - 1
        assert g.ij[p] == (i, u.dim - i)


def test_custom_y_accepted():
    y = span([1], 3)
    g = build_geometry(2, 2, 1, y=y)
    assert g.y == y
    assert {key: len(v) for key, v in g.strata.items()} == {
        (0, 0): 1, (0, 1): 6, (1, 0): 1, (1, 1): 3, (0, 2): 4, (1, 2): 1}


def test_summary_export():
    g = build_geometry(2, 2, 1)
    summary = g.summary()
    assert summary["size"] == 16
    assert summary["level_sizes"] == summary["level_sizes_expected"]
    assert summary["strata"]["0,1"]["size"] == 6
