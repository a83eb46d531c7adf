import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from oracles import uncertified_twin
import pgaw.decompose
from pgaw.decompose import (
    _central_triple,
    bookkeeping_check,
    compute_multiplicities,
    multiplicity_table,
)
from pgaw.geometry import Subspace, build_geometry
from pgaw.modules import ModuleType, enumerate_types
from pgaw.operators import OperatorSet, SparseOperator
from pgaw.rings import QuadRing

# The h+k = 6 and h+k = 7 tables of `pgaw decompose --format json`; CI
# compares the h+k = 6 runs against the first file.
DATA = os.path.join(os.path.dirname(__file__), "data")
N6_TABLES = os.path.join(DATA, "multiplicities_n6.json")
N7_TABLES = os.path.join(DATA, "multiplicities_n7.json")
PINNED = {"2,4,2": N6_TABLES, "2,5,1": N6_TABLES, "3,3,2": N6_TABLES,
          "2,5,2": N7_TABLES, "2,6,1": N7_TABLES, "2,4,3": N7_TABLES}


def _rank(rows: list[dict]) -> int:
    """Rank of sparse integer rows {col: int}, by fraction-free elimination:
    the reference for the multiplicities.

    Zero entries are dropped; the input rows are not modified.  Rows go in
    order of nonzero count (Markowitz, 1957).  A row is reduced by
    p*row - f*pivot (p, f over their gcd) against the pivot of its last
    column until it vanishes or becomes that column's pivot, divided by its
    content.
    """
    pivots: dict[int, dict] = {}
    for row in sorted(({c: v for c, v in r.items() if v} for r in rows), key=len):
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = gcd(*row.values())
                pivots[col] = {c: v // g for c, v in row.items()}
                break
            g = gcd(pivot[col], row[col])
            p, f = pivot[col] // g, row[col] // g
            if p != 1:
                row = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


def _sparse(rows):
    """List rows as sparse {col: v} rows with the zeros left out."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_rank_small_oracles():
    assert _rank([]) == 0
    assert _rank(_sparse([[0, 0], [0, 0]])) == 0
    assert _rank(_sparse([[1, 2], [2, 4]])) == 1
    assert _rank(_sparse([[1, 0], [0, 1]])) == 2
    assert _rank(_sparse([[1, 2], [1, 2], [3, 7]])) == 2
    # explicit zeros are dropped; the caller's rows are not modified
    rows = [{0: 0, 1: 3}, {1: -6, 2: 0}, {0: 2, 1: 4}]
    assert _rank(rows) == 2
    assert rows == [{0: 0, 1: 3}, {1: -6, 2: 0}, {0: 2, 1: 4}]


def _fraction_rank(rows):
    """Gauss-Jordan elimination over Fraction: the reference for _rank."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = prow
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators: the same row space."""
    out = []
    for row in rows:
        m = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * m) for x in row])
    return out


def test_rank_matches_fraction_elimination():
    rng = random.Random(5)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        basis = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(ncols)]
                 for _ in range(rng.randint(0, min(nrows, ncols)))]
        rows = []
        for _ in range(nrows):
            kind = rng.randrange(4)
            if kind == 0 or not basis:
                rows.append([0] * ncols)  # all-zero row
            elif kind == 1:
                rows.append([rng.choice((0, 0, rng.randint(-9, 9), Fraction(1, 7)))
                             for _ in range(ncols)])
            else:  # a combination of a few rows: rank deficiency
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
                rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                             for j in range(ncols)])
        rng.shuffle(rows)
        assert _rank(_sparse(_integer_rows(rows))) == _fraction_rank(rows), rows


def test_multiplicities_221(geometry_cache, ops_cache):
    g = geometry_cache(2, 2, 1)
    mults = compute_multiplicities(g, ops_cache(2, 2, 1))
    assert {t.triple(): m for t, m in mults.items()} == {
        (0, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}
    assert sum(m * t.dim for t, m in mults.items()) == 16


def test_multiplicity_tables_232_331(geometry_cache, ops_cache):
    # (alpha, beta, rho): multiplicity, as in benchmark/known_answers.json
    known = {
        (2, 3, 2): {(0, 0, 0): 1, (0, 1, 0): 6, (1, 0, 0): 2, (1, 1, 0): 12,
                    (0, 0, 1): 21, (0, 1, 1): 42, (0, 0, 2): 42},
        (3, 3, 1): {(0, 0, 0): 1, (0, 1, 0): 12, (0, 0, 1): 26, (0, 1, 1): 78},
    }
    for config, table in known.items():
        g = geometry_cache(*config)
        mults = compute_multiplicities(g, ops_cache(*config))
        assert {t.triple(): m for t, m in mults.items()} == table, config
        assert bookkeeping_check(g, mults).passed, config


def _stacked_rows(ops, corner, triple):
    """The integer rows of d b (Omega_c - (a/b) I) on the corner block, c = 0, 1, 2."""
    local = {p: i for i, p in enumerate(corner)}
    stacked = []
    for c, scalar in enumerate(triple):
        op = ops[f"Omega{c}"]
        a, b = Fraction(scalar).as_integer_ratio()
        for r, p in enumerate(corner):
            row = {local[col]: b * v for col, v in op.m0.get(p, {}).items() if col in local}
            row[r] = row.get(r, 0) - a * op.d
            stacked.append(row)
    return stacked


@pytest.mark.parametrize("config", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 3, 2)])
def test_multiplicities_match_the_rank_oracle(config, geometry_cache, ops_cache):
    g, ops = geometry_cache(*config), ops_cache(*config)
    mults = compute_multiplicities(g, ops)
    for t, m in mults.items():
        corner = g.stratum(t.alpha, t.rho + t.beta)
        triple = _central_triple(t, ops.ring)
        assert m == len(corner) - _rank(_stacked_rows(ops, corner, triple)), t


@pytest.mark.parametrize("config", [(2, 2, 1), (3, 2, 1), (2, 3, 2), (3, 3, 1)])
def test_certified_and_uncertified_tables_agree(config, geometry_cache, ops_cache):
    g, ops = geometry_cache(*config), ops_cache(*config)
    twin = uncertified_twin(ops)  # the same inputs, derived and evaluated in full
    # the Omegas are held by the certified set, so its certificate covers them
    assert ops.certificate is not None
    assert all(ops[f"Omega{c}"] is ops.ops[f"Omega{c}"] for c in range(3))
    assert compute_multiplicities(g, twin) == compute_multiplicities(g, ops)


@pytest.mark.parametrize("certified", [True, False])
def test_wrong_central_triple_fails_the_check(certified, geometry_cache, ops_cache,
                                              monkeypatch):
    g, ops = geometry_cache(2, 2, 1), ops_cache(2, 2, 1)
    if not certified:
        ops = ops.perturbed("A", 0, 0, 0)

    def triple(t, ring):  # distinct from every other triple, but not (0,1,0)'s eigenvalues
        lam = _central_triple(t, ring)
        return (*lam[:2], lam[2] + 1000) if t.triple() == (0, 1, 0) else lam

    monkeypatch.setattr(pgaw.decompose, "_central_triple", triple)
    u0 = ops.labels[g.stratum(0, 1)[0]]
    with pytest.raises(ValueError, match=rf"type \(0,1,0\): \(Omega2 - .*\) E_t is nonzero "
                                         rf"at row {u0}$"):
        compute_multiplicities(g, ops)


def _conjugated(ops, u0, u1, x):
    """A clone without a certificate whose Omegas are T^-1 Omega T,
    T = I + x E_(u0,u1): the same spectrum, other rows and diagonal."""
    shear = SparseOperator(ops.dim, {u0: {u1: x}})
    t, t_inv = ops.identity() + shear, ops.identity() - shear
    omegas = {f"Omega{c}": t_inv @ ops[f"Omega{c}"] @ t for c in range(3)}
    return OperatorSet(ops.ring, omegas, ops.basis, parent=ops)


def test_idempotent_rows_outside_the_corner_are_an_error(geometry_cache, ops_cache):
    """Omegas that do not preserve the strata: a row of E_t at P_(0,1) takes
    entries on P_(0,2), yet every residual row is still zero."""
    g, ops = geometry_cache(2, 2, 1), ops_cache(2, 2, 1)
    u0 = g.stratum(0, 1)[0]
    clone = _conjugated(ops, u0, g.stratum(0, 2)[0], 1)
    with pytest.raises(ValueError, match=rf"^type \(0,1,0\): E_t has an entry outside "
                                         rf"P_\(0, 1\) at row {ops.labels[u0]}$"):
        compute_multiplicities(g, clone)


def test_fractional_trace_is_an_error(geometry_cache, ops_cache):
    """The certified trace |S| E_t[u0, u0] trusts that the Omegas are invariant.
    Conjugating them inside one stratum keeps every residual zero and every
    row in the stratum, but moves the diagonal: a certificate that wrongly
    covers the conjugates yields a trace that is not an integer."""
    g, ops = geometry_cache(2, 2, 1), ops_cache(2, 2, 1)
    clone = _conjugated(ops, *g.stratum(0, 1)[:2], Fraction(1, 2))
    assert compute_multiplicities(g, clone) == compute_multiplicities(g, ops)
    clone.__dict__["certificate"] = ops.certificate
    with pytest.raises(ValueError, match=r"^type \(.*\): trace .* is not a nonnegative integer"):
        compute_multiplicities(g, clone)


@pytest.mark.parametrize("config", list(PINNED))
def test_pinned_tables_keep_the_books(config):
    with open(PINNED[config], encoding="utf-8") as fh:
        rows = json.load(fh)[config]
    q, h, k = map(int, config.split(","))
    mults = {ModuleType(r["alpha"], r["beta"], r["rho"], h=h, k=k): r["multiplicity"]
             for r in rows}
    # in the CLI's format and order, and every per-stratum equation holds
    assert multiplicity_table(mults) == rows
    assert bookkeeping_check(build_geometry(q, h, k), mults).passed


def test_multiplicities_need_the_lattice_of_the_set(geometry_cache, ops_cache):
    # a (2,3,1) lattice with y = <e1> in place of the default <e4>: the
    # shape of the set's lattice, with other strata
    y = Subspace.span_of_basis_vectors([1], 4, 2)
    other = build_geometry(2, 3, 1, y)
    with pytest.raises(ValueError, match="not the lattice of the operator set"):
        compute_multiplicities(other, ops_cache(2, 3, 1))
    with pytest.raises(ValueError, match="not the lattice of the operator set"):
        compute_multiplicities(geometry_cache(2, 3, 2), ops_cache(2, 3, 1))
    # an equal lattice built again is not the set's either
    with pytest.raises(ValueError, match="not the lattice of the operator set"):
        compute_multiplicities(build_geometry(2, 3, 1), ops_cache(2, 3, 1))


def test_multiplicities_need_rational_centrals(geometry_cache, ops_cache):
    ops = ops_cache(2, 2, 1)
    r, c = geometry_cache(2, 2, 1).stratum(0, 1)[:2]
    broken = ops.perturbed("Omega1", r, c, QuadRing(2).sqrt_q)
    with pytest.raises(ValueError, match="rational"):
        compute_multiplicities(geometry_cache(2, 2, 1), broken)


def test_bookkeeping_221(geometry_cache, ops_cache):
    g = geometry_cache(2, 2, 1)
    mults = compute_multiplicities(g, ops_cache(2, 2, 1))
    rep = bookkeeping_check(g, mults)
    assert rep.passed
    # spot values from the stratum equations
    assert len(g.stratum(0, 1)) == 6 == 1 + 2 + 3
    assert len(g.stratum(1, 2)) == 1  # only the trivial-corner type supports (1,2)


def test_bookkeeping_231(geometry_cache, ops_cache):
    g = geometry_cache(2, 3, 1)
    mults = compute_multiplicities(g, ops_cache(2, 3, 1))
    rep = bookkeeping_check(g, mults)
    assert rep.passed, rep.failures()
    assert sum(m * t.dim for t, m in mults.items()) == g.size == 67


def test_trivial_corner_type_has_multiplicity_one(geometry_cache, ops_cache):
    for (q, h, k) in [(2, 2, 1), (3, 2, 1), (2, 3, 1)]:
        g = geometry_cache(q, h, k)
        mults = compute_multiplicities(g, ops_cache(q, h, k))
        full = next(t for t in mults if t.triple() == (0, 0, 0))
        assert mults[full] == 1


def test_central_scalar_triples_separate_types():
    from pgaw.decompose import _central_triple
    for q in (2, 3, 5, 7):
        ring = QuadRing(q)
        for h in range(2, 6):
            for k in range(1, min(h, 4)):
                triples = [_central_triple(t, ring) for t in enumerate_types(h, k)]
                assert len(set(triples)) == len(triples), (q, h, k)


def test_central_scalar_collision_is_an_error(geometry_cache, ops_cache, monkeypatch):
    import pgaw.decompose
    monkeypatch.setattr(pgaw.decompose, "_central_triple", lambda t, ring: (1, 2, 3))
    with pytest.raises(RuntimeError, match="central scalar collision"):
        compute_multiplicities(geometry_cache(2, 2, 1), ops_cache(2, 2, 1))


def test_bookkeeping_detects_wrong_multiplicities(geometry_cache, ops_cache):
    g = geometry_cache(2, 2, 1)
    mults = compute_multiplicities(g, ops_cache(2, 2, 1))
    broken = dict(mults)
    some_type = next(iter(broken))
    broken[some_type] += 1
    rep = bookkeeping_check(g, broken)
    assert not rep.passed


def test_multiplicity_table_serialization(geometry_cache, ops_cache):
    g = geometry_cache(2, 2, 1)
    rows = multiplicity_table(compute_multiplicities(g, ops_cache(2, 2, 1)))
    assert rows == [
        {"alpha": 0, "beta": 0, "rho": 0, "dim": 6, "multiplicity": 1},
        {"alpha": 0, "beta": 1, "rho": 0, "dim": 2, "multiplicity": 2},
        {"alpha": 0, "beta": 0, "rho": 1, "dim": 2, "multiplicity": 3},
    ]


def test_decomposition_independent_of_y(ops_cache):
    from pgaw.geometry import Subspace, build_geometry
    from pgaw.operators import build_geometry_operators
    ring = QuadRing(2)
    maps = []
    for basis_index in (3, 1):
        y = Subspace.span_of_basis_vectors([basis_index], 3, 2)
        g = build_geometry(2, 2, 1, y)
        ops = build_geometry_operators(g, ring)
        mults = compute_multiplicities(g, ops)
        maps.append({t.triple(): m for t, m in mults.items()})
    assert maps[0] == maps[1]
