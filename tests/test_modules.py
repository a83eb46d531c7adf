from fractions import Fraction

import pytest

from pgaw.modules import (
    NMDE,
    ModuleType,
    build_abstract_module,
    conversion_case,
    eigen_scalar,
    eigen_tables,
    enumerate_types,
    nmde_to_type,
    type_to_nmde,
)
from pgaw.operators import SparseOperator
from pgaw.rings import QuadRing, SymbolicRing
from pgaw.verify import run_module_suite, run_suites

R2 = QuadRing(2)
SYM = SymbolicRing()

ALL_HK = [(h, k) for h in range(2, 5) for k in range(1, 4) if h > k]


# ---------------------------------------------------------------------------
# the classifying triples
# ---------------------------------------------------------------------------

def test_enumerate_types_21():
    triples = {t.triple() for t in enumerate_types(2, 1)}
    assert triples == {(0, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enumerate_types_all_have_positive_dimension():
    for h, k in ALL_HK:
        for t in enumerate_types(h, k):
            assert t.dim >= 1
            assert len(t.i_range) == t.k - t.rho - 2 * t.alpha + 1
            assert len(t.j_range) == t.h - t.rho - 2 * t.beta + 1


def test_enumerate_types_32_contains_dim4_example():
    t = ModuleType(1, 0, 0, h=3, k=2)
    assert t in enumerate_types(3, 2)
    assert t.dim == 4


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        ModuleType(1, 0, 0, h=2, k=1)  # 2*alpha > k-rho
    with pytest.raises(ValueError):
        ModuleType(0, 2, 0, h=2, k=1)  # 2*beta > h-rho
    with pytest.raises(ValueError):
        ModuleType(0, 0, -1, h=2, k=1)
    with pytest.raises(ValueError, match=r"^rho=9 outside \[0, k\]$"):
        ModuleType(0, 0, 9, h=3, k=2)  # rho > k, though alpha = 0 is in range
    with pytest.raises(ValueError):
        ModuleType(0, 0, 0, h=1, k=1)  # needs h > k


def test_enumeration_is_deterministic():
    a = [t.triple() for t in enumerate_types(4, 3)]
    b = [t.triple() for t in enumerate_types(4, 3)]
    assert a == b == sorted(a, key=lambda tr: (tr[2], tr[0], tr[1]))


# ---------------------------------------------------------------------------
# standard-basis actions
# ---------------------------------------------------------------------------

def test_generator_action_coefficients():
    t = ModuleType(0, 0, 0, h=3, k=2)
    m = build_abstract_module(t, R2)
    ring = R2
    for (i, j) in m.basis:
        # R1 w[i,j] = q^((alpha-rho-beta-i+j)/2) [i-alpha+1] w[i+1,j]
        if m.type.position(i + 1, j) is not None:
            got = m.ops["R1"].entry(m.type.position(i + 1, j), m.type.position(i, j))
            assert got == ring.q_half(j - i) * ring.bracket(i + 1)
        # L1 w[i,j] = q^((rho+alpha+beta+i+j-1)/2) [k-rho-alpha-i+1] w[i-1,j]
        if m.type.position(i - 1, j) is not None:
            got = m.ops["L1"].entry(m.type.position(i - 1, j), m.type.position(i, j))
            assert got == ring.q_half(i + j - 1) * ring.bracket(2 - i + 1)


def test_l1_annihilates_left_edge():
    t = ModuleType(1, 0, 0, h=4, k=3)
    m = build_abstract_module(t, R2)
    for j in t.j_range:
        col = m.type.position(t.alpha, j)
        assert all(m.ops["L1"].entry(r, col) == 0 for r in range(m.dim))


def test_l1r1_action_scalar():
    # L1R1 acts on w[i,j] by q^(alpha+j) [i-alpha+1][k-rho-alpha-i]
    t = ModuleType(0, 0, 0, h=3, k=2)
    m = build_abstract_module(t, R2)
    prod = m.ops["L1"] @ m.ops["R1"]
    for (i, j) in m.basis:
        p = m.type.position(i, j)
        assert prod.entry(p, p) == 2 ** j * R2.bracket(i + 1) * R2.bracket(2 - i)


def test_bc_coefficients_examples():
    t = ModuleType(0, 0, 0, h=3, k=2)
    c, b = eigen_scalar("c", t, 0, 1, R2), eigen_scalar("b", t, 0, 1, R2)
    assert c == 3  # [1][2] at q=2
    # cross-check against the action matrices: R w[1,0] = c_(0,1) w[0,1]
    m = build_abstract_module(t, R2)
    assert m.ops["R"].entry(m.type.position(0, 1), m.type.position(1, 0)) == c
    assert b == 2 ** (2 - 0 + 1 + 1) * 0 * R2.bracket(2)  # [i-alpha] = 0
    assert b == 0
    # b vanishes on the left edge, c vanishes on the bottom edge
    for j in t.j_range:
        assert eigen_scalar("b", t, t.alpha, j, R2) == 0
    for i in t.i_range:
        assert eigen_scalar("c", t, i, t.rho + t.beta, R2) == 0
    assert eigen_scalar("c", t, -5, 99, R2) == eigen_scalar("b", t, -5, 99, R2) == 0


def test_omega0_scalar_example():
    t = ModuleType(0, 0, 1, h=2, k=1)
    assert eigen_scalar("Omega0", t, 0, 1, R2) == Fraction(1, 2)


def test_a0_collapses_at_top_i():
    t = ModuleType(0, 0, 0, h=2, k=1)
    for j in t.j_range:
        assert eigen_scalar("a0", t, t.k, j, R2) == 0


def test_omega_eigenvalue_formula():
    t = ModuleType(0, 1, 0, h=3, k=2)
    q, ell = 2, 1 + 2
    expect = -(q ** (5 - 0 - 1) + q ** (2 + 1 - 1) + q ** (2 + ell - 0 - 0)
               + q ** (ell + 0 - 1))
    assert eigen_scalar("Omega", t, 1, 2, R2) == expect


def test_eigen_tables_export():
    m = build_abstract_module(ModuleType(0, 0, 0, h=2, k=1), R2)
    tables = eigen_tables(m)
    assert set(tables) == set(m.basis)
    assert tables[(0, 0)]["Omega0"] == 1
    assert "G" in tables[(0, 0)] and "c" in tables[(0, 0)]


def test_closed_form_diagonals_are_one_per_module_set():
    m = build_abstract_module(ModuleType(0, 1, 1, h=4, k=2), SYM)
    assert not m.ops._diagonals
    assert run_module_suite(m).passed
    # made at the first read by a module relation, one per closed-form name
    memo = dict(m.ops._diagonals)
    names = {"K1", "K1i", "K2", "K2i", "L1R1", "R1L1", "L2R2", "R2L2",
             "a0", "aplus", "aminus", "Omega0", "Omega1", "Omega2",
             "Y", "P", "Omega", "G", "Gstar"}
    assert names <= set(memo) and "a" not in memo
    assert run_module_suite(m).passed and m.ops._diagonals.keys() == memo.keys()
    assert all(m.ops._diagonals[name] is op for name, op in memo.items())
    # each is the closed form at every weight, in basis order
    for name in names:
        want = [eigen_scalar(name, m.type, i, j, SYM) for i, j in m.basis]
        assert memo[name] == SparseOperator.diagonal(want), name
    # a perturbed clone reads its parent's diagonals
    clone = m.ops.perturbed("A", 0, 0, 1)
    assert not run_suites(clone).passed
    assert all(clone.diagonal(name, None) is memo[name] for name in names)
    assert m.ops._diagonals.keys() == memo.keys() and not clone._diagonals


def test_module_basis_is_the_types_weight_order():
    """Basis order i outer, j inner over the rectangle, its position map and
    the w[i,j] labels, for every type at (h, k) = (4, 2)."""
    for t in enumerate_types(4, 2):
        m = build_abstract_module(t, SYM)
        basis = [(i, j) for i in t.i_range for j in t.j_range]
        assert list(m.basis) == list(m.ops.ij) == basis and m.dim == len(basis)
        assert [t.position(i, j) for i, j in basis] == list(range(len(basis)))
        assert all(t.position(i, j) is None for i in range(-1, 4) for j in range(-1, 6)
                   if (i, j) not in basis)
        assert [m.ops.labels[p] for p in range(m.dim)] == [f"w[{i},{j}]" for i, j in basis]


def test_module_suites_pass_both_rings_at_21():
    for t in enumerate_types(2, 1):
        for ring in (R2, SYM):
            rep = run_module_suite(build_abstract_module(t, ring))
            assert rep.passed, (t.triple(), ring, rep.failures())


# ---------------------------------------------------------------------------
# parameter conversion
# ---------------------------------------------------------------------------

def _literal_level_scan(t):
    """The displayed level-k definitions, evaluated literally on the support."""
    line = [j for j in range(0, t.k + 1)
            if t.supports(t.k - j, j)]
    diag_pts = [i + j for i in range(0, t.k + 1) for j in range(0, t.k + 1)
                if t.supports(i, j)]
    nu = min(line) if line else None
    d = len(line) - 1
    mu = min(diag_pts) if diag_pts else None
    return nu, mu, d


def test_conversion_spec_examples_at_21():
    expected = {
        (0, 0, 0): (0, 0, 1, "C1", 0),
        (0, 1, 0): (1, 1, 0, "C2", -1),
        (0, 0, 1): (1, 1, 0, "C1", 1),
    }
    for trip, (nu, mu, d, case, e) in expected.items():
        t = ModuleType(*trip, h=2, k=1)
        n = type_to_nmde(t)
        assert (n.nu, n.mu, n.d, conversion_case(t), n.e) == (nu, mu, d, case, e)


def test_conversion_matches_literal_definitions_when_defined():
    for h, k in ALL_HK:
        for t in enumerate_types(h, k):
            nu_lit, mu_lit, d_lit = _literal_level_scan(t)
            n = type_to_nmde(t)
            if nu_lit is not None:
                assert n.nu == nu_lit, t
                assert n.d == d_lit, t
            else:
                # module misses the i+j=k line entirely; formal extension
                assert t.beta > t.alpha and t.alpha + t.beta + t.rho > k
                assert n.d == -1 == d_lit
            if mu_lit is not None:
                assert n.mu == mu_lit, t


def test_round_trip_identity_on_all_types():
    for h, k in ALL_HK:
        for t in enumerate_types(h, k):
            n = type_to_nmde(t)
            assert nmde_to_type(n, conversion_case(t), h, k) == t


def test_cases_partition_exhaustively_and_exclusively():
    for h, k in ALL_HK:
        for t in enumerate_types(h, k):
            gap = t.beta - t.alpha
            hits = [gap <= 0, 0 < gap <= h - k, h - k < gap]
            assert sum(hits) == 1
            assert conversion_case(t) == ("C1", "C2", "C3")[hits.index(True)]


def test_nmde_to_type_validation():
    with pytest.raises(ValueError):
        nmde_to_type(NMDE(0, 5, 0, 0), "C1", 2, 1)  # beta out of range
    with pytest.raises(ValueError):
        nmde_to_type(NMDE(1, 1, 0, 0), "C2", 2, 1)  # mu - e odd
    with pytest.raises(ValueError):
        nmde_to_type(NMDE(0, 0, 0, 0), "C9", 2, 1)


def test_c3_case_appears_and_round_trips():
    t = ModuleType(0, 2, 0, h=4, k=3)
    assert conversion_case(t) == "C3"
    n = type_to_nmde(t)
    assert nmde_to_type(n, "C3", 4, 3) == t
