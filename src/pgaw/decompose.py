"""Multiplicities of the irreducible module types inside the standard module.

Each type t = (alpha, beta, rho) acts through the central operators
Omega0, Omega1, Omega2 by the scalar triple lambda_t = (q^-rho,
q[k-rho-alpha]+[alpha], q[h-rho-beta]+[beta]); the triples separate types
(asserted).  The multiplicity m_t is the dimension of the lambda_t joint
eigenspace inside t's corner stratum S = P_(alpha, rho+beta), and it is
the trace of a spectral idempotent, with no rank:

    E_t = prod over the other types s that support S of
          (Omega_c - lambda_(s,c)) / (lambda_(t,c) - lambda_(s,c)),

c the first index at which the two triples differ (Lagrange interpolation
of the spectral projector).  E_t is multiplied out from start rows in S as
row vectors, ``row @ Omega_c - row.scale(lambda)``, a product that reads
Omega_c only at the rows those vectors reach, and checked: each row
of (Omega_c - lambda_(t,c)) E_t is zero for c = 0, 1, 2, and each row of
E_t lies in S.  Every such row is then a joint eigenvector supported on S,
and E_t fixes each of those, since each factor acts on it as 1.  So
y -> y E_t projects the row vectors on S onto the eigenspace, and m_t is
its trace: the sum of E_t's diagonal over S.

The start rows are all of S, unless the set has a symmetry certificate
(``pgaw.symmetry``), which vouches for the three Omegas it holds.  Then E_t
and its residuals are G_y-invariant and S is one orbit, so the start row
is the first position u0 of S alone: a residual row is zero at every
position of S iff it is at u0, and the diagonal is constant on S, so
m_t = |S| E_t[u0, u0].
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import GeometryIndex
from .modules import ModuleType, eigen_scalar, enumerate_types
from .operators import OperatorSet, _stored_operator
from .verify import Outcome, VerificationReport

MultiplicityMap = dict[ModuleType, int]


def _central_triple(t: ModuleType, ring):
    return tuple(eigen_scalar(f"Omega{c}", t, t.alpha, t.rho + t.beta, ring) for c in range(3))


def compute_multiplicities(geom: GeometryIndex, ops: OperatorSet) -> MultiplicityMap:
    """The trace of each type's spectral idempotent on its corner.

    Raises ValueError when geom is not the lattice of ops, when a central
    operator is irrational or when a check fails: a nonzero residual row, a
    row of E_t outside the corner, or a trace that is not a nonnegative
    integer."""
    if geom is not ops.geometry:
        raise ValueError(f"{geom!r} is not the lattice of the operator set")
    types = enumerate_types(geom.h, geom.k)

    triples = [_central_triple(t, ops.ring) for t in types]
    for a in range(len(types)):
        for b in range(a + 1, len(types)):
            if triples[a] == triples[b]:
                raise RuntimeError(
                    f"central scalar collision between types {types[a]} and "
                    f"{types[b]}; corner extraction would silently merge them")

    centrals = [ops["Omega0"], ops["Omega1"], ops["Omega2"]]
    for c, op in enumerate(centrals):
        if op.q is not None:  # q is None iff M1 is empty
            raise ValueError(f"decompose needs rational central operators; "
                             f"Omega{c} has an irrational entry")
    certified = ops.certificate is not None

    out: MultiplicityMap = {}
    for t, lam in zip(types, triples):
        ij = (t.alpha, t.rho + t.beta)
        corner = geom.stratum(*ij)
        start = corner[:1] if certified else corner
        # rows holds the start rows of denominator * E_t
        rows = _stored_operator(ops.dim, 1, {u: {u: 1} for u in start}, {}, None)
        denominator = 1
        for s, mu in zip(types, triples):
            if s is not t and s.supports(*ij):
                c = next(c for c in range(3) if lam[c] != mu[c])
                rows = rows @ centrals[c] - rows.scale(mu[c])
                denominator *= lam[c] - mu[c]
        for c in range(3):
            bad = (rows @ centrals[c] - rows.scale(lam[c])).first_nonzero()
            if bad:
                raise ValueError(f"type {t}: (Omega{c} - {lam[c]}) E_t is nonzero "
                                 f"at row {ops.labels[bad[0]]}")
        bad = rows.support_violation(lambda r, col: ops.ij[col] == ij)
        if bad:
            raise ValueError(f"type {t}: E_t has an entry outside P_{ij} "
                             f"at row {ops.labels[bad[0]]}")
        diagonal = sum(rows.entry(u, u) for u in start)
        m = Fraction(len(corner), len(start)) * diagonal / denominator
        if m.denominator != 1 or m < 0:
            raise ValueError(f"type {t}: trace {m} is not a nonnegative integer "
                             f"(rows from {ops.labels[start[0]]})")
        out[t] = int(m)
    return out


def bookkeeping_check(geom: GeometryIndex, mults: MultiplicityMap) -> VerificationReport:
    """Per-stratum and global dimension equations the multiplicities must satisfy."""
    report = VerificationReport({"mode": "decompose", "q": geom.q,
                                 "h": geom.h, "k": geom.k})
    ok = True
    for i in range(geom.k + 1):
        for j in range(geom.h + 1):
            got = len(geom.stratum(i, j))
            want = sum(m for t, m in mults.items() if t.supports(i, j))
            if got != want:
                ok = False
                report.outcomes.append(Outcome(
                    f"decomp.stratum[{i},{j}]", "fail",
                    f"|P_({i},{j})| = {got} but type multiplicities sum to {want}"))
    report.outcomes.append(Outcome(
        "decomp.stratum_equations", "pass" if ok else "fail",
        None if ok else "see per-stratum failures above"))

    total = sum(m * t.dim for t, m in mults.items())
    if total == geom.size:
        report.outcomes.append(Outcome("decomp.dimension_sum", "pass"))
    else:
        report.outcomes.append(Outcome(
            "decomp.dimension_sum", "fail",
            f"sum of mult*dim = {total}, |P| = {geom.size}"))
    return report


def multiplicity_table(mults: MultiplicityMap) -> list[dict]:
    """Deterministic serialization of a multiplicity map (CLI export)."""
    rows = []
    for t in sorted(mults, key=lambda t: (t.rho, t.alpha, t.beta)):
        rows.append({"alpha": t.alpha, "beta": t.beta, "rho": t.rho,
                     "dim": t.dim, "multiplicity": mults[t]})
    return rows
