"""Multiplicities of the irreducible module types inside the standard module.

Each type (alpha, beta, rho) acts through the central operators by the
scalar triple (q^-rho, q[k-rho-alpha]+[alpha], q[h-rho-beta]+[beta]); the
triples separate types (asserted), so the multiplicity of a type equals the
dimension of the joint eigenspace of (Omega0, Omega1, Omega2) for its triple
inside the corner stratum (alpha, rho+beta): the corner size minus the
exact rank of the stacked sparse integer rows of d b (Omega_i - lambda_i I).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .geometry import GeometryIndex
from .modules import ModuleType, enumerate_types
from .operators import OperatorSet
from .verify import Outcome, VerificationReport

MultiplicityMap = dict[ModuleType, int]


def _rank(rows: list[dict]) -> int:
    """Rank of sparse integer rows {col: int}, by fraction-free elimination.

    Zero entries are dropped; the input rows are not modified.  Rows go in
    order of nonzero count (Markowitz, 1957).  A row is reduced by
    p*row - f*pivot (p, f over their gcd) against the pivot of its last
    column until it vanishes or becomes that column's pivot, divided by its
    content; the last column keeps the fill-in low on the lattice strata.
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


def _central_triple(t: ModuleType, ring):
    return (ring.q_power(-t.rho),
            ring.q_power(1) * ring.bracket(t.k - t.rho - t.alpha) + ring.bracket(t.alpha),
            ring.q_power(1) * ring.bracket(t.h - t.rho - t.beta) + ring.bracket(t.beta))


def compute_multiplicities(geom: GeometryIndex, ops: OperatorSet) -> MultiplicityMap:
    """Joint-eigenspace dimensions of the central triple at each type's corner."""
    ring = ops.ring
    types = enumerate_types(geom.h, geom.k)

    triples = [_central_triple(t, ring) for t in types]
    for a in range(len(types)):
        for b in range(a + 1, len(types)):
            if triples[a] == triples[b]:
                raise RuntimeError(
                    f"central scalar collision between types {types[a]} and "
                    f"{types[b]}; corner extraction would silently merge them")

    centrals = [ops["Omega0"], ops["Omega1"], ops["Omega2"]]
    out: MultiplicityMap = {}
    for t, lam in zip(types, triples):
        corner = geom.stratum(t.alpha, t.rho + t.beta)
        stacked = []
        for op, scalar in zip(centrals, lam):
            # d b (Omega - (a/b) I) = b M0 - a d I on the corner, in integers
            block, d = op.restrict(corner)
            a, b = Fraction(scalar).as_integer_ratio()
            for r, row in enumerate(block):
                shifted = {c: b * x for c, x in row.items()}
                shifted[r] = shifted.get(r, 0) - a * d
                stacked.append(shifted)
        out[t] = len(corner) - _rank(stacked)
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
