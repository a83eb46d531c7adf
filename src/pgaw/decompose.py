"""Multiplicities of the irreducible module types inside the standard module.

Each type (alpha, beta, rho) acts through the central operators by the
scalar triple (q^-rho, q[k-rho-alpha]+[alpha], q[h-rho-beta]+[beta]); the
triples separate types (asserted), so the multiplicity of a type equals the
dimension of the joint eigenspace of (Omega0, Omega1, Omega2) for its triple
inside the corner stratum (alpha, rho+beta), computed by exact elimination.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import GeometryIndex
from .modules import ModuleType, enumerate_types
from .operators import OperatorSet
from .verify import Outcome, VerificationReport

MultiplicityMap = dict[ModuleType, int]


def _rank(rows: list[list]) -> int:
    """Rank of a matrix of int rows by fraction-free (Bareiss) elimination.

    After each pivot step every remaining entry is a minor of the input, so
    the division by the previous pivot is exact (Sylvester's identity;
    Bareiss, Math. Comp. 22, 1968).
    """
    rows = [row for row in rows if any(row)]
    rank, prev = 0, 1
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        below = []
        for row in rows[rank + 1:]:
            f = row[col]
            if f:
                row = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                row = [p * a // prev for a in row]
            if any(row):
                below.append(row)
        rows[rank + 1:] = below
        prev = p
        rank += 1
    return rank


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
        if not corner:
            out[t] = 0
            continue
        stacked = []
        for op, scalar in zip(centrals, lam):
            # d b (Omega - (a/b) I) = b M0 - a d I on the corner, in integers
            block, d = op.restrict(corner)
            a, b = Fraction(scalar).as_integer_ratio()
            for r, row in enumerate(block):
                shifted = [b * x for x in row]
                shifted[r] -= a * d
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
