"""Abstract irreducible modules of the lattice operator algebra.

A module is classified by an integer triple (alpha, beta, rho) subject to

    0 <= rho <= k,   0 <= alpha <= (k - rho)/2,   0 <= beta <= (h - rho)/2.

Its standard basis w[i,j] runs over the rectangle
alpha <= i <= k-rho-alpha, rho+beta <= j <= h-beta, each weight space
one-dimensional; the generators act by closed-form coefficients.  This
module also houses every closed-form eigenvalue/coefficient formula, in
``eigen_scalar``, and the conversion to the endpoint / dual-endpoint /
diameter parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

from .operators import K_EXPONENTS, OperatorSet, SparseOperator, k_diagonals
from .rings import Ring, Scalar


@dataclass(frozen=True)
class ModuleType:
    """Classifying triple (alpha, beta, rho) at fixed h > k >= 1, and its module's
    basis ``ij`` (i outer), ``position`` and ``label``, none stored."""

    alpha: int
    beta: int
    rho: int
    h: int
    k: int

    def __post_init__(self):
        if self.k < 1 or self.h <= self.k:
            raise ValueError("module type requires h > k >= 1")
        if not 0 <= self.rho <= self.k:
            raise ValueError(f"rho={self.rho} outside [0, k]")
        if not (0 <= self.alpha and 2 * self.alpha <= self.k - self.rho):
            raise ValueError(f"alpha={self.alpha} outside [0, (k-rho)/2]")
        if not (0 <= self.beta and 2 * self.beta <= self.h - self.rho):
            raise ValueError(f"beta={self.beta} outside [0, (h-rho)/2]")

    @property
    def i_range(self) -> range:
        return range(self.alpha, self.k - self.rho - self.alpha + 1)

    @property
    def j_range(self) -> range:
        return range(self.rho + self.beta, self.h - self.beta + 1)

    @property
    def dim(self) -> int:
        return len(self.i_range) * len(self.j_range)

    # Computed at each read: a type outlives the modules built from it, and
    # a stored basis would stay alive with every type a caller keeps.
    @property
    def ij(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in self.i_range for j in self.j_range)

    def position(self, i: int, j: int) -> Optional[int]:
        """The position of w[i,j] in ``ij``, None off the rectangle."""
        if not self.supports(i, j):
            return None
        return (i - self.alpha) * len(self.j_range) + j - self.j_range.start

    def label(self, p: int) -> str:
        return "w[{},{}]".format(*self.ij[p])

    def supports(self, i: int, j: int) -> bool:
        return i in self.i_range and j in self.j_range

    def triple(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.rho)

    def __str__(self):
        return f"({self.alpha},{self.beta},{self.rho})"


def enumerate_types(h: int, k: int) -> list[ModuleType]:
    """All valid triples at (h, k), ordered by (rho, alpha, beta)."""
    if k < 1 or h <= k:
        raise ValueError("enumerate_types requires h > k >= 1")
    out = []
    for rho in range(k + 1):
        for alpha in range((k - rho) // 2 + 1):
            for beta in range((h - rho) // 2 + 1):
                out.append(ModuleType(alpha, beta, rho, h, k))
    return out


# ---------------------------------------------------------------------------
# standard-basis operator actions
# ---------------------------------------------------------------------------

def weighted_shift(t: ModuleType, di: int, dj: int, coeff: Callable) -> SparseOperator:
    """The operator sending w[i,j] to coeff(i, j) w[i+di, j+dj], and to zero
    when that weight is off the rectangle."""
    rows: dict = {}
    for col, (i, j) in enumerate(t.ij):
        target = t.position(i + di, j + dj)
        if target is not None and (c := coeff(i, j)):
            rows.setdefault(target, {})[col] = c
    return SparseOperator(t.dim, rows)


# each generator's name and the step (di, dj) it takes w[i,j] to
SHIFTS = (("L1", -1, 0), ("L2", 0, -1), ("R1", 1, 0), ("R2", 0, 1))


class AbstractModule:
    """The module of a given type: ``ops`` holds the K diagonals and L1, L2,
    R1, R2 on the type's basis ``ModuleType.ij``."""

    def __init__(self, mtype: ModuleType, ring: Ring):
        self.type, self.ring, self.dim = mtype, ring, mtype.dim
        ops = k_diagonals(ring, mtype)
        for name, di, dj in SHIFTS:
            ops[name] = weighted_shift(mtype, di, dj, partial(eigen_scalar, name, mtype, ring=ring))
        self.ops = OperatorSet(ring, ops, mtype)
        self.basis = self.ops.ij

    def __repr__(self):
        return f"AbstractModule(type={self.type}, dim={self.dim}, ring={self.ring!r})"


def build_abstract_module(mtype: ModuleType, ring: Ring) -> AbstractModule:
    return AbstractModule(mtype, ring)


# ---------------------------------------------------------------------------
# closed-form scalars
# ---------------------------------------------------------------------------

EIGEN_NAMES = (
    "K1", "K1i", "K2", "K2i",
    "L1R1", "R1L1", "L2R2", "R2L2",
    "a0", "aplus", "aminus", "a",
    "Omega0", "Omega1", "Omega2",
    "Y", "P", "Omega", "G", "Gstar",
    "c", "b",
)


@lru_cache(maxsize=64)
def _weightless(ring: Ring, h: int, k: int) -> tuple[Scalar, Scalar, Scalar]:
    """The factors of P and G that do not depend on the weight:
    (q-1)^-1, q (q-1)^-2 and q^(h+k-2) (q+1)^2."""
    q = ring.q_power(1)
    c1 = ring.inv(q - 1)
    return c1, q * c1 * c1, ring.q_power(h + k - 2) * (q + 1) * (q + 1)


def eigen_scalar(name: str, t: ModuleType, i: int, j: int, ring: Ring) -> Scalar:
    """The closed-form value of ``name`` at w[i,j]: the eigenvalue of a
    diagonal there, the coefficient of the image of w[i,j] for a generator
    of ``SHIFTS``, and for ``c`` and ``b`` the coefficient with which R and
    L reach w[i,j], zero off the rectangle.  ``a`` is a0 + a+ + a-, and
    ``P`` is q (q-1)^-2 (Y^2 - q^(h+k-2) (q+1)^2)."""
    a, b, r = t.alpha, t.beta, t.rho
    h, k = t.h, t.k
    ell = i + j
    br, qp, qh = ring.bracket, ring.q_power, ring.q_half
    if name in K_EXPONENTS:
        return qh(K_EXPONENTS[name](h, k, i, j))
    if name == "L1":
        return qh(r + a + b + i + j - 1) * br(k - r - a - i + 1)
    if name == "L2":
        return qh(2 * k - r - a + b - i + j - 1) * br(h - b - j + 1)
    if name == "R1":
        return qh(a - r - b - i + j) * br(i - a + 1)
    if name == "R2":
        return qh(r + a + b - i - j) * br(j - r - b + 1)
    if name == "L1R1":
        return qp(a + j) * br(i - a + 1) * br(k - r - a - i)
    if name == "R1L1":
        return qp(a + j) * br(i - a) * br(k - r - a - i + 1)
    if name == "L2R2":
        return qp(k + b - i) * br(j - r - b + 1) * br(h - b - j)
    if name == "R2L2":
        return qp(k + b - i) * br(j - r - b) * br(h - b - j + 1)
    if name == "a0":
        return qp(k - i) * br(j - r) - br(j)
    if name == "aplus":
        return qp(k - i) * (qp(b + 1) * br(j - r - b) * br(h - b - j) - br(b))
    if name == "aminus":
        return qp(j) * (qp(a + 1) * br(i - a) * br(k - r - a - i) - br(a))
    if name == "a":
        return eigen_scalar("a0", t, i, j, ring) + eigen_scalar("aplus", t, i, j, ring) \
            + eigen_scalar("aminus", t, i, j, ring)
    if name == "Omega0":
        return qp(-r)
    if name == "Omega1":
        return qp(1) * br(k - r - a) + br(a)
    if name == "Omega2":
        return qp(1) * br(h - r - b) + br(b)
    if name == "Y":
        return qp(h + k - ell) + qp(ell) - 1 + qp(-1)
    if name == "P":
        _, scale, shift = _weightless(ring, h, k)
        y = eigen_scalar("Y", t, i, j, ring)
        return scale * (y * y - shift)
    if name == "Omega":
        return -(qp(h + k - r - b) + qp(k + b - 1) + qp(k + ell - r - a)
                 + qp(ell + a - 1))
    if name == "G":
        c1 = _weightless(ring, h, k)[0]
        left = (qp(k - r - a + 1) + qp(a)) \
            * (qp(ell - 1) * br(h + k - ell) - qp(ell) * br(ell))
        right = (qp(h - r - b + 1) + qp(b)) \
            * (qp(k) * br(h + k - ell) - qp(k - 1) * br(ell))
        return c1 * (left - right)
    if name == "Gstar":
        return qp(k + ell - r - 1) * (qp(1) + 1)
    if not t.supports(i, j):  # c and b are zero off the rectangle
        return ring.zero
    if name == "c":
        return qp(r + a + b) * br(j - r - b) * br(k - r - a - i)
    if name == "b":
        return qp(k - r - i + j + 1) * br(i - a) * br(h - b - j)
    raise KeyError(f"unknown eigen scalar {name!r}")


def eigen_tables(module: AbstractModule) -> dict[tuple[int, int], dict[str, Scalar]]:
    """Closed-form table for every weight space of the module."""
    t, ring = module.type, module.ring
    return {(i, j): {name: eigen_scalar(name, t, i, j, ring) for name in EIGEN_NAMES}
            for i, j in module.basis}


# ---------------------------------------------------------------------------
# endpoint / dual endpoint / diameter parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NMDE:
    """Endpoint nu, dual endpoint mu, diameter d, auxiliary e.

    For modules whose support misses the i+j = k line (beta > alpha and
    alpha+beta+rho > k) the level-k scans below are empty; the stored values
    are the unique formal extension compatible with the case conversion
    formulas, and d = -1 there (the literal count-minus-one of an empty set).
    """

    nu: int
    mu: int
    d: int
    e: int


def conversion_case(t: ModuleType) -> str:
    """C1: beta-alpha <= 0; C2: 0 < beta-alpha <= h-k; C3: beta-alpha > h-k."""
    gap = t.beta - t.alpha
    if gap <= 0:
        return "C1"
    if gap <= t.h - t.k:
        return "C2"
    return "C3"


def type_to_nmde(t: ModuleType) -> NMDE:
    """Convert (alpha, beta, rho) to (nu, mu, d, e)."""
    nu = t.rho + max(t.alpha, t.beta)
    mu = t.alpha + t.beta + t.rho
    d = min(t.k - t.alpha, t.h - t.beta) - nu
    case = conversion_case(t)
    if case == "C1":
        e = t.rho
    elif case == "C2":
        e = mu - 2 * t.beta
    else:
        e = t.rho - t.h + t.k
    return NMDE(nu, mu, d, e)


def nmde_to_type(n: NMDE, case: str, h: int, k: int) -> ModuleType:
    """Invert the conversion for the given case; invalid triples raise ValueError."""
    if case == "C1":
        alpha, beta, rho = n.nu - n.e, n.mu - n.nu, n.e
    elif case == "C2":
        if (n.mu - n.e) % 2:
            raise ValueError("case C2 requires mu - e to be even")
        beta = (n.mu - n.e) // 2
        alpha, rho = n.mu - n.nu, n.nu - beta
    elif case == "C3":
        alpha, beta, rho = n.mu - n.nu, k - h + n.nu - n.e, h - k + n.e
    else:
        raise ValueError(f"unknown conversion case {case!r}")
    return ModuleType(alpha, beta, rho, h, k)
