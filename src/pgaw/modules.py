"""Abstract irreducible modules of the lattice operator algebra.

A module is classified by an integer triple (alpha, beta, rho) subject to

    0 <= rho <= k,   0 <= alpha <= (k - rho)/2,   0 <= beta <= (h - rho)/2.

Its standard basis w[i,j] runs over the rectangle
alpha <= i <= k-rho-alpha, rho+beta <= j <= h-beta, each weight space
one-dimensional; the generators act by closed-form coefficients.  This
module also houses every closed-form eigenvalue/coefficient formula and the
conversion to the endpoint / dual-endpoint / diameter parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

class AbstractModule:
    """The module of a given type: ``ops`` holds the K diagonals and L1, L2,
    R1, R2 on the type's basis ``ModuleType.ij``."""

    def __init__(self, mtype: ModuleType, ring: Ring):
        self.type, self.ring, self.dim = mtype, ring, mtype.dim
        self.ops = OperatorSet(ring, self._generators(), mtype)
        self.basis = self.ops.ij

    def _generators(self) -> dict[str, SparseOperator]:
        """The K diagonals, and L1, L2, R1, R2 by their closed-form coefficients."""
        t, ring = self.type, self.ring
        a, b, r = t.alpha, t.beta, t.rho
        h, k = t.h, t.k
        qh, br = ring.q_half, ring.bracket
        # (name, the step (di, dj) it takes w[i,j] to, its coefficient there)
        steps = (
            ("L1", -1, 0, lambda i, j: qh(r + a + b + i + j - 1) * br(k - r - a - i + 1)),
            ("L2", 0, -1, lambda i, j: qh(2 * k - r - a + b - i + j - 1) * br(h - b - j + 1)),
            ("R1", 1, 0, lambda i, j: qh(a - r - b - i + j) * br(i - a + 1)),
            ("R2", 0, 1, lambda i, j: qh(r + a + b - i - j) * br(j - r - b + 1)),
        )
        ops = k_diagonals(ring, t)
        basis = t.ij
        for name, di, dj, coeff in steps:
            rows: dict = {}
            for col, (i, j) in enumerate(basis):
                target = t.position(i + di, j + dj)
                if target is not None and (c := coeff(i, j)):
                    rows.setdefault(target, {})[col] = c
            ops[name] = SparseOperator(self.dim, rows)
        return ops

    def __repr__(self):
        return f"AbstractModule(type={self.type}, dim={self.dim}, ring={self.ring!r})"


def build_abstract_module(mtype: ModuleType, ring: Ring) -> AbstractModule:
    return AbstractModule(mtype, ring)


# ---------------------------------------------------------------------------
# closed-form scalars
# ---------------------------------------------------------------------------

def bc_coefficients(t: ModuleType, i: int, j: int, ring: Ring) -> tuple[Scalar, Scalar]:
    """(c_{i,j}, b_{i,j}): the off-diagonal A-coefficients; zero off the rectangle."""
    if not t.supports(i, j):
        return ring.zero, ring.zero
    a, b, r = t.alpha, t.beta, t.rho
    c_val = ring.q_power(r + a + b) * ring.bracket(j - r - b) \
        * ring.bracket(t.k - r - a - i)
    b_val = ring.q_power(t.k - r - i + j + 1) * ring.bracket(i - a) \
        * ring.bracket(t.h - b - j)
    return c_val, b_val


EIGEN_NAMES = (
    "K1", "K1i", "K2", "K2i",
    "L1R1", "R1L1", "L2R2", "R2L2",
    "a0", "aplus", "aminus", "a",
    "Omega0", "Omega1", "Omega2",
    "Y", "P", "Omega", "G", "Gstar",
    "c", "b",
)


def eigen_scalar(name: str, t: ModuleType, i: int, j: int, ring: Ring) -> Scalar:
    """Closed-form value of the named operator on the (i, j) weight space."""
    return EigenTable(t, ring, ((i, j),))[name][0]


def _closed_form(name: str, t: ModuleType, i: int, j: int, ring: Ring) -> Scalar:
    """The value of a name that is not a sum or function of other names."""
    a, b, r = t.alpha, t.beta, t.rho
    h, k = t.h, t.k
    ell = i + j
    q = ring.q_power(1)
    br = ring.bracket
    qp = ring.q_power
    if name in K_EXPONENTS:
        return ring.q_half(K_EXPONENTS[name](h, k, i, j))
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
    if name == "Omega0":
        return qp(-r)
    if name == "Omega1":
        return q * br(k - r - a) + br(a)
    if name == "Omega2":
        return q * br(h - r - b) + br(b)
    if name == "Y":
        return qp(h + k - ell) + qp(ell) - 1 + qp(-1)
    if name == "Omega":
        return -(qp(h + k - r - b) + qp(k + b - 1) + qp(k + ell - r - a)
                 + qp(ell + a - 1))
    if name == "G":
        c1 = ring.inv(q - 1)
        left = (qp(k - r - a + 1) + qp(a)) \
            * (qp(ell - 1) * br(h + k - ell) - qp(ell) * br(ell))
        right = (qp(h - r - b + 1) + qp(b)) \
            * (qp(k) * br(h + k - ell) - qp(k - 1) * br(ell))
        return c1 * (left - right)
    if name == "Gstar":
        return qp(k + ell - r - 1) * (q + 1)
    raise KeyError(f"unknown eigen scalar {name!r}")


class EigenTable:
    """The closed-form value of each name at each weight of a basis, one
    column per name, computed at its first read.

    ``a`` is the sum of the a0, a+ and a- columns, ``P`` is
    q (q-1)^-2 (Y^2 - q^(h+k-2) (q+1)^2) on the ``Y`` column, and ``c`` and
    ``b`` come from one ``bc_coefficients`` call per weight; every other
    name is its closed form."""

    def __init__(self, t: ModuleType, ring: Ring, weights):
        self.type, self.ring, self.weights = t, ring, tuple(weights)
        self._columns: dict[str, tuple] = {}

    def __getitem__(self, name: str) -> tuple:
        column = self._columns.get(name)
        if column is None:
            column = self._columns[name] = self._column(name)
        return column

    def _column(self, name: str) -> tuple:
        t, ring = self.type, self.ring
        if name == "a":
            return tuple(x + y + z for x, y, z in
                         zip(self["a0"], self["aplus"], self["aminus"]))
        if name == "P":
            q = ring.q_power(1)
            c2 = ring.inv(q - 1)
            shift = ring.q_power(t.h + t.k - 2) * (q + 1) * (q + 1)
            return tuple(q * c2 * c2 * (y * y - shift) for y in self["Y"])
        if name in ("c", "b"):
            pairs = [bc_coefficients(t, i, j, ring) for i, j in self.weights]
            self._columns["c"] = tuple(c for c, _ in pairs)
            self._columns["b"] = tuple(b for _, b in pairs)
            return self._columns[name]
        return tuple(_closed_form(name, t, i, j, ring) for i, j in self.weights)


def eigen_tables(module: AbstractModule) -> dict[tuple[int, int], dict[str, Scalar]]:
    """Closed-form table for every weight space of the module."""
    table = module.ops.eigen
    return {(i, j): {name: table[name][p] for name in EIGEN_NAMES}
            for p, (i, j) in enumerate(module.basis)}


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
