"""The subspace lattice of F_q^(h+k).

Subspaces are kept in reduced row echelon form, which is a canonical
representative: two subspaces are equal iff their RREF matrices coincide.
A GeometryIndex fixes a k-dimensional reference subspace y, splits the
lattice into strata P_{i,j} (i = dim of the intersection with y, i+j = dim),
and classifies every covering pair as slash (i rises) or backslash (j rises).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .rings import SUPPORTED_Q, gaussian_binomial


def _rref(rows: Iterable[Sequence[int]], n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_q; zero rows dropped."""
    mat = [list(r) for r in rows]
    pivot_row = 0
    for col in range(n):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % q:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, q)
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % q:
                f = mat[r][col]
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


class Subspace:
    """A subspace of F_q^n, canonically represented by its RREF basis matrix."""

    __slots__ = ("n", "q", "rows")

    def __init__(self, rows: Iterable[Sequence[int]], n: int, q: int):
        self.n = n
        self.q = q
        self.rows = _rref(rows, n, q)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], n: int, q: int) -> "Subspace":
        s = cls.__new__(cls)
        s.n = n
        s.q = q
        s.rows = rows
        return s

    @classmethod
    def zero(cls, n: int, q: int) -> "Subspace":
        return cls._trusted((), n, q)

    @classmethod
    def span_of_basis_vectors(cls, indices: Iterable[int], n: int, q: int) -> "Subspace":
        """Span of the standard basis vectors e_i (1-based indices)."""
        rows = [[1 if c == i - 1 else 0 for c in range(n)] for i in sorted(indices)]
        return cls(rows, n, q)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _check_ambient(self, other: "Subspace"):
        if self.n != other.n or self.q != other.q:
            raise ValueError("subspaces live in different ambient spaces")

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block construction."""
        self._check_ambient(other)
        n, q = self.n, self.q
        block = [list(r) + list(r) for r in self.rows]
        block += [list(r) + [0] * n for r in other.rows]
        reduced = _rref(block, 2 * n, q)
        inter = [r[n:] for r in reduced if not any(r[:n])]
        return Subspace._trusted(_rref(inter, n, q), n, q)

    def sort_key(self):
        return (self.dim, self.rows)

    def label(self) -> str:
        if not self.rows:
            return "0"
        return "/".join("".join(str(x) for x in row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.q == other.q and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.q, self.rows))

    def __repr__(self):
        return f"Subspace({self.label()}, n={self.n}, q={self.q})"


def _upper_covers(u: Subspace):
    """Every subspace covering u, as u + <v> with v over the points of F_q^n / u.

    v runs over the vectors that vanish on u's pivot columns and have a
    leading 1: one representative per projective point of the quotient.
    Clearing v's leading column out of u's rows and inserting v by its
    pivot gives the RREF of u + <v> directly.
    """
    n, q = u.n, u.q
    pivots = [next(c for c, x in enumerate(row) if x) for row in u.rows]
    free = [c for c in range(n) if c not in pivots]
    for pos, lead in enumerate(free):
        rest = free[pos + 1:]
        at = sum(1 for p in pivots if p < lead)
        for values in itertools.product(range(q), repeat=len(rest)):
            v = [0] * n
            v[lead] = 1
            for c, x in zip(rest, values):
                v[c] = x
            v = tuple(v)
            rows = [row if not row[lead] else
                    tuple((a - row[lead] * b) % q for a, b in zip(row, v))
                    for row in u.rows]
            rows.insert(at, v)
            yield Subspace._trusted(tuple(rows), n, q)


def enumerate_subspaces(q: int, n: int) -> list[Subspace]:
    """All subspaces of F_q^n, ordered by dimension then lexicographic RREF.

    Enumeration walks the pivot profiles, so each subspace appears exactly
    once.  The count grows like q^(n^2/4): n = 6 at q = 2 (2825 subspaces)
    enumerates in well under a second, and larger n only gets slower, not
    wrong.
    """
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported field size q={q}; expected one of {SUPPORTED_Q}")
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    out: list[Subspace] = []
    for d in range(n + 1):
        level = []
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free = [[c for c in range(n) if c > p and c not in pivot_set]
                    for p in pivots]
            slots = [(r, c) for r, cols in enumerate(free) for c in cols]
            for values in itertools.product(range(q), repeat=len(slots)):
                rows = [[0] * n for _ in range(d)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), val in zip(slots, values):
                    rows[r][c] = val
                level.append(Subspace._trusted(tuple(tuple(r) for r in rows), n, q))
        level.sort(key=Subspace.sort_key)
        out.extend(level)
    return out


class GeometryIndex:
    """The full lattice with strata and classified cover lists; immutable after build.

    Cover lists (positions into ``elements``, each in ascending order):
      slash_covers_of[x]      -- u such that x slash-covers u (u one level below)
      backslash_covers_of[x]  -- u such that x backslash-covers u
      slash_covered_by[x]     -- v such that v slash-covers x (v one level above)
      backslash_covered_by[x] -- v such that v backslash-covers x

    ``meet_y[x]`` is the position of x ∩ y.

    Covers are generated, not searched for: the upper covers of u are the
    u + <v> for v over the projective points of F_q^n / u (see
    ``_upper_covers``), each located by its RREF in ``index``.  One pass over
    the elements fills all four lists, in time proportional to the number
    of covering pairs rather than to the product of adjacent level sizes.
    """

    def __init__(self, q: int, h: int, k: int, y: Optional[Subspace] = None):
        if k < 1 or h <= k:
            raise ValueError("geometry requires h > k >= 1")
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field size q={q}; expected one of {SUPPORTED_Q}")
        n = h + k
        self.q, self.h, self.k, self.n = q, h, k, n
        if y is None:
            y = Subspace.span_of_basis_vectors(range(h + 1, n + 1), n, q)
        if y.n != n or y.q != q:
            raise ValueError("reference subspace lives in the wrong ambient space")
        if y.dim != k:
            raise ValueError(f"reference subspace must have dimension k={k}, got {y.dim}")
        self.y = y

        self.elements = tuple(enumerate_subspaces(q, n))
        self.index = {u: p for p, u in enumerate(self.elements)}
        meets = [u.intersect(y) for u in self.elements]
        self.meet_y = tuple(self.index[m] for m in meets)
        self.ij = tuple((m.dim, u.dim - m.dim) for u, m in zip(self.elements, meets))

        self.strata: dict[tuple[int, int], tuple[int, ...]] = {}
        strata: dict[tuple[int, int], list[int]] = {}
        for p, ij in enumerate(self.ij):
            strata.setdefault(ij, []).append(p)
        for key in sorted(strata):
            self.strata[key] = tuple(strata[key])

        self.by_level = tuple(
            tuple(p for p, u in enumerate(self.elements) if u.dim == d)
            for d in range(n + 1))

        size = len(self.elements)
        sc_of = [[] for _ in range(size)]
        bc_of = [[] for _ in range(size)]
        sc_by = [[] for _ in range(size)]
        bc_by = [[] for _ in range(size)]
        # Positions ascend in the outer loop and in each sorted cover list,
        # so all four lists come out in ascending order.
        for pu, u in enumerate(self.elements):
            iu = self.ij[pu][0]
            for pv in sorted(self.index[w] for w in _upper_covers(u)):
                if self.ij[pv][0] == iu + 1:
                    sc_of[pv].append(pu)
                    sc_by[pu].append(pv)
                else:
                    bc_of[pv].append(pu)
                    bc_by[pu].append(pv)
        self.slash_covers_of = tuple(tuple(x) for x in sc_of)
        self.backslash_covers_of = tuple(tuple(x) for x in bc_of)
        self.slash_covered_by = tuple(tuple(x) for x in sc_by)
        self.backslash_covered_by = tuple(tuple(x) for x in bc_by)

    @property
    def size(self) -> int:
        return len(self.elements)

    def stratum(self, i: int, j: int) -> tuple[int, ...]:
        return self.strata.get((i, j), ())

    def label(self, p: int) -> str:
        return self.elements[p].label()

    def labels(self) -> tuple[str, ...]:
        return tuple(u.label() for u in self.elements)

    def summary(self) -> dict:
        """Strata sizes, level sizes and cover-degree table (CLI export)."""
        level_sizes = {d: len(self.by_level[d]) for d in range(self.n + 1)}
        expected = {d: gaussian_binomial(self.n, d, self.q) for d in range(self.n + 1)}
        degrees = {}
        for (i, j), members in self.strata.items():
            p = members[0]
            degrees[f"{i},{j}"] = {
                "size": len(members),
                "slash_covers": len(self.slash_covers_of[p]),
                "backslash_covers": len(self.backslash_covers_of[p]),
                "slash_covered_by": len(self.slash_covered_by[p]),
                "backslash_covered_by": len(self.backslash_covered_by[p]),
            }
        return {
            "q": self.q,
            "h": self.h,
            "k": self.k,
            "y": self.y.label(),
            "size": self.size,
            "level_sizes": {str(d): level_sizes[d] for d in level_sizes},
            "level_sizes_expected": {str(d): expected[d] for d in expected},
            "strata": degrees,
        }

    def __repr__(self):
        return f"GeometryIndex(q={self.q}, h={self.h}, k={self.k}, |P|={self.size})"


def build_geometry(q: int, h: int, k: int, y: Optional[Subspace] = None) -> GeometryIndex:
    """Build the full index; default y is the span of the last k basis vectors."""
    return GeometryIndex(q, h, k, y)
