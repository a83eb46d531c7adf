"""The subspace lattice of F_q^(h+k).

Subspaces are kept in reduced row echelon form, which is a canonical
representative: two subspaces are equal iff their RREF matrices coincide.
A GeometryIndex fixes a k-dimensional reference subspace y, splits the
lattice into strata P_{i,j} (i = dim of the intersection with y, i+j = dim),
and classifies every covering pair as slash (i rises) or backslash (j rises).
It holds each element as a tuple of row codes, one base-q integer per RREF
row, and is built from its covers: each cover is made on the row codes of
the one below it, and each meet with y is read from the lower covers, so
no intersection is ever computed.
"""

from __future__ import annotations

import functools
import itertools
import time
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


def _label(rows: Iterable[Sequence[int]]) -> str:
    """Rows as digit strings joined by "/"; "0" for the zero subspace."""
    return "/".join("".join(map(str, row)) for row in rows) or "0"


class Subspace:
    """A subspace of F_q^n, canonically represented by its RREF basis matrix."""

    __slots__ = ("n", "q", "rows")

    def __init__(self, rows: Iterable[Sequence[int]], n: int, q: int):
        rows = [tuple(row) for row in rows]
        if any(len(row) != n for row in rows):
            raise ValueError(f"every row of a subspace of F_q^{n} must have {n} entries")
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
    def span_of_basis_vectors(cls, indices: Iterable[int], n: int, q: int) -> "Subspace":
        """Span of the standard basis vectors e_i (1-based indices)."""
        rows = [[1 if c == i - 1 else 0 for c in range(n)] for i in sorted(indices)]
        return cls(rows, n, q)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def label(self) -> str:
        return _label(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.q == other.q and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.q, self.rows))

    def __repr__(self):
        return f"Subspace({self.label()}, n={self.n}, q={self.q})"


def _pack(row: Sequence[int], q: int) -> int:
    """The row code of row: its base-q integer, column 0 the most significant
    digit, so codes order as their rows do."""
    code = 0
    for x in row:
        code = code * q + x
    return code


def _unpack(code: int, n: int, q: int) -> tuple[int, ...]:
    """The n entries of a row code, column 0 first."""
    row = [0] * n
    for c in range(n - 1, -1, -1):
        code, row[c] = divmod(code, q)
    return tuple(row)


def _subspaces(codes: Iterable[tuple[int, ...]], n: int, q: int) -> list[Subspace]:
    """The ``Subspace`` of each tuple of row codes; equal rows share one tuple."""
    row = functools.cache(lambda code: _unpack(code, n, q))
    return [Subspace._trusted(tuple(map(row, u)), n, q) for u in codes]


def _echelon_codes(lead: int, free: Sequence[int], n: int, q: int) -> list[int]:
    """The code of every RREF row with its leading 1 at lead and any values
    on the free columns (all after lead), in ascending order."""
    codes = [q ** (n - 1 - lead)]
    for c in free:
        weight = q ** (n - 1 - c)
        codes = [code + x * weight for code in codes for x in range(q)]
    return codes


def _enumerate_codes(q: int, n: int) -> list[tuple[int, ...]]:
    """Every subspace of F_q^n as its tuple of row codes, ordered by
    dimension then lexicographic RREF (codes order as their rows do).

    Enumeration walks the pivot profiles: a profile's subspaces are the
    products of its rows' choices (a leading 1 on the pivot, anything on a
    later non-pivot column), so each subspace appears exactly once and no
    elimination runs.  The choices are made once per pivot and set of free
    columns.  The count grows like q^(n^2/4): n = 6 at q = 2 (2825
    subspaces) enumerates in milliseconds, and larger n only gets slower,
    not wrong.
    """
    if q not in SUPPORTED_Q:
        raise ValueError(f"unsupported field size q={q}; expected one of {SUPPORTED_Q}")
    if n < 1:
        raise ValueError("ambient dimension must be >= 1")
    choices: dict = {}
    out: list[tuple[int, ...]] = []
    for d in range(n + 1):
        level = []
        for pivots in itertools.combinations(range(n), d):
            per_row = []
            for p in pivots:
                key = (p, tuple(c for c in range(p + 1, n) if c not in pivots))
                if key not in choices:
                    choices[key] = _echelon_codes(*key, n, q)
                per_row.append(choices[key])
            level.extend(itertools.product(*per_row))
        level.sort()
        out.extend(level)
    return out


def enumerate_subspaces(q: int, n: int) -> list[Subspace]:
    """All subspaces of F_q^n, ordered by dimension then lexicographic RREF
    (see ``_enumerate_codes``); equal rows share one row tuple."""
    return _subspaces(_enumerate_codes(q, n), n, q)


def _leads(n: int, q: int) -> list[int]:
    """Row code -> the column of its leading entry, for every nonzero code
    (entry 0 is unused)."""
    lead = [0] * q ** n
    for c in range(n):
        low = q ** (n - 1 - c)
        lead[low:low * q] = [c] * (low * q - low)
    return lead


class _Clearing(dict):
    """Row code r -> the code of r - r[lead] v, the row of u + <v> that
    replaces r, made on first use and kept: one per step vector v (whose
    leading 1 is at lead), shared by every subspace that steps by v.  A row
    with r[lead] = 0 maps to itself."""

    __slots__ = ("v", "weight", "n", "q")

    def __init__(self, v: int, n: int, q: int):
        super().__init__()
        self.v, self.n, self.q = _unpack(v, n, q), n, q
        self.weight = q ** (n - 1 - self.v.index(1))

    def __missing__(self, r):
        q, c = self.q, r // self.weight % self.q
        out = r
        if c:
            out = _pack([(a - c * b) % q for a, b in zip(_unpack(r, self.n, q), self.v)], q)
        self[r] = out
        return out


def _cover_steps(pivots: tuple[int, ...], n: int, q: int, clearings: dict) -> list[tuple]:
    """The steps from a subspace u with these pivot columns to its upper
    covers: one (v, clear) per projective point of F_q^n / u, grouped as
    (at, steps) by the slot at where v enters.

    v (a row code) vanishes on u's pivots and has a leading 1; the RREF of
    u + <v> is u's rows before slot at, each cleared on v's leading column
    by clear (the ``_Clearing`` of v, from clearings), then v, then u's
    remaining rows, which are 0 on that column already."""
    free = [c for c in range(n) if c not in pivots]
    steps: dict = {}
    for pos, lead in enumerate(free):
        at = sum(1 for p in pivots if p < lead)
        for v in _echelon_codes(lead, free[pos + 1:], n, q):
            if v not in clearings:
                clearings[v] = _Clearing(v, n, q)
            steps.setdefault(at, []).append((v, clearings[v].__getitem__))
    return list(steps.items())


# The four cover lists of a GeometryIndex, each a step from x to a neighbour:
# down a slash or a backslash cover, then up one.
COVER_LISTS = ("slash_covers_of", "backslash_covers_of",
               "slash_covered_by", "backslash_covered_by")


class GeometryIndex:
    """The full lattice with strata and classified cover lists; immutable after build.

    An element is held as ``codes[x]``, the tuple of its RREF rows' codes
    (a row's base-q integer, column 0 the most significant digit).  Codes
    order as their rows do, so the positions are those of the RREF order.
    ``rows(p)`` unpacks them, and ``position(rows)`` packs RREF rows and
    looks them up in ``index``, which maps each code tuple to its position.  ``elements``, every element as a
    ``Subspace`` (equal rows sharing one tuple), is made on its first read;
    the build, the operators, the certificate and the suites never read
    it.  ``label(p)`` is rendered from the codes.

    Cover lists (positions, each in ascending order):
      slash_covers_of[x]      -- u such that x slash-covers u (u one level below)
      backslash_covers_of[x]  -- u such that x backslash-covers u
      slash_covered_by[x]     -- v such that v slash-covers x (v one level above)
      backslash_covered_by[x] -- v such that v backslash-covers x

    ``meet_y[x]`` is the position of x ∩ y and ``ij[x]`` its stratum.

    The build runs level by level on the codes and computes no
    intersection and no ``Subspace``.  The levels are cut by the dimensions
    of the enumerated elements, so ``by_level`` counts what was enumerated:
      covers -- the upper covers of u are the u + <v> for v over the
        projective points of F_q^n / u; the steps v depend only on u's
        pivot columns and are made once per pivot set (``_cover_steps``).
        Each cover's RREF is u's code tuple with v inserted and its column
        cleared (one memoized code -> code map per v, ``_Clearing``),
        looked up in ``index``; the pivots of u are read from a table of
        every row code's leading column (``_leads``).  So the lower covers
        of each element of the next level arrive in ascending order, in
        time proportional to the number of covering pairs;
      meets -- a point lies in y or meets it in 0 (its one row is unpacked
        and reduced with y's).  A subspace x of dimension >= 2 lies in y
        iff two of its lower covers do (their join is x); otherwise x ∩ y
        lies in a hyperplane of x, so it is the largest meet among the
        lower covers;
      classes -- once a level's meets are known each pair is slash (i
        rises) or backslash, and it is appended at its upper end, so all
        four lists come out ascending with no sort.
    ``phases`` holds the wall time of each part: ``enumerate``, ``covers``
    (with the classes) and ``meets`` (with ``ij`` and the strata).
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

        clock = time.perf_counter
        start = clock()
        self.codes = codes = tuple(_enumerate_codes(q, n))
        self.index = index = {u: p for p, u in enumerate(codes)}
        size = len(codes)
        level_sizes = [0] * (n + 1)
        for u in codes:
            level_sizes[len(u)] += 1
        bounds = list(itertools.accumulate(level_sizes, initial=0))
        self.by_level = tuple(tuple(range(bounds[d], bounds[d + 1])) for d in range(n + 1))
        phases = self.phases = {"enumerate": clock() - start, "covers": 0.0, "meets": 0.0}

        meet_y = [0] * size
        idim = [0] * size  # dim(x ∩ y); x lies in y iff it equals dim x
        sc_of, bc_of, sc_by, bc_by = ([()] * size for _ in range(4))
        steps: dict = {}
        clearings: dict = {}
        lead_of = _leads(n, q).__getitem__
        for d in range(1, n + 1):
            start = clock()
            base, prev = bounds[d], bounds[d - 1]
            below = [[] for _ in range(bounds[d + 1] - base)]
            for pu in range(prev, base):
                rows = codes[pu]
                pivots = tuple(map(lead_of, rows))
                if pivots not in steps:
                    steps[pivots] = _cover_steps(pivots, n, q, clearings)
                for at, group in steps[pivots]:
                    head, tail = rows[:at], rows[at:]
                    for v, clear in group:
                        below[index[(*map(clear, head), v, *tail)] - base].append(pu)
            mid = clock()
            if d == 1:
                for w in range(base, bounds[2]):
                    if len(_rref((*y.rows, *self.rows(w)), n, q)) == k:
                        meet_y[w], idim[w] = w, 1
            else:
                key = idim.__getitem__
                for w, lows in enumerate(below, base):
                    if idim[lows[0]] == idim[lows[1]] == d - 1:
                        meet_y[w], idim[w] = w, d
                    else:
                        u = max(lows, key=key)
                        meet_y[w], idim[w] = meet_y[u], idim[u]
            end = clock()
            up_slash = [[] for _ in range(base - prev)]
            up_back = [[] for _ in range(base - prev)]
            for w, lows in enumerate(below, base):
                iw = idim[w]
                slash = tuple(u for u in lows if idim[u] != iw)
                back = tuple(u for u in lows if idim[u] == iw)
                sc_of[w], bc_of[w] = slash, back
                for u in slash:
                    up_slash[u - prev].append(w)
                for u in back:
                    up_back[u - prev].append(w)
            del below
            for u in range(prev, base):
                sc_by[u] = tuple(up_slash[u - prev])
                bc_by[u] = tuple(up_back[u - prev])
            del up_slash, up_back
            phases["covers"] += clock() - end + mid - start
            phases["meets"] += end - mid
        del steps, clearings

        start = clock()
        pairs = [[(i, d - i) for i in range(d + 1)] for d in range(n + 1)]
        self.meet_y = tuple(meet_y)
        self.ij = tuple(pairs[d][idim[p]] for d in range(n + 1)
                        for p in range(bounds[d], bounds[d + 1]))
        del meet_y, idim
        strata: dict[tuple[int, int], list[int]] = {}
        for p, ij in enumerate(self.ij):
            strata.setdefault(ij, []).append(p)
        self.strata: dict[tuple[int, int], tuple[int, ...]] = {
            key: tuple(strata[key]) for key in sorted(strata)}
        self.slash_covers_of = tuple(sc_of)
        self.backslash_covers_of = tuple(bc_of)
        self.slash_covered_by = tuple(sc_by)
        self.backslash_covered_by = tuple(bc_by)
        phases["meets"] += clock() - start

    @functools.cached_property
    def elements(self) -> tuple[Subspace, ...]:
        """Every element as a ``Subspace``, made on first read."""
        return tuple(_subspaces(self.codes, self.n, self.q))

    @property
    def size(self) -> int:
        return len(self.codes)

    def rows(self, p: int) -> tuple[tuple[int, ...], ...]:
        """The RREF rows of the element at p, unpacked from its codes."""
        return tuple(_unpack(code, self.n, self.q) for code in self.codes[p])

    def position(self, rows: Iterable[Sequence[int]]) -> int:
        """The position of the subspace with these RREF rows."""
        return self.index[tuple(_pack(row, self.q) for row in rows)]

    def stratum(self, i: int, j: int) -> tuple[int, ...]:
        return self.strata.get((i, j), ())

    def label(self, p: int) -> str:
        return _label(self.rows(p))

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
