"""Exact coefficient arithmetic.

Two coefficient fields are supported:

* numeric mode -- Q(sqrt(q)) for a fixed non-square prime q, elements
  ``a + b*sqrt(q)`` with arbitrary-precision rational a, b;
* symbolic mode -- integer Laurent polynomials in an indeterminate ``s``
  over ``(s-1)**b (s+1)**c``, with ``q = s**2`` (``RatFunc``, which holds
  its numerator as an ``{exponent: coefficient}`` dict beside b and c):
  half-integer powers of q are Laurent monomials in s, and the paper's
  coefficients only ever divide by powers of ``q - 1 = (s-1)(s+1)``.
  Reduction is synthetic division by ``s - 1`` and ``s + 1``; inverting
  anything but a unit ``c s**m (s-1)**i (s+1)**j`` raises ValueError.

Every symbolic value is kept reduced, and two operations skip the
reduction because it cannot change their result: scaling by a nonzero
rational, and multiplying by a monomial ``c s**m`` (which is what
``SymbolicRing.q_half`` returns).  Neither factor vanishes at s = 1 or
s = -1, so a numerator without those roots keeps none; the product keeps
b and c, and is constant only when two monomials' exponents cancel.  Sums
and differences over a shared (b, c) combine the numerators in one pass
and are reduced, since a sum can gain a root at s = 1 or -1.
``SymbolicRing`` memoises s**m and [m] by m.

Plain Python ints and ``fractions.Fraction`` values embed canonically in
both fields and are accepted by every operation; results collapse back to
int/Fraction whenever they are rational.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

SUPPORTED_Q = (2, 3, 5, 7)


class RingMismatchError(ValueError):
    """Raised when two scalars from different rings are combined."""


def _as_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    return Fraction(x)


def _demote(a: Fraction):
    """Collapse a Fraction to int when it is integral."""
    if a.denominator == 1:
        return a.numerator
    return a


# ---------------------------------------------------------------------------
# Q(sqrt(q))
# ---------------------------------------------------------------------------

class QuadScalar:
    """Element a + b*sqrt(q) of Q(sqrt(q)); equality is component-wise."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q: int):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)
        self.q = q

    # Internal fast constructor; demotes to int/Fraction when b == 0.
    @staticmethod
    def _make(a: Fraction, b: Fraction, q: int):
        if not b:
            return _demote(a)
        s = QuadScalar.__new__(QuadScalar)
        s.a = a
        s.b = b
        s.q = q
        return s

    def _check(self, other: "QuadScalar"):
        if self.q != other.q:
            raise RingMismatchError(
                f"mixed ring parameters q={self.q} and q={other.q}")

    def __add__(self, other):
        t = type(other)
        if t is QuadScalar:
            self._check(other)
            return QuadScalar._make(self.a + other.a, self.b + other.b, self.q)
        if t is int or t is Fraction:
            return QuadScalar._make(self.a + other, self.b, self.q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        t = type(other)
        if t is QuadScalar:
            self._check(other)
            return QuadScalar._make(self.a - other.a, self.b - other.b, self.q)
        if t is int or t is Fraction:
            return QuadScalar._make(self.a - other, self.b, self.q)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) in (int, Fraction):
            return QuadScalar._make(other - self.a, -self.b, self.q)
        return NotImplemented

    def __neg__(self):
        return QuadScalar._make(-self.a, -self.b, self.q)

    def __mul__(self, other):
        t = type(other)
        if t is QuadScalar:
            self._check(other)
            return QuadScalar._make(
                self.a * other.a + self.b * other.b * self.q,
                self.a * other.b + self.b * other.a,
                self.q)
        if t is int or t is Fraction:
            return QuadScalar._make(self.a * other, self.b * other, self.q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        """1/(a+b*sqrt(q)) via the conjugate: (a-b*sqrt(q))/(a^2-b^2 q)."""
        n = self.a * self.a - self.b * self.b * self.q
        if not n:
            # a^2 = q b^2 with rational a, b forces a = b = 0 (sqrt q irrational)
            raise ZeroDivisionError("inverse of zero in Q(sqrt q)")
        return QuadScalar._make(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other):
        t = type(other)
        if t is QuadScalar:
            self._check(other)
            return self * other.inverse()
        if t is int or t is Fraction:
            if not other:
                raise ZeroDivisionError
            return QuadScalar._make(self.a / other, self.b / other, self.q)
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) in (int, Fraction):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = 1
        base = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        t = type(other)
        if t is QuadScalar:
            self._check(other)
            return self.a == other.a and self.b == other.b
        if t is int or t is Fraction:
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"QuadScalar({self.a!r}, {self.b!r}, q={self.q})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        bs = f"{self.b}*sqrt({self.q})"
        if not self.a:
            return bs
        sign = "+" if self.b > 0 else "-"
        mag = f"{abs(self.b)}*sqrt({self.q})"
        return f"{self.a} {sign} {mag}"


class QuadRing:
    """The field Q(sqrt(q)) for a fixed supported prime q."""

    kind = "numeric"

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field size q={q}; expected one of {SUPPORTED_Q}")
        self.q = q
        self.sqrt_q = QuadScalar(0, 1, q)

    zero = 0

    def q_power(self, m: int):
        """q**m as an exact rational."""
        if m >= 0:
            return self.q ** m
        return Fraction(1, self.q ** (-m))

    def q_half(self, m: int):
        """q**(m/2): rational for even m, rational*sqrt(q) for odd m."""
        if m % 2 == 0:
            return self.q_power(m // 2)
        return QuadScalar._make(Fraction(0), _as_fraction(self.q_power((m - 1) // 2)), self.q)

    def bracket(self, m: int):
        """The q-integer [m] = (q**m - 1)/(q - 1); m may be negative."""
        if m >= 0:
            return (self.q ** m - 1) // (self.q - 1)
        return _demote((Fraction(1, self.q ** (-m)) - 1) / (self.q - 1))

    def inv(self, x):
        if type(x) is QuadScalar:
            return x.inverse()
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return _demote(1 / _as_fraction(x))

    def __repr__(self):
        return f"QuadRing(q={self.q})"

    def __eq__(self, other):
        return isinstance(other, QuadRing) and other.q == self.q

    def __hash__(self):
        return hash(("QuadRing", self.q))


# ---------------------------------------------------------------------------
# Laurent polynomials in s and their quotients by (s-1)^b (s+1)^c (q = s**2)
# ---------------------------------------------------------------------------

def _terms_add(x: dict, y: dict) -> dict:
    """Sum of two {exponent: coefficient} dicts; zeros never stored."""
    out = dict(x)
    for e, v in y.items():
        w = out.get(e, 0) + v
        if w:
            out[e] = w
        else:
            del out[e]  # w == 0 with v != 0 means e was present
    return out


def _terms_sub(x: dict, y: dict) -> dict:
    """x - y in one pass, without negating y first."""
    out = dict(x)
    for e, v in y.items():
        w = out.get(e, 0) - v
        if w:
            out[e] = w
        else:
            del out[e]
    return out


def _terms_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _terms_scale(x: dict, shift: int, c) -> dict:
    """x times c*s**shift for a nonzero rational c; integral coefficients stay ints."""
    if type(c) is int:
        return {e + shift: v * c for e, v in x.items()}
    return {e + shift: _demote(v * c) for e, v in x.items()}


def _root(x: dict, r: int) -> bool:
    """Whether s = r (1 or -1) is a root of the nonzero x."""
    if r == 1:
        return not sum(x.values())
    return not sum(v if e & 1 == 0 else -v for e, v in x.items())


def _lift(x: dict, b: int, c: int) -> dict:
    """x * (s-1)**b * (s+1)**c."""
    for r in (1,) * b + (-1,) * c:
        out = {e + 1: v for e, v in x.items()}
        for e, v in x.items():
            w = out.get(e, 0) - r * v
            if w:
                out[e] = w
            else:
                del out[e]
        x = out
    return x


def _cancel(x: dict, r: int, limit: int):
    """Divide (s - r) out of x while s = r is a root, at most limit times.

    Synthetic division by a monic linear factor, so integer coefficients stay
    integers.  Returns (quotient, number of factors divided out).
    """
    n = 0
    while n < limit and _root(x, r):
        out, acc = {}, 0
        for e in range(max(x), min(x), -1):
            acc = x.get(e, 0) + r * acc
            if acc:
                out[e - 1] = acc
        x, n = out, n + 1
    return x, n


def _terms_eval(x: dict, s, s_inv=None):
    """Value of the Laurent polynomial x at s; s_inv supplies s**-1 for negative exponents."""
    total = 0
    for e, v in sorted(x.items()):
        if e >= 0:
            total = total + v * (s ** e)
        else:
            if s_inv is None:
                s_inv = Fraction(1) / s  # 1 / s would be a float for int s
            total = total + v * (s_inv ** (-e))
    return total


def _terms_str(x: dict) -> str:
    """x as a polynomial in s, highest power first."""
    if not x:
        return "0"
    out = ""
    for e in sorted(x, reverse=True):
        v = x[e]
        if e == 0:
            term = str(v)
        else:
            se = "s" if e == 1 else f"s^{e}"
            term = se if v == 1 else f"-{se}" if v == -1 else f"{v}*{se}"
        if not out:
            out = term
        else:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class RatFunc:
    """num / ((s-1)^b (s+1)^c): a Laurent polynomial over powers of s-1 and s+1.

    These are the only denominators the paper's coefficients produce (powers
    of q - 1 = (s-1)(s+1)).  The numerator num is ``terms``, an
    {exponent: coefficient} dict with no zero coefficient.  The form is
    reduced: num(1) != 0 when b > 0 and num(-1) != 0 when c > 0, which makes
    it unique, so equality compares the parts.  Only units c s^m (s-1)^i
    (s+1)^j can be inverted.  Construct through :func:`ratfunc_reduce` or a
    :class:`SymbolicRing`; constant values collapse to int/Fraction there, so
    a RatFunc instance always carries a genuinely non-constant value.
    """

    __slots__ = ("terms", "b", "c")

    @staticmethod
    def _raw(terms: dict, b: int, c: int) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.terms, r.b, r.c = terms, b, c
        return r

    @staticmethod
    def _make(terms: dict, b: int, c: int):
        """The reduced scalar terms / ((s-1)^b (s+1)^c)."""
        if not terms:
            return 0
        if b:
            terms, n = _cancel(terms, 1, b)
            b -= n
        if c:
            terms, n = _cancel(terms, -1, c)
            c -= n
        if not b and not c and len(terms) == 1 and 0 in terms:
            return _demote(terms[0])
        return RatFunc._raw(terms, b, c)

    def _plus(self, other, combine):
        """self + other or self - other, as combine is _terms_add or _terms_sub.

        Over a shared (b, c) the numerators combine in one pass, with nothing
        lifted; the result is still reduced, as a sum can gain a root at
        s = 1 or -1."""
        t = type(other)
        if t is RatFunc:
            n2, b2, c2 = other.terms, other.b, other.c
        elif t is int or t is Fraction:
            n2, b2, c2 = ({0: other} if other else {}), 0, 0
        else:
            return NotImplemented
        b, c = self.b, self.c
        if b == b2 and c == c2:
            return RatFunc._make(combine(self.terms, n2), b, c)
        b, c = max(b, b2), max(c, c2)
        return RatFunc._make(combine(_lift(self.terms, b - self.b, c - self.c),
                                     _lift(n2, b - b2, c - c2)), b, c)

    def __add__(self, other):
        return self._plus(other, _terms_add)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw({e: -v for e, v in self.terms.items()}, self.b, self.c)

    def __sub__(self, other):
        return self._plus(other, _terms_sub)

    def __rsub__(self, other):
        return (-self) + other

    def _times_monomial(self, monomial: dict):
        """self times v s^m, given as {m: v}: a shift and a scaling, unreduced.

        v s^m is nonzero at s = 1 and s = -1, so a reduced form stays
        reduced and keeps its b and c.  The product is constant only when
        self is a monomial too and the exponents cancel."""
        (m, v), = monomial.items()
        terms = _terms_scale(self.terms, m, v)
        if not self.b and not self.c and len(terms) == 1 and 0 in terms:
            return _demote(terms[0])
        return RatFunc._raw(terms, self.b, self.c)

    def __mul__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            if not other:
                return 0
            return RatFunc._raw(_terms_scale(self.terms, 0, other), self.b, self.c)
        if t is not RatFunc:
            return NotImplemented
        if not other.b and not other.c and len(other.terms) == 1:
            return self._times_monomial(other.terms)
        if not self.b and not self.c and len(self.terms) == 1:
            return other._times_monomial(self.terms)
        return RatFunc._make(_terms_mul(self.terms, other.terms),
                             self.b + other.b, self.c + other.c)

    __rmul__ = __mul__

    def denominator(self) -> dict:
        """(s-1)^b (s+1)^c, expanded."""
        return _lift({0: 1}, self.b, self.c)

    def inverse(self):
        """1/self for a unit c s^m (s-1)^i (s+1)^j; any other value raises ValueError."""
        return ratfunc_reduce(self.denominator(), self.terms)

    def __truediv__(self, other):
        t = type(other)
        if t is int or t is Fraction:
            if not other:
                raise ZeroDivisionError
            return self * (Fraction(1) / other)
        if t is not RatFunc:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if type(other) in (int, Fraction):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        t = type(other)
        if t is RatFunc:
            return self.b == other.b and self.c == other.c and self.terms == other.terms
        if t in (int, Fraction):
            return False  # constants never survive as RatFunc
        return NotImplemented

    def __hash__(self):
        return hash((tuple(sorted(self.terms.items())), self.b, self.c))

    def __bool__(self):
        return True  # zero collapses to int 0 at construction

    def evaluate(self, x, x_inv=None):
        """Value at s = x (exact, in whatever ring x lives in)."""
        n = _terms_eval(self.terms, x, x_inv)
        d = (x - 1) ** self.b * (x + 1) ** self.c
        if isinstance(d, QuadScalar):
            return n * d.inverse()
        if isinstance(n, QuadScalar):
            return n / _as_fraction(d)
        return _demote(_as_fraction(n) / _as_fraction(d))

    def __str__(self):
        if not self.b and not self.c:
            return _terms_str(self.terms)
        return f"({_terms_str(self.terms)})/({_terms_str(self.denominator())})"

    def __repr__(self):
        return f"RatFunc({self.terms!r}, b={self.b}, c={self.c})"


def ratfunc_reduce(num: dict, den: dict):
    """Reduced num/den for den = c s^m (s-1)^b (s+1)^c; collapses to int/Fraction when constant.

    num and den are {exponent: coefficient} dicts; zero coefficients are
    dropped.  Any other denominator raises ValueError, a zero one
    ZeroDivisionError.
    """
    num = {e: v for e, v in num.items() if v}
    den = {e: v for e, v in den.items() if v}
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    span = max(den) - min(den)
    rest, b = _cancel(den, 1, span)
    rest, c = _cancel(rest, -1, span)
    if len(rest) != 1:
        raise ValueError(f"{_terms_str(den)} is not c*s^m*(s-1)^b*(s+1)^c, "
                         "the only denominators of symbolic scalars")
    (e, coeff), = rest.items()
    return RatFunc._make(_terms_scale(num, -e, Fraction(1) / coeff), b, c)


class SymbolicRing:
    """Laurent polynomials in s over powers of s-1 and s+1, with q = s**2.

    Every scalar is a RatFunc or a rational; inverting a non-unit (anything
    but c s^m (s-1)^i (s+1)^j) raises ValueError.
    """

    kind = "symbolic"
    q = None

    zero = 0

    def __init__(self):
        # s**m and [m] by m; the paper's formulas ask for a few dozen m
        self._powers: dict = {}
        self._brackets: dict = {}

    def q_half(self, m: int):
        """q**(m/2) = s**m."""
        if m not in self._powers:
            self._powers[m] = RatFunc._make({m: 1}, 0, 0)
        return self._powers[m]

    def q_power(self, m: int):
        return self.q_half(2 * m)

    def bracket(self, m: int):
        """[m] = (q**m - 1)/(q - 1) as a Laurent polynomial in s."""
        if m not in self._brackets:
            if m >= 0:
                terms = {2 * t: 1 for t in range(m)}
            else:  # [-r] = -(q**-r + ... + q**-1)
                terms = {2 * t: -1 for t in range(m, 0)}
            self._brackets[m] = RatFunc._make(terms, 0, 0)
        return self._brackets[m]

    def inv(self, x):
        if type(x) is RatFunc:
            return x.inverse()
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return _demote(1 / _as_fraction(x))

    def __repr__(self):
        return "SymbolicRing()"

    def __eq__(self, other):
        return isinstance(other, SymbolicRing)

    def __hash__(self):
        return hash("SymbolicRing")


Ring = Union[QuadRing, SymbolicRing]
Scalar = Union[int, Fraction, QuadScalar, RatFunc]


def q_int(m: int, q: int) -> int:
    """[m] for a concrete integer q and m >= 0 (plain integer arithmetic)."""
    if m < 0:
        raise ValueError("q_int expects m >= 0")
    return (q ** m - 1) // (q - 1)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    value = Fraction(1)
    for t in range(1, k + 1):
        value *= Fraction(q ** (n - t + 1) - 1, q ** t - 1)
    if value.denominator != 1:
        raise ArithmeticError("gaussian binomial did not reduce to an integer")
    return value.numerator

