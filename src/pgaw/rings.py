"""Exact coefficient arithmetic.

Two coefficient fields are supported:

* numeric mode -- Q(sqrt(q)) for a fixed non-square prime q, elements
  ``a + b*sqrt(q)`` with arbitrary-precision rational a, b;
* symbolic mode -- integer Laurent polynomials in an indeterminate ``s``
  over ``(s-1)**b (s+1)**c``, with ``q = s**2`` (``RatFunc``): half-integer
  powers of q are Laurent monomials in s, and the paper's coefficients only
  ever divide by powers of ``q - 1 = (s-1)(s+1)``.  Inverting anything but
  a unit ``c s**m (s-1)**i (s+1)**j`` raises ValueError.

A symbolic value ``s**m P(s) / (den (s-1)**b (s+1)**c)`` is packed: P has
integer coefficients and P(0) != 0, and it is stored as the one int
``v = P(N)`` for ``N = 2**64`` (Kronecker substitution), beside the ints
m, b, c, den (1 unless a coefficient is a Fraction) and a bound h on P's
coefficient norm, the sum of the |coefficients|.  Every value keeps
``h < N/2 = 2**63``, and then v alone is exact: its balanced base-N digits
are P's coefficients, v = 0 only for P = 0, and since P(N) = P(1) mod N-1
and P(N) = P(-1) mod N+1 with |P(+-1)| <= h < N-1, s = 1 (s = -1) is a root
iff N-1 (N+1) divides v, and ``v // (N -+ 1)`` is the packed quotient.  So
a sum, a difference, a product, a lift to a larger (b, c), a reduction at
s = +-1 and an equality test are each one or two integer operations.

Each operation carries a proven bound: h1 + h2 for a sum, each side times
2 per factor s -+ 1 it is lifted by and times what brings it to the common
den; h1 h2 for a product; deg(P) h/2 for a quotient by s -+ 1.  A bound
that reaches 2**63 is replaced by exact norms read from the digits; if
those still reach it, the operation raises ArithmeticError.  So the
coefficient limit is a norm of P below 2**63, and no value past it is ever
returned.

Every symbolic value is kept reduced: P(1) != 0 when b > 0 and P(-1) != 0
when c > 0.  ``SymbolicRing`` memoises s**m and [m] by m.

Plain Python ints and ``fractions.Fraction`` values embed canonically in
both fields and are accepted by every operation; results collapse back to
int/Fraction whenever they are rational.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

_N = 1 << 64      # the packing base: a numerator P is stored as the int P(N)
_HALF = _N >> 1   # every stored P has a coefficient norm below N/2
_MASK = _N - 1
_N_MINUS_1, _N_PLUS_1 = _N - 1, _N + 1  # P(N) = P(1) mod N-1 and P(-1) mod N+1
_TOO_LARGE = "symbolic numerator past the coefficient limit: its proven norm bound reaches 2**63"


def _digits(v: int) -> list:
    """The balanced base-N digits of v, lowest first: the coefficients of P
    for v = P(N) while P's coefficient norm is below N/2."""
    out = []
    while v:
        d = v & _MASK
        if d >= _HALF:
            d -= _N
        out.append(d)
        v = (v - d) >> 64
    return out


def _norm(v: int) -> int:
    """The exact coefficient norm (sum of |coefficients|) of the P with v = P(N)."""
    return sum(map(abs, _digits(v)))


def _divide(v: int, r: int, h: int):
    """(Q(N), a bound on Q's norm) for v = P(N) with P(r) = 0 and P = (s - r) Q.

    Each coefficient of Q is, up to sign, the sum of P's coefficients
    below it and also of those above it (r = 1 or -1 and P(r) = 0), so it
    is at most h/2, and Q has at most deg P <= bit_length(v) / 64 of them.
    When that bound reaches N/2 Q's digits are still exact (each is below
    N/4) and its norm is read from them."""
    bound = (v.bit_length() >> 6) * (h >> 1)
    v //= _N_MINUS_1 if r == 1 else _N_PLUS_1
    if bound >= _HALF:
        bound = _norm(v)
        if bound >= _HALF:
            raise ArithmeticError(_TOO_LARGE)
    return v, bound


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
    """s^m P(s) / (den (s-1)^b (s+1)^c), with P packed as the int v = P(2**64).

    These are the only denominators the paper's coefficients produce (powers
    of q - 1 = (s-1)(s+1)).  P has integer coefficients and P(0) != 0, den
    is a positive int coprime to P's content (1 unless a coefficient is a
    Fraction), and h bounds P's coefficient norm (the sum of |coefficients|)
    with h < N/2 for N = 2**64.  The form is reduced: P(1) != 0 when b > 0
    and P(-1) != 0 when c > 0, which makes (v, m, b, c, den) unique, so
    equality compares them.  ``terms`` decodes the numerator s^m P / den as
    an {exponent: coefficient} dict.  Only units c s^m (s-1)^i (s+1)^j can
    be inverted.  Construct through :func:`ratfunc_reduce` or a
    :class:`SymbolicRing`; constant values collapse to int/Fraction there, so
    a RatFunc instance always carries a genuinely non-constant value.
    """

    __slots__ = ("v", "m", "b", "c", "den", "h")

    @staticmethod
    def _make(v: int, m: int, b: int, c: int, den: int, h: int):
        """The reduced scalar s^m P / (den (s-1)^b (s+1)^c) for v = P(N), h
        a bound below N/2 on P's norm."""
        if not v:
            return 0
        if not v & _MASK:  # P(0) = 0: move the factors of s into m
            t = ((v & -v).bit_length() - 1) >> 6
            v >>= t << 6
            m += t
        while b and not v % _N_MINUS_1:  # P(1) = 0
            v, h = _divide(v, 1, h)
            b -= 1
        while c and not v % _N_PLUS_1:  # P(-1) = 0
            v, h = _divide(v, -1, h)
            c -= 1
        if den != 1:
            g = gcd(den, *_digits(v))
            if g != 1:
                v, den, h = v // g, den // g, h // g
        if not b and not c and not m and -_HALF < v < _HALF:
            return v if den == 1 else Fraction(v, den)
        r = RatFunc.__new__(RatFunc)
        r.v, r.m, r.b, r.c, r.den, r.h = v, m, b, c, den, h
        return r

    @staticmethod
    def _from_terms(terms: dict, b: int, c: int):
        """The reduced terms / ((s-1)^b (s+1)^c) for int or Fraction coefficients."""
        terms = {e: x for e, x in terms.items() if x}
        if not terms:
            return 0
        den = lcm(*(x.denominator for x in terms.values()))
        m = min(terms)
        v = h = 0
        for e, x in terms.items():
            p = x.numerator * (den // x.denominator)
            v += p << ((e - m) << 6)
            h += abs(p)
        if h >= _HALF:
            raise ArithmeticError(_TOO_LARGE)
        return RatFunc._make(v, m, b, c, den, h)

    def _tight(self) -> int:
        """P's exact norm, which also replaces the carried bound h."""
        self.h = h = _norm(self.v)
        return h

    def _plus(self, other, sign: int):
        """self + sign * other.

        Each side is lifted to the larger (b, c), multiplying its norm by
        at most 2 per factor s -/+ 1, and to the common den; the lower m
        shifts the other numerator, which leaves its norm.  The sum is
        reduced, as it can gain a root at s = 0, 1 or -1."""
        t = type(other)
        if t is RatFunc:
            v2, m2, b2, c2, d2, h2 = other.v, other.m, other.b, other.c, other.den, other.h
        elif t is int or t is Fraction:
            v2, m2, b2, c2, d2, h2 = other.numerator, 0, 0, 0, other.denominator, abs(other.numerator)
        else:
            return NotImplemented
        if sign < 0:
            v2 = -v2
        v1, m1, b1, c1, d1, h1 = self.v, self.m, self.b, self.c, self.den, self.h
        f1 = f2 = 1  # what each side's norm is multiplied by
        b, c = b1, c1
        if b1 != b2 or c1 != c2:
            b, c = max(b1, b2), max(c1, c2)
            if b != b1 or c != c1:
                v1 *= _N_MINUS_1 ** (b - b1) * _N_PLUS_1 ** (c - c1)
                f1 = 1 << (b - b1 + c - c1)
            if b != b2 or c != c2:
                v2 *= _N_MINUS_1 ** (b - b2) * _N_PLUS_1 ** (c - c2)
                f2 = 1 << (b - b2 + c - c2)
        den = d1
        if d1 != d2:
            den = lcm(d1, d2)
            v1 *= den // d1
            v2 *= den // d2
            f1 *= den // d1
            f2 *= den // d2
        m = m1
        if m1 > m2:
            v1 <<= (m1 - m2) << 6
            m = m2
        elif m2 > m1:
            v2 <<= (m2 - m1) << 6
        h = h1 * f1 + h2 * f2
        if h >= _HALF:
            h = self._tight() * f1 + (other._tight() if t is RatFunc else h2) * f2
            if h >= _HALF:
                raise ArithmeticError(_TOO_LARGE)
        return RatFunc._make(v1 + v2, m, b, c, den, h)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.v, r.m, r.b, r.c, r.den, r.h = -self.v, self.m, self.b, self.c, self.den, self.h
        return r

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product's numerator is P1(N) P2(N), with norm at most h1 h2."""
        t = type(other)
        if t is RatFunc:
            v2, m2, b2, c2, d2, h2 = other.v, other.m, other.b, other.c, other.den, other.h
        elif t is int or t is Fraction:
            v2, m2, b2, c2, d2, h2 = other.numerator, 0, 0, 0, other.denominator, abs(other.numerator)
        else:
            return NotImplemented
        h = self.h * h2
        if h >= _HALF:
            h = self._tight() * (other._tight() if t is RatFunc else h2)
            if h >= _HALF:
                raise ArithmeticError(_TOO_LARGE)
        return RatFunc._make(self.v * v2, self.m + m2, self.b + b2, self.c + c2, self.den * d2, h)

    __rmul__ = __mul__

    @property
    def terms(self) -> dict:
        """The numerator s^m P / den as {exponent: coefficient}, decoded from v."""
        m, den = self.m, self.den
        if den == 1:
            return {m + i: p for i, p in enumerate(_digits(self.v)) if p}
        return {m + i: _demote(Fraction(p, den)) for i, p in enumerate(_digits(self.v)) if p}

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
            return (self.v == other.v and self.m == other.m and self.b == other.b
                    and self.c == other.c and self.den == other.den)
        if t in (int, Fraction):
            return False  # constants never survive as RatFunc
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.m, self.b, self.c, self.den))

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
    ZeroDivisionError, and a numerator whose coefficients (over their
    common denominator) sum to 2**63 or more in absolute value
    ArithmeticError.
    """
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
    return RatFunc._from_terms({k - e: Fraction(v) / coeff for k, v in num.items()}, b, c)


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
            self._powers[m] = RatFunc._make(1, m, 0, 0, 1, 1)
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
            self._brackets[m] = RatFunc._from_terms(terms, 0, 0)
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

