"""Exact coefficient arithmetic.

Two coefficient fields are supported:

* numeric mode -- Q(sqrt(q)) for a fixed non-square prime q, elements
  ``a + b*sqrt(q)`` with arbitrary-precision rational a, b;
* symbolic mode -- rational functions in an indeterminate ``s`` with
  ``q = s**2``, so half-integer powers of q are Laurent monomials in s.

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
    one = 1

    def quad(self, a, b):
        """Build a + b*sqrt(q), collapsed to a rational when b == 0."""
        return QuadScalar._make(_as_fraction(a), _as_fraction(b), self.q)

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
# Laurent polynomials in s and their quotients (q = s**2)
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in s as {exponent: coefficient}; zeros never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = {exp: coeff} if coeff else {}
        return p

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly.monomial(0, c)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if type(other) in (int, Fraction):
            if not other:
                return not self.terms
            return len(self.terms) == 1 and self.terms.get(0) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __neg__(self):
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __add__(self, other):
        if type(other) in (int, Fraction):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            v = t.get(e, 0) + c
            if v:
                t[e] = v
            elif e in t:
                del t[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = t
        return p

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) in (int, Fraction):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) in (int, Fraction):
            if not other:
                return LaurentPoly()
            p = LaurentPoly.__new__(LaurentPoly)
            p.terms = {e: c * other for e, c in self.terms.items()}
            return p
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                v = t.get(e, 0) + c1 * c2
                if v:
                    t[e] = v
                elif e in t:
                    del t[e]
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = t
        return p

    __rmul__ = __mul__

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def shifted(self, d: int) -> "LaurentPoly":
        """Multiply by s**d."""
        if not d or not self.terms:
            return self
        p = LaurentPoly.__new__(LaurentPoly)
        p.terms = {e + d: c for e, c in self.terms.items()}
        return p

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self):
        return self.terms.get(0, 0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def lead_coeff(self):
        return self.terms[self.max_exp()]

    def evaluate(self, x, x_inv=None):
        """Value at s = x; x_inv supplies x**-1 for negative exponents."""
        total = 0
        for e, c in sorted(self.terms.items()):
            if e >= 0:
                total = total + c * (x ** e)
            else:
                if x_inv is None:
                    x_inv = 1 / x
                total = total + c * (x_inv ** (-e))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                term = str(c)
            else:
                se = "s" if e == 1 else f"s^{e}"
                if c == 1:
                    term = se
                elif c == -1:
                    term = f"-{se}"
                else:
                    term = f"{c}*{se}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder of ordinary polynomials (min exponents >= 0)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.terms)
    quo = {}
    db = b.max_exp()
    lb = b.terms[db]
    while rem:
        dr = max(rem)
        if dr < db:
            break
        f = _as_fraction(rem[dr]) / lb
        quo[dr - db] = _demote(f)
        for e, c in b.terms.items():
            t = e + dr - db
            v = rem.get(t, 0) - f * c
            if v:
                rem[t] = _demote(_as_fraction(v))
            elif t in rem:
                del rem[t]
    return LaurentPoly(quo), LaurentPoly(rem)


def laurent_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd with minimal exponent 0 (defined up to a monomial unit)."""
    if not a and not b:
        return LaurentPoly()
    a = a.shifted(-a.min_exp()) if a else LaurentPoly()
    b = b.shifted(-b.min_exp()) if b else LaurentPoly()
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, (r.shifted(-r.min_exp()) if r else r)
    lc = a.lead_coeff()
    if lc != 1:
        a = a * (Fraction(1) / _as_fraction(lc))
    return a


_LP_ONE = LaurentPoly.constant(1)


class RatFunc:
    """Reduced quotient of Laurent polynomials in s.

    Canonical form: the denominator is monic with minimal exponent 0 and is
    coprime to the numerator after clearing s-powers.  Construct through
    :func:`ratfunc_reduce`; constant values collapse to int/Fraction there,
    so a RatFunc instance always carries a genuinely non-constant value.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        self.num = num
        self.den = den

    @staticmethod
    def _raw(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num = num
        r.den = den
        return r

    # -- construction ------------------------------------------------------

    @staticmethod
    def _normalize(num: LaurentPoly, den: LaurentPoly):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return 0
        shift = -den.min_exp()
        den = den.shifted(shift)
        num = num.shifted(shift)
        if den.is_monomial():
            # den = c (after the shift): absorb it into the numerator
            c = den.constant_value()
            if c != 1:
                num = num * (Fraction(1) / _as_fraction(c))
            return RatFunc._from_poly(num)
        lc = den.lead_coeff()
        if lc != 1:
            f = Fraction(1) / _as_fraction(lc)
            num = num * f
            den = den * f
        v = num.min_exp()
        g = laurent_gcd(num.shifted(-v), den)
        if g.max_exp() > 0:
            num, _ = _poly_divmod(num.shifted(-v), g)
            num = num.shifted(v)
            den, _ = _poly_divmod(den, g)
            if den.is_monomial():
                c = den.constant_value()
                if c != 1:
                    num = num * (Fraction(1) / _as_fraction(c))
                return RatFunc._from_poly(num)
        return RatFunc._raw(num, den)

    @staticmethod
    def _from_poly(num: LaurentPoly):
        if num.is_constant():
            return _demote(_as_fraction(num.constant_value()))
        return RatFunc._raw(num, _LP_ONE)

    @staticmethod
    def _lift(x):
        if type(x) is RatFunc:
            return x.num, x.den
        return LaurentPoly.constant(x), _LP_ONE

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if type(other) not in (RatFunc, int, Fraction):
            return NotImplemented
        n2, d2 = RatFunc._lift(other)
        n1, d1 = self.num, self.den
        if d1 is _LP_ONE and d2 is _LP_ONE:
            return RatFunc._from_poly(n1 + n2)
        if d1 == d2:
            return RatFunc._normalize(n1 + n2, d1)
        return RatFunc._normalize(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        if type(other) not in (RatFunc, int, Fraction):
            return NotImplemented
        return self + (-other if type(other) is RatFunc else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t = type(other)
        if t in (int, Fraction):
            if not other:
                return 0
            return RatFunc._normalize(self.num * other, self.den)
        if t is not RatFunc:
            return NotImplemented
        if self.den is _LP_ONE and other.den is _LP_ONE:
            return RatFunc._from_poly(self.num * other.num)
        return RatFunc._normalize(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        return RatFunc._normalize(self.den, self.num)

    def __truediv__(self, other):
        t = type(other)
        if t in (int, Fraction):
            if not other:
                raise ZeroDivisionError
            return RatFunc._normalize(self.num, self.den * other)
        if t is not RatFunc:
            return NotImplemented
        return RatFunc._normalize(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if type(other) in (int, Fraction):
            return self.inverse() * other
        return NotImplemented

    def __eq__(self, other):
        t = type(other)
        if t is RatFunc:
            return self.num == other.num and self.den == other.den
        if t in (int, Fraction):
            return False  # constants never survive as RatFunc
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return True  # zero collapses to int 0 at construction

    def evaluate(self, x, x_inv=None):
        """Value at s = x (exact, in whatever ring x lives in)."""
        n = self.num.evaluate(x, x_inv)
        d = self.den.evaluate(x, x_inv)
        if isinstance(d, QuadScalar):
            return n * d.inverse()
        if isinstance(n, QuadScalar):
            return n / _as_fraction(d)
        return _demote(_as_fraction(n) / _as_fraction(d))

    def __str__(self):
        if self.den is _LP_ONE or self.den == _LP_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def ratfunc_reduce(num: LaurentPoly, den: LaurentPoly):
    """Canonical reduced fraction num/den; collapses to int/Fraction when constant."""
    return RatFunc._normalize(num, den)


class SymbolicRing:
    """Rational functions in s with q = s**2; shared by all symbolic scalars."""

    kind = "symbolic"
    q = None

    zero = 0
    one = 1

    def q_half(self, m: int):
        """q**(m/2) = s**m."""
        if m == 0:
            return 1
        return RatFunc._raw(LaurentPoly.monomial(m), _LP_ONE)

    def q_power(self, m: int):
        return self.q_half(2 * m)

    @property
    def s(self):
        return self.q_half(1)

    def bracket(self, m: int):
        """[m] = (q**m - 1)/(q - 1) as a Laurent polynomial in s."""
        if m == 0:
            return 0
        if m > 0:
            return RatFunc._from_poly(LaurentPoly({2 * t: 1 for t in range(m)}))
        # [-r] = -(q**-r + ... + q**-1)
        return RatFunc._from_poly(LaurentPoly({2 * t: -1 for t in range(m, 0)}))

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


def q_bracket(m: int, ring: Ring) -> Scalar:
    """The q-integer [m] in the given ring."""
    return ring.bracket(m)


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


def evaluate_at_q(x: Scalar, ring: QuadRing) -> Scalar:
    """Evaluation homomorphism s -> sqrt(q): symbolic scalar to numeric scalar."""
    if type(x) is RatFunc:
        return x.evaluate(ring.sqrt_q, ring.q_half(-1))
    return x
