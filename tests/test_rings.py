import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import DictRatFunc, evaluate_at_q, quad, terms_add, terms_lift, terms_mul
from pgaw import rings
from pgaw.modules import build_abstract_module, enumerate_types
from pgaw.operators import DERIVED
from pgaw.rings import (
    QuadRing,
    QuadScalar,
    RatFunc,
    RingMismatchError,
    SymbolicRing,
    gaussian_binomial,
    _terms_str,
    ratfunc_reduce,
)

R2 = QuadRing(2)
SYM = SymbolicRing()


# ---------------------------------------------------------------------------
# Q(sqrt q)
# ---------------------------------------------------------------------------

def test_quad_mul_examples():
    s = R2.sqrt_q
    assert (1 + s) * (1 - s) == -1
    assert s * s == 2
    assert (2 + 3 * s) * (1 + s) == quad(R2, 8, 5)


def test_quad_inv_examples():
    s = R2.sqrt_q
    assert s.inverse() == quad(R2, 0, Fraction(1, 2))
    assert s * s.inverse() == 1
    assert (1 + s).inverse() == s - 1
    with pytest.raises(ZeroDivisionError):
        R2.inv(R2.zero)
    with pytest.raises(ZeroDivisionError):
        QuadScalar(0, 0, 2).inverse()


def test_quad_ring_mismatch():
    with pytest.raises(RingMismatchError):
        QuadRing(2).sqrt_q * QuadRing(3).sqrt_q
    with pytest.raises(RingMismatchError):
        QuadRing(2).sqrt_q + QuadRing(5).sqrt_q


def test_quad_ring_rejects_unsupported_q():
    for q in (1, 4, 6, 9, 11):
        with pytest.raises(ValueError):
            QuadRing(q)


def test_quad_demotes_to_rational():
    s = R2.sqrt_q
    v = s * s
    assert type(v) is int and v == 2
    v = (1 + s) - s
    assert type(v) is int and v == 1
    assert type(s * quad(R2, 0, Fraction(1, 2))) is int


def _random_quad(rng, ring):
    return quad(ring, Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_quad_field_axioms_random():
    rng = random.Random(20240817)
    for q in (2, 3, 5, 7):
        ring = QuadRing(q)
        for _ in range(40):
            x, y, z = (_random_quad(rng, ring) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x
            if x:
                assert x * ring.inv(x) == 1


def test_quad_half_powers():
    assert R2.q_half(0) == 1
    assert R2.q_half(2) == 2
    assert R2.q_half(-2) == Fraction(1, 2)
    assert R2.q_half(1) == R2.sqrt_q
    assert R2.q_half(-1) * R2.q_half(1) == 1
    assert R2.q_half(3) == quad(R2, 0, 2)
    for m in range(-6, 7):
        assert R2.q_half(m) * R2.q_half(-m) == 1


# ---------------------------------------------------------------------------
# Laurent polynomials over (s-1)^b (s+1)^c
# ---------------------------------------------------------------------------

ONE = {0: 1}


def poly(terms):
    """The symbolic scalar with the given {exponent: coefficient} terms."""
    return ratfunc_reduce(terms, ONE)


def _linear_power(r: int, n: int) -> dict:
    """(s - r)**n."""
    return terms_lift(ONE, n, 0) if r == 1 else terms_lift(ONE, 0, n)


def _denominator(x: RatFunc) -> dict:
    return terms_lift(ONE, x.b, x.c)


# -- the former gcd normalisation over Q(s), kept as the oracle ----------------

def _shift(a: dict, d: int) -> dict:
    return {e + d: c for e, c in a.items()}


def _ref_divmod(a: dict, b: dict):
    """Division with remainder of ordinary polynomials (min exponents >= 0)."""
    rem, quo = dict(a), {}
    db = max(b)
    while rem and max(rem) >= db:
        dr = max(rem)
        f = Fraction(rem[dr]) / b[db]
        quo[dr - db] = f
        for e, c in b.items():
            t = e + dr - db
            v = rem.get(t, 0) - f * c
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
    return quo, rem


def _ref_gcd(a: dict, b: dict) -> dict:
    """Monic Euclidean gcd with minimal exponent 0."""
    a, b = _shift(a, -min(a)), _shift(b, -min(b))
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, (_shift(r, -min(r)) if r else r)
    lc = Fraction(a[max(a)])
    return {e: c / lc for e, c in a.items()}


def _ref_normalize(num: dict, den: dict):
    """A Fraction for a constant, else (num, den) with den monic, min exponent 0, coprime to num."""
    if not num:
        return Fraction(0)
    num, den = _shift(num, -min(den)), _shift(den, -min(den))
    lc = Fraction(den[max(den)])
    num = {e: c / lc for e, c in num.items()}
    den = {e: c / lc for e, c in den.items()}
    v = min(num)
    g = _ref_gcd(_shift(num, -v), den)
    if max(g) > 0:
        num = _shift(_ref_divmod(_shift(num, -v), g)[0], v)
        den = _ref_divmod(den, g)[0]
    if den == {0: 1} and set(num) == {0}:
        return num[0]
    return num, den


def _ref_parts(x):
    return x if isinstance(x, tuple) else ({0: x} if x else {}, {0: 1})


def _ref_add(x, y, sign=1):
    (n1, d1), (n2, d2) = _ref_parts(x), _ref_parts(y)
    n2 = {e: sign * c for e, c in n2.items()}
    return _ref_normalize(terms_add(terms_mul(n1, d2), terms_mul(n2, d1)), terms_mul(d1, d2))


def _ref_mul(x, y):
    (n1, d1), (n2, d2) = _ref_parts(x), _ref_parts(y)
    return _ref_normalize(terms_mul(n1, n2), terms_mul(d1, d2))


def _ref_str(x) -> str:
    if not isinstance(x, tuple):
        return str(x.numerator if x.denominator == 1 else x)
    num, den = x
    if den == {0: 1}:
        return _terms_str(num)
    return f"({_terms_str(num)})/({_terms_str(den)})"


def _random_ring_element(rng, units_only=False):
    """(num, den) dicts of an element of Z[s, 1/s, 1/(s^2-1)], not reduced.

    The numerator carries random powers of s-1 and s+1 (often only one of
    them) and the denominator is +-s^m (s-1)^b (s+1)^c.
    """
    if units_only:
        num = {rng.randint(-3, 3): rng.choice((-2, -1, 1, 2))}
    else:
        num = {rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
        num = {e: c for e, c in num.items() if c}
    num = terms_mul(terms_mul(num, _linear_power(1, rng.randint(0, 2))),
                    _linear_power(-1, rng.randint(0, 2)))
    den = {rng.randint(-2, 2): rng.choice((-1, 1))}
    den = terms_mul(terms_mul(den, _linear_power(1, rng.randint(0, 2))),
                    _linear_power(-1, rng.randint(0, 2)))
    return num, den


def _ring_element(rng, units_only=False):
    num, den = _random_ring_element(rng, units_only)
    return ratfunc_reduce(num, den)


def _integer_numerator(x) -> bool:
    return type(x) is int or all(type(c) is int for c in x.terms.values())


def test_laurent_zero_is_empty():
    """ratfunc_reduce drops the zero coefficients of numerator and denominator."""
    assert ratfunc_reduce({0: 0, 3: 0}, ONE) == 0
    assert ratfunc_reduce({2: 1, 3: 0}, {0: 1, 1: 0}).terms == {2: 1}
    with pytest.raises(ZeroDivisionError):
        ratfunc_reduce(ONE, {0: 0, 3: 0})


def test_ratfunc_reduce_examples():
    # (s^2 - 1)/(s - 1) -> s + 1
    num = {2: 1, 0: -1}
    den = {1: 1, 0: -1}
    assert ratfunc_reduce(num, den) == poly({1: 1, 0: 1})
    # 0/p -> 0
    assert ratfunc_reduce({}, den) == 0
    # (s^4 - 1)/(s^2 - 1) -> s^2 + 1
    out = ratfunc_reduce({4: 1, 0: -1}, {2: 1, 0: -1})
    assert out == poly({2: 1, 0: 1})
    # 3 s^-2 (s-1)^2 (s+1) is an accepted denominator
    den = terms_mul({-2: 3}, terms_mul(_linear_power(1, 2), _linear_power(-1, 1)))
    out = ratfunc_reduce({1: 1, 0: 1}, den)
    assert (out.b, out.c) == (2, 0)
    assert out.terms == {2: Fraction(1, 3)}
    with pytest.raises(ZeroDivisionError):
        ratfunc_reduce(num, {})


def test_ratfunc_reduction_idempotent():
    # (s^4 - 1)/(2 s^3 (s-1)^2 (s+1)) = (s^2 + 1)/(2 s^3 (s-1))
    den = terms_mul({3: 2}, terms_mul(_linear_power(1, 2), _linear_power(-1, 1)))
    x = ratfunc_reduce({4: 1, 0: -1}, den)
    assert isinstance(x, RatFunc)
    assert (x.b, x.c) == (1, 0)
    assert x.terms == {-1: Fraction(1, 2), -3: Fraction(1, 2)}
    assert x.denominator() == _denominator(x)
    assert ratfunc_reduce(x.terms, _denominator(x)) == x
    assert str(x) == "(1/2*s^-1 + 1/2*s^-3)/(s - 1)"


def test_ratfunc_constant_collapse():
    # (2s^2)/(s^2) is the constant 2 and must come back as an int
    out = ratfunc_reduce({2: 2}, {2: 1})
    assert type(out) is int and out == 2
    half = ratfunc_reduce({0: 1}, {0: 2})
    assert type(half) is Fraction and half == Fraction(1, 2)
    q = SYM.q_power(1)
    assert (q - 1) * SYM.inv(q - 1) == 1
    assert type((q + 1) * SYM.inv(q - 1) - 2 * SYM.inv(q - 1)) is int


def test_ratfunc_matches_gcd_normalisation():
    rng = random.Random(20261018)
    elements = [_random_ring_element(rng) for _ in range(320)]
    divisors = (2, -3, Fraction(3, 2), Fraction(-1, 4))
    for (n1, d1), (n2, d2) in zip(elements, elements[1:] + elements[:1]):
        x = ratfunc_reduce(n1, d1)
        y = ratfunc_reduce(n2, d2)
        rx, ry = _ref_normalize(n1, d1), _ref_normalize(n2, d2)
        assert str(x) == _ref_str(rx)
        assert (x == y) == (rx == ry)
        # the same value with common factors s, s-1, s+1 and 2 on both sides
        extra = terms_mul({1: 2}, terms_mul(_linear_power(1, 1), _linear_power(-1, 2)))
        twin = ratfunc_reduce(terms_mul(n1, extra), terms_mul(d1, extra))
        assert twin == x and hash(twin) == hash(x) and str(twin) == str(x)
        for got, want in ((x + y, _ref_add(rx, ry)), (x - y, _ref_add(rx, ry, -1)),
                          (x * y, _ref_mul(rx, ry))):
            assert str(got) == _ref_str(want)
            assert _integer_numerator(got)
            if isinstance(want, tuple):
                assert got == ratfunc_reduce(*want)
            else:
                assert got == want and type(got) in (int, Fraction)
        d = rng.choice(divisors)
        if isinstance(x, RatFunc):  # an int x / int d would be a float
            assert str(x / d) == _ref_str(_ref_mul(rx, Fraction(1) / d))


def test_ratfunc_field_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        x, y, z = (_ring_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0
        u = _ring_element(rng, units_only=True)
        assert u * SYM.inv(u) == 1
        assert (x / u) * u == x


def test_non_units_and_foreign_denominators_rejected():
    q = SYM.q_power(1)
    for non_unit in (q + 1 - SYM.q_half(1),              # s^2 - s + 1
                     (q + 1) * SYM.inv(SYM.q_half(1) - 1),   # (s^2 + 1)/(s - 1)
                     SYM.q_half(1) + 2):
        with pytest.raises(ValueError):
            SYM.inv(non_unit)
        with pytest.raises(ValueError):
            1 / non_unit
    for den in ({2: 1, 0: 1}, {1: 1, 0: 2}, terms_mul({1: 1, 0: 3}, {1: 1, 0: -1})):
        with pytest.raises(ValueError):
            ratfunc_reduce(ONE, den)


def test_symbolic_module_numerators_are_integers():
    for t in enumerate_types(4, 2):
        ops = build_abstract_module(t, SYM).ops
        for name in sorted({*ops.ops, *DERIVED}):
            op = ops[name]
            for part in (op.m0, op.m1):
                for row in part.values():
                    for v in row.values():
                        assert _integer_numerator(v), (t, name, v)


def _random_ratfunc_safe_den(rng):
    # denominators of the shape s^a (s^2-1)^e, which never vanish at sqrt(q):
    # the only denominators the verification formulas produce
    num = {rng.randint(-3, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))}
    den = {rng.randint(-2, 2): 1}
    for _ in range(rng.randint(0, 2)):
        den = terms_mul(den, {2: 1, 0: -1})
    return ratfunc_reduce(num, den)


def test_ratfunc_evaluation_homomorphism_random():
    # at a rational point, without x_inv, the value stays exact
    x = (SYM.q_half(-1) + SYM.q_half(1)) * SYM.inv(SYM.q_power(1) - 1)
    assert x.evaluate(3) == Fraction(5, 12)
    rng = random.Random(99)
    for q in (2, 3, 5, 7):
        ring = QuadRing(q)
        for _ in range(25):
            x, y = (_random_ratfunc_safe_den(rng) for _ in range(2))
            ex, ey = evaluate_at_q(x, ring), evaluate_at_q(y, ring)
            assert evaluate_at_q(x * y, ring) == ex * ey
            assert evaluate_at_q(x + y, ring) == ex + ey
            assert evaluate_at_q(x - y, ring) == ex - ey


def test_symbolic_half_powers_multiply():
    s = SYM.q_half(1)
    assert s * s == SYM.q_power(1)
    assert SYM.q_half(-3) * SYM.q_half(3) == 1
    assert SYM.q_half(2) == poly({2: 1})


def test_monomials_whose_exponents_cancel_collapse_to_int():
    one = SYM.q_half(2) * SYM.q_half(-2)
    assert type(one) is int and one == 1
    half = (SYM.q_half(3) * Fraction(1, 2)) * (SYM.q_half(-3) * 3)
    assert type(half) is Fraction and half == Fraction(3, 2)
    whole = (SYM.q_half(1) * Fraction(1, 2)) * (SYM.q_half(-1) * 2)
    assert type(whole) is int and whole == 1


def test_symbolic_ring_memoises_by_m():
    ring = SymbolicRing()
    for m in (-3, 0, 1, 4):
        assert ring.q_half(m) is ring.q_half(m)
        assert ring.q_power(m) is ring.q_half(2 * m)
        assert ring.bracket(m) is ring.bracket(m)
    assert ring.q_half(2) == SYM.q_half(2) and ring.bracket(-2) == SYM.bracket(-2)


def _unit(m, c, i, j):
    """c s^m / ((s-1)^i (s+1)^j)."""
    return ratfunc_reduce({m: c}, terms_mul(_linear_power(1, i), _linear_power(-1, j)))


# ints and Fractions; +-c s^m, with Fraction c too; units over (s-1)^i (s+1)^j;
# brackets; and values whose sums are 0 or a constant: x and -x, x and 1 - x,
# numerators over one (b, c) that gain the root s = 1 when added, and
# Fraction coefficients whose sum or product is a whole number
_S = SYM.q_half(1)
_X = (SYM.q_power(1) + 2) * SYM.inv(SYM.q_power(1) - 1)
OPERAND_CORPUS = (
    0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4),
    _S, -SYM.q_half(2), SYM.q_half(-3), SYM.q_half(3) * Fraction(2, 3),
    SYM.q_half(-3) * Fraction(3, 2),
    _unit(0, 1, 1, 0), _unit(1, -1, 0, 1), _unit(-2, 3, 2, 1), _unit(1, Fraction(1, 2), 1, 1),
    SYM.bracket(2), SYM.bracket(3), SYM.bracket(-2), SYM.q_power(2) * SYM.bracket(2),
    _X, -_X, 1 - _X,
    _S * _unit(0, 1, 1, 0), _unit(0, -1, 1, 0), SYM.q_power(1) * _unit(0, 1, 1, 0),
    (_S + 1) * Fraction(1, 2), (1 - _S) * Fraction(1, 2), _unit(0, 2, 0, 1),
)


def _expanded(x):
    """(numerator, denominator) dicts of x, unreduced."""
    if isinstance(x, RatFunc):
        return dict(x.terms), x.denominator()
    return ({0: x} if x else {}), {0: 1}


def _same_scalar(got, want):
    assert type(got) is type(want), (got, want)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)


def test_products_sums_and_differences_match_reduction_of_the_expanded_form():
    """Every pair with a symbolic operand: x * y, x + y and x - y equal
    ratfunc_reduce of the expanded numerator and denominator, in type, ==,
    hash and str, so the skipped reductions change no value or text."""
    assert all(isinstance(x, RatFunc) for x in OPERAND_CORPUS[6:])
    assert any(x + y == 0 for x in OPERAND_CORPUS[6:] for y in OPERAND_CORPUS[6:])
    assert type(OPERAND_CORPUS[-6] + OPERAND_CORPUS[-5]) is int  # s/(s-1) - 1/(s-1)
    for x, y in itertools.product(OPERAND_CORPUS, repeat=2):
        if not (isinstance(x, RatFunc) or isinstance(y, RatFunc)):
            continue
        (n1, d1), (n2, d2) = _expanded(x), _expanded(y)
        den = terms_mul(d1, d2)
        _same_scalar(x * y, ratfunc_reduce(terms_mul(n1, n2), den))
        _same_scalar(x + y, ratfunc_reduce(terms_add(terms_mul(n1, d2), terms_mul(n2, d1)), den))
        minus_n2 = {e: -c for e, c in n2.items()}
        _same_scalar(x - y, ratfunc_reduce(terms_add(terms_mul(n1, d2), terms_mul(minus_n2, d1)), den))


def _dict_element(rng):
    """(num, b, c) of a random element, not reduced: a Laurent numerator with
    negative exponents and negative (sometimes Fraction) coefficients, times
    (s-1)^i (s+1)^j, over (s-1)^b (s+1)^c."""
    num = {rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.25:
        num = {e: Fraction(v, rng.choice((2, 3, 4, 6))) for e, v in num.items()}
    return terms_lift(num, rng.randint(0, 3), rng.randint(0, 3)), rng.randint(0, 3), rng.randint(0, 3)


def _dict_unit(rng):
    """(c, m, i, j, b, d) of a random unit c s^m (s-1)^i (s+1)^j / ((s-1)^b (s+1)^d)."""
    return (rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))), rng.randint(-3, 3),
            *(rng.randint(0, 2) for _ in range(4)))


def _agrees(got, want):
    """A scalar of the packed arithmetic against its DictRatFunc oracle value."""
    if isinstance(want, DictRatFunc):
        assert type(got) is RatFunc, (got, want.terms)
        assert (got.terms, got.b, got.c) == (want.terms, want.b, want.c)
        assert all(type(v) in (int, Fraction) for v in got.terms.values())
    else:
        assert type(got) is type(want) and got == want, (got, want)


def test_packed_arithmetic_matches_the_dict_oracle():
    """Seeded random operands, packed RatFunc against DictRatFunc: +, -, *,
    negation and division by units, with int and Fraction operands on either
    side; constant results collapse to the same int or Fraction; == agrees,
    equal values hash equal, and terms round-trip through ratfunc_reduce."""
    rng = random.Random(20261020)
    extra = terms_mul({1: 2}, terms_lift(ONE, 1, 2))  # a common factor 2 s (s-1) (s+1)^2
    constants = (0, 1, -3, 7, Fraction(1, 2), Fraction(-5, 3))
    for _ in range(300):
        (n1, b1, c1), (n2, b2, c2) = _dict_element(rng), _dict_element(rng)
        x, y = ratfunc_reduce(n1, terms_lift(ONE, b1, c1)), ratfunc_reduce(n2, terms_lift(ONE, b2, c2))
        ox, oy = DictRatFunc(n1, b1, c1).scalar(), DictRatFunc(n2, b2, c2).scalar()
        _agrees(x, ox)
        _agrees(y, oy)
        coeff, m, i, j, bu, cu = _dict_unit(rng)
        u = ratfunc_reduce(terms_lift({m: coeff}, i, j), terms_lift(ONE, bu, cu))
        ou_inv = DictRatFunc(terms_lift({-m: 1 / Fraction(coeff)}, bu, cu), i, j).scalar()
        k = rng.choice(constants)
        if isinstance(x, RatFunc) or isinstance(u, RatFunc):  # int / int is a float
            _agrees(x / u, DictRatFunc.of(ox) * ou_inv)
        if isinstance(u, RatFunc):
            _agrees(k / u, DictRatFunc.of(k) * ou_inv)
        if isinstance(x, RatFunc) or isinstance(y, RatFunc):
            _agrees(x + y, ox + oy)
            _agrees(x - y, ox - oy)
            _agrees(x * y, ox * oy)
        if isinstance(x, RatFunc):
            _agrees(-x, -ox)
            _agrees(x + k, ox + k)
            _agrees(k - x, k - ox)
            _agrees(x * k, ox * k)
            _agrees(k * x, k * ox)
            _agrees(x - x, 0)
            _agrees(x + (k - x), DictRatFunc.of(k).scalar())
        assert (x == y) == (ox == oy)
        twin = ratfunc_reduce(terms_mul(n1, extra), terms_mul(terms_lift(ONE, b1, c1), extra))
        assert twin == x and hash(twin) == hash(x)
        if isinstance(x, RatFunc):
            back = ratfunc_reduce(x.terms, x.denominator())
            assert back == x and hash(back) == hash(x)


def test_a_numerator_whose_coefficient_norm_reaches_2_63_raises():
    """(1 + s)**62 has coefficient norm 2**62 and is exact; every operation
    whose true result reaches norm 2**63 raises ArithmeticError."""
    s = SYM.q_half(1)
    x = 1 + s
    for _ in range(61):
        x = x * (1 + s)
    assert x.terms == {e: math.comb(62, e) for e in range(63)} and x.h < 2 ** 63
    for overflow in (lambda: x * (1 + s), lambda: x + x, lambda: x - (-x), lambda: 2 * x,
                     lambda: x * Fraction(3, 2), lambda: s + 2 ** 63,
                     lambda: ratfunc_reduce({0: 2 ** 62, 1: -2 ** 62}, ONE)):
        with pytest.raises(ArithmeticError):
            overflow()
    assert (x + SYM.q_half(70)).terms[70] == 1  # norm 2**62 + 1 is within the limit


def test_an_inflated_bound_is_tightened_and_stays_exact(monkeypatch):
    """Repeated * (q - 1) and / (q - 1) multiplies the carried bound at every
    step while the value comes back each round; the bound is replaced by the
    exact norm from the digits, the value stays equal to the oracle's, and
    no bound reaches 2**63.  So is the bound of a long quotient."""
    tightened = []
    norm = rings._norm
    monkeypatch.setattr(rings, "_norm", lambda v: tightened.append(v) or norm(v))
    q = SYM.q_power(1)
    num = {5: 3, 2: -1, 0: 2, -3: Fraction(-7, 2)}
    start = ratfunc_reduce(num, terms_lift(ONE, 1, 0))
    want = DictRatFunc(num, 1, 0)
    oracle_q1 = DictRatFunc({2: 1, 0: -1})
    x = start
    for _ in range(40):
        x = x * (q - 1)
        want = want * oracle_q1
        _agrees(x, want)
        x = x / (q - 1)
        want = DictRatFunc(want.terms, want.b + 1, want.c + 1)
        _agrees(x, want)
        assert x.h < 2 ** 63
    assert x == start and tightened
    # a quotient by s - 1 whose bound deg(P) h/2 passes 2**63 while its norm is 2**57
    wide = ratfunc_reduce(terms_mul({0: 2 ** 56, 99: 2 ** 56}, {1: 1, 0: -1}), terms_lift(ONE, 1, 0))
    assert wide.terms == {0: 2 ** 56, 99: 2 ** 56} and wide.h == 2 ** 57


# ---------------------------------------------------------------------------
# q-integers and Gaussian binomials
# ---------------------------------------------------------------------------

def test_q_bracket_examples():
    assert R2.bracket(0) == 0
    assert R2.bracket(3) == 7
    assert SYM.bracket(2) == poly({0: 1, 2: 1})


def test_q_bracket_recurrence_both_rings():
    for ring in (R2, QuadRing(3), SYM):
        q = ring.q_power(1)
        for m in range(0, 9):
            assert ring.bracket(m + 1) == q * ring.bracket(m) + 1


def test_q_bracket_negative():
    # [-1] = -1/q
    assert R2.bracket(-1) == Fraction(-1, 2)
    assert SYM.bracket(-1) == poly({-2: -1})
    for ring in (R2, SYM):
        q = ring.q_power(1)
        for m in range(-5, 0):
            assert ring.bracket(m + 1) == q * ring.bracket(m) + 1


def _span(vectors, q, n):
    """All linear combinations of the given vectors (frozenset oracle)."""
    out = {(0,) * n}
    for v in vectors:
        new = set()
        for c in range(q):
            scaled = tuple((c * x) % q for x in v)
            for u in out:
                new.add(tuple((a + b) % q for a, b in zip(u, scaled)))
        out = new
    return frozenset(out)


def brute_force_subspace_count(n, k, q):
    """Count k-dim subspaces by deduplicating spans of k-subsets of vectors."""
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    spans = set()
    for combo in itertools.combinations(vectors, k) if k else [()]:
        sp = _span(combo, q, n)
        if len(sp) == q ** k:
            spans.add(sp)
    return len(spans)


def test_gaussian_binomial_against_enumeration_oracle():
    assert gaussian_binomial(3, 1, 2) == brute_force_subspace_count(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 2) == brute_force_subspace_count(4, 2, 2) == 35
    assert gaussian_binomial(2, 1, 3) == brute_force_subspace_count(2, 1, 3) == 4


def test_gaussian_binomial_edges_and_symmetry():
    for n in range(0, 7):
        assert gaussian_binomial(n, 0, 2) == 1
    assert gaussian_binomial(4, -1, 2) == 0
    assert gaussian_binomial(4, 5, 2) == 0
    for q in (2, 3, 5, 7):
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
