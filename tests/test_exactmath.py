import random
from fractions import Fraction

import pytest

from curvealex.exactmath import (
    INF,
    DimensionError,
    NotDivisibleError,
    mp_div_one_minus,
    mp_mul_one_minus,
    ord_lead,
    up_mul,
    up_normal,
)

from corpus import mp_exact_div, mp_mul, mp_one_minus


def test_ord_lead_reads_smallest_exponent():
    assert ord_lead({3: Fraction(1), 5: Fraction(2)}) == (3, 1)


def test_ord_lead_zero_polynomial_is_infinite():
    assert ord_lead({}) == (INF, None)


def test_ord_lead_orders_add_under_multiplication():
    p = up_mul({2: Fraction(1)}, {3: Fraction(1)})
    assert ord_lead(p) == (5, 1)


def test_mp_mul_difference_of_squares():
    a = {(0, 0): 1, (1, 1): -1}
    b = {(0, 0): 1, (1, 1): 1}
    assert mp_mul(a, b) == {(0, 0): 1, (2, 2): -1}


def test_mp_mul_identity():
    a = {(2, 0): 3, (0, 1): -1}
    assert mp_mul(a, {(0, 0): 1}) == a


def test_mp_mul_univariate_embedding():
    a = {(0,): 1, (1,): -1}
    b = {(0,): 1, (1,): 1, (2,): 1}
    assert mp_mul(a, b) == {(0,): 1, (3,): -1}


def test_mp_mul_rejects_mixed_arity():
    with pytest.raises(DimensionError):
        mp_mul({(1,): 1}, {(1, 0): 1})


def test_mp_exact_div_difference_of_squares():
    num = {(0, 0): 1, (2, 2): -1}
    den = {(0, 0): 1, (1, 1): -1}
    assert mp_exact_div(num, den) == {(0, 0): 1, (1, 1): 1}


def test_mp_exact_div_sign_flip():
    num = {(0, 0): 1, (1, 1): -1}
    den = {(1, 1): 1, (0, 0): -1}
    assert mp_exact_div(num, den) == {(0, 0): -1}


def test_mp_exact_div_nonzero_remainder_raises():
    with pytest.raises(NotDivisibleError):
        mp_exact_div({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): -1})


def _random_unipoly(rng, nonzero=False):
    terms = {e: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for e in rng.sample(range(7), rng.randint(0, 5))}
    p = up_normal(terms)
    if nonzero and not p:
        p = {rng.randint(0, 6): Fraction(1)}
    return p


def _random_multipoly(rng, r, nonzero=False):
    p = {}
    for _ in range(rng.randint(0, 5)):
        e = tuple(rng.randint(0, 3) for _ in range(r))
        c = rng.randint(-5, 5)
        if c:
            p[e] = p.get(e, 0) + c
    p = {e: c for e, c in p.items() if c}
    if nonzero and not p:
        p = {tuple(rng.randint(0, 3) for _ in range(r)): 1}
    return p


def test_ord_lead_multiplicative_on_random_polynomials():
    rng = random.Random(7)
    for _ in range(200):
        p = _random_unipoly(rng)
        q = _random_unipoly(rng)
        op, lp = ord_lead(p)
        oq, lq = ord_lead(q)
        opq, lpq = ord_lead(up_mul(p, q))
        assert opq == op + oq
        if lp is not None and lq is not None:
            assert lpq == lp * lq


def test_exact_division_round_trip_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.choice([1, 2, 3])
        a = _random_multipoly(rng, r)
        b = _random_multipoly(rng, r, nonzero=True)
        assert mp_exact_div(mp_mul(a, b), b) == a


def test_product_by_one_minus_matches_the_generic_product():
    # m may have zero entries, and p - t^m p may cancel terms of p
    rng = random.Random(23)
    for _ in range(400):
        r = rng.choice([1, 2, 3])
        m = tuple(rng.randint(0, 2) for _ in range(r))
        if not any(m):
            m = (1,) + m[1:]
        p = _random_multipoly(rng, r)
        assert mp_mul_one_minus(p, m) == mp_mul(p, mp_one_minus(m))


def test_power_of_one_minus_matches_the_repeated_generic_product():
    # one call for (1 - t^m)^e against e products by 1 - t^m, e = 0 ... 6
    rng = random.Random(29)
    for _ in range(200):
        r = rng.choice([1, 2, 3])
        m = tuple(rng.randint(0, 2) for _ in range(r))
        if not any(m):
            m = (1,) + m[1:]
        p = _random_multipoly(rng, r)
        product = p
        for e in range(7):
            assert mp_mul_one_minus(p, m, e) == product
            product = mp_mul(product, mp_one_minus(m))


def _quotient_or_message(divide, *args):
    try:
        return divide(*args)
    except NotDivisibleError as exc:
        return str(exc)


def test_division_by_one_minus_matches_long_division():
    # random multiples of 1 - t^m, and the same plus one more term, which
    # breaks the divisibility of the line through that term
    rng = random.Random(17)
    for _ in range(400):
        r = rng.choice([1, 2, 3])
        m = tuple(rng.randint(1, 3) for _ in range(r))
        q = _random_multipoly(rng, r)
        p = mp_mul(q, mp_one_minus(m))
        spoiled = rng.random() < 0.5
        if spoiled:
            e = tuple(rng.randint(0, 6) for _ in range(r))
            p[e] = p.get(e, 0) + rng.choice([-2, -1, 1, 2])
            p = {e: c for e, c in p.items() if c}
        got = _quotient_or_message(mp_div_one_minus, p, m)
        want = _quotient_or_message(mp_exact_div, p, mp_one_minus(m))
        if isinstance(want, str):
            # the one-pass division names its divisor too
            want += " by 1 - t^%r" % (m,)
        assert got == want
        assert isinstance(got, str) if spoiled else got == q


def test_division_by_one_minus_along_an_axis():
    # m = (0, 1): the lines are the columns {a} x N, with base points (a, 0)
    p = {(0, 0): 1, (1, 0): 1}
    for divide, den in ((mp_div_one_minus, (0, 1)),
                        (mp_exact_div, mp_one_minus((0, 1)))):
        with pytest.raises(NotDivisibleError, match=r"term \(1, 0\) while"):
            divide(p, den)
    assert mp_div_one_minus({(2, 0): 3, (2, 2): -3}, (0, 1)) == {
        (2, 0): 3, (2, 1): 3}


def test_division_by_one_minus_rejects_the_zero_exponent():
    with pytest.raises(ZeroDivisionError):
        mp_div_one_minus({(0, 0): 1}, (0, 0))
