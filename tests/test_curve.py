import random
from fractions import Fraction

import pytest

from curvealex.curve import (
    BranchParam,
    Curve,
    NonPrimitiveError,
    OrderZeroError,
    ZeroBranchError,
    validate_curve,
)
from curvealex.exactmath import INF, up_mul

from corpus import (
    germ_valuation,
    make_cusp,
    make_node,
    monomial_jet,
    monomial_order,
)


def test_validate_accepts_cusp():
    validate_curve(Curve([({2: 1}, {3: 1})]))


def test_validate_rejects_nonprimitive():
    with pytest.raises(NonPrimitiveError):
        validate_curve(Curve([({2: 1}, {4: 1})]))


def test_validate_rejects_an_x_axis_cover_of_gcd_one():
    with pytest.raises(NonPrimitiveError,
                       match="^branch 1 is a 3-fold cover of the x axis$"):
        validate_curve(Curve([({3: 1, 4: 2}, {})]))


def test_validate_keeps_the_support_gcd_message_on_an_axis():
    with pytest.raises(NonPrimitiveError,
                       match="^branch 1 factors through tau\\^2$"):
        validate_curve(Curve([({}, {2: 1, 4: 1})]))


def test_validate_rejects_missing_origin():
    with pytest.raises(OrderZeroError):
        validate_curve(Curve([({0: 1, 1: 1}, {1: 1})]))


def test_validate_rejects_zero_branch():
    with pytest.raises(ZeroBranchError):
        validate_curve(Curve([({}, {})]))


def test_germ_valuation_of_y_on_cusp():
    b = BranchParam({2: 1}, {3: 1})
    assert germ_valuation({(0, 1): 1}, b) == (3, 1)


def test_germ_valuation_of_defining_equation_is_infinite():
    b = BranchParam({2: 1}, {3: 1})
    g = {(0, 2): 1, (3, 0): -1}  # y^2 - x^3 vanishes along the branch
    assert germ_valuation(g, b) == (INF, None)


def test_germ_valuation_orders_add():
    b = BranchParam({2: 1}, {3: 1})
    assert germ_valuation({(1, 1): 1}, b) == (5, 1)


def test_monomial_jet_node_x():
    c = make_node()
    assert monomial_jet(c, 1, 0, (2, 2)) == [0, 1, 0, 0]


def test_monomial_jet_constant_is_all_ones():
    c = make_node()
    assert monomial_jet(c, 0, 0, (1, 1)) == [1, 1]


def test_monomial_jet_cusp_y():
    c = make_cusp()
    assert monomial_jet(c, 0, 1, (5,)) == [0, 0, 0, 1, 0]


def _random_germ(rng):
    g = {}
    for _ in range(rng.randint(1, 5)):
        key = (rng.randint(0, 3), rng.randint(0, 3))
        c = Fraction(rng.randint(-3, 3))
        if c:
            g[key] = g.get(key, 0) + c
    return {k: v for k, v in g.items() if v}


def _germ_mul(g, h):
    out = {}
    for (a1, b1), c1 in g.items():
        for (a2, b2), c2 in h.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def test_valuation_multiplicative_on_random_germs():
    rng = random.Random(23)
    branch = BranchParam({2: 1}, {3: 1, 4: 2})
    for _ in range(100):
        g = _random_germ(rng)
        h = _random_germ(rng)
        vg, ag = germ_valuation(g, branch)
        vh, ah = germ_valuation(h, branch)
        vgh, agh = germ_valuation(_germ_mul(g, h), branch)
        assert vgh == vg + vh
        if ag is not None and ah is not None:
            assert agh == ag * ah


def test_monomial_order_matches_computed_jet_order():
    rng = random.Random(29)
    c = Curve([({2: 1}, {3: 1, 4: 2}), ({1: 1}, {}), ({}, {2: 1, 3: 1})])
    w = (9, 9, 9)
    for _ in range(60):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        orders = monomial_order(c, a, b)
        jet = monomial_jet(c, a, b, w)
        offset = 0
        for i, br in enumerate(c.branches):
            chunk = jet[offset:offset + w[i]]
            nonzero = [k for k, x in enumerate(chunk) if x]
            expected = orders[i]
            if expected < w[i]:
                assert nonzero and nonzero[0] == expected
            else:
                assert not nonzero
            offset += w[i]


def test_monomial_jet_multiplies_like_truncated_products():
    rng = random.Random(31)
    c = Curve([({2: 1}, {3: 1, 5: -1}), ({1: 1}, {2: 1})])
    w = (8, 8)
    for _ in range(40):
        a1, b1 = rng.randint(0, 2), rng.randint(0, 2)
        a2, b2 = rng.randint(0, 2), rng.randint(0, 2)
        j = monomial_jet(c, a1 + a2, b1 + b2, w)
        offset = 0
        for i, br in enumerate(c.branches):
            p1 = {k: v for k, v in enumerate(
                monomial_jet(c, a1, b1, w)[offset:offset + w[i]]) if v}
            p2 = {k: v for k, v in enumerate(
                monomial_jet(c, a2, b2, w)[offset:offset + w[i]]) if v}
            prod = up_mul(p1, p2)
            chunk = j[offset:offset + w[i]]
            assert all(prod.get(k, 0) == chunk[k] for k in range(w[i]))
            offset += w[i]
