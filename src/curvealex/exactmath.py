"""Exact arithmetic kernels: rationals, univariate polynomials in a local
parameter, exponent vectors, and sparse multivariate polynomials over ZZ.

Representations
---------------
* ``UniPoly`` maps exponent (int >= 0) to a nonzero Fraction; ``{}`` is the
  zero polynomial.
* ``ExpVec`` is a tuple of ints, one entry per curve branch.
* ``MultiPoly`` maps ExpVec to a nonzero int; ``{}`` is zero.

Zero coefficients are never stored, so dict equality is polynomial equality.
Orders of vanishing use ``math.inf`` for identically-zero series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

INF = math.inf

UniPoly = dict  # exponent -> Fraction
ExpVec = tuple  # of ints
MultiPoly = dict  # ExpVec -> int


class NotDivisibleError(ArithmeticError):
    """Raised when an exact multivariate division leaves a remainder."""

    code = "NotDivisible"


class DimensionError(ValueError):
    """Raised when exponent vectors of different lengths are combined."""

    code = "DimensionMismatch"


# ---------------------------------------------------------------------------
# univariate polynomials over Fraction
# ---------------------------------------------------------------------------

def up_normal(terms) -> UniPoly:
    """Canonical UniPoly from any {exponent: coefficient} mapping."""
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        if c:
            if e < 0:
                raise ValueError("negative exponent in polynomial: %r" % (e,))
            out[int(e)] = c
    return out


def up_add(p: UniPoly, q: UniPoly) -> UniPoly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def up_scale(p: UniPoly, c) -> UniPoly:
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def up_sub(p: UniPoly, q: UniPoly) -> UniPoly:
    return up_add(p, up_scale(q, -1))


def up_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def up_mul_trunc(p: UniPoly, q: UniPoly, n: int) -> UniPoly:
    """Product with every term of exponent >= n dropped."""
    out = {}
    for e1, c1 in p.items():
        if e1 >= n:
            continue
        for e2, c2 in q.items():
            e = e1 + e2
            if e >= n:
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def up_shift_down(p: UniPoly, k: int) -> UniPoly:
    """Exact division by tau**k; requires order(p) >= k."""
    if any(e < k for e in p):
        raise ValueError("polynomial not divisible by tau^%d" % k)
    return {e - k: c for e, c in p.items()}


def ord_lead(p: UniPoly):
    """Order and leading coefficient of a polynomial in the local parameter.

    Returns ``(order, lead)``; the zero polynomial yields ``(INF, None)``.
    """
    if not p:
        return INF, None
    e = min(p)
    return e, p[e]


# ---------------------------------------------------------------------------
# exponent vectors
# ---------------------------------------------------------------------------

def vec_add(u: ExpVec, v: ExpVec) -> ExpVec:
    return tuple(a + b for a, b in zip(u, v))


def vec_leq(u: ExpVec, v: ExpVec) -> bool:
    """Componentwise partial order: u <= v iff u_i <= v_i for all i."""
    return all(a <= b for a, b in zip(u, v))


def vec_clamp(v: ExpVec, hi: ExpVec) -> ExpVec:
    """Clamp each component into [0, hi_i]."""
    return tuple(min(max(a, 0), h) for a, h in zip(v, hi))


def iter_box(lo: ExpVec, hi: ExpVec):
    """All lattice points v with lo <= v <= hi, in lexicographic order."""
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over the integers
# ---------------------------------------------------------------------------

def mp_const(r: int, c: int) -> MultiPoly:
    return {(0,) * r: c} if c else {}


def mp_rank(p: MultiPoly):
    """Number of variables of a polynomial, or None for the zero polynomial."""
    for e in p:
        return len(e)
    return None


def _check_rank(a: MultiPoly, b: MultiPoly) -> None:
    ra, rb = mp_rank(a), mp_rank(b)
    if ra is not None and rb is not None and ra != rb:
        raise DimensionError("mixed %d- and %d-variable polynomials" % (ra, rb))


def mp_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    _check_rank(a, b)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def mp_one_minus(m: ExpVec) -> MultiPoly:
    """The binomial 1 - t^m."""
    return {(0,) * len(m): 1, tuple(m): -1}


def mp_exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact quotient num / den, dividing leading terms in lexicographic
    order.  Raises NotDivisibleError as soon as the division cannot continue
    (non-dominated leading exponent, fractional coefficient, or a leftover
    remainder would arise).
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    _check_rank(num, den)
    lead_e = max(den)
    lead_c = den[lead_e]
    rem = dict(num)
    quo = {}
    while rem:
        e = max(rem)
        c = rem[e]
        diff = tuple(x - y for x, y in zip(e, lead_e))
        if any(d < 0 for d in diff) or c % lead_c:
            raise NotDivisibleError(
                "remainder with leading term %r while dividing" % (e,))
        k = c // lead_c
        quo[diff] = k
        for de, dc in den.items():
            key = tuple(x + y for x, y in zip(diff, de))
            s = rem.get(key, 0) - k * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quo


def _trunc_mul(a: MultiPoly, b: MultiPoly, bound: int) -> MultiPoly:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if any(x > bound for x in e):
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def expand_truncated(r: int, factors_num, factors_den, bound: int) -> MultiPoly:
    """Power-series expansion of prod (1-t^m)^mult / prod (1-t^m)^mult.

    Every factor exponent vector must be positive in at least one component
    (so each geometric series converges t-adically); terms with any exponent
    exceeding ``bound`` are dropped.
    """
    for m, mult in list(factors_num) + list(factors_den):
        if len(m) != r:
            raise DimensionError("factor %r is not %d-variate" % (m, r))
        if mult <= 0:
            raise ValueError("factor multiplicities must be positive")
        if not any(x > 0 for x in m):
            raise ValueError("factor exponent %r has no positive component" % (m,))
    series = mp_const(r, 1)
    for m, mult in factors_num:
        binom = mp_one_minus(m)
        for _ in range(mult):
            series = _trunc_mul(series, binom, bound)
    for m, mult in factors_den:
        kmax = min(bound // x for x in m if x > 0)
        geom = {tuple(k * x for x in m): 1 for k in range(kmax + 1)}
        for _ in range(mult):
            series = _trunc_mul(series, geom, bound)
    return series
