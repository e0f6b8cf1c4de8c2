"""Exact arithmetic kernels: rationals, univariate polynomials in a local
parameter, exponent vectors, and sparse multivariate polynomials over ZZ.

Representations
---------------
* ``UniPoly`` maps exponent (int >= 0) to a nonzero Fraction or int; ``{}``
  is the zero polynomial.  Curves keep int coefficients as ints and parse
  any other into a Fraction; the blow-up engine and the jet rows run on
  the integer multiples that ``up_integral`` clears them to.
* ``ExpVec`` is a tuple of ints, one entry per curve branch.
* ``MultiPoly`` maps ExpVec to a nonzero int; ``{}`` is zero.  The one
  division the package needs is by a binomial 1 - t^m (the Eisenbud-Neumann
  product, and P' by t_1*...*t_r - 1): ``mp_div_one_minus`` takes it in one
  pass, as a running sum along the lines of direction m.

Zero coefficients are never stored, so dict equality is polynomial equality.
Orders of vanishing use ``math.inf`` for identically-zero series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add

INF = math.inf

UniPoly = dict  # exponent -> Fraction or int
ExpVec = tuple  # of ints
MultiPoly = dict  # ExpVec -> int


class NotDivisibleError(ArithmeticError):
    """Raised when an exact multivariate division leaves a remainder."""

    code = "NotDivisible"


class DimensionError(ValueError):
    """Raised when exponent vectors of different lengths are combined."""

    code = "DimensionMismatch"


# ---------------------------------------------------------------------------
# univariate polynomials over Fraction or int
# ---------------------------------------------------------------------------

def up_normal(terms) -> UniPoly:
    """Canonical UniPoly from any {exponent: coefficient} mapping; int and
    Fraction coefficients are kept, any other becomes a Fraction."""
    out = {}
    for e, c in terms.items():
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        if c:
            if e < 0:
                raise ValueError("negative exponent in polynomial: %r" % (e,))
            out[int(e)] = c
    return out


def up_integral(polys):
    """The least d > 0 with every d * p integral, and those d * p (int
    coefficients)."""
    d = math.lcm(*(c.denominator for p in polys for c in p.values()))
    return d, [{e: c.numerator * (d // c.denominator) for e, c in p.items()}
               for p in polys]


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


def iter_box(lo: ExpVec, hi: ExpVec):
    """All lattice points v with lo <= v <= hi, in lexicographic order."""
    return product(*(range(a, b + 1) for a, b in zip(lo, hi)))


# ---------------------------------------------------------------------------
# sparse multivariate polynomials over the integers
# ---------------------------------------------------------------------------

def mp_rank(p: MultiPoly):
    """Number of variables of a polynomial, or None for the zero polynomial."""
    for e in p:
        return len(e)
    return None


def _check_rank(a: MultiPoly, b: MultiPoly) -> None:
    ra, rb = mp_rank(a), mp_rank(b)
    if ra is not None and rb is not None and ra != rb:
        raise DimensionError("mixed %d- and %d-variable polynomials" % (ra, rb))


def mp_mul_one_minus(p: MultiPoly, m: ExpVec, e: int = 1) -> MultiPoly:
    """The product p * (1 - t^m)^e for a power e >= 0, by the binomial
    theorem: p once, then for k = 1, ..., e one pass over p, each term
    shifted by k m and scaled by (-1)^k C(e, k).  No partial product is
    formed, so every pass reads only the terms of p."""
    out = dict(p)
    s, c = m, 1
    for k in range(1, e + 1):
        c = -c * (e - k + 1) // k
        for v, x in p.items():
            v = tuple(map(add, v, s))
            out[v] = out.get(v, 0) + c * x
        s = tuple(map(add, s, m))
    return {v: x for v, x in out.items() if x}


def mp_div_one_minus(p: MultiPoly, m: ExpVec) -> MultiPoly:
    """Exact quotient p / (1 - t^m) for an exponent m >= 0, m != 0, in one
    pass over p.

    The quotient q satisfies q(v) - q(v - m) = p(v), so it splits along the
    lines b + N*m, each with its base point b, the one point of the line not
    dominated by m: on each line q is the running sum of p from b.  q is a
    polynomial iff p sums to 0 along every line.  If not, NotDivisibleError
    names the lexicographically largest base point with a nonzero line sum,
    the term where long division by the leading term t^m stops, and the
    divisor 1 - t^m.
    """
    steps = [i for i, x in enumerate(m) if x]
    if not steps:
        raise ZeroDivisionError("division by the zero polynomial")
    _check_rank(p, {m: 1})
    lines = {}  # base point -> {position k on the line: coefficient}
    for e, c in p.items():
        k = min(e[i] // m[i] for i in steps)
        base = tuple(x - k * y for x, y in zip(e, m)) if k else e
        lines.setdefault(base, {})[k] = c
    rest = [b for b, line in lines.items() if sum(line.values())]
    if rest:
        raise NotDivisibleError(
            "remainder with leading term %r while dividing by 1 - t^%r"
            % (max(rest), m))
    q = {}
    for v, line in lines.items():
        s = 0
        for k in range(max(line)):
            s += line.get(k, 0)
            if s:
                q[v] = s
            v = tuple(map(add, v, m))
    return q
