"""Acceptance gate: every check is an exact identity on integers and
rationals (tolerance zero).  Each test prints one PASS line when its
criterion holds (run with ``pytest -s`` to see them).

One corpus datum needs care: the pair {(t^2, t^3), (t^2, -t^3)} labelled
"two tangent cusps".  The second parametrization is the first one
reparametrized by t -> -t, so both describe the single cuspidal cubic
y^2 = x^3 and the pair is a non-reduced curve; the resolver rejects it by
design (residents that never separate).  The identity for that literal
datum is therefore recorded as a strict xfail, and the honest pair of
distinct tangent cusps y^2 = x^3, y^2 = -x^3 (branches (t^2, t^3) and
(-t^2, t^3)) carries the criterion instead.
"""

import time

import pytest

from curvealex.cli import format_poly, printed_series
from curvealex.exactmath import iter_box
from curvealex.filtration import Analysis, JetMatrix
from curvealex.resolution import (
    BudgetExceededError,
    en_alexander,
    resolve,
)

from corpus import (
    CORPUS_MULTI,
    c_dim,
    fiber_euler,
    filled,
    free_blowups,
    germ_valuation,
    is_member,
    make_cusp,
    make_quartic_branch,
    make_tangent_cusps_duplicate,
    mp_exact_div,
    mp_mul,
    semigroup_closure,
    verify_semigroup_properties,
)

MULTI = sorted(CORPUS_MULTI)


def _report(criterion, label, ok):
    print("%s %s [%s]" % ("PASS" if ok else "FAIL", criterion, label))
    assert ok, "%s failed for %s" % (criterion, label)


@pytest.mark.parametrize("name", MULTI)
def test_criterion_01_poincare_equals_alexander(name):
    start = time.monotonic()
    c = CORPUS_MULTI[name]()
    lhs = format_poly(Analysis(c).poincare)
    rhs = format_poly(en_alexander(resolve(c)))
    elapsed = time.monotonic() - start
    _report("criterion-1 poincare-equals-alexander-bytes", name,
            lhs == rhs and elapsed < 10.0)


@pytest.mark.xfail(raises=BudgetExceededError, strict=True,
                   reason="(t^2, -t^3) parametrizes the same branch as "
                          "(t^2, t^3); the input is non-reduced and the "
                          "resolver rejects it, so the identity cannot be "
                          "evaluated on this datum")
def test_criterion_01_identity_on_the_duplicate_cusp_datum():
    c = make_tangent_cusps_duplicate()
    assert Analysis(c).poincare == en_alexander(resolve(c))


@pytest.mark.parametrize("name", MULTI)
def test_criterion_02_fiber_series_equals_alexander(name):
    c = CORPUS_MULTI[name]()
    _report("criterion-2 fiber-series-equals-alexander", name,
            Analysis(c).fiber_series == en_alexander(resolve(c)))


def test_criterion_02_spot_values():
    node = CORPUS_MULTI["node"]()
    M = filled(Analysis(node))
    ok = fiber_euler(M, (1, 1)) == 0
    three = CORPUS_MULTI["three-lines"]()
    M3 = filled(Analysis(three))
    ok = ok and fiber_euler(M3, (1, 1, 1)) == -1
    _report("criterion-2 spot-values", "node,three-lines", ok)


@pytest.mark.parametrize("name", MULTI + ["cusp"])
def test_criterion_03_fiber_product_identity(name):
    c = make_cusp() if name == "cusp" else CORPUS_MULTI[name]()
    r = c.r
    a = Analysis(c)
    # P' = (t_1...t_r - 1) Delta, and P' = -Delta for one branch
    divisor = {(1,) * r: 1, (0,) * r: -1} if r > 1 else {(0,): -1}
    _report("criterion-3 fiber-product-identity", name,
            mp_mul(a.fiber_series, divisor) == a.pprime)


@pytest.mark.parametrize("name", MULTI)
def test_criterion_04_exact_divisibility(name):
    from curvealex.exactmath import NotDivisibleError

    c = CORPUS_MULTI[name]()
    try:
        mp_exact_div(Analysis(c).pprime, {(1,) * c.r: 1, (0,) * c.r: -1})
        ok = True
    except NotDivisibleError:
        ok = False
    _report("criterion-4 exact-divisibility", name, ok)


def test_criterion_05_r1_convention_through_degree_20():
    c = make_cusp()
    members = semigroup_closure([2, 3], 20)
    expected = {(v,): 1 for v in members}
    delta = en_alexander(resolve(c))
    poincare = Analysis(c).poincare
    ok = delta == poincare == {(0,): 1, (1,): -1, (2,): 1}
    alex, poincare = (printed_series(p, 20) for p in (delta, poincare))
    _report("criterion-5 one-branch-zeta-convention", "cusp",
            ok and alex == poincare == expected)


@pytest.mark.parametrize("name", MULTI + ["cusp"])
def test_criterion_06_resolution_invariance(name):
    c = make_cusp() if name == "cusp" else CORPUS_MULTI[name]()
    base = en_alexander(resolve(c))
    forced = en_alexander(free_blowups(resolve(c), 3))
    _report("criterion-6 resolution-invariance", name, base == forced)


@pytest.mark.parametrize("name", MULTI + ["cusp"])
def test_criterion_07_window_stability(name):
    c = make_cusp() if name == "cusp" else CORPUS_MULTI[name]()
    delta = Analysis(c).conductor
    small = JetMatrix(c, tuple(d + 2 for d in delta))
    large = JetMatrix(c, tuple(d + 4 for d in delta))
    ok = all(c_dim(small, v) == c_dim(large, v)
             for v in iter_box((0,) * c.r, delta))
    _report("criterion-7 window-stability", name, ok)


@pytest.mark.parametrize("name", MULTI)
def test_criterion_08_conductor_vanishing(name):
    c = CORPUS_MULTI[name]()
    delta = Analysis(c).conductor
    M = JetMatrix(c, tuple(d + 4 for d in delta))
    ok = all(fiber_euler(M, v) == 0
             for v in iter_box(delta, tuple(d + 2 for d in delta)))
    _report("criterion-8 conductor-vanishing", name, ok)


@pytest.mark.parametrize("make,gens", [(make_cusp, [2, 3]),
                                       (make_quartic_branch, [4, 6, 13])])
def test_criterion_09_semigroup_checks(make, gens):
    c = make()
    # oracle for the generator list: direct valuations of x, y, y^2 - x^3
    b = c.branches[0]
    vals = [germ_valuation({(1, 0): 1}, b)[0],
            germ_valuation({(0, 1): 1}, b)[0]]
    if len(gens) == 3:
        vals.append(germ_valuation({(0, 2): 1, (3, 0): -1}, b)[0])
    rep = verify_semigroup_properties(c)
    ok = (rep.all_passed()
          and len(rep.checks) == 4
          and rep.generators == gens == sorted(vals))
    _report("criterion-9 semigroup-structure", "gens=%r" % (gens,), ok)


@pytest.mark.parametrize("name", MULTI)
def test_criterion_10_support_containment(name):
    c = CORPUS_MULTI[name]()
    M = filled(Analysis(c))
    poly = en_alexander(resolve(c))
    ok = all(is_member(M, v) for v in poly)
    _report("criterion-10 support-in-semigroup", name, ok)
