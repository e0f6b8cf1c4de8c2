"""Plane curve germs presented by polynomial branch parametrizations.

A branch is a map tau -> (x(tau), y(tau)) through the origin; a curve is an
ordered list of branches (the ordering fixes the numbering of the variables
t_1, ..., t_r everywhere downstream).
"""

from __future__ import annotations

from math import gcd

from .exactmath import ord_lead, up_normal


class ValidationError(ValueError):
    """Base class for rejected branch parametrizations."""

    code = "Validation"


class ZeroBranchError(ValidationError):
    code = "ZeroBranch"


class OrderZeroError(ValidationError):
    code = "OrderZero"


class NonPrimitiveError(ValidationError):
    code = "NonPrimitive"


class BranchParam:
    """One branch, given by polynomials x(tau), y(tau)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = up_normal(x)
        self.y = up_normal(y)

    @property
    def ord_x(self):
        return ord_lead(self.x)[0]

    @property
    def ord_y(self):
        return ord_lead(self.y)[0]

    def __repr__(self):
        return "BranchParam(x=%r, y=%r)" % (self.x, self.y)


class Curve:
    """A reduced plane curve germ as an ordered union of branches."""

    __slots__ = ("branches",)

    def __init__(self, branches):
        self.branches = [b if isinstance(b, BranchParam) else BranchParam(*b)
                         for b in branches]
        if not self.branches:
            raise ValidationError("a curve needs at least one branch")

    @property
    def r(self) -> int:
        return len(self.branches)

    def __repr__(self):
        return "Curve(%r)" % (self.branches,)


def validate_curve(c: Curve) -> None:
    """Check every branch parametrization; raises a ValidationError subclass.

    Rejects branches that are identically zero, do not pass through the
    origin (some coordinate has a nonzero constant term), factor through
    tau^d with d > 1 (a retraced, non-primitive parametrization), or have one
    coordinate identically zero and the other of order k > 1 (a k-fold cover
    of an axis, whatever the support gcd).
    """
    for idx, b in enumerate(c.branches, start=1):
        if not b.x and not b.y:
            raise ZeroBranchError("branch %d is identically zero" % idx)
        if min(b.ord_x, b.ord_y) < 1:
            raise OrderZeroError(
                "branch %d does not pass through the origin" % idx)
        g = gcd(*b.x, *b.y)
        if g > 1:
            raise NonPrimitiveError(
                "branch %d factors through tau^%d" % (idx, g))
        k = min(b.ord_x, b.ord_y)
        if not (b.x and b.y) and k > 1:
            raise NonPrimitiveError(
                "branch %d is a %d-fold cover of the %s axis"
                % (idx, k, "y" if not b.x else "x"))
