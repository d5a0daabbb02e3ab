"""Confine the zeros of a standard-form polynomial to the unit cube.

Given f and a tower height m, the transform builds

    phi = sum_{j<m} (y_{j+1} - y_j^2)^2 + (2*y_0 - 1)^2
        + sum_i (x_i^2 + z_i^2 - 1)^2 + h^2

where h is the degree-homogenization of f in y_m.  Any real zero of phi has
every x_i, z_i in [-1, 1] and y_j = 2^(-2^j), and zeros of f with
|coordinate| < 2^(2^m) scale onto zeros of phi.  The tower height is a
caller parameter (the bound it implements depends on an unquantified
absolute constant, so completeness outside 2^(2^m) is not guaranteed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .polynomials import (
    Assignment,
    Number,
    Polynomial,
    VarId,
    VarKind,
    sqrt_binding,
)

DEFAULT_TOWER_HEIGHT = 4


@dataclass(frozen=True)
class BoundedInstance:
    """The cube-bounded polynomial phi together with its variable map."""

    phi: Polynomial
    m: int
    d: int
    base_vars: Tuple[VarId, ...]           # variables of f, in sorted order
    y_vars: Tuple[VarId, ...]              # y_0 .. y_m
    slack_of: Mapping[VarId, VarId]        # base variable -> its z partner

    def scale_root(self, xi: Assignment) -> Assignment:
        """Scale a zero of f into a zero of phi, verifying coverage and the
        magnitude precondition.  Exact when every slack square root is
        rational; phi is checked to vanish via the z^2 substitution.

        Only the variables of f are scaled: bindings of other variables are
        dropped, so the slacks pair with ``base_vars`` as in ``build_phi``."""
        missing = [v for v in self.base_vars if v not in xi.values]
        if missing:
            raise ValueError(f"root does not bind {missing[0]}")
        own = Assignment({v: xi.values[v] for v in self.base_vars}, xi.mode)
        scaled = scale_root(own, self.m)
        residual = phi_residual(self, xi)
        if residual != 0:
            raise ValueError(f"point is not a zero of f (phi residual {residual})")
        return scaled


def homogenize(f: Polynomial, hom_var: VarId) -> Polynomial:
    """Pad every term of f with ``hom_var`` up to the total degree of f."""
    if f.is_zero:
        raise ValueError("cannot homogenize the zero polynomial")
    if hom_var in f.variables():
        raise ValueError(f"homogenization variable {hom_var} already occurs in f")
    d = f.degree()
    out: Dict[tuple, int] = {}
    for key, c in f.coefficients().items():
        padded = tuple(sorted(key + (hom_var,) * (d - len(key))))
        out[padded] = out.get(padded, 0) + c
    return Polynomial._from_coeffs(out)


def build_phi(f: Polynomial, m: int) -> BoundedInstance:
    """Expand phi to standard form for the given tower height m >= 1."""
    if f.is_zero:
        raise ValueError("cannot bound the zero polynomial")
    if m < 1:
        raise ValueError(f"tower height must be positive, got {m}")
    for v in f.variables():
        if v.kind in (VarKind.HOMOGENIZATION, VarKind.SLACK):
            raise ValueError(f"f must not contain tower/slack variables, found {v}")

    base_vars = f.variables()
    y = tuple(VarId(VarKind.HOMOGENIZATION, j) for j in range(m + 1))
    slack_of = {v: VarId(VarKind.SLACK, i) for i, v in enumerate(base_vars)}

    one = Polynomial.constant(1)
    phi = Polynomial.zero()
    for j in range(m):
        yj = Polynomial.variable(y[j])
        step = Polynomial.variable(y[j + 1]) - yj * yj
        phi = phi + step * step
    y0 = Polynomial.variable(y[0])
    anchor = y0 + y0 - one
    phi = phi + anchor * anchor
    for v in base_vars:
        xv = Polynomial.variable(v)
        zv = Polynomial.variable(slack_of[v])
        cube = xv * xv + zv * zv - one
        phi = phi + cube * cube
    h = homogenize(f, y[m])
    phi = phi + h * h
    return BoundedInstance(phi, m, f.degree(), base_vars, y, slack_of)


def scale_root(xi: Assignment, m: int) -> Assignment:
    """Map a root of f to the phi variables:

        x_i -> 2^(-2^m) * xi_i,   y_j -> 2^(-2^j),   z_i -> sqrt(1 - x_i^2).

    Slack variables pair with the root's variables in sorted order, matching
    ``build_phi``.  Raises when some |xi_i| >= 2^(2^m).  The result is exact
    when every z_i is rational, float otherwise.
    """
    if m < 1:
        raise ValueError(f"tower height must be positive, got {m}")
    bound = Fraction(2) ** (2 ** m)
    scale = 1 / bound
    values: Dict[VarId, Number] = {}
    exact = xi.mode == "exact"
    base_vars = tuple(sorted(xi.values))
    for i, v in enumerate(base_vars):
        raw = xi.values[v]
        if abs(Fraction(raw) if not isinstance(raw, float) else raw) >= bound:
            raise ValueError(
                f"|{v}| = {raw} is not below the cube scale 2^(2^{m}) = {bound}")
        xval = (Fraction(raw) * scale) if not isinstance(raw, float) else raw * float(scale)
        values[v] = xval
        z = VarId(VarKind.SLACK, i)
        values[z], z_exact = sqrt_binding(1 - xval * xval)
        exact = exact and z_exact
    for j in range(m + 1):
        values[VarId(VarKind.HOMOGENIZATION, j)] = Fraction(2) ** -(2 ** j)
    return Assignment(values, "exact" if exact else "float")


def phi_residual(inst: BoundedInstance, xi: Assignment) -> Fraction:
    """Exact value of phi at the scaled image of ``xi``.

    phi depends on each slack variable only through its square, so z_i^2 is
    substituted symbolically by 1 - x_i^2 and the result is an exact rational
    even when z_i itself is irrational.  Requires an exact root assignment.
    """
    if xi.mode != "exact":
        raise ValueError("exact phi evaluation needs an exact root assignment")
    bound = Fraction(2) ** (2 ** inst.m)
    values: Dict[VarId, Fraction] = {}
    squares: Dict[VarId, Fraction] = {}
    for v in inst.base_vars:
        if v not in xi.values:
            raise ValueError(f"root does not bind {v}")
        xval = Fraction(xi.values[v]) / bound
        values[v] = xval
        squares[inst.slack_of[v]] = 1 - xval * xval
    for j, y in enumerate(inst.y_vars):
        values[y] = Fraction(2) ** -(2 ** j)
    return evaluate_with_square_bindings(inst.phi, values, squares)


def evaluate_with_square_bindings(
    p: Polynomial,
    values: Mapping[VarId, Fraction],
    squares: Mapping[VarId, Fraction],
) -> Fraction:
    """Evaluate p exactly where some variables are known only by their squares.

    Every square-bound variable must occur with even multiplicity in every
    term of p; otherwise the substitution is ill-defined and an error is
    raised.
    """
    total = Fraction(0)
    for key, c in p.coefficients().items():
        term = Fraction(c)
        mult: Dict[VarId, int] = {}
        for v in key:
            mult[v] = mult.get(v, 0) + 1
        for v, e in mult.items():
            if v in squares:
                if e % 2:
                    raise ValueError(f"variable {v} occurs with odd power {e}")
                term *= squares[v] ** (e // 2)
            else:
                term *= values[v] ** e
        total += term
    return total
