import math
import random
from fractions import Fraction

import pytest

from psdrank.cube import (
    build_phi,
    evaluate_with_square_bindings,
    homogenize,
    phi_residual,
    scale_root,
)
from psdrank.polynomials import (
    Assignment,
    Monomial,
    Polynomial,
    VarId,
    VarKind,
    approx_sqrt,
    evaluate,
    parse_polynomial,
    xvar,
)

Y0 = VarId(VarKind.HOMOGENIZATION, 0)


def P(text):
    return parse_polynomial(text)


class TestHomogenize:
    def test_pads_constant(self):
        assert homogenize(P("x1*x1 - 1"), Y0) == P("x1*x1 - y0*y0")

    def test_already_homogeneous(self):
        assert homogenize(P("x1"), Y0) == P("x1")

    def test_mixed_degrees(self):
        assert homogenize(P("x1*x1 + x2 - 1"), Y0) == P("x1*x1 + x2*y0 - y0*y0")

    def test_substituting_one_recovers_f(self):
        rng = random.Random(9)
        for _ in range(40):
            terms = [Monomial(rng.choice((1, -1)),
                              tuple(xvar(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))))
                     for _ in range(rng.randint(1, 6))]
            f = Polynomial(terms)
            if f.is_zero:
                continue
            h = homogenize(f, Y0)
            point = {xvar(i): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in (1, 2, 3)}
            point[Y0] = Fraction(1)
            a = Assignment.exact(point)
            assert evaluate(h, a) == evaluate(f, Assignment.exact({k: v for k, v in point.items() if k != Y0}))
            degs = {t.degree for t in h.terms}
            assert len(degs) == 1  # homogeneous

    def test_rejects_zero_and_clash(self):
        with pytest.raises(ValueError):
            homogenize(Polynomial.zero(), Y0)
        with pytest.raises(ValueError):
            homogenize(P("y0 + 1"), Y0)


class TestBuildPhi:
    def test_summand_groups_for_m1(self):
        inst = build_phi(P("x1*x1 - 1"), 1)
        x1, z0, y0, y1 = xvar(1), VarId(VarKind.SLACK, 0), Y0, VarId(VarKind.HOMOGENIZATION, 1)
        expected = Polynomial.zero()
        yv0, yv1 = Polynomial.variable(y0), Polynomial.variable(y1)
        xv, zv = Polynomial.variable(x1), Polynomial.variable(z0)
        one = Polynomial.constant(1)
        chain = yv1 - yv0 * yv0
        anchor = yv0 + yv0 - one
        cube = xv * xv + zv * zv - one
        h = xv * xv - yv1 * yv1
        expected = chain * chain + anchor * anchor + cube * cube + h * h
        assert inst.phi == expected
        assert inst.d == 2

    def test_nonnegative_on_random_points(self):
        inst = build_phi(P("x1*x1 - 1"), 2)
        rng = random.Random(4)
        for _ in range(1000):
            a = Assignment.exact({v: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                                  for v in inst.phi.variables()})
            assert evaluate(inst.phi, a) >= 0

    def test_positive_when_outside_cube(self):
        inst = build_phi(P("x1*x1 - 1"), 1)
        rng = random.Random(8)
        for _ in range(200):
            point = {v: Fraction(rng.randint(-20, 20), rng.randint(1, 10))
                     for v in inst.phi.variables()}
            point[xvar(1)] = Fraction(2)
            assert evaluate(inst.phi, Assignment.exact(point)) > 0

    def test_every_tower_and_slack_variable_appears(self):
        inst = build_phi(P("x1*x2 - 1"), 3)
        vs = set(inst.phi.variables())
        assert set(inst.y_vars) <= vs
        assert set(inst.slack_of.values()) <= vs

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_phi(Polynomial.zero(), 1)
        with pytest.raises(ValueError):
            build_phi(P("x1"), 0)
        with pytest.raises(ValueError):
            build_phi(P("y0 + 1"), 1)


class TestScaleRoot:
    def test_zero_root_exact(self):
        inst = build_phi(P("x1"), 1)
        a = inst.scale_root(Assignment.exact({xvar(1): 0}))
        assert a.mode == "exact"
        assert a.values[xvar(1)] == 0
        assert a.values[Y0] == Fraction(1, 2)
        assert a.values[VarId(VarKind.HOMOGENIZATION, 1)] == Fraction(1, 4)
        assert a.values[VarId(VarKind.SLACK, 0)] == 1
        assert evaluate(inst.phi, a) == 0

    def test_irrational_slack_within_tolerance(self):
        inst = build_phi(P("x1*x1 - 1"), 1)
        a = inst.scale_root(Assignment.exact({xvar(1): 1}))
        assert a.mode == "float"
        assert a.values[xvar(1)] == Fraction(1, 4)
        # z pairs x1 and approximates sqrt(15)/4
        z = a.values[VarId(VarKind.SLACK, 0)]
        assert z == approx_sqrt(Fraction(15, 16))
        assert abs(float(z) - 15 ** 0.5 / 4) < 1e-12
        assert abs(evaluate(inst.phi, a)) <= 1e-12
        assert phi_residual(inst, Assignment.exact({xvar(1): 1})) == 0

    def test_exact_when_slack_rational(self):
        # 5*x - 12 has root 12/5; scaled by 1/4 gives x = 3/5, z = 4/5
        f = P("5*x1 - 12")
        inst = build_phi(f, 1)
        a = inst.scale_root(Assignment.exact({xvar(1): Fraction(12, 5)}))
        assert a.mode == "exact"
        assert a.values[VarId(VarKind.SLACK, 0)] == Fraction(4, 5)
        assert type(a.values[VarId(VarKind.SLACK, 0)]) is Fraction
        assert evaluate(inst.phi, a) == 0

    def test_float_root_binds_float_slack(self):
        a = scale_root(Assignment.floating({xvar(1): 1.0}), 1)
        assert a.mode == "float" and a.values[VarId(VarKind.SLACK, 0)] == math.sqrt(15 / 16)

    def test_scaled_point_lands_in_cube(self):
        inst = build_phi(P("x1*x1 - 1"), 1)
        a = inst.scale_root(Assignment.exact({xvar(1): -1}))
        assert abs(a.values[xvar(1)]) <= 1
        for j, y in enumerate(inst.y_vars):
            assert a.values[y] == Fraction(2) ** -(2 ** j)

    def test_magnitude_boundary_rejected(self):
        with pytest.raises(ValueError, match="cube scale"):
            scale_root(Assignment.exact({xvar(1): 4}), 1)
        with pytest.raises(ValueError, match="cube scale"):
            scale_root(Assignment.exact({xvar(1): -4}), 1)
        # strictly below the bound is fine
        scale_root(Assignment.exact({xvar(1): Fraction(15, 4)}), 1)

    def test_non_root_rejected_by_instance(self):
        inst = build_phi(P("x1*x1 - 1"), 1)
        with pytest.raises(ValueError, match="not a zero"):
            inst.scale_root(Assignment.exact({xvar(1): 0}))

    def test_slacks_pair_with_f_variables(self):
        # x1 is bound but not in f; the slack must still pair with x2.
        inst = build_phi(P("x2*x2 - 1"), 1)
        a = inst.scale_root(Assignment.exact({xvar(1): Fraction(1, 2), xvar(2): 1}))
        z = a.values[inst.slack_of[xvar(2)]]
        assert abs(float(z) - 15 ** 0.5 / 4) < 1e-12
        assert abs(evaluate(inst.phi, a)) <= 1e-12

    def test_missing_binding_rejected(self):
        inst = build_phi(P("x1*x2 - 1"), 1)
        with pytest.raises(ValueError, match="does not bind"):
            inst.scale_root(Assignment.exact({xvar(1): 1}))


def test_square_binding_evaluation_requires_even_powers():
    p = P("z0*z0*x1 + x1")
    total = evaluate_with_square_bindings(
        p, {xvar(1): Fraction(2)}, {VarId(VarKind.SLACK, 0): Fraction(3)})
    assert total == 2 * 3 + 2
    with pytest.raises(ValueError, match="odd power"):
        evaluate_with_square_bindings(
            P("z0*x1"), {xvar(1): Fraction(1)}, {VarId(VarKind.SLACK, 0): Fraction(1)})
