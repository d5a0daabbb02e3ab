"""Acceptance criteria: one test per criterion, each printing a PASS line
with its runtime.  Tolerances are pinned here, not configurable."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from psdrank.certificates import (
    assemble_instance_witness,
    completion_from_root,
    extract_root,
    sqrt_condition_check,
)
from psdrank.cube import build_phi, phi_residual
from psdrank.factorizations import p_alpha_factorization, verify_factorization
from psdrank.formulas import (
    lift_witness,
)
from psdrank.gadgets import build_B, build_G, build_M, build_P, compute_K, index_set_H, sigma_set
from psdrank.matrices import InstanceMatrix
from psdrank.polynomials import Assignment, evaluate, parse_polynomial, xvar
from psdrank.search import SearchConfig, psd_rank_search

from test_formulas import random_formula_with_witness, single_polynomial_of


@contextmanager
def criterion(number, description, budget_seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:6.2f}s) {description}")


def P(text):
    return parse_polynomial(text)


def test_criterion_01_p_alpha_witnesses():
    with criterion(1, "P(alpha) exact size-2 witnesses on {0,1/2,1,2,3,4}", 1.0):
        for alpha in (0, Fraction(1, 2), 1, 2, 3, 4):
            report = verify_factorization(build_P(alpha), p_alpha_factorization(alpha),
                                          mode="full", tol=Fraction(0))
            assert report.passed and report.max_residual == 0


def test_criterion_02_identity_lower_evidence():
    with criterion(2, "search fails on I3 at k=2 (residual >= 0.05), succeeds at k=3", 120.0):
        I3 = InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        fail = psd_rank_search(I3, 2, SearchConfig(restarts=32, seed=1))
        assert not fail.found
        assert fail.best_residual >= 0.05
        ok = psd_rank_search(I3, 3, SearchConfig(restarts=32, seed=1))
        assert ok.found
        assert ok.best_residual <= 1e-10


def test_criterion_03_sigma_H_counts():
    with criterion(3, "sigma/H counting: 9/217 and 3/19", 1.0):
        f = P("x1*x1 - 1")
        assert len(sigma_set(f)) == 9
        assert len(index_set_H(f)) == 217
        g = P("-1")
        assert len(sigma_set(g)) == 3
        assert len(index_set_H(g)) == 19


@pytest.mark.parametrize("text", ["x1*x1 - 1", "x1*x2 - 1", "x1*x1 + x1 - 1"])
def test_criterion_04_sqrt_condition(text):
    with criterion(4, f"sqrt condition holds for B({text})", 30.0):
        ok, witness = sqrt_condition_check(build_B(P(text)))
        assert ok and witness is not None


def test_criterion_05_completion_bound():
    with criterion(5, "completion matches every known B entry; max entry <= 144", 30.0):
        f = P("x1*x1 - 1")
        B = build_B(f)
        comp = completion_from_root(f, Assignment.exact({xvar(1): 1}))
        for r in B.row_labels:
            for c in B.col_labels:
                known = B.entry(r, c)
                if isinstance(known, Fraction):
                    assert comp.matrix.entry(r, c) == known
        assert max(comp.matrix.data.values(), default=0) <= 144


def test_criterion_06_end_to_end_yes_instance():
    with criterion(6, "size-(2k+3) witness for M(B, 144), exact residual 0 on every entry",
                   600.0):
        f = P("x1*x1 - 1")
        B = build_B(f)
        K = compute_K(f)
        assert K == 144
        M = build_M(B, K)
        F = assemble_instance_witness(f, Assignment.exact({xvar(1): 1}))
        assert F.k == 2 * len(B.unknown_positions()) + 3 == M.nrows - 217 + 3
        report = verify_factorization(M, F, mode="sampled", seed=1, samples=100_000)
        assert report.passed
        assert report.max_residual == 0
        assert report.entries_checked == 100_000
        # full mode certifies every entry: the join, the nonzeros, the rest by support
        full = verify_factorization(M, F, mode="full")
        assert full.passed and full.max_residual == 0
        assert full.nonzero == 254_881
        assert full.joined + full.zero_by_support == full.entries_checked == 72_097 ** 2


def test_criterion_07_root_extraction_round_trip():
    with criterion(7, "extract_root inverts completions for three witnesses", 60.0):
        cases = [
            (P("x1*x1 - 1"), {xvar(1): Fraction(1)}),
            (P("x1*x1 - 1"), {xvar(1): Fraction(-1)}),
            (P("x1*x2 - 1"), {xvar(1): Fraction(1), xvar(2): Fraction(1)}),
        ]
        for f, point in cases:
            xi = Assignment.exact(point)
            F = completion_from_root(f, xi).factorization
            y = extract_root(f, F)
            for v, expected in point.items():
                assert abs(float(Fraction(y.values[v]) - expected)) <= 1e-9


def test_criterion_08_frontend_soundness():
    with criterion(8, "100 random formulas lift to zeros of the single polynomial", 60.0):
        rng = random.Random(20240809)
        for _ in range(100):
            formula, a = random_formula_with_witness(rng, max_atoms=3, max_vars=2)
            w = lift_witness(formula, a)
            value = evaluate(single_polynomial_of(formula), w)
            if w.mode == "exact":
                assert value == 0
            else:
                assert abs(value) <= 1e-12


def test_criterion_09_cube_bounding():
    with criterion(9, "scaled root zeroes phi; points outside the cube stay positive", 10.0):
        f = P("x1*x1 - 1")
        inst = build_phi(f, 1)
        xi = Assignment.exact({xvar(1): 1})
        scaled = inst.scale_root(xi)
        assert abs(evaluate(inst.phi, scaled)) <= 1e-12
        assert phi_residual(inst, xi) == 0
        rng = random.Random(99)
        vars_ = inst.phi.variables()
        for _ in range(1000):
            point = {v: Fraction(rng.randint(-40, 40), rng.randint(1, 10)) for v in vars_}
            big = rng.choice([v for v in vars_ if v in inst.base_vars])
            point[big] = Fraction(rng.choice([-1, 1]) * rng.randint(11, 40), 10)
            assert evaluate(inst.phi, Assignment.exact(point)) > 0


def test_criterion_10_no_instance_evidence():
    with criterion(10, "sub-threshold searches fail, threshold searches succeed", 300.0):
        G = build_G([[1]], [1], [1], 1)
        below = psd_rank_search(G, 2, SearchConfig(restarts=32, seed=1))
        assert not below.found
        at = psd_rank_search(G, 3, SearchConfig(restarts=32, seed=1))
        assert at.found
        # hand instance: I2 needs size 2; size 1 is an exact refusal
        I2 = InstanceMatrix.from_dense([[1, 0], [0, 1]])
        assert not psd_rank_search(I2, 1, SearchConfig(seed=1)).found
        assert psd_rank_search(I2, 2, SearchConfig(restarts=32, seed=1)).found
