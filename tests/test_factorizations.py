import random
from fractions import Fraction
from itertools import islice

import pytest

from psdrank.factorizations import (
    PSDFactorization,
    direct_sum,
    four_squares,
    hadamard_square_factorization,
    hadamard_square_target,
    identity_factorization,
    p_alpha_factorization,
    parse_factorization,
    rational_square_sum,
    splitmix64,
    verify_factorization,
    write_factorization,
)
from psdrank.gadgets import build_P
from psdrank.matrices import InstanceMatrix


class TestPAlpha:
    @pytest.mark.parametrize("alpha", [0, Fraction(1, 2), 1, 2, 3, 4])
    def test_exact_residual_zero(self, alpha):
        report = verify_factorization(build_P(alpha), p_alpha_factorization(alpha))
        assert report.passed and report.max_residual == 0

    def test_nine_point_grid(self):
        for i in range(9):
            alpha = Fraction(i, 2)
            report = verify_factorization(build_P(alpha), p_alpha_factorization(alpha))
            assert report.max_residual == 0

    def test_alpha_two_splits_cleanly(self):
        F = p_alpha_factorization(2)
        assert F.entry("1", "1") == 2  # tr(A1 B1) = 2 + 2ab with b = 0

    def test_boundary_vectors_are_rank_one(self):
        for alpha in (0, 4):
            F = p_alpha_factorization(alpha)
            assert F.max_vectors() == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            p_alpha_factorization(Fraction(9, 2))


class TestVerify:
    def test_identity_diagonal_gram(self):
        I2 = InstanceMatrix.from_dense([[1, 0], [0, 1]],
                                       ("r0", "r1"), ("c0", "c1"))
        report = verify_factorization(I2, identity_factorization(2))
        assert report.passed and report.max_residual == 0

    def test_detects_wrong_entry(self):
        wrong = InstanceMatrix.from_dense([[1, 1], [0, 1]], ("r0", "r1"), ("c0", "c1"))
        report = verify_factorization(wrong, identity_factorization(2))
        assert not report.passed
        assert report.worst_entry == ("r0", "c1")

    def test_sampled_reports_are_reproducible(self):
        A = build_P(1)
        F = p_alpha_factorization(1)
        r1 = verify_factorization(A, F, mode="sampled", seed=11, samples=333)
        r2 = verify_factorization(A, F, mode="sampled", seed=11, samples=333)
        assert r1 == r2

    def test_label_mismatch(self):
        A = build_P(1)
        with pytest.raises(ValueError, match="label"):
            verify_factorization(A, identity_factorization(3))

    def test_bad_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            PSDFactorization(2, ("a",), ("a",),
                             {"a": ({5: Fraction(1)},)}, {"a": ()}, "exact")

    def test_float_tolerance(self):
        I1 = InstanceMatrix.from_dense([[1]], ("a",), ("a",))
        F = PSDFactorization(1, ("a",), ("a",),
                             {"a": ({0: 1.0000000001},)}, {"a": ({0: 1.0},)}, "float")
        assert verify_factorization(I1, F, tol=1e-9).passed
        assert not verify_factorization(I1, F, tol=1e-12).passed


class TestSplitmix:
    def test_reference_stream(self):
        assert list(islice(splitmix64(0), 3)) == [
            16294208416658607535, 7960286522194355700, 487617019471545679]
        assert next(splitmix64(1)) == 10451216379200822465


class TestHadamard:
    def test_identity(self):
        I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        F = hadamard_square_factorization(I3, I3)
        T = hadamard_square_target(I3, I3)
        assert verify_factorization(T, F).max_residual == 0

    def test_hand_case(self):
        Pm = [[1, 1, 0], [1, -1, 0]]
        Qm = [[1, -1], [1, 1], [0, 0]]
        T = hadamard_square_target(Pm, Qm)
        assert T.to_dense() == [[4, 0], [0, 4]]
        F = hadamard_square_factorization(Pm, Qm)
        assert verify_factorization(T, F).max_residual == 0

    def test_random_exact(self):
        rng = random.Random(6)
        for _ in range(20):
            m, r, n = rng.randint(1, 3), 3, rng.randint(1, 3)
            Pm = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
            Qm = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            F = hadamard_square_factorization(Pm, Qm)
            assert verify_factorization(hadamard_square_target(Pm, Qm), F).max_residual == 0

    def test_inner_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            hadamard_square_factorization([[1, 2]], [[1], [2], [3]])


class TestDirectSum:
    def test_ones_sum(self):
        one = InstanceMatrix.from_dense([[1]], ("a",), ("a",))
        F = PSDFactorization(1, ("a",), ("a",),
                             {"a": ({0: Fraction(1)},)}, {"a": ({0: Fraction(1)},)})
        two = InstanceMatrix.from_dense([[2]], ("a",), ("a",))
        assert verify_factorization(two, direct_sum(F, F)).max_residual == 0

    def test_doubled_P1(self):
        F = p_alpha_factorization(1)
        twoP = InstanceMatrix(("1", "2", "3"), ("1", "2", "3"),
                              {k: 2 * v for k, v in build_P(1).data.items()})
        S = direct_sum(F, F)
        assert S.k == 4
        assert verify_factorization(twoP, S).max_residual == 0

    def test_zero_summand_keeps_residuals(self):
        F = p_alpha_factorization(1)
        Z = PSDFactorization(1, F.row_labels, F.col_labels, {}, {})
        S = direct_sum(F, Z)
        assert verify_factorization(build_P(1), S).max_residual == 0

    def test_residual_is_max_of_component_residuals(self):
        # perfect witness for P(1) plus an off-by-delta witness for [[1]]-like
        # padding: the summed residual equals the imperfect component's
        F1 = p_alpha_factorization(1)
        delta = Fraction(1, 7)
        bad = PSDFactorization(
            1, F1.row_labels, F1.col_labels,
            {"1": ({0: Fraction(1)},)}, {"1": ({0: Fraction(1)},)})
        target = InstanceMatrix(
            ("1", "2", "3"), ("1", "2", "3"),
            {k: v for k, v in build_P(1).data.items()})
        target.data[("1", "1")] = target.data[("1", "1")] + 1 - delta
        S = direct_sum(F1, bad)
        report = verify_factorization(target, S, tol=Fraction(1))
        assert report.max_residual == delta
        assert report.worst_entry == ("1", "1")

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(p_alpha_factorization(1), identity_factorization(3))


class TestSquareSums:
    def test_four_squares_random(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(0, 10 ** 6)
            parts = four_squares(n)
            assert len(parts) <= 4
            assert sum(x * x for x in parts) == n

    def test_hard_residues(self):
        for n in (7, 15, 23, 28, 60, 112, 240, 7 * 4 ** 5):
            parts = four_squares(n)
            assert sum(x * x for x in parts) == n

    def test_rational_square_sum(self):
        rng = random.Random(2)
        for _ in range(100):
            c = Fraction(rng.randint(0, 9999), rng.randint(1, 999))
            parts = rational_square_sum(c)
            assert sum(x * x for x in parts) == c

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            four_squares(-1)
        with pytest.raises(ValueError):
            rational_square_sum(Fraction(-1, 2))


class TestFileFormat:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_round_trip(self, sparse):
        F = p_alpha_factorization(Fraction(1, 2))
        text = write_factorization(F, sparse=sparse)
        G = parse_factorization(text)
        assert (G.k, G.mode, G.row_labels, G.col_labels) == (F.k, F.mode, F.row_labels, F.col_labels)
        assert G.row_vectors == F.row_vectors
        assert G.col_vectors == F.col_vectors

    def test_float_round_trip(self):
        F = PSDFactorization(2, ("a",), ("b",),
                             {"a": ({0: 0.5, 1: -1.25},)},
                             {"b": ({1: 3.0},)}, "float")
        G = parse_factorization(write_factorization(F))
        assert G.row_vectors == F.row_vectors
        assert G.mode == "float"

    def test_byte_stable(self):
        F = p_alpha_factorization(3)
        assert write_factorization(F) == write_factorization(F)

    def test_header_guard(self):
        with pytest.raises(ValueError, match="header"):
            parse_factorization("bogus\n")

    def test_one_token_line_rejected(self):
        head = write_factorization(p_alpha_factorization(1)).splitlines()[0]
        with pytest.raises(ValueError, match="'row'"):
            parse_factorization(head + "\nrow\n")

    def test_truncated_sparse_line_rejected(self):
        head = write_factorization(p_alpha_factorization(1), sparse=True).splitlines()[0]
        with pytest.raises(ValueError, match="truncated"):
            parse_factorization(head + "\nrow 1 1 2 0 1/1\n")
