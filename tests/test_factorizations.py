import math
import random
import re
import time
from array import array
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from psdrank.certificates import assemble_instance_witness, completion_from_root
from psdrank.factorizations import (
    _MR_BASES,
    FACTORIZATION_HEADER,
    PieceTable,
    PSDFactorization,
    VerificationReport,
    _is_prime,
    _Join,
    _num_token,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    _two_squares,
    dense_vector,
    four_squares,
    p_alpha_factorization,
    parse_factorization,
    rational_square_sum,
    splitmix64,
    verify_factorization,
    write_factorization,
)
from psdrank.gadgets import build_P, reduce
from psdrank.matrices import InstanceMatrix, parse_matrix, write_matrix
from psdrank.polynomials import Assignment, ParseError, parse_polynomial, xvar


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
            vectors = [*F.row_vectors.values(), *F.col_vectors.values()]
            assert max(len(v) for v in vectors) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            p_alpha_factorization(Fraction(9, 2))


class _FloatSubclass(float):
    pass


ONE = Fraction(1)


class TestValidation:
    @pytest.mark.parametrize("side,table,message", [
        ("row", {"a": ({0: ONE}, {3: ONE})}, "vector coordinate 3 outside dimension 3"),
        ("col", {"b": ({-1: ONE},)}, "vector coordinate -1 outside dimension 3"),
        ("row", {"a": ({0: 0.5},)}, "exact factorization holds a float value"),
        ("col", {"a": ({1: _FloatSubclass(2)},)}, "exact factorization holds a float value"),
        ("row", {"z": ()}, "row vectors for unknown label 'z'"),
        ("col", {"a": ({0: ONE},), "z": ({9: ONE},)}, "col vectors for unknown label 'z'"),
        ("row", {"a": ({0: ONE, float("nan"): ONE},)}, "coordinate nan outside"),
    ])
    def test_offender_named(self, side, table, message):
        tables = {"row": {}, "col": {}}
        tables[side] = table
        with pytest.raises(ValueError, match=message):
            PSDFactorization(3, ("a", "b"), ("a", "b"), tables["row"], tables["col"])

    @pytest.mark.parametrize("pieces,message", [
        ((({0: ONE}, 2), ({1: ONE}, 2)), "vector coordinate 3 outside dimension 3"),
        ((({1: ONE}, 0), ({0: ONE}, -1)), "vector coordinate -1 outside dimension 3"),
        ((({0: ONE}, 0), ({0: ONE, 1: 0.5}, 1)), "exact factorization holds a float value"),
    ])
    def test_template_offender_named(self, pieces, message):
        with pytest.raises(ValueError, match=message):
            from_pieces(3, ("a",), {"a": pieces})

    @pytest.mark.parametrize("coord", [float("nan"), 0.5])
    @pytest.mark.parametrize("others", [{}, {0: ONE}])
    def test_non_integer_coordinate_rejected(self, coord, others):
        # Both constructors intern through PieceTable.template, which checks.
        vec = {**others, coord: ONE}
        with pytest.raises(ValueError, match=f"vector coordinate {coord} outside dimension 3"):
            PSDFactorization(3, ("a",), ("a",), {"a": (vec,)}, {})
        with pytest.raises(ValueError, match=f"vector coordinate {coord} outside dimension 3"):
            from_pieces(3, ("a",), {"a": [(vec, 0)]})

    @pytest.mark.parametrize("rows,message", [
        (("a 1",), "factorization labels must be nonempty and whitespace-free: 'a 1'"),
        (("",), "factorization labels must be nonempty and whitespace-free: ''"),
        (("a", "a"), "factorization labels must be unique"),
        ((1,), "factorization labels must be nonempty and whitespace-free: 1"),
    ])
    def test_labels_the_file_format_cannot_hold_refused(self, rows, message):
        # each would be written as lines that read back as other labels, or
        # not at all; "row", "col" and "r" are labels like any other here
        with pytest.raises(ValueError) as refused:
            PSDFactorization(1, rows, ("c",), {}, {"c": ({0: ONE},)})
        assert str(refused.value) == message
        with pytest.raises(ValueError, match="^factorization labels"):
            PSDFactorization(1, ("c",), rows, {"c": ({0: ONE},)}, {})
        F = PSDFactorization(1, ("row", "col"), ("r",), {"row": ({0: ONE},)}, {})
        assert parse_factorization(write_factorization(F)) == F

    def test_shifted_template_in_range(self):
        F = from_pieces(3, ("a",), {"a": [({0: ONE, 1: ONE}, 1)]})
        assert F.row_vectors == {"a": ({1: ONE, 2: ONE},)}

    def test_float_mode_accepts_floats(self):
        F = PSDFactorization(3, ("a",), ("a",), {"a": ({0: 0.5, 2: 1.5},)}, {}, "float")
        assert F.col_vectors == {"a": ()}


def from_pieces(k, labels, pieces, mode="exact"):
    """A witness whose rows hold ``pieces`` (label -> (vector, shift) pairs)
    and whose columns hold nothing."""
    return PSDFactorization.from_tables(PieceTable.build(k, labels, pieces),
                                        PieceTable.build(k, labels, {}), mode)


def pieces_of(T, label, shift=0):
    """A label's pieces as (template dict, shift) pairs, moved by ``shift``."""
    return [(dict(T.templates[T.tids[p]]), T.shifts[p] + shift)
            for p in T.pieces(T.index[label])]


def widened(F, k=65):
    """F's pieces in a witness of size k; a size above 64 writes the sparse
    layout."""
    return PSDFactorization.from_tables(
        *(PieceTable.build(k, T.labels, {l: pieces_of(T, l) for l in T.labels})
          for T in (F.rows, F.cols)), F.mode)


def direct_sum(F1, F2):
    """Witness for A1 + A2 from witnesses of A1 and A2 over the same labels:
    F2's pieces move past F1's k coordinates (block-diagonal padding, size
    k1 + k2).  F1's label order wins."""
    if (set(F1.row_labels) != set(F2.row_labels)
            or set(F1.col_labels) != set(F2.col_labels)):
        raise ValueError("direct sum needs identical label sets")
    k = F1.k + F2.k

    def side(T1, T2):
        return PieceTable.build(k, T1.labels, {l: pieces_of(T1, l) + pieces_of(T2, l, F1.k)
                                               for l in T1.labels})

    mode = "exact" if F1.mode == F2.mode == "exact" else "float"
    return PSDFactorization.from_tables(side(F1.rows, F2.rows), side(F1.cols, F2.cols), mode)


def identity_factorization(n):
    """The canonical size-n witness for I_n (diagonal unit Gram vectors)."""
    labels = tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(n))
    rows = {f"r{i}": ({i: Fraction(1)},) for i in range(n)}
    cols = {f"c{j}": ({j: Fraction(1)},) for j in range(n)}
    return PSDFactorization(n, labels[0], labels[1], rows, cols, "exact")


def _hadamard_operands(P, Q):
    """P and Q as row lists, inner size r, Q's column count n, and labels."""
    Pr, Qr = [list(x) for x in P], [list(x) for x in Q]
    if any(len(x) != len(M[0]) for M in (Pr, Qr) for x in M):
        raise ValueError("ragged matrix")
    r, n = len(Pr[0]) if Pr else 0, len(Qr[0]) if Qr else 0
    if len(Qr) != r:
        raise ValueError(f"inner dimensions differ: P is mx{r}, Q has {len(Qr)} rows")
    return Pr, Qr, r, n, tuple(f"r{i}" for i in range(len(Pr))), tuple(f"c{j}" for j in range(n))


def hadamard_square_factorization(P, Q):
    """Rank-one witness of (PQ) o (PQ) at size r from P (m x r), Q (r x n).

    Row i's single Gram vector is the i-th row of P; column j's is the j-th
    column of Q, so every certified entry is ((PQ)_{ij})^2.
    """
    Pr, Qr, r, n, rl, cl = _hadamard_operands(P, Q)
    exact = all(not isinstance(x, float) for row in Pr + Qr for x in row)
    conv = Fraction if exact else float
    rows = {rl[i]: (dense_vector([conv(x) for x in Pr[i]]),) for i in range(len(Pr))}
    cols = {cl[j]: (dense_vector([conv(Qr[t][j]) for t in range(r)]),) for j in range(n)}
    return PSDFactorization(max(r, 1), rl, cl, rows, cols, "exact" if exact else "float")


def hadamard_square_target(P, Q):
    """The matrix (PQ) o (PQ) the factorization above certifies."""
    Pr, Qr, r, n, rl, cl = _hadamard_operands(P, Q)
    dense = [[sum(Fraction(Pr[i][t]) * Fraction(Qr[t][j]) for t in range(r)) ** 2
              for j in range(n)] for i in range(len(Pr))]
    return InstanceMatrix.from_dense(dense, rl, cl)


class TestGramVectors:
    """A label's Gram vectors are read from its pieces."""

    def test_len_builds_no_vector(self, monkeypatch):
        tmpl = ({0: ONE}, {1: ONE})
        F = from_pieces(9, ("a",), {"a": [(v, s) for s in (2, 5) for v in tmpl]})

        def build_nothing(self, i):
            raise AssertionError("len built a vector")

        with monkeypatch.context() as m:
            m.setattr(PieceTable, "vectors", build_nothing)
            assert len(F.row_vectors["a"]) == 4
            assert sum(len(v) for v in F.row_vectors.values()) == 4
        assert F.row_vectors["a"][3] == {6: ONE}

    def test_sequence_behaviour(self):
        base = ({0: ONE}, {1: Fraction(2)})
        vecs = from_pieces(4, ("a",), {"a": [(base[0], 0), (base[1], 0), (base[0], 3)]}
                           ).row_vectors["a"]
        expected = ({0: ONE}, {1: Fraction(2)}, {3: ONE})
        assert vecs == expected and expected == vecs
        assert list(vecs) == list(expected) and vecs[1:] == expected[1:]
        assert vecs != expected[:2] and vecs != list(expected)
        assert vecs[-1] == {3: ONE} and len(vecs) == 3

    def test_direct_sum_shifts_pieces(self):
        F = p_alpha_factorization(1)
        S = direct_sum(F, F)
        SS = direct_sum(S, F)
        for l in F.row_labels:
            assert pieces_of(S.rows, l) == pieces_of(F.rows, l) + pieces_of(F.rows, l, 2)
            assert pieces_of(SS.rows, l) == pieces_of(S.rows, l) + pieces_of(F.rows, l, 4)
            assert S.col_vectors[l] == tuple(F.col_vectors[l]) + tuple(
                {c + 2: v for c, v in vec.items()} for vec in F.col_vectors[l])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_pieces_write_as_their_vectors(self, sparse):
        F = p_alpha_factorization(Fraction(1, 3))
        S = direct_sum(direct_sum(F, F), F)
        plain = PSDFactorization(S.k, S.row_labels, S.col_labels,
                                 {l: tuple(v) for l, v in S.row_vectors.items()},
                                 {l: tuple(v) for l, v in S.col_vectors.items()})
        if sparse:
            S, plain = widened(S), widened(plain)
        text = write_factorization(S)
        assert text.splitlines()[0].endswith(" sparse") == sparse
        assert text == write_factorization(plain)
        assert parse_factorization(text) == plain == S


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

    @pytest.mark.parametrize("tol", [Fraction(-1), -1e-12, float("nan")])
    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_negative_or_nan_tolerance_refused(self, tol, mode):
        A, F = build_P(1), p_alpha_factorization(1)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            verify_factorization(A, F, mode=mode, tol=tol)
        for zero in (Fraction(0), 0.0):
            assert verify_factorization(A, F, mode=mode, tol=zero, samples=50).passed

    def test_worst_entry_order_per_mode(self):
        # three residuals of 1 on the diagonal: full mode reports the first in
        # row-major label order, sampled mode the first one its stream draws
        labels = ("a", "b", "c")
        A = InstanceMatrix.from_dense([[1, 0, 0], [0, 2, 0], [0, 0, 2]], labels, labels)
        F = PSDFactorization(3, labels, labels, *({l: ({n: ONE},) for n, l in enumerate(labels)}
                                                  for _ in range(2)))
        full = verify_factorization(A, F)
        sampled = verify_factorization(A, F, mode="sampled", seed=2, samples=200)
        assert (full.worst_entry, full.max_residual) == (("b", "b"), 1)
        assert (sampled.worst_entry, sampled.max_residual) == (("c", "c"), 1)
        assert sampled == oracle_report(A, F, sampled_pairs(A, 2, 200), "sampled", 2)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            verify_factorization(build_P(1), p_alpha_factorization(1),
                                 mode="sampled", samples=samples)

    @pytest.mark.parametrize("rows, cols", [((), ()), ((), ("a",)), (("a",), ())])
    def test_sampled_needs_entries(self, rows, cols):
        A = InstanceMatrix(rows, cols)
        F = PSDFactorization(1, rows, cols, {l: () for l in rows}, {l: () for l in cols})
        with pytest.raises(ValueError, match="cannot sample"):
            verify_factorization(A, F, mode="sampled")
        assert verify_factorization(A, F).entries_checked == 0

    def test_bad_coordinate_rejected(self):
        with pytest.raises(ValueError, match="coordinate"):
            PSDFactorization(2, ("a",), ("a",),
                             {"a": ({5: Fraction(1)},)}, {"a": ()}, "exact")

    def test_summary_lines(self):
        A, F = build_P(1), p_alpha_factorization(1)
        sampled = verify_factorization(A, F, mode="sampled", seed=3, samples=5)
        assert sampled.summary() == (
            "mode=sampled entries=5 max_residual=0 worst=- tol=0 passed=True seed=3")
        assert verify_factorization(A, F).summary() == (
            "mode=full entries=9 max_residual=0 worst=- tol=0 passed=True"
            " joined=7 nonzero=7 zero_by_support=2")

    def test_float_tolerance(self):
        I1 = InstanceMatrix.from_dense([[1]], ("a",), ("a",))
        F = PSDFactorization(1, ("a",), ("a",),
                             {"a": ({0: 1.0000000001},)}, {"a": ({0: 1.0},)}, "float")
        assert verify_factorization(I1, F, tol=1e-9).passed
        assert not verify_factorization(I1, F, tol=1e-12).passed


# ---------------------------------------------------------------------------
# Oracles for the support join: every pair (or every sample) checked with
# Fraction arithmetic over all vector pairs, the way verification worked
# before it used the coordinate supports.
# ---------------------------------------------------------------------------

def oracle_entry(F, r, c):
    """sum (u.v)^2 over every pair of the labels' vectors."""
    total = Fraction(0) if F.mode == "exact" else 0.0
    for u in F.row_vectors.get(r, ()):
        for v in F.col_vectors.get(c, ()):
            d = sum((x * v[k] for k, x in u.items() if k in v), 0)
            total += d * d
    return total


def oracle_report(A, F, pairs, mode, seed=None):
    """Visit ``pairs`` in order with `oracle_entry`; the coverage counts come
    from the coordinate sets of the vectors themselves."""
    tol = Fraction(0) if F.mode == "exact" else 1e-9
    worst, max_res = None, (Fraction(0) if F.mode == "exact" else 0.0)
    joined = nonzero = zero_by_support = 0
    for r, c in pairs:
        res = abs(oracle_entry(F, r, c) - A.entry(r, c))
        if res > max_res:
            max_res, worst = res, (r, c)
        rows = set().union(*F.row_vectors.get(r, ()))
        meet = not rows.isdisjoint(set().union(*F.col_vectors.get(c, ())))
        hit = (r, c) in A.data
        joined += meet
        nonzero += hit
        zero_by_support += not (meet or hit)
    return VerificationReport(mode, len(pairs), max_res, worst, tol, max_res <= tol, seed,
                              joined, nonzero, zero_by_support)


def every_pair(A):
    return [(r, c) for r in A.row_labels for c in A.col_labels]


def sampled_pairs(A, seed, samples):
    gen = splitmix64(seed)
    return [(A.row_labels[next(gen) % A.nrows], A.col_labels[next(gen) % A.ncols])
            for _ in range(samples)]


def _sum_matrix(A1, A2):
    data = dict(A1.data)
    for rc, v in A2.data.items():
        data[rc] = data.get(rc, 0) + v
    return InstanceMatrix(A1.row_labels, A1.col_labels, data)


def _wrong_hadamard():
    """A Hadamard square with wrong entries: (r0, c1) is off by 5, and so
    are (r0, c2), made nonzero where the supports are disjoint, and (r1, c0),
    which comes first in column-major order; (r2, c2) is off by 2."""
    Pm = [[1, 2, 0], [0, 1, 0], [0, 0, 3]]
    Qm = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    A = hadamard_square_target(Pm, Qm)
    assert A.to_dense() == [[9, 4, 0], [1, 1, 0], [0, 0, 9]]
    data = dict(A.data.items())
    data[("r0", "c1")] += 5
    data[("r0", "c2")] = Fraction(5)
    data[("r1", "c0")] += 5
    data[("r2", "c2")] += 2
    A = InstanceMatrix(A.row_labels, A.col_labels, data)
    assert A.to_dense() == [[9, 9, 5], [6, 1, 0], [0, 0, 11]]
    return A, hadamard_square_factorization(Pm, Qm)


def _tied_hadamard():
    """A Hadamard square whose row r0 misses its first entry (9) and holds a
    9 where the witness is zero: the two residuals tie, and the missing
    entry, which only the witness's support reaches, comes first."""
    Pm = [[1, 2, 0], [0, 1, 0], [0, 0, 3]]
    Qm = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    A = hadamard_square_target(Pm, Qm)
    data = dict(A.data.items())
    del data[("r0", "c0")]
    data[("r0", "c2")] = Fraction(9)
    return (InstanceMatrix(A.row_labels, A.col_labels, data),
            hadamard_square_factorization(Pm, Qm))


def _span_cases():
    """A size-6 witness whose labels test the span rejection at its edges:
    pieces out of shift order ("ro", "co"), no pieces ("rn", "cn"), spans
    that touch at one coordinate from either side ("r1"/"c1", "c4"/"r4"),
    spans that overlap with no shared coordinate ("r3"/"c3") and pieces at
    coordinate k - 1 ("rk", "ck").  Its target, with the row labels in
    reverse order, and the target off by 1 at the two touching pairs and
    made nonzero at the overlapping one."""
    h, two, three = Fraction(1, 2), Fraction(2), Fraction(3)
    rows = {"ro": ({4: ONE, 5: two}, {0: ONE}, {2: Fraction(3, 2)}), "rn": (),
            "r1": ({2: ONE, 0: two},), "r3": ({0: ONE, 4: ONE},),
            "r4": ({3: two, 4: ONE},), "rk": ({5: two},)}
    cols = {"co": ({3: ONE}, {1: two, 0: ONE}, {5: h}), "cn": (),
            "c1": ({2: three, 4: ONE},), "c3": ({2: ONE},),
            "c4": ({1: ONE, 3: ONE},), "ck": ({5: ONE},)}
    F = PSDFactorization(6, tuple(rows), tuple(cols), rows, cols)
    order = tuple(reversed(rows))
    dense = [[oracle_entry(F, r, c) for c in cols] for r in order]
    A = InstanceMatrix.from_dense(dense, order, tuple(cols))
    off = {("r1", "c1"): 1, ("r4", "c4"): 1, ("r3", "c3"): 2}
    wrong = InstanceMatrix.from_dense(
        [[x + off.get((r, c), 0) for c, x in zip(cols, row)] for r, row in zip(order, dense)],
        order, tuple(cols))
    return {"spans": (A, F), "spans-wrong": (wrong, F)}


def _oracle_cases():
    cases = {f"P({a})": (build_P(a), p_alpha_factorization(a))
             for a in (0, Fraction(1, 2), 1, 2, 3, 4)}
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases["identity"] = (InstanceMatrix.from_dense(I3), identity_factorization(3))
    Pm, Qm = [[1, 1, 0], [1, -1, 0], [0, 2, 3]], [[1, -1, 0], [1, 1, 0], [0, 0, 5]]
    cases["hadamard"] = (hadamard_square_target(Pm, Qm), hadamard_square_factorization(Pm, Qm))
    Pf, Qf = [[0.1, 0.3], [0.0, 0.7]], [[0.2, 0.0], [1.1, 0.3]]
    cases["hadamard-float"] = (hadamard_square_target(Pf, Qf),
                               hadamard_square_factorization(Pf, Qf))
    cases["direct-sum"] = (_sum_matrix(build_P(1), build_P(3)),
                           direct_sum(p_alpha_factorization(1), p_alpha_factorization(3)))
    f = parse_polynomial("x1 - 1")
    comp = completion_from_root(f, Assignment.exact({xvar(1): Fraction(1)}))
    cases["completion(x1-1)"] = (comp.matrix, comp.factorization)
    cases["wrong-A"] = _wrong_hadamard()
    cases["tied-A"] = _tied_hadamard()
    cases.update(_span_cases())
    return cases


ORACLE_CASES = _oracle_cases()


class TestSupportJoinOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_full_mode_matches_every_pair_loop(self, name):
        A, F = ORACLE_CASES[name]
        assert verify_factorization(A, F) == oracle_report(A, F, every_pair(A), "full")

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sampled_mode_matches_sample_loop(self, name, seed):
        A, F = ORACLE_CASES[name]
        report = verify_factorization(A, F, mode="sampled", seed=seed, samples=300)
        assert report == oracle_report(A, F, sampled_pairs(A, seed, 300), "sampled", seed)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_entry_matches_all_vector_pairs(self, name):
        A, F = ORACLE_CASES[name]
        for r, c in every_pair(A):
            value = F.entry(r, c)
            assert value == oracle_entry(F, r, c)
            assert type(value) is (Fraction if F.mode == "exact" else float)

    def test_wrong_matrix_reports_first_worst_entry(self):
        A, F = ORACLE_CASES["wrong-A"]
        report = verify_factorization(A, F)
        assert not report.passed
        assert (report.max_residual, report.worst_entry) == (5, ("r0", "c1"))
        assert report.nonzero == len(A.data) == 6
        assert report.joined + report.zero_by_support + 1 == report.entries_checked == 9

    def test_tie_goes_to_the_first_entry_in_row_major_order(self):
        A, F = ORACLE_CASES["tied-A"]
        report = verify_factorization(A, F)
        assert (report.max_residual, report.worst_entry) == (9, ("r0", "c0"))

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_sampled_instance_witness(self, seed):
        f = parse_polynomial("x1")
        A = reduce(f).M
        F = assemble_instance_witness(f, Assignment.exact({xvar(1): Fraction(0)}))
        report = verify_factorization(A, F, mode="sampled", seed=seed, samples=20_000)
        assert report == oracle_report(A, F, sampled_pairs(A, seed, 20_000), "sampled", seed)
        assert report.passed and report.joined > 0 and report.nonzero > 0


@pytest.fixture(scope="module")
def x1_minus_1_files():
    """M(B, K) and the instance witness of x1 - 1 at the root 1, as written."""
    f = parse_polynomial("x1 - 1")
    out = reduce(f)
    F = assemble_instance_witness(f, Assignment.exact({xvar(1): Fraction(1)}))
    return write_matrix(out.M, target_rank=out.r), write_factorization(F)


def coords(vectors):
    """The coordinates a label's vectors use."""
    return set().union(*vectors)


def _full(mtext, ftext):
    return verify_factorization(parse_matrix(mtext).instance, parse_factorization(ftext))


class TestFullModeCorruption:
    """Full mode certifies every entry, so one wrong number anywhere fails it."""

    def test_written_files_pass(self, x1_minus_1_files):
        report = _full(*x1_minus_1_files)
        n = parse_matrix(x1_minus_1_files[0]).instance.nrows
        assert report.passed and report.entries_checked == n * n
        assert report.joined + report.zero_by_support == n * n

    def test_changed_fac_value(self, x1_minus_1_files):
        mtext, ftext = x1_minus_1_files
        lines = ftext.splitlines()
        i = len(lines) // 2
        side, label, *rest = lines[i].split()
        lines[i] = " ".join([side, label, *rest[:-1], "5/3"])
        report = _full(mtext, "\n".join(lines) + "\n")
        assert not report.passed
        assert report.worst_entry[0 if side == "row" else 1] == label

    def test_changed_mtx_value(self, x1_minus_1_files):
        mtext, ftext = x1_minus_1_files
        lines = mtext.splitlines()
        data = [i for i, ln in enumerate(lines) if ln.split()[0] not in ("row", "col", "r")
                and not ln.startswith("psdrank-")]
        i = data[len(data) // 2]
        r, c, value = lines[i].split()
        lines[i] = f"{r} {c} {Fraction(value) + 1}"
        report = _full("\n".join(lines) + "\n", ftext)
        assert not report.passed and report.worst_entry == (r, c)
        assert report.max_residual == 1

    def test_zero_entry_made_nonzero_outside_join(self, x1_minus_1_files):
        mtext, ftext = x1_minus_1_files
        A, F = parse_matrix(mtext).instance, parse_factorization(ftext)
        r = A.row_labels[len(A.row_labels) // 2]
        c = next(c for c in A.col_labels if (r, c) not in A.data
                 and coords(F.row_vectors[r]).isdisjoint(coords(F.col_vectors[c])))
        base = verify_factorization(A, F)
        report = _full(mtext + f"{r} {c} 1/7\n", ftext)
        assert not report.passed
        assert (report.worst_entry, report.max_residual) == ((r, c), Fraction(1, 7))
        assert (report.joined, report.nonzero) == (base.joined, base.nonzero + 1)
        assert report.zero_by_support == base.zero_by_support - 1

    def test_extra_coordinate_creates_overlap(self, x1_minus_1_files):
        mtext, ftext = x1_minus_1_files
        A, F = parse_matrix(mtext).instance, parse_factorization(ftext)
        lines = ftext.splitlines()
        # a row holding one vector with one coordinate: "row <label> 1 1 <coord> <value>"
        i = next(i for i, ln in enumerate(lines) if ln.startswith("row ")
                 and ln.split()[2:4] == ["1", "1"])
        _, r, _, _, coord, value = lines[i].split()
        c = next(c for c in A.col_labels if coords(F.col_vectors[c])
                 and coords(F.row_vectors[r]).isdisjoint(coords(F.col_vectors[c])))
        extra = min(coords(F.col_vectors[c]))
        lines[i] = f"row {r} 1 2 {coord} {value} {extra} 1/1"
        base = verify_factorization(A, F)
        report = _full(mtext, "\n".join(lines) + "\n")
        assert not report.passed and report.worst_entry[0] == r
        assert report.joined > base.joined


INSTANCE_ROOTS = {"x1 - 1": {"x1": Fraction(1)},
                  "x1 - x2": {"x1": Fraction(19, 23), "x2": Fraction(19, 23)}}


@pytest.fixture(scope="module", params=sorted(INSTANCE_ROOTS))
def instance_witness(request):
    """An assembled instance witness and its file."""
    xi = Assignment.exact({xvar(int(n[1:])): v for n, v in INSTANCE_ROOTS[request.param].items()})
    F = assemble_instance_witness(parse_polynomial(request.param), xi)
    return F, write_factorization(F)


# Vectors that follow no block layout: mixed counts of coordinates, unsorted
# coordinates, a zero value (dropped when read), an empty vector and a label
# with none.
UNALIGNED_FAC = """psdrank-factorization v1 5 2 3 exact sparse
row a 3 2 3 1/2 1 2/1 1 4 -1/1 3 0 1/1 2 0/1 4 3/2
row b 2 0 1 2 5/3
col x 2 3 4 1/1 2 -1/2 0 1/1 1 1 1/1
col y 1 2 2 1/1 3 1/3
col z 0
"""
UNALIGNED_ROWS = {"a": ({3: Fraction(1, 2), 1: Fraction(2)}, {4: Fraction(-1)},
                        {0: ONE, 4: Fraction(3, 2)}),
                  "b": ({}, {2: Fraction(5, 3)})}
UNALIGNED_COLS = {"x": ({4: ONE, 2: Fraction(-1, 2), 0: ONE}, {1: ONE}),
                  "y": ({2: ONE, 3: Fraction(1, 3)},), "z": ()}


class TestPieceTable:
    def test_parsed_equals_assembled(self, instance_witness):
        F, text = instance_witness
        G = parse_factorization(text)
        assert G.rows == F.rows and G.cols == F.cols and G == F
        # a direct sum of the completion and k gadget blocks: few templates
        assert len(F.rows.templates) + len(F.cols.templates) < 300 < len(F.row_labels)
        assert write_factorization(G) == text

    def test_completion_round_trip(self):
        f = parse_polynomial("x1*x2 - x1")
        F = completion_from_root(
            f, Assignment.exact({xvar(1): Fraction(1), xvar(2): Fraction(1)})).factorization
        assert parse_factorization(write_factorization(F)) == F

    def test_unaligned_file_verifies_like_plain_vectors(self):
        G = parse_factorization(UNALIGNED_FAC)
        plain = PSDFactorization(5, ("a", "b"), ("x", "y", "z"), UNALIGNED_ROWS, UNALIGNED_COLS)
        assert G == plain and write_factorization(G) == write_factorization(plain)
        assert pieces_of(G.rows, "a") == [({2: Fraction(1, 2), 0: Fraction(2)}, 1),
                                          ({0: Fraction(-1)}, 4), ({0: ONE, 4: Fraction(3, 2)}, 0)]
        dense = [[oracle_entry(plain, r, c) for c in plain.col_labels] for r in plain.row_labels]
        A = InstanceMatrix.from_dense(dense, plain.row_labels, plain.col_labels)
        wrong = InstanceMatrix.from_dense([[x + (r == c == 1) for c, x in enumerate(row)]
                                           for r, row in enumerate(dense)],
                                          plain.row_labels, plain.col_labels)
        for M in (A, wrong):
            for r, c in every_pair(M):
                assert G.entry(r, c) == plain.entry(r, c) == oracle_entry(plain, r, c)
            full = verify_factorization(M, G)
            assert full == verify_factorization(M, plain) == oracle_report(
                M, plain, every_pair(M), "full")
            sampled = verify_factorization(M, G, mode="sampled", seed=4, samples=40)
            assert sampled == verify_factorization(M, plain, mode="sampled", seed=4, samples=40)
        assert verify_factorization(A, G).passed
        assert verify_factorization(wrong, G).worst_entry == ("b", "y")

    @staticmethod
    def seeded(k, prefix):
        """A table of size k, after two multi-piece labels if ``prefix``, and
        the ids of an empty, a one-coordinate and a two-coordinate template
        (tops -1, 0 and 2)."""
        T = PieceTable(k)
        ids = [T.template(v)[0] for v in ({}, {0: ONE}, {0: ONE, 2: Fraction(1, 2)})]
        if prefix:
            T.extend(["m0", "m1"], [2, 3], [ids[1], ids[2], ids[2], ids[2], ids[1]],
                     [1, 3, 0, 4, k - 1])
        return T, ids

    @staticmethod
    def columns(T):
        """The table's columns, then its label spans as verification reads them."""
        return (list(T.labels), dict(T.index),
                *(list(c) for c in (T.tids, T.shifts, T.starts, *_Join.spans(T))))

    def test_mixed_run_columns(self):
        k = 9
        T, (empty, one, pair) = self.seeded(k, True)
        # "m" holds three pieces, "none" none, and e0..e4 one each; the pair
        # at k - 3 and the one-coordinate template at k - 1 each reach
        # coordinate k - 1 exactly
        labels = ["m", "none", "e0", "e1", "e2", "e3", "e4"]
        tids = [pair, empty, one, empty, one, pair, one, empty]
        shifts = [2, 0, 5, 0, k - 1, k - 3, 0, 4]
        T.extend(labels, array("q", [3, 0, 1, 1, 1, 1, 1]), array("q", tids), array("q", shifts))
        assert self.columns(T) == (
            ["m0", "m1", *labels], {l: i for i, l in enumerate(["m0", "m1", *labels])},
            [one, pair, pair, pair, one, *tids], [1, 3, 0, 4, k - 1, *shifts],
            [0, 2, 5, 8, 8, 9, 10, 11, 12, 13],
            [1, 0, 0, 0, 0, k - 1, k - 3, 0, 4],
            [5, k - 1, 5, -1, -1, k - 1, k - 1, 0, 3])
        assert T["m"] == ({2: ONE, 4: Fraction(1, 2)}, {}, {5: ONE}) and T["none"] == ()
        T.extend(["last"], [0], [], [])  # no pieces after the last piece
        assert [c[-1] for c in _Join.spans(T)] == [0, -1]

    @pytest.mark.parametrize("prefix", [False, True])
    def test_one_piece_run_equals_one_call_per_label(self, prefix):
        k = 9
        A, (empty, one, pair) = self.seeded(k, prefix)
        B, _ = self.seeded(k, prefix)
        labels = ["e0", "e1", "e2", "e3", "e4"]
        tids, shifts = [empty, one, pair, one, empty], [0, k - 1, k - 3, 0, 4]
        A.extend(labels, array("q", [1] * 5), array("q", tids), array("q", shifts))
        for label, t, s in zip(labels, tids, shifts):
            B.extend([label], [1], [t], [s])
        assert self.columns(A) == self.columns(B) and A == B
        los, his = _Join.spans(A)
        assert (los[-5:], his[-5:]) == (array("q", [0, k - 1, k - 3, 0, 4]),
                                        array("q", [-1, k - 1, k - 1, 0, 3]))
        A.extend([], [], [], [])
        assert self.columns(A) == self.columns(B)

    @pytest.mark.parametrize("run,message", [
        ([("one", 2), ("one", -1), ("pair", 7)], "vector coordinate -1 outside dimension 9"),
        ([("one", 2), ("pair", 7), ("one", -1)], "vector coordinate 9 outside dimension 9"),
        ([("empty", 3), ("one", 9)], "vector coordinate 9 outside dimension 9"),
    ], ids=["negative shift", "top reaches k", "shift reaches k"])
    def test_refused_run_names_its_first_offender_and_appends_nothing(self, run, message):
        k = 9
        T, ids = self.seeded(k, True)
        before = self.columns(T)
        tid = dict(zip(("empty", "one", "pair"), ids))
        labels = [f"e{n}" for n in range(len(run))]
        with pytest.raises(ValueError) as refused:
            T.extend(labels, [1] * len(run), [tid[name] for name, _ in run], [s for _, s in run])
        assert str(refused.value) == message
        assert self.columns(T) == before

    def test_size_beyond_a_machine_word_round_trips(self):
        text = ("psdrank-factorization v1 18446744073709551616 1 0 exact sparse\n"
                "row e1[1] 1 1 18446744073709551615 1/1\n")
        F = parse_factorization(text)
        assert F.k == 2 ** 64 and F.row_vectors == {"e1[1]": ({2 ** 64 - 1: ONE},)}
        assert write_factorization(F) == text and parse_factorization(text) == F

    @pytest.mark.parametrize("coord", [2 ** 64, -2 ** 64])
    def test_coordinate_beyond_a_machine_word_named(self, coord):
        head = "psdrank-factorization v1 5 1 0 exact sparse\n"
        line = f"row a 2 1 0 1/1 1 {coord} 1/1\n"
        with pytest.raises(ParseError, match=f"^vector coordinate {coord} outside dimension 5$"):
            parse_factorization(head + line)
        with pytest.raises(ParseError, match="do not match the header counts"):
            parse_factorization(head + line + "row b 0\n")

    def test_tables_are_the_vector_mappings(self):
        F = p_alpha_factorization(1)
        assert F.row_vectors is F.rows and F.col_vectors is F.cols
        rows = {"1": ({0: ONE, 1: ONE},), "2": ({0: ONE},), "3": ({1: ONE},)}
        assert dict(F.row_vectors) == rows and list(F.row_vectors) == ["1", "2", "3"]
        assert F.row_vectors == rows and rows == F.row_vectors
        assert F.row_vectors != {**rows, "3": ()} and F.row_vectors != {"1": rows["1"]}
        # against another table, label order and k count too
        pieces = {l: [(v, 0) for v in vecs] for l, vecs in rows.items()}
        assert F.row_vectors == PieceTable.build(2, ["1", "2", "3"], pieces)
        assert F.row_vectors != PieceTable.build(2, ["3", "2", "1"], pieces)
        assert F.row_vectors != PieceTable.build(3, ["1", "2", "3"], pieces)


def reference_write_factorization(F):
    """The writer as it was before one-piece labels had line patterns: every
    label's line is built from a list of its pieces' texts."""
    sparse = F.k > 64
    head = f"{FACTORIZATION_HEADER} {F.k} {len(F.row_labels)} {len(F.col_labels)} {F.mode}"
    lines = [head + (" sparse" if sparse else "")]
    tokens = {}

    def token(x):
        tok = tokens.get(id(x))
        if tok is None:
            tok = tokens[id(x)] = _num_token(x, F.mode)
        return tok

    def render(tmpl):
        items = sorted(tmpl)
        text = " ".join([str(len(items))] + [f"{{{n}}} {token(x)}" for n, (_, x) in enumerate(items)])
        return text, tuple(c for c, _ in items) if len(items) > 1 else ()

    for side, T in (("row", F.rows), ("col", F.cols)):
        starts, tids, shifts = T.starts, T.tids, T.shifts
        texts = [render(t) for t in T.templates] if sparse else []
        for i, label in enumerate(T.labels):
            lo, hi = starts[i], starts[i + 1]
            if sparse:
                parts = [side, label, str(hi - lo)]
                for t, s in zip(tids[lo:hi], shifts[lo:hi]):
                    text, coords = texts[t]
                    parts.append(text.format(*[s + c for c in coords]) if coords
                                 else text.format(s))
            else:
                parts = [side, label, *(token(vec.get(c, 0)) for vec in T.vectors(i)
                                        for c in range(F.k))]
            lines.append(" ".join(parts))
    lines.append("")
    return "\n".join(lines)


def _hand_built_sparse():
    """k = 70: a label with no pieces, the all-zero (empty) vector, a
    one-piece template with several coordinates, one-piece labels of a
    one-coordinate template, and multi-piece labels mixing both kinds."""
    half, third = Fraction(1, 2), Fraction(-1, 3)
    rows = {"none": [], "zero": [({}, 0)], "wide": [({0: half, 3: third, 1: ONE}, 60)],
            "one": [({0: third}, 69)], "many": [({0: ONE}, 0), ({2: half, 5: ONE}, 10), ({}, 0),
                                                ({1: third}, 68)]}
    cols = {"none": [({7: ONE}, 1), ({7: ONE}, 2)], "zero": [], "wide": [({0: ONE}, 0)],
            "one": [({0: half, 1: half}, 5), ({0: half}, 40)], "many": [({0: ONE}, 12)]}
    labels = tuple(rows)
    return PSDFactorization.from_tables(PieceTable.build(70, labels, rows),
                                        PieceTable.build(70, labels, cols), "exact")


def _writer_cases():
    def assembled(text, **root):
        return lambda: assemble_instance_witness(parse_polynomial(text), Assignment.exact(
            {xvar(int(n[1:])): Fraction(v) for n, v in root.items()}))

    return {
        "x1@0": assembled("x1", x1=0),
        "x1-1@1": assembled("x1 - 1", x1=1),
        "x1-1@1.0": lambda: assemble_instance_witness(parse_polynomial("x1 - 1"),
                                                      Assignment.floating({xvar(1): 1.0})),
        "dense completion": lambda: completion_from_root(
            parse_polynomial("x1*x2 - x1"),
            Assignment.exact({xvar(1): Fraction(1, 2), xvar(2): Fraction(1)})).factorization,
        "hand-built sparse": _hand_built_sparse,
    }


class TestWriterOracle:
    @pytest.mark.parametrize("case", sorted(_writer_cases()))
    def test_bytes_match_reference(self, case):
        F = _writer_cases()[case]()
        text = write_factorization(F)
        assert text == reference_write_factorization(F)
        assert parse_factorization(text) == F
        assert text.splitlines()[0].endswith(" sparse") == (F.k > 64)

    def test_float_witness_verifies_as_its_file(self):
        # a float witness holds the float values its file prints, so the
        # witness in memory and the one read back verify alike
        F = _writer_cases()["x1-1@1.0"]()
        G = parse_factorization(write_factorization(F))
        M = reduce(parse_polynomial("x1 - 1")).M
        assert verify_factorization(M, F).summary() == verify_factorization(M, G).summary()


NAN_FAC = """psdrank-factorization v1 2 2 2 float
row r0 nan 0
row r1 0 nan
col c0 nan 0
col c1 0 nan
"""


class TestNonFiniteValues:
    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "infinity", "1e400"])
    def test_parse_rejects_non_finite_tokens(self, token):
        with pytest.raises(ParseError, match="non-finite value"):
            parse_factorization(NAN_FAC.replace("nan", token))

    def test_exact_mode_rejects_nan_tokens(self):
        with pytest.raises(ParseError):
            parse_factorization(NAN_FAC.replace("float", "exact"))

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    @pytest.mark.parametrize("rows, cols", [
        # NaN values, as in NAN_FAC
        ({"r0": ({0: math.nan},), "r1": ({1: math.nan},)},
         {"c0": ({0: math.nan},), "c1": ({1: math.nan},)}),
        # finite values whose products overflow: inf + (-inf) is NaN
        ({"r0": ({0: 1e200, 1: 1e200},), "r1": ({0: 1e200, 1: 1e200},)},
         {"c0": ({0: 1e200, 1: -1e200},), "c1": ({0: 1e200, 1: -1e200},)}),
    ])
    def test_nan_residual_fails(self, mode, rows, cols):
        F = PSDFactorization(2, ("r0", "r1"), ("c0", "c1"), rows, cols, "float")
        I2 = InstanceMatrix.from_dense([[1, 0], [0, 1]])
        report = verify_factorization(I2, F, mode=mode, samples=50)
        assert not report.passed and math.isnan(report.max_residual)
        if mode == "full":
            assert report.worst_entry == ("r0", "c0")  # the first NaN stays


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
        data = dict(build_P(1).data.items())
        data[("1", "1")] = data[("1", "1")] + 1 - delta
        target = InstanceMatrix(("1", "2", "3"), ("1", "2", "3"), data)
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


# The trial-division greedy that four_squares replaced, kept as the oracle:
# four_squares must return exactly the tuple it returns.

def _reference_two_squares(n):
    m, d = n, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if d % 4 == 3 and e % 2:
            return None
        d += 1
    if m % 4 == 3:
        return None
    a = math.isqrt(n)
    while a * a * 2 >= n:
        r = math.isqrt(n - a * a)
        if a * a + r * r == n:
            return (a, r)
        a -= 1
    return None


def _reference_three_squares(n):
    m = n
    while m and m % 4 == 0:
        m //= 4
    if m % 8 == 7:
        return None
    for a in range(math.isqrt(n), -1, -1):
        two = _reference_two_squares(n - a * a)
        if two is not None:
            return (a,) + two
    return None


def reference_four_squares(n):
    if n == 0:
        return ()
    parts = _reference_three_squares(n)
    a = math.isqrt(n)
    while parts is None:
        rest = _reference_three_squares(n - a * a)
        if rest is not None:
            parts = (a,) + rest
        a -= 1
    return tuple(x for x in parts if x)


def _trial_division_prime(p):
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


# Primes near 10^6 and 10^9 in both classes mod 4.
PRIMES_1_MOD_4 = (1_000_033, 1_000_117, 998_244_353, 1_000_000_009)
PRIMES_3_MOD_4 = (1_000_003, 1_000_039, 1_000_000_007, 1_000_000_087)

WORST_CASE = Path(__file__).parent / "data" / "square_sum_worst_case.txt"


class TestFourSquaresOracle:
    def test_seeded_corpus(self):
        rng = random.Random(11)
        corpus = list(range(2000)) + [rng.randrange(10 ** 12) for _ in range(300)]
        corpus += [rng.randrange(10 ** 9) * 4 ** rng.randrange(1, 6) for _ in range(50)]
        for n in corpus:
            assert four_squares(n) == reference_four_squares(n), n

    def test_prime_multiples(self):
        assert all(_trial_division_prime(p) and p % 4 == 1 for p in PRIMES_1_MOD_4)
        assert all(_trial_division_prime(p) and p % 4 == 3 for p in PRIMES_3_MOD_4)
        for p in PRIMES_1_MOD_4 + PRIMES_3_MOD_4:
            for s in range(1, 25):
                n = s * p
                assert four_squares(n) == reference_four_squares(n), n

    def test_hard_residues(self):
        for n in (7, 15, 23, 28, 60, 112, 240, 7 * 4 ** 5):
            assert four_squares(n) == reference_four_squares(n)

    def test_largest_two_square_pair(self):
        for n in range(5000):
            assert _two_squares(n) == _reference_two_squares(n), n

    def test_worst_case_corpus(self):
        corpus = [int(ln) for ln in WORST_CASE.read_text().splitlines()
                  if not ln.startswith("#")]
        assert len(corpus) == 389 and max(len(str(n)) for n in corpus) == 33
        t0 = time.monotonic()
        for n in corpus:
            assert sum(x * x for x in four_squares(n)) == n
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"worst-case corpus took {elapsed:.1f}s"


class TestPrimality:
    def test_matches_trial_division(self):
        assert [n for n in range(20000) if _is_prime(n)] == [
            n for n in range(20000) if _trial_division_prime(n)]

    def test_strong_lucas_pseudoprimes(self):
        # OEIS A217255: the odd composites below 30000 that pass.
        passing = [n for n in range(5, 30000, 2)
                   if not _trial_division_prime(n) and _strong_lucas_probable_prime(n)]
        assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]

    def test_beyond_the_deterministic_bound(self):
        # The least strong pseudoprime to all 13 bases 2..41: only the Lucas
        # half of Baillie-PSW rejects it.
        psi = 3_317_044_064_679_887_385_961_981
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES)
        assert pow(43, psi - 1, psi) != 1  # composite
        assert not _is_prime(psi)
        for e in (89, 107, 127):
            assert _is_prime(2 ** e - 1)
        assert not _is_prime((2 ** 89 - 1) * (2 ** 61 - 1))


class TestFileFormat:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_round_trip(self, sparse):
        F = p_alpha_factorization(Fraction(1, 2))
        F = widened(F) if sparse else F
        text = write_factorization(F)
        assert text.splitlines()[0].endswith(" sparse") == sparse
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

    @pytest.mark.parametrize("version", ["v17", "v1x"])
    def test_later_version_rejected(self, version):
        text = write_factorization(p_alpha_factorization(1))
        with pytest.raises(ParseError, match="missing 'psdrank-factorization v1' header"):
            parse_factorization(text.replace(" v1 ", f" {version} ", 1))

    def test_one_token_line_rejected(self):
        head = write_factorization(p_alpha_factorization(1)).splitlines()[0]
        with pytest.raises(ValueError, match="'row'"):
            parse_factorization(head + "\nrow\n")

    def test_unknown_layout_rejected(self):
        text = write_factorization(p_alpha_factorization(1))
        head = text.splitlines()[0]
        with pytest.raises(ParseError, match="unknown layout 'bogus'"):
            parse_factorization(text.replace(head, head + " bogus", 1))

    @pytest.mark.parametrize("bad", ["row 3 2 2 0 1/1 1 1/1 2 0 1/1 1 1/x",
                                     "row 3 1 2 0 1/2 1 1/x"])
    def test_malformed_token_of_later_template_rejected(self, bad):
        # a multi-coordinate template after another: its tokens are still checked
        head = write_factorization(widened(p_alpha_factorization(1))).splitlines()[0]
        lines = [head, "row 1 1 2 0 1/1 1 1/1", "row 2 1 1 0 1/1", bad]
        with pytest.raises(ParseError, match=re.escape(f"malformed factorization line: {bad!r}")):
            parse_factorization("\n".join(lines) + "\n")

    def test_short_dense_line_rejected(self):
        head = write_factorization(p_alpha_factorization(1)).splitlines()[0]
        with pytest.raises(ParseError, match="not a multiple of k=2"):
            parse_factorization(head + "\nrow 1 1/1 1/1\nrow 2 1/1\n")

    def test_truncated_sparse_line_rejected(self):
        head = write_factorization(widened(p_alpha_factorization(1))).splitlines()[0]
        with pytest.raises(ValueError, match="truncated"):
            parse_factorization(head + "\nrow 1 1 2 0 1/1\n")
