import hashlib
from fractions import Fraction

import pytest

from psdrank.matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    parse_matrix,
    write_matrix,
    write_polynomial_matrix,
)
from psdrank.gadgets import build_A, build_P, reduce
from psdrank.polynomials import Polynomial, parse_polynomial


class TestInstanceMatrix:
    def test_absent_is_zero(self):
        m = InstanceMatrix(("a", "b"), ("c", "d"), {("a", "c"): Fraction(3)})
        assert m.entry("a", "c") == 3
        assert m.entry("b", "d") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            InstanceMatrix(("a",), ("b",), {("a", "b"): Fraction(-1)})

    def test_rejects_stray_labels(self):
        with pytest.raises(ValueError, match="outside"):
            InstanceMatrix(("a",), ("b",), {("a", "zzz"): Fraction(1)})

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            InstanceMatrix(("a label",), ("b",), {})
        with pytest.raises(ValueError, match="unique"):
            InstanceMatrix(("a", "a"), ("b",), {})

    def test_dense_round_trip(self):
        m = InstanceMatrix.from_dense([[1, 0], [2, Fraction(1, 3)]])
        assert m.to_dense() == [[1, 0], [2, Fraction(1, 3)]]
        assert m.max_entry() == 2


@pytest.mark.parametrize("cls", [InstanceMatrix, IncompleteMatrix])
class TestEntryValidation:
    @pytest.mark.parametrize("label", ["", "a\tb", "a b", "a\x1cb"])
    def test_rejects_empty_or_whitespace_labels(self, cls, label):
        with pytest.raises(ValueError, match="whitespace-free"):
            cls((label,), ("b",), {})
        with pytest.raises(ValueError, match="whitespace-free"):
            cls(("a",), (label,), {})

    def test_numbers_stored_as_fractions(self, cls):
        m = cls(("a",), ("b", "c"), {("a", "b"): 3, ("a", "c"): 0.5})
        assert type(m.data[("a", "b")]) is Fraction and m.data[("a", "b")] == 3
        assert type(m.data[("a", "c")]) is Fraction and m.data[("a", "c")] == Fraction(1, 2)

    def test_zero_entries_dropped(self, cls):
        m = cls(("a",), ("b", "c", "d", "e"),
                {("a", "b"): 0, ("a", "c"): Fraction(0), ("a", "d"): 0.0,
                 ("a", "e"): Fraction(2)})
        assert m.data == {("a", "e"): Fraction(2)}


def test_instance_rejects_negative_int():
    with pytest.raises(ValueError, match="negative"):
        InstanceMatrix(("a",), ("b",), {("a", "b"): -2})


def test_incomplete_keeps_marks():
    m = IncompleteMatrix(("a",), ("b", "c", "d"),
                         {("a", "b"): UNKNOWN, ("a", "c"): NONZERO_UNKNOWN,
                          ("a", "d"): 0})
    assert m.data == {("a", "b"): UNKNOWN, ("a", "c"): NONZERO_UNKNOWN}


class TestIncompleteMatrix:
    def test_unknown_positions_row_major(self):
        m = IncompleteMatrix(("r0", "r1"), ("c0", "c1"),
                             {("r1", "c0"): UNKNOWN, ("r0", "c1"): UNKNOWN})
        assert m.unknown_positions() == (("r0", "c1"), ("r1", "c0"))

    def test_nonzero_unknown_is_not_unknown(self):
        m = IncompleteMatrix(("r0",), ("c0",), {("r0", "c0"): NONZERO_UNKNOWN})
        assert m.unknown_positions() == ()
        assert not m.is_known("r0", "c0")

    def test_transpose(self):
        m = IncompleteMatrix(("r0", "r1"), ("c0",), {("r0", "c0"): Fraction(2)})
        t = m.transpose()
        assert t.entry("c0", "r0") == 2
        assert t.row_labels == ("c0",)


class TestFileFormat:
    def test_instance_round_trip(self):
        m = InstanceMatrix(("a", "b"), ("c", "d"),
                           {("a", "c"): Fraction(1, 3), ("b", "d"): Fraction(7)})
        parsed = parse_matrix(write_matrix(m))
        assert parsed.matrix == m
        assert parsed.target_rank is None

    def test_target_rank_line(self):
        m = InstanceMatrix(("a",), ("a",), {})
        parsed = parse_matrix(write_matrix(m, target_rank=5))
        assert parsed.target_rank == 5

    def test_incomplete_round_trip(self):
        m = IncompleteMatrix(("a", "b"), ("a", "b"),
                             {("a", "b"): UNKNOWN, ("b", "a"): NONZERO_UNKNOWN,
                              ("a", "a"): Fraction(2)})
        parsed = parse_matrix(write_matrix(m))
        got = parsed.incomplete
        assert got.entry("a", "b") is UNKNOWN
        assert got.entry("b", "a") is NONZERO_UNKNOWN
        assert got.entry("a", "a") == 2
        assert got.entry("b", "b") == 0

    def test_zero_rows_survive(self):
        m = InstanceMatrix(("a", "empty"), ("c",), {("a", "c"): Fraction(1)})
        got = parse_matrix(write_matrix(m)).instance
        assert got.row_labels == ("a", "empty")

    def test_byte_stable(self):
        m = build_P(Fraction(1, 2))
        assert write_matrix(m) == write_matrix(m)

    def test_reduction_bytes_pinned(self):
        out = reduce(parse_polynomial("x1 - 1"))
        data = write_matrix(out.M, target_rank=out.r).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == (
            "e044dec2512c5f7d24f20289333a45dd95ba21b48716777f046948f60072301c")

    def test_zero_denominator_names_line(self):
        text = "psdrank-matrix v1 1 1\nrow 0 a\ncol 0 b\na b 1/0\n"
        with pytest.raises(ValueError, match="'a b 1/0'"):
            parse_matrix(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="header"):
            parse_matrix("not a matrix\n")
        with pytest.raises(ValueError):
            parse_matrix("psdrank-matrix v1 1 1\nrow 0 a\ncol 0 b\na b 1/2 extra\n")

    def test_incomplete_accessor_guards(self):
        m = IncompleteMatrix(("a",), ("a",), {("a", "a"): UNKNOWN})
        parsed = parse_matrix(write_matrix(m))
        with pytest.raises(ValueError, match="incomplete"):
            parsed.instance


def test_label_vector_requires_one():
    one = Polynomial.constant(1)
    zero = Polynomial.zero()
    lv = LabelVector((one, zero, parse_polynomial("x1")))
    assert lv.render() == "(1,0,x1)"
    with pytest.raises(ValueError):
        LabelVector((zero, zero, parse_polynomial("x1")))


def test_polynomial_matrix_round_trip():
    from psdrank.matrices import parse_polynomial_matrix

    A = build_A(parse_polynomial("-1"))
    text = write_polynomial_matrix(A)
    assert text.startswith("psdrank-polymatrix v1 19 19")
    assert "(1,0,0) (1,0,0) 1" in text
    parsed = parse_polynomial_matrix(text)
    assert len(parsed.row_labels) == 19
    renders = {h.render(): i for i, h in enumerate(A.row_labels)}
    for (r, c), p in parsed.entries.items():
        assert p == A.entry(renders[r], renders[c])
