import gc
import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdrank import gadgets, matrices
from psdrank.cli import main
from psdrank.matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    PolynomialMatrix,
    parse_matrix,
    parse_polynomial_matrix,
    write_matrix,
    write_polynomial_matrix,
)
from psdrank.certificates import completion_from_root
from psdrank.gadgets import build_A, build_B, build_C, build_M, build_P, index_set_H, reduce
from psdrank.polynomials import Assignment, ParseError, Polynomial, parse_polynomial, xvar


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
        assert max(m.data.values(), default=0) == 2


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


@pytest.mark.parametrize("mark", [UNKNOWN, NONZERO_UNKNOWN])
def test_instance_rejects_marks(mark):
    with pytest.raises(ValueError, match="mark"):
        InstanceMatrix(("a",), ("b",), {("a", "b"): mark})
    with pytest.raises(ValueError, match="mark"):
        InstanceMatrix.from_dense([[mark]])


def test_instance_is_an_incomplete_matrix():
    m = InstanceMatrix.from_dense([[1, 0], [0, 2]])
    assert isinstance(m, IncompleteMatrix)
    assert m.unknown_positions() == ()
    parsed = parse_matrix(write_matrix(m))
    assert parsed.incomplete is parsed.matrix
    assert parsed.incomplete == m


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
        assert m.entry("r0", "c0") is NONZERO_UNKNOWN

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

    def test_negative_target_rank_names_line(self):
        assert parse_matrix("psdrank-matrix v1 1 1\nr 0\nrow 0 a\ncol 0 b\n").target_rank == 0
        with pytest.raises(ParseError, match="negative target rank in line 'r -5'"):
            parse_matrix("psdrank-matrix v1 1 1\nr -5\nrow 0 a\ncol 0 b\na b 1\n")

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

    def test_shuffled_entries_write_sorted(self):
        M = reduce(parse_polynomial("x1 - 1")).M
        items = list(M.data.items())
        random.Random(3).shuffle(items)
        shuffled = InstanceMatrix(M.row_labels, M.col_labels, dict(items))
        assert [rc for rc, _ in items] != list(M.data)
        assert list(shuffled.data) == list(M.data) and shuffled == M
        assert write_matrix(shuffled, target_rank=5) == write_matrix(M, target_rank=5)

    def test_row_major_entries_skip_the_sort(self, monkeypatch):
        M = reduce(parse_polynomial("x1 - 1")).M
        expected = write_matrix(M)

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted() called")

        monkeypatch.setattr(matrices, "sorted", no_sort, raising=False)
        assert write_matrix(M) == expected
        swapped = dict(reversed(list(M.data.items())[:2]))
        swapped.update(M.data)
        with pytest.raises(AssertionError, match="sorted"):
            write_matrix(InstanceMatrix(M.row_labels, M.col_labels, swapped))

    def test_zero_denominator_names_line(self):
        text = "psdrank-matrix v1 1 1\nrow 0 a\ncol 0 b\na b 1/0\n"
        with pytest.raises(ValueError, match="'a b 1/0'"):
            parse_matrix(text)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="header"):
            parse_matrix("not a matrix\n")
        with pytest.raises(ValueError):
            parse_matrix("psdrank-matrix v1 1 1\nrow 0 a\ncol 0 b\na b 1/2 extra\n")

    @pytest.mark.parametrize("parse, header", [
        (parse_matrix, "psdrank-matrix v1"),
        (parse_polynomial_matrix, "psdrank-polymatrix v1"),
    ])
    @pytest.mark.parametrize("dims", ["-1 -2", "-1 0", "0 -1"])
    def test_negative_dimension_rejected(self, parse, header, dims):
        with pytest.raises(ParseError, match="malformed matrix header.*negative dimension"):
            parse(f"{header} {dims}\n")

    @pytest.mark.parametrize("parse, name, body", [
        (parse_matrix, "psdrank-matrix", "1 1\nrow 0 a\ncol 0 b\na b 1\n"),
        (parse_polynomial_matrix, "psdrank-polymatrix", "1 1\nrow 0 a\ncol 0 b\na b x1\n"),
    ])
    @pytest.mark.parametrize("version", ["v17", "v1x"])
    def test_later_version_rejected(self, parse, name, body, version):
        parse(f"{name} v1 {body}")
        with pytest.raises(ParseError, match=f"missing '{name} v1' header"):
            parse(f"{name} {version} {body}")

    @pytest.mark.parametrize("body", ["", "row 0 a\ncol 0 b\na b 1\n"])
    def test_huge_declared_dimension_builds_no_list(self, body):
        # 10**18 labels would not fit in memory: the label count decides first
        with pytest.raises(ParseError, match="do not cover the declared dimensions"):
            parse_matrix(f"psdrank-matrix v1 {10 ** 18} 1\n{body}")

    def test_repeated_target_rank_rejected(self):
        text = write_matrix(InstanceMatrix(("a",), ("a",), {}), target_rank=5)
        with pytest.raises(ParseError, match="repeated r line 'r 6'"):
            parse_matrix(text + "r 6\n")

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
    for (r, c), p in parsed.data.items():
        assert p == A.entry(r, c)
    assert parsed == A


def test_polynomial_matrix_squares_dots():
    f = parse_polynomial("x1 - 1")
    A, H = build_A(f), index_set_H(f)
    assert A.row_labels == A.col_labels == tuple(h.render() for h in H)
    vectors = dict(zip(A.row_labels, H))
    for u, hu in vectors.items():
        for v, hv in vectors.items():
            d = sum((a * b for a, b in zip(hu.coords, hv.coords)), Polynomial.zero())
            assert A.entry(u, v) == d * d
            assert ((u, v) in A.data) == (not d.is_zero)


class TestPolynomialMatrixValidation:
    def test_undeclared_label_rejected(self):
        text = "psdrank-polymatrix v1 1 1\nrow 0 a\ncol 0 b\nzz b x1\n"
        with pytest.raises(ParseError, match="outside the label sets"):
            parse_polynomial_matrix(text)

    def test_duplicate_labels_rejected(self):
        text = "psdrank-polymatrix v1 2 1\nrow 0 a\nrow 1 a\ncol 0 b\na b x1\n"
        with pytest.raises(ParseError, match="unique"):
            parse_polynomial_matrix(text)

    @pytest.mark.parametrize("keyword", ["row", "col", "r"])
    def test_keyword_labels_rejected(self, keyword):
        text = f"psdrank-polymatrix v1 1 1\nrow 0 {keyword}\ncol 0 b\n"
        with pytest.raises(ParseError, match="keyword"):
            parse_polynomial_matrix(text)

    def test_constructor_checks_labels_and_entries(self):
        one = Polynomial.constant(1)
        with pytest.raises(ValueError, match="outside"):
            PolynomialMatrix(("a",), ("b",), {("b", "a"): one})
        with pytest.raises(ValueError, match="unique"):
            PolynomialMatrix(("a", "a"), ("b",), {})


# ---------------------------------------------------------------------------
# The constructor against a one-pass reference
# ---------------------------------------------------------------------------

def reference_check_labels(labels):
    """Each label checked on its own, then the tuple for repeats."""
    out = tuple(labels)
    for label in out:
        if label.split() != [label]:
            raise ValueError(f"matrix labels must be nonempty and whitespace-free: {label!r}")
        if label in ("row", "col", "r"):
            raise ValueError(f"label {label!r} collides with a format keyword")
    if len(set(out)) != len(out):
        raise ValueError("matrix labels must be unique")
    return out


# Every character str.split() splits at, \x1c-\x1f, \x85 and \u2028 among them.
SPLIT_CHARS = [chr(i) for i in range(sys.maxunicode + 1) if chr(i).isspace()]


CLEAN_LABEL = st.one_of(st.sampled_from(["a", "b", "e1[0]", "(1,0,x1)", "rows", "r1"]),
                        st.text(alphabet="abr(),1", min_size=1, max_size=3))
BAD_LABEL = st.one_of(st.sampled_from(["", "row", "col", "r"]),
                      st.text(alphabet=st.sampled_from(SPLIT_CHARS + ["a"]), max_size=3))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.one_of(CLEAN_LABEL, CLEAN_LABEL, CLEAN_LABEL, BAD_LABEL), max_size=6))
def test_label_check_matches_per_label_reference(labels):
    def outcome(check):
        try:
            return "accepted", check(labels)
        except ValueError as e:
            return "rejected", str(e)

    assert outcome(matrices._check_labels) == outcome(reference_check_labels)


def test_split_chars_cover_the_unusual_separators():
    assert {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000"} <= set(SPLIT_CHARS)
    for ch in SPLIT_CHARS:
        assert f"a{ch}b".split() == ["a", "b"]


def reference_check(instance, row_labels, col_labels, data):
    """The constructor's checks as one pass over each label tuple and then
    over every entry in item order: the reference the constructor's checks
    are compared with.  Returns the stored entries or raises ValueError."""
    rset = set(reference_check_labels(row_labels))
    cset = set(reference_check_labels(col_labels))
    clean = {}
    for (r, c), v in data.items():
        if r not in rset or c not in cset:
            raise ValueError(f"entry ({r!r}, {c!r}) is outside the label sets")
        if v is UNKNOWN or v is NONZERO_UNKNOWN:
            if instance:
                raise ValueError(f"mark {v.token!r} at ({r!r}, {c!r}) in an instance matrix")
            clean[(r, c)] = v
            continue
        if type(v) is not Fraction:
            v = Fraction(v)
        if v.numerator < 0 and instance:
            raise ValueError(f"negative entry {v} at ({r!r}, {c!r})")
        if v.numerator:
            clean[(r, c)] = v
    return clean


LABELS = ["a", "b", "c", "e1[0]", "(1,0,x1)"]
BAD_LABELS = ["", "a b", "row", "r"]
# Value objects that many examples share, as M's entries share K.
SHARED = [Fraction(144), UNKNOWN, Fraction(1, 3), NONZERO_UNKNOWN, Fraction(0), Fraction(-2),
          0, 1, -1, 7, True, False, 0.5]
VALUES = st.one_of(
    st.sampled_from(SHARED),
    st.fractions(min_value=-2, max_value=3, max_denominator=4),  # a new object each
    st.integers(-2, 3),
    st.booleans())


@st.composite
def constructor_inputs(draw):
    """Label tuples (the same tuple for rows and columns, equal ones, or
    different ones; now and then a bad label) and a data dict whose keys
    mostly lie inside the label sets."""
    pool = LABELS + BAD_LABELS * (draw(st.integers(0, 5)) == 0)
    rows = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)))
    shape = draw(st.sampled_from(["same", "equal", "other"]))
    cols = (rows if shape == "same" else list(rows) if shape == "equal"
            else tuple(draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))))
    if draw(st.integers(0, 9)) == 0:
        rows += rows[:1]  # a repeated label
    outside = draw(st.integers(0, 3)) == 0
    keys_r = st.sampled_from(list(rows) + ["zz"] * outside or ["zz"])
    keys_c = st.sampled_from(list(cols) + ["zz"] * outside or ["zz"])
    # Most entries share the few value objects of a per-example pool.
    pool = draw(st.lists(VALUES, min_size=1, max_size=3))
    values = st.one_of(st.sampled_from(pool), VALUES)
    data = draw(st.dictionaries(st.tuples(keys_r, keys_c), values, min_size=1, max_size=12))
    return rows, cols, data


def outcome(build):
    try:
        data = build()
    except ValueError as e:
        return "rejected", str(e)
    return "stored", [(key, type(v), v) for key, v in data.items()]


def in_row_major(rows, cols, data):
    """``data`` with its keys in row-major label order, the order a matrix
    stores whatever order it was given."""
    return {rc: data[rc] for rc in row_major(IncompleteMatrix(rows, cols), data)}


@pytest.mark.parametrize("cls", [IncompleteMatrix, InstanceMatrix])
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(constructor_inputs())
def test_constructor_matches_one_pass_reference(cls, args):
    rows, cols, data = args
    before = dict(data)
    expected = outcome(
        lambda: in_row_major(rows, cols, reference_check(cls._instance, rows, cols, data)))
    matrix = None

    def build():
        nonlocal matrix
        matrix = cls(rows, cols, data)
        return matrix.data

    assert outcome(build) == expected
    assert list(data.items()) == list(before.items())  # the caller's dict is untouched
    if matrix is not None:
        assert matrix.data is not data
        assert matrix.row_labels == tuple(rows) and matrix.col_labels == tuple(cols)


# ---------------------------------------------------------------------------
# Every table the package builds is stored in row-major label order
# ---------------------------------------------------------------------------

ROOTS = {"x1 - 1": {1: 1}, "x1*x1 - 1": {1: 1}, "x1*x2 - x1": {1: 0, 2: 0},
         "x1 - x2": {1: Fraction(19, 23), 2: Fraction(19, 23)}}
TABLES = ("A", "B", "B_square", "C", "B'", "M")


@pytest.fixture(scope="module", params=list(ROOTS))
def tables(request):
    """A, B under both zero tests, C, B' at a root, and M for one f, frozen
    out of cyclic garbage collection while the module's tests use them."""
    f = parse_polynomial(request.param)
    B = build_B(f)
    xi = Assignment.exact({xvar(i): Fraction(x) for i, x in ROOTS[request.param].items()})
    built = {"A": build_A(f), "B": B, "B_square": build_B(f, True), "C": build_C(B),
             "B'": completion_from_root(f, xi).matrix, "M": reduce(f).M}
    gc.freeze()
    yield built
    gc.unfreeze()


def row_major(m, keys):
    rpos = {l: i for i, l in enumerate(m.row_labels)}
    cpos = {l: j for j, l in enumerate(m.col_labels)}
    return sorted(keys, key=lambda rc: (rpos[rc[0]], cpos[rc[1]]))


@pytest.fixture(scope="module")
def orders(tables):
    """The reference orders of each table: its keys, and its transpose's, in
    row-major label order."""
    return {name: (row_major(m, m.data),
                   row_major(IncompleteMatrix(m.col_labels, m.row_labels), transposed_items(m)))
            for name, m in tables.items()}


def shuffled(m, seed):
    """A copy of m built from a dict of its entries in a seeded random order."""
    items = list(m.data.items())
    random.Random(seed).shuffle(items)
    return type(m)(m.row_labels, m.col_labels, dict(items))


def transposed_items(m):
    """The entries of m's transpose, in column-major order."""
    return {(c, r): v for (r, c), v in m.data.items()}


def transposed(m):
    """m's transpose, of m's own type, built from a dict in column-major order."""
    return type(m)(m.col_labels, m.row_labels, transposed_items(m))


@pytest.fixture(scope="module")
def rebuilt(tables):
    """Each table's copies from dicts in a seeded random order (seeds 1 and
    2, and 3 for B and B_square), its transpose from a dict in column-major
    order ("T") and that transpose shuffled with seed 3 (("T", 3)), built
    once per module and frozen out of cyclic garbage collection like
    ``tables``."""
    built = {}
    for name, m in tables.items():
        t = transposed(m)
        seeds = (1, 2, 3) if name in ("B", "B_square") else (1, 2)
        built[name] = {**{seed: shuffled(m, seed) for seed in seeds},
                       "T": t, ("T", 3): shuffled(t, 3)}
    gc.freeze()
    yield built
    gc.unfreeze()


def write_any(m):
    if isinstance(m, PolynomialMatrix):
        return write_polynomial_matrix(m)
    return write_matrix(m)


def parse_text(m, text):
    """``text`` read back by the reader of m's format."""
    if isinstance(m, PolynomialMatrix):
        return parse_polynomial_matrix(text)
    return parse_matrix(text).matrix


def parse_any(m):
    """m written and read back."""
    return parse_text(m, write_any(m))


def readers(tables, name):
    """The readers that walk ``entries()`` of table ``name``: the writer,
    ``unknown_positions`` and, for B, ``build_M`` (written out)."""
    K = max(tables["M"].data.values())  # M stores K, above every entry of B
    out = [write_any]
    if isinstance(tables[name], IncompleteMatrix):
        out.append(IncompleteMatrix.unknown_positions)
    if name in ("B", "B_square"):
        out.append(lambda S: write_matrix(build_M(S, K)))
    return out


def no_order_check(*args):
    raise AssertionError("order check reached")


def reference_unknown_positions(m):
    """Unknown coordinates found by probing every label pair in row-major
    order: the scan ``unknown_positions`` replaced, kept as its reference."""
    return tuple((r, c) for r in m.row_labels for c in m.col_labels
                 if m.data.get((r, c)) is UNKNOWN)


class TestRowMajorTables:
    @pytest.mark.parametrize("name", TABLES)
    def test_stored_row_major(self, tables, orders, name):
        m = tables[name]
        assert m.data
        assert list(m.data) == orders[name][0]

    @pytest.mark.parametrize("name", TABLES)
    def test_written_without_the_sort(self, tables, name, monkeypatch):
        # The writer, unknown_positions and build_M all walk the stored order.
        m = tables[name]
        reads = readers(tables, name)
        expected = [read(m) for read in reads]

        def no_sort(*args, **kwargs):
            raise AssertionError("sorted() called")

        for module in (matrices, gadgets):
            monkeypatch.setattr(module, "sorted", no_sort, raising=False)
        assert [read(m) for read in reads] == expected
        for read in reads:
            with pytest.raises(AssertionError, match="sorted"):
                read(shuffled(m, 1))

    @pytest.mark.parametrize("name", TABLES)
    def test_built_tables_skip_the_order_check(self, tables, orders, rebuilt, name, monkeypatch):
        # No reader checks or sorts the order of any matrix: a table the
        # package builds, a copy rebuilt from a dict in order, one written and
        # read back, and the transpose, whose dict comes in column-major
        # order, all read as their rows in order.
        m = tables[name]
        reads = readers(tables, name)
        expected = [read(m) for read in reads]
        copies = [type(m)(m.row_labels, m.col_labels, dict(m.data)), parse_any(m)]
        assert all(c == m for c in copies)
        assert all([read(c) for read in reads] == expected for c in copies)
        t = m.transpose() if isinstance(m, IncompleteMatrix) else rebuilt[name]["T"]
        t_items = transposed_items(m)
        in_order = type(t)(t.row_labels, t.col_labels,
                           {rc: t_items[rc] for rc in orders[name][1]})
        assert list(t_items) != list(in_order.data)
        t_reads = [read(t) for read in reads]
        assert t_reads == [read(in_order) for read in reads]
        monkeypatch.setattr(matrices, "pairwise", no_order_check)
        for module in (matrices, gadgets):
            monkeypatch.setattr(module, "sorted", no_order_check, raising=False)
        assert [read(m) for read in reads] == expected
        for c in copies:
            assert [read(c) for read in reads] == expected
        assert [read(t) for read in reads] == t_reads

    def test_equality_ignores_how_a_table_was_built(self):
        B = build_B(parse_polynomial("x1 - 1"))
        copy = IncompleteMatrix(B.row_labels, B.col_labels, dict(B.data))
        assert copy == B and copy is not B
        assert parse_matrix(write_matrix(B)).matrix == B
        assert build_C(copy) == build_C(B)
        assert B.transpose() == IncompleteMatrix(B.col_labels, B.row_labels, transposed_items(B))
        dense = IncompleteMatrix.from_dense([[1, 0], [0, 1]])
        assert dense == IncompleteMatrix(("r0", "r1"), ("c0", "c1"),
                                         {("r1", "c1"): 1, ("r0", "c0"): 1})

    @pytest.mark.parametrize("name", TABLES)
    def test_entries_row_major(self, tables, orders, rebuilt, name):
        # m and its shuffles share one reference order, the transposes another;
        # each copy's entries() is walked once, holding no list of its pairs
        m, built = tables[name], rebuilt[name]
        m_order, t_order = orders[name]
        assert list(transposed_items(m)) != t_order
        for group, order in (((m, built[1], built[2]), m_order),
                             ((built["T"], built["T", 3]), t_order)):
            for c in group:
                keys = []
                for rc, v in c.entries():
                    assert c.data[rc] is v
                    keys.append(rc)
                assert keys == order

    @pytest.mark.parametrize("name", TABLES)
    def test_reordered_files_parse_to_the_table(self, tables, name, monkeypatch):
        # A file whose data lines are shuffled, or in column-major order,
        # parses without the dict constructor to a matrix equal to the
        # table, which writes back the same bytes.
        m = tables[name]
        text = write_any(m)
        lines = text.splitlines(keepends=True)
        head = 1 + m.nrows + m.ncols  # the header and the label lines
        body = lines[head:]
        rpos = {l: i for i, l in enumerate(m.row_labels)}
        cpos = {l: j for j, l in enumerate(m.col_labels)}
        shuffled_body = body[:]
        random.Random(5).shuffle(shuffled_body)
        column_major = sorted(body, key=lambda ln: (cpos[ln.split()[1]], rpos[ln.split()[0]]))
        monkeypatch.setattr(matrices._SparseMatrix, "__init__", no_dict_constructor)
        for reordered in (shuffled_body, column_major):
            assert reordered != body
            got = parse_text(m, "".join(lines[:head] + reordered))
            assert got == m
            assert write_any(got) == text

    def test_entries_of_a_non_square_matrix(self):
        m = IncompleteMatrix(("r2", "r0", "r1"), ("c1", "c0"), {
            ("r1", "c0"): UNKNOWN, ("r0", "c1"): Fraction(2), ("r2", "c0"): UNKNOWN,
            ("r2", "c1"): Fraction(3)})
        for t in (m, shuffled(m, 4), transposed(m)):
            assert [rc for rc, _ in t.entries()] == row_major(t, t.data)
        assert list(m.entries()) == [(("r2", "c1"), 3), (("r2", "c0"), UNKNOWN),
                                     (("r0", "c1"), 2), (("r1", "c0"), UNKNOWN)]

    @pytest.mark.parametrize("name", ["B", "B_square"])
    def test_unknown_positions_match_the_pair_scan(self, tables, rebuilt, name):
        B = tables[name]
        expected = reference_unknown_positions(B)
        assert expected
        assert B.unknown_positions() == expected
        for seed in (1, 2, 3):
            assert rebuilt[name][seed].unknown_positions() == expected
        T = B.transpose()
        assert list(B.cols) != sorted(B.cols)  # the transpose reorders B's entries
        assert T.unknown_positions() == reference_unknown_positions(T)

    def test_unknown_positions_of_a_non_square_matrix(self):
        rows, cols = ("r2", "r0", "r1"), ("c1", "c0")
        m = IncompleteMatrix(rows, cols, {
            ("r1", "c0"): UNKNOWN, ("r0", "c1"): Fraction(2), ("r2", "c0"): UNKNOWN,
            ("r0", "c0"): UNKNOWN, ("r2", "c1"): UNKNOWN, ("r1", "c1"): NONZERO_UNKNOWN})
        expected = reference_unknown_positions(m)
        assert expected == (("r2", "c1"), ("r2", "c0"), ("r0", "c0"), ("r1", "c0"))
        assert m.unknown_positions() == expected
        assert shuffled(m, 4).unknown_positions() == expected
        T = m.transpose()
        assert T.unknown_positions() == reference_unknown_positions(T)


# ---------------------------------------------------------------------------
# A rejected file reports its first error in file order
# ---------------------------------------------------------------------------

def corrupt(text, how):
    """``text`` with its middle data line (or its header, a label line or
    its ``r`` line) broken or moved in the way ``how`` names; ``<how>+data-first``
    breaks it in that way and then moves every label line after the data."""
    if how.endswith("+data-first"):
        return corrupt(corrupt(text, how[:-len("+data-first")]), "data-first")
    lines = text.splitlines(keepends=True)
    parts = [ln.split() for ln in lines]
    data = [i for i, p in enumerate(parts) if len(p) == 3 and p[0] not in ("row", "col")]
    labels = [i for i, p in enumerate(parts) if len(p) == 3 and p[0] in ("row", "col")]
    rows = [i for i in labels if parts[i][0] == "row"]
    mid = data[len(data) // 2]
    r, c, v = parts[mid]
    if how in ("repeated", "repeated-then-malformed"):
        lines.insert(data[-1] + 1, lines[mid])
    if how in ("repeated-then-malformed", "undeclared-then-malformed"):
        lines.append("a b c d\n")
    if how in ("undeclared", "undeclared-then-malformed", "undeclared-then-zero"):
        lines[mid] = f"zz {c} {v}\n"
    if how == "negative":
        lines[mid] = f"{r} {c} -1/2\n"
    if how == "mark":
        lines[mid] = f"{r} {c} ?\n"
    if how == "bad-value":
        lines[mid] = f"{r} {c} 1/x\n"
    if how == "header":
        lines[0] = " ".join(parts[0][:2] + ["3x"] + parts[0][3:]) + "\n"
    if how in ("zero", "undeclared-then-zero"):  # a zero at the first column the middle
        # line's row leaves empty, just after that line
        taken = {(p[0], p[1]) for p in map(parts.__getitem__, data)}
        free = next(p[2] for p in parts if p[:1] == ["col"] and (r, p[2]) not in taken)
        lines.insert(mid + 1, f"{r} {free} 0/1\n")
    if how == "repeated-row":
        lines.insert(labels[-1] + 1, lines[rows[len(rows) // 2]])
    if how == "row-name":  # the middle row line takes the first row line's label
        k = rows[len(rows) // 2]
        lines[k] = f"row {parts[k][1]} {parts[rows[0]][2]}\n"
    if how == "repeated-r":
        lines.insert(data[-1] + 1, "r 8\n")
        lines.insert(mid + 1, "r 7\n")
    if how == "negative-r":
        if parts[1][0] == "r":
            lines[1] = "r -1\n"
        else:
            lines.insert(mid + 1, "r -1\n")
    if how == "row-moved":
        lines.append(lines.pop(rows[0]))
    if how == "data-first":
        lines = (lines[:labels[0]] + [lines[i] for i in data]
                 + [lines[i] for i in labels])
    return "".join(lines)


# The error code and message of each case, as the per-line reader gave them
# (the first ten were pinned before a block path, since deleted, was added),
# or None for a file that parses equal to the file it was made from.  P(1)
# fits one block of text at the default size; M of x1 - 1 and A of x1 - 1
# span many, and their middle line lies deep inside one.
PARITY_CASES = {
    ("P(1)", "repeated"): ("parse", "repeated coordinate in line '2 1 1/1'"),
    ("P(1)", "undeclared"): ("parse", "entry ('zz', '1') is outside the label sets"),
    ("P(1)", "negative"): ("parse", "negative entry -1/2 at ('2', '1')"),
    ("P(1)", "mark"): ("usage", "file holds an incomplete matrix, not an instance"),
    ("P(1)", "repeated-then-malformed"): ("parse", "repeated coordinate in line '2 1 1/1'"),
    ("M[x1-1]", "repeated"): (
        "parse", "repeated coordinate in line 'e2[7635] e2[7635] 144/1'"),
    ("M[x1-1]", "undeclared"): (
        "parse", "entry ('zz', 'e2[7635]') is outside the label sets"),
    ("M[x1-1]", "negative"): ("parse", "negative entry -1/2 at ('e2[7635]', 'e2[7635]')"),
    ("M[x1-1]", "mark"): ("usage", "file holds an incomplete matrix, not an instance"),
    ("M[x1-1]", "repeated-then-malformed"): (
        "parse", "repeated coordinate in line 'e2[7635] e2[7635] 144/1'"),
    ("P(1)", "row-moved"): None,
    ("P(1)", "data-first"): None,
    ("P(1)", "zero"): None,
    ("P(1)", "repeated-row"): ("parse", "repeated row index in line 'row 1 2'"),
    ("P(1)", "repeated-r"): ("parse", "repeated r line 'r 8'"),
    ("P(1)", "negative-r"): ("parse", "negative target rank in line 'r -1'"),
    ("P(1)", "header"): ("parse", "malformed matrix header: 'psdrank-matrix v1 3x 3' "
                                  "(invalid literal for int() with base 10: '3x')"),
    ("P(1)", "bad-value"): ("parse", "malformed matrix line: '2 1 1/x' "
                                     "(invalid literal for int() with base 10: 'x')"),
    ("P(1)", "undeclared-then-malformed"): ("parse", "malformed matrix line: 'a b c d'"),
    ("M[x1-1]", "row-moved"): None,
    ("M[x1-1]", "data-first"): None,
    ("M[x1-1]", "zero"): None,
    ("M[x1-1]", "repeated-row"): ("parse", "repeated row index in line 'row 9555 e2[63]'"),
    ("M[x1-1]", "repeated-r"): ("parse", "repeated r line 'r 7'"),
    ("M[x1-1]", "negative-r"): ("parse", "negative target rank in line 'r -1'"),
    ("M[x1-1]", "header"): ("parse", "malformed matrix header: 'psdrank-matrix v1 3x 19111' "
                                     "(invalid literal for int() with base 10: '3x')"),
    ("M[x1-1]", "bad-value"): ("parse", "malformed matrix line: 'e2[7635] e2[7635] 1/x' "
                                        "(invalid literal for int() with base 10: 'x')"),
    ("M[x1-1]", "undeclared-then-malformed"): ("parse", "malformed matrix line: 'a b c d'"),
    ("A[x1-1]", "repeated"): (
        "parse", "repeated coordinate in line '(1,1,-x1+1) (1,0,0) 1'"),
    ("A[x1-1]", "undeclared"): ("parse", "entry ('zz', '(1,0,0)') is outside the label sets"),
    # Pinned before the reader stopped building a label-pair dict for files
    # it cannot read by position, which these label lines after the data are.
    ("P(1)", "zero+data-first"): None,
    ("P(1)", "negative+data-first"): ("parse", "negative entry -1/2 at ('2', '1')"),
    ("P(1)", "undeclared+data-first"): ("parse", "entry ('zz', '1') is outside the label sets"),
    ("P(1)", "row-name+data-first"): ("parse", "matrix labels must be unique"),
    ("P(1)", "undeclared-then-zero"): ("parse", "entry ('zz', '1') is outside the label sets"),
    ("M[x1-1]", "zero+data-first"): None,
    ("M[x1-1]", "negative+data-first"): (
        "parse", "negative entry -1/2 at ('e2[7635]', 'e2[7635]')"),
    ("M[x1-1]", "undeclared+data-first"): (
        "parse", "entry ('zz', 'e2[7635]') is outside the label sets"),
    ("M[x1-1]", "row-name+data-first"): ("parse", "matrix labels must be unique"),
    ("M[x1-1]", "undeclared-then-zero"): (
        "parse", "entry ('zz', 'e2[7635]') is outside the label sets"),
}
REJECTED = [case for case, outcome in PARITY_CASES.items() if outcome]
ACCEPTED = [case for case, outcome in PARITY_CASES.items() if not outcome]


@pytest.fixture(scope="module")
def parity_sources():
    return {"P(1)": write_matrix(build_P(1)),
            "M[x1-1]": write_matrix(reduce(parse_polynomial("x1 - 1")).M, target_rank=5),
            "A[x1-1]": write_polynomial_matrix(build_A(parse_polynomial("x1 - 1")))}


@pytest.fixture(scope="module")
def parsed_sources(parity_sources):
    """The matrix sources parsed once, at the default block size."""
    return {source: parse_matrix(parity_sources[source]) for source in ("P(1)", "M[x1-1]")}


def read_source(source, text):
    """``text`` read by the reader of ``source``'s format: a polynomial
    matrix, or the instance a matrix file must hold."""
    if source.startswith("A["):
        return parse_polynomial_matrix(text)
    return parse_matrix(text).instance


# Characters per block of read text, the default last: at 16 a block holds
# about one line, so a repeat is named from one of thousands of blocks.
READ_BLOCKS = [16, 200, matrices.READ_BLOCK_CHARS]


@pytest.mark.parametrize("block", READ_BLOCKS)
@pytest.mark.parametrize("source, how", REJECTED)
def test_rejected_file_reports_as_the_per_line_reader(parity_sources, source, how, block,
                                                      tmp_path, capsys, monkeypatch):
    code, message = PARITY_CASES[(source, how)]
    text = corrupt(parity_sources[source], how)
    monkeypatch.setattr(matrices, "READ_BLOCK_CHARS", block)
    with pytest.raises(ValueError) as got:
        read_source(source, text)
    assert str(got.value) == message
    assert isinstance(got.value, ParseError) == (code == "parse")
    if source.startswith("A[") or block != READ_BLOCKS[-1]:
        return  # no command reads a polynomial matrix file; the CLI runs at the default size
    (tmp_path / "A.mtx").write_text(text)
    (tmp_path / "F.fac").write_text("")
    assert main(["verify", str(tmp_path / "A.mtx"), str(tmp_path / "F.fac")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f'error code={code} msg="{message}"'


@pytest.mark.parametrize("block", READ_BLOCKS)
@pytest.mark.parametrize("source, how", ACCEPTED)
def test_reordered_file_parses_as_in_order(parity_sources, parsed_sources, source, how, block,
                                           monkeypatch):
    # label lines after data lines and a written zero are valid
    text = corrupt(parity_sources[source], how)
    assert text != parity_sources[source]
    monkeypatch.setattr(matrices, "READ_BLOCK_CHARS", block)
    assert parse_matrix(text) == parsed_sources[source]


def no_dict_constructor(*args, **kwargs):
    raise AssertionError("dict constructor reached")


@pytest.mark.parametrize("source, how", ACCEPTED)
def test_accepted_file_parses_without_the_dict_constructor(parity_sources, source, how,
                                                            monkeypatch):
    expected = parse_matrix(parity_sources[source])
    monkeypatch.setattr(matrices._SparseMatrix, "__init__", no_dict_constructor)
    assert parse_matrix(corrupt(parity_sources[source], how)) == expected


# Each constructor case's outcome for each class, pinned before the
# constructor, ``from_dense`` and the reader shared one entry walk: the
# stored entries in row-major order, or the message of the first offending
# entry in item order.
CONSTRUCTOR_CASES = {
    "numbers": {("b", "a"): 3, ("a", "b"): True, ("a", "a"): "3/4", ("b", "b"): 0,
                ("b", "c"): False, ("a", "c"): "0", ("c", "c"): Fraction(0)},
    "mark": {("a", "a"): Fraction(1), ("a", "b"): UNKNOWN},
    "negative-then-outside": {("a", "a"): 1, ("b", "a"): -2, ("zz", "a"): 1},
    "outside-then-negative": {("a", "a"): 1, ("a", "zz"): 1, ("b", "a"): -2},
}
NUMBERS_STORED = ("stored", [(("a", "a"), Fraction, Fraction(3, 4)),
                             (("a", "b"), Fraction, 1), (("b", "a"), Fraction, 3)])
CONSTRUCTOR_OUTCOMES = {
    ("numbers", IncompleteMatrix): NUMBERS_STORED,
    ("numbers", InstanceMatrix): NUMBERS_STORED,
    ("numbers", PolynomialMatrix): ("stored", [
        (("a", "a"), str, "3/4"), (("a", "b"), bool, True), (("a", "c"), str, "0"),
        (("b", "a"), int, 3), (("b", "b"), int, 0), (("b", "c"), bool, False),
        (("c", "c"), Fraction, 0)]),
    ("mark", IncompleteMatrix): ("stored", [(("a", "a"), Fraction, 1),
                                            (("a", "b"), matrices._Mark, UNKNOWN)]),
    ("mark", InstanceMatrix): ("rejected", "mark '?' at ('a', 'b') in an instance matrix"),
    ("mark", PolynomialMatrix): ("stored", [(("a", "a"), Fraction, 1),
                                            (("a", "b"), matrices._Mark, UNKNOWN)]),
    ("negative-then-outside", IncompleteMatrix): (
        "rejected", "entry ('zz', 'a') is outside the label sets"),
    ("negative-then-outside", InstanceMatrix): ("rejected", "negative entry -2 at ('b', 'a')"),
    ("negative-then-outside", PolynomialMatrix): (
        "rejected", "entry ('zz', 'a') is outside the label sets"),
    **{("outside-then-negative", cls): ("rejected", "entry ('a', 'zz') is outside the label sets")
       for cls in (IncompleteMatrix, InstanceMatrix, PolynomialMatrix)},
}


@pytest.mark.parametrize("case, cls", list(CONSTRUCTOR_OUTCOMES))
def test_constructor_case_as_pinned(case, cls):
    assert outcome(lambda: cls(("a", "b", "c"), ("a", "b", "c"),
                               CONSTRUCTOR_CASES[case]).data) == CONSTRUCTOR_OUTCOMES[(case, cls)]


def test_argument_errors_win_as_pinned():
    # A bad label before a key that is no label pair; in from_dense, a row
    # past too few labels before a later ragged row or an earlier negative.
    with pytest.raises(ValueError, match="nonempty and whitespace-free: 'a b'"):
        InstanceMatrix(("a b",), ("b",), {1: 2})
    with pytest.raises(IndexError):
        InstanceMatrix.from_dense([[1], [1, 2]], (), ("b",))
    with pytest.raises(IndexError):
        InstanceMatrix.from_dense([[-1], [1]], ("a",), ("b",))


def test_each_value_object_is_converted_once(monkeypatch):
    # 900 ints, two distinct nonzero objects: each is converted to a
    # Fraction once, not once per entry
    calls = []
    convert = IncompleteMatrix._convert.__func__

    def counted(cls, v, r, c):
        calls.append(v)
        return convert(cls, v, r, c)

    monkeypatch.setattr(IncompleteMatrix, "_convert", classmethod(counted))
    rng = random.Random(3)
    dense = [[rng.choice((0, 1, 2)) for _ in range(30)] for _ in range(30)]
    m = InstanceMatrix.from_dense(dense)
    assert m.to_dense() == dense and m.nnz > 500
    assert len(calls) <= len({id(v) for row in dense for v in row if v}) == 2


@pytest.mark.parametrize("source, how", [(s, None) for s in ("P(1)", "M[x1-1]", "A[x1-1]")]
                         + list(PARITY_CASES))
def test_each_parse_reads_the_text_once(parity_sources, source, how, monkeypatch):
    text = parity_sources[source] if how is None else corrupt(parity_sources[source], how)
    walks = []
    blocks = matrices._blocks

    def counted(*args):
        walks.append(args)
        return blocks(*args)

    monkeypatch.setattr(matrices, "_blocks", counted)
    try:
        read_source(source, text)
    except ValueError:
        assert how is not None and PARITY_CASES[(source, how)]
    assert len(walks) == 1


# ---------------------------------------------------------------------------
# Text written and read in blocks
# ---------------------------------------------------------------------------

def reference_write_matrix(m, header, token, target_rank=None):
    """The single-list writer: one string per line, data lines sorted into
    row-major label order, joined once.  The block writer must produce the
    same bytes."""
    lines = [f"{header} {m.nrows} {m.ncols}"]
    if target_rank is not None:
        lines.append(f"r {target_rank}")
    lines += [f"row {i} {l}" for i, l in enumerate(m.row_labels)]
    lines += [f"col {j} {l}" for j, l in enumerate(m.col_labels)]
    lines += [f"{r} {c} {token(m.data[(r, c)])}" for r, c in row_major(m, m.data)]
    return "\n".join(lines) + "\n"


def polynomial_token(p):
    return matrices.format_polynomial(p, compact=True)


BLOCK = matrices.WRITE_BLOCK_LINES
EDGE_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def edge_matrix(cls, n, values):
    """A matrix with n row labels, three column labels and n entries, one
    per row, taking turns over ``values``: label and data lines alike fill
    whole blocks, miss one line or spill one."""
    rows = tuple(f"r{i}" for i in range(n))
    cols = ("c0", "c1", "c2")
    return cls(rows, cols, {(r, cols[i % 3]): values[i % len(values)]
                            for i, r in enumerate(rows)})


class TestBlockWriter:
    @pytest.mark.parametrize("n", EDGE_COUNTS)
    @pytest.mark.parametrize("order", ["row-major", "shuffled"])
    @pytest.mark.parametrize("cls", [InstanceMatrix, IncompleteMatrix])
    def test_matches_the_single_list_writer(self, cls, n, order):
        values = [Fraction(144), Fraction(1, 3), Fraction(2)]
        if cls is IncompleteMatrix:
            values += [UNKNOWN, Fraction(-5, 7), NONZERO_UNKNOWN]
        m = edge_matrix(cls, n, values)
        if order == "shuffled":
            m = shuffled(m, n)
        for rank in (None, 7):
            expected = reference_write_matrix(m, matrices.MATRIX_HEADER,
                                              matrices._entry_token, rank)
            assert write_matrix(m, rank) == expected
            assert "".join(matrices.matrix_blocks(m, rank)) == expected

    @pytest.mark.parametrize("n", EDGE_COUNTS)
    @pytest.mark.parametrize("order", ["row-major", "shuffled"])
    def test_polynomial_matrix_matches_the_single_list_writer(self, n, order):
        values = [parse_polynomial(t) for t in ("x1*x1 - 1", "x1", "-x2*x3 + 1")]
        m = edge_matrix(PolynomialMatrix, n, values)
        if order == "shuffled":
            m = shuffled(m, n)
        expected = reference_write_matrix(m, matrices.POLYMATRIX_HEADER, polynomial_token)
        assert write_polynomial_matrix(m) == expected
        assert "".join(matrices.polynomial_matrix_blocks(m)) == expected

    def test_blocks_hold_whole_lines(self):
        m = edge_matrix(InstanceMatrix, 2 * BLOCK + 1, [Fraction(3)])
        blocks = list(matrices.matrix_blocks(m, 5))
        assert all(b.endswith("\n") for b in blocks)
        assert max(b.count("\n") for b in blocks) == BLOCK
        # header; 3 blocks of row labels, 1 of col labels; 3 of data lines
        assert len(blocks) == 1 + 3 + 1 + 3


def traced_peak(call):
    """The result of ``call()``, the traced peak above the memory held
    before the call, and the memory the call left held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


class TestTextMemory:
    """A text layer that holds one string per line of a file (about 5x the
    file) fails these bounds; one that holds a block at a time passes."""

    @pytest.fixture(scope="class")
    def reduction(self):
        return reduce(parse_polynomial("x1 - 1"))

    def test_writer_peak_is_a_small_multiple_of_its_output(self, reduction):
        text, peak, _ = traced_peak(lambda: write_matrix(reduction.M, reduction.r))
        assert len(text) > 2_000_000
        assert peak <= 3 * len(text)

    def test_parser_transient_is_a_small_multiple_of_its_input(self, reduction):
        text = write_matrix(reduction.M, reduction.r)
        parsed, peak, held = traced_peak(lambda: parse_matrix(text))
        assert parsed.instance == reduction.M
        assert peak - held <= 3.5 * len(text)


# Every line break str.splitlines() knows, and characters that are
# whitespace but break no line.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
BLANKS = [" ", "\t", "\x1f", "\u3000"]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.one_of(st.sampled_from(LINE_BREAKS + BLANKS),
                          st.sampled_from(["a", "b c", "row 0 x"])), max_size=30),
       st.integers(1, 8))
def test_nonblank_lines_match_splitlines(pieces, block):
    text = "".join(pieces)
    expected = [ln for ln in text.splitlines() if ln.strip()]
    with mock.patch.object(matrices, "READ_BLOCK_CHARS", block):
        assert list(matrices.nonblank_lines(text)) == expected
    assert list(matrices.nonblank_lines(text)) == expected
