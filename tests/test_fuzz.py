"""Fuzzed reading of factorization, matrix, polynomial and formula texts:
every text either parses or raises ParseError, and whatever parses (but a
formula, which is not written back) writes back to an equal witness,
matrix or polynomial.

The profile is derandomized with a fixed example count, so every run tries
the same texts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from psdrank.factorizations import parse_factorization, write_factorization
from psdrank.formulas import parse_formula
from psdrank.matrices import parse_matrix, write_matrix
from psdrank.polynomials import ParseError, format_polynomial, parse_polynomial

PROFILE = settings(derandomize=True, max_examples=400, deadline=None, database=None)

INTS = st.one_of(st.integers(-3, 8), st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30]))
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0/1", "1/1", "2/3", "-5/6", "12/1", "1/0", "0.5", "-0.0",
                     "1e400", "nan", "inf", "-inf", "3.25", "x", "1/x", ""]),
    st.fractions(max_denominator=9).map(lambda q: f"{q.numerator}/{q.denominator}"))
VALUES = {"exact": st.sampled_from(["1/1", "2/3", "-5/6", "0/1", "12/1", "3"]),
          "float": st.sampled_from(["0.5", "-2.25", "0", "1e-3", "7"])}
TOKENS = st.one_of(INTS.map(str), NUMBERS, st.sampled_from(["row", "col", "sparse", "a", "b"]))


@st.composite
def factorization_texts(draw):
    """Header and lines near the format.  A well-formed text draws its
    sizes, coordinates and values from valid tokens; a broken one draws
    them from valid and invalid tokens alike and may add stray ones."""
    broken = draw(st.integers(0, 2)) == 0
    mode = draw(st.sampled_from(["exact", "float"] + ["bogus"] * broken))
    k = draw(INTS if broken else st.sampled_from([1, 2, 3, 6, 2 ** 64]))
    coords = INTS if broken else st.one_of(st.integers(0, min(k, 6) - 1), st.just(k - 1))
    values = NUMBERS if broken else VALUES[mode]
    sparse = not broken or draw(st.booleans())  # the text below is laid out sparse
    lines, counts = [], {"row": 0, "col": 0}
    for _ in range(draw(st.integers(0, 6))):
        side = draw(st.sampled_from(["row", "col"] + ["r", ""] * broken))
        counts[side] = counts.get(side, 0) + 1
        label = (draw(st.sampled_from(["a", "b", "e1[0]"])) if broken
                 else f"e1[{counts[side]}]")
        nvec = draw(st.integers(0, 3))
        body = [str(draw(st.sampled_from([nvec] + [-1, nvec + 1] * broken)))]
        for _ in range(nvec):
            nnz = draw(st.integers(-1 if broken else 0, 3))
            body.append(str(nnz))
            for _ in range(max(nnz, 0)):
                body += [str(draw(coords)), draw(values)]
        if broken:
            body += draw(st.lists(TOKENS, max_size=2))
        lines.append(" ".join([side, label, *body]))
    head = ["psdrank-factorization", "v1", str(k), str(counts["row"]), str(counts["col"]), mode]
    head += ["sparse"] if sparse else []
    if broken:
        head[1] = draw(st.sampled_from(["v1"] * 3 + ["v17", "v1x"]))
        head[3:5] = [str(draw(st.sampled_from([n, -1, n + 1])))
                     for n in (counts["row"], counts["col"])]
        if draw(st.integers(0, 7)) == 0:
            head = draw(st.lists(TOKENS, max_size=8))
    return "\n".join([" ".join(head)] + lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _round_trips(text: str) -> None:
    try:
        F = parse_factorization(text)
    except ParseError:
        return
    assert parse_factorization(write_factorization(F)) == F


@PROFILE
@given(factorization_texts())
def test_near_format_texts_parse_or_raise_parse_error(text):
    _round_trips(text)


@PROFILE
@given(st.text(alphabet=st.sampled_from("psdrank-factorization v1 0123 /.-\nrowcl"), max_size=120))
def test_arbitrary_texts_parse_or_raise_parse_error(text):
    _round_trips(text)


# Value tokens of a matrix file, drawn freely: rationals, integers, decimals
# with exponents of any size (a huge one is rejected before it is expanded),
# marks and garbage.
DECIMALS = st.builds(lambda m, e: f"{m}e{e}",
                     st.sampled_from(["1", "2.5", "-2.5", ".5", "0", "7_0", "x", ""]),
                     st.one_of(st.integers(-30, 30), st.integers(-5000, 5000),
                               st.integers(-10 ** 9, 10 ** 9)))
MATRIX_VALUES = st.one_of(
    st.fractions(min_value=0, max_denominator=9).map(lambda q: f"{q.numerator}/{q.denominator}"),
    DECIMALS, st.sampled_from(["?", "*", "**", "?1", "1/-3"]), NUMBERS)
MATRIX_LABELS = ["a", "b", "c", "(1,0,x1)", "row", "r"]


@st.composite
def matrix_texts(draw):
    """Header, an optional ``r`` line, label lines and data lines in any
    order.  A well-formed text declares each label line once and draws its
    coordinates from the declared labels; a broken one may repeat, drop or
    add lines and tokens."""
    broken = draw(st.integers(0, 2)) == 2
    labels = {side: draw(st.lists(st.sampled_from(MATRIX_LABELS[:4 + 2 * broken]),
                                  min_size=not broken, max_size=3, unique=not broken))
              for side in ("row", "col")}
    lines = [f"{side} {i} {label}" for side in labels for i, label in enumerate(labels[side])]
    if draw(st.booleans()):
        lines.append(f"r {draw(INTS)}")
    rows = labels["row"] + ["zz"] * broken or ["zz"]
    cols = labels["col"] + ["zz"] * broken or ["zz"]
    coords = draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(cols)),
                           min_size=not broken, max_size=8, unique=not broken))
    lines += [f"{r} {c} {draw(MATRIX_VALUES)}" for r, c in coords]
    if broken:
        lines += [" ".join(draw(st.lists(TOKENS, max_size=4)))
                  for _ in range(draw(st.integers(0, 2)))]
    lines = draw(st.permutations(lines))
    head = ["psdrank-matrix", "v1", str(len(labels["row"])), str(len(labels["col"]))]
    if broken:
        head[2:] = [str(draw(st.sampled_from([n, -1, n + 1]))) for n in map(int, head[2:])]
        if draw(st.integers(0, 7)) == 7:
            head = draw(st.lists(TOKENS, max_size=5))
    return "\n".join([" ".join(head)] + lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _matrix_round_trips(text: str) -> None:
    try:
        parsed = parse_matrix(text)
    except ParseError:
        return
    written = write_matrix(parsed.matrix, parsed.target_rank)
    again = parse_matrix(written)
    assert type(again.matrix) is type(parsed.matrix)
    assert again == parsed
    assert write_matrix(again.matrix, again.target_rank) == written


@PROFILE
@given(matrix_texts())
def test_near_format_matrix_texts_parse_or_raise_parse_error(text):
    _matrix_round_trips(text)


@PROFILE
@given(st.text(alphabet=st.sampled_from("psdrank-matrix v1 0123 /.e?*\nrowcl"), max_size=120))
def test_arbitrary_matrix_texts_parse_or_raise_parse_error(text):
    _matrix_round_trips(text)


# Tokens of the polynomial and formula syntaxes, near misses and garbage:
# integers up to one past the digit limit int() puts on a token, variable
# names of every letter (and names no letter takes), every operator of
# either syntax and stray characters.
POLY_INTS = st.one_of(st.integers(0, 12).map(str),
                      st.sampled_from(["007", "10" * 15, "9" * 4300, "9" * 4301]))
POLY_VARS = st.sampled_from(["x1", "x2", "x0", "x01", "y3", "u1", "v2", "w0", "x", "xx1", "z1",
                             "x" + "9" * 20, "_1", "x1_"])
SYMBOLS = st.sampled_from(["+", "-", "*", "(", ")", ">", ">=", "=", "!=", "<", "<=", "&", "|",
                           "!", "^", "/", ".", "==", "**", "1.5", "é", "\t", "\n"])


@st.composite
def polynomial_texts(draw):
    """Sums of signed products of integers and variables; a broken text
    also draws stray tokens into any place."""
    broken = draw(st.integers(0, 2)) == 0
    parts = []
    for n in range(draw(st.integers(1, 5))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=n > 0, max_size=2))
        factors = draw(st.lists(st.one_of(POLY_INTS, POLY_VARS), min_size=1, max_size=3))
        parts.append(" ".join(signs) + " " + "*".join(factors))
    if broken:
        for _ in range(draw(st.integers(1, 3))):
            parts.insert(draw(st.integers(0, len(parts))), draw(SYMBOLS))
    return draw(st.sampled_from(["", " ", "\n"])).join(parts)


def _polynomial_round_trips(text: str) -> None:
    try:
        p = parse_polynomial(text)
    except ParseError:
        return
    assert parse_polynomial(format_polynomial(p)) == p
    assert parse_polynomial(format_polynomial(p, compact=True)) == p


@PROFILE
@given(polynomial_texts())
def test_near_format_polynomial_texts_parse_or_raise_parse_error(text):
    _polynomial_round_trips(text)


@PROFILE
@given(st.text(alphabet=st.sampled_from("x1y2uvw0 9+-*()^/\n"), max_size=60))
def test_arbitrary_polynomial_texts_parse_or_raise_parse_error(text):
    _polynomial_round_trips(text)


@st.composite
def formula_texts(draw, depth=0):
    """Atoms ``poly REL poly`` under '!', '&', '|' and parentheses, now and
    then nested hundreds or thousands of levels deep; now and then a stray
    token lands anywhere in a text."""
    kind = draw(st.sampled_from(["atom"] * (2 + depth) + ["not", "paren", "and", "or"]))
    if kind == "atom" or depth > 3:
        rel = draw(st.sampled_from([">", ">=", "=", "!=", "<", "<="]))
        text = f"{draw(polynomial_texts())} {rel} {draw(polynomial_texts())}"
    elif kind == "not":
        text = "!" + draw(formula_texts(depth + 1))
    elif kind == "paren":
        text = f"({draw(formula_texts(depth + 1))})"
    else:
        op = "&" if kind == "and" else "|"
        text = f"{draw(formula_texts(depth + 1))} {op} {draw(formula_texts(depth + 1))}"
    if draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.one_of(SYMBOLS, st.just(""))) + text[cut:]
    if depth == 0 and draw(st.integers(0, 9)) == 0:  # within the parser's recursion and past it
        n = draw(st.sampled_from([200, 3000]))
        text = draw(st.sampled_from(["(" * n + text + ")" * n, "!" * n + text]))
    return text


def _parses_or_raises_parse_error(text: str) -> None:
    try:
        parse_formula(text)
    except ParseError:
        pass


@PROFILE
@given(formula_texts())
def test_near_format_formula_texts_parse_or_raise_parse_error(text):
    _parses_or_raises_parse_error(text)


@PROFILE
@given(st.text(alphabet=st.sampled_from("x1 0+-*()<>=!&|^\n"), max_size=80))
def test_arbitrary_formula_texts_parse_or_raise_parse_error(text):
    _parses_or_raises_parse_error(text)
