import functools
from fractions import Fraction

import pytest

from psdrank.gadgets import (
    build_A,
    build_B,
    build_C,
    build_G,
    build_M,
    build_P,
    compute_K,
    index_set_H,
    index_set_size,
    instance_labels,
    reduce,
    sigma_set,
)
from psdrank.matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    LabelVector,
    PolynomialMatrix,
    write_matrix,
    write_polynomial_matrix,
)
from psdrank.certificates import completion_from_root
from psdrank.polynomials import (Assignment, Polynomial, evaluate, is_multiple_of,
                                 parse_polynomial, xvar)

ONE = Polynomial.constant(1)
ZERO = Polynomial.zero()


def P(text):
    return parse_polynomial(text)


def L(*coords):
    return LabelVector(tuple(coords)).render()


class TestSigma:
    def test_square_minus_one(self):
        sig = sigma_set(P("x1*x1 - 1"))
        f = P("x1*x1 - 1")
        assert len(sig) == 9
        for p in (ZERO, ONE, -ONE, f, -f, P("x1"), P("-x1"), P("x1*x1"), P("-x1*x1")):
            assert p in sig

    def test_constant(self):
        assert len(sigma_set(P("-1"))) == 3

    def test_prefix_rule_uses_stored_order(self):
        sig = sigma_set(P("x1*x2 - 1"))
        assert P("x1") in sig
        assert P("x2") not in sig

    def test_negation_closed(self):
        sig = sigma_set(P("x1*x1 + x1 - 1"))
        for p in sig:
            assert -p in sig

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_set(ZERO)


class TestIndexSetH:
    @pytest.mark.parametrize("text,sigma_size,h_size", [
        ("x1*x1 - 1", 9, 217),
        ("-1", 3, 19),
        ("x1*x1 + x1 - 1", 11, 331),
    ])
    def test_counting_formula(self, text, sigma_size, h_size):
        f = P(text)
        s = len(sigma_set(f))
        H = index_set_H(f)
        assert s == sigma_size
        assert len(H) == h_size == s ** 3 - (s - 1) ** 3

    @pytest.mark.parametrize("text", ["x1 - 1", "x1*x1 - 1", "x1*x2 - x1"])
    def test_size_without_building(self, text):
        sigma = sigma_set(P(text))
        assert index_set_size(sigma) == len(index_set_H(P(text)))

    def test_contains_unit_vector(self):
        H = index_set_H(P("-1"))
        renders = {h.render() for h in H}
        assert L(ONE, ZERO, ZERO) in renders

    def test_every_label_has_a_one(self):
        for h in index_set_H(P("-1")):
            assert any(c == ONE for c in h.coords)


class TestMatrixABC:
    def test_A_entries_are_squared_dots(self):
        f = P("x1*x1 - 1")
        A = build_A(f)
        i = L(ONE, ZERO, ZERO)
        j = L(ONE, ZERO, P("x1"))
        jj = L(P("x1"), ONE, ZERO)
        assert {i, j, jj} <= set(A.row_labels)
        assert A.entry(i, i) == ONE
        assert A.entry(i, j) == ONE
        # (x1, 1, 0) . (x1, 1, 0) = x1^2 + 1, squared
        assert A.entry(jj, jj) == P("x1*x1 + 1") * P("x1*x1 + 1")

    def test_B_unit_dot(self):
        B = build_B(P("x1*x1 - 1"))
        l = L(ONE, ZERO, ZERO)
        assert B.entry(l, l) == 1

    def test_B_multiple_of_f_is_zero(self):
        f = P("x1*x1 - 1")
        B = build_B(f)
        assert B.entry(L(ZERO, ZERO, ONE), L(ONE, ZERO, f)) == 0
        assert B.entry(L(ZERO, ZERO, ONE), L(ONE, ZERO, f)) is not UNKNOWN

    def test_B_identically_zero_dot(self):
        f = P("x1*x1 - 1")
        B = build_B(f)
        g = P("x1")
        # (-f, 1, 0) . (1, f, g) = 0 identically
        assert B.entry(L(-f, ONE, ZERO), L(ONE, f, g)) == 0

    def test_B_unknown_when_non_constant(self):
        f = P("x1*x1 - 1")
        B = build_B(f)
        assert B.entry(L(ONE, ZERO, P("x1")), L(ONE, ZERO, P("x1"))) is UNKNOWN

    def test_B_symmetric(self):
        B = build_B(P("-1"))
        for r in B.row_labels:
            for c in B.col_labels:
                assert B.entry(r, c) == B.entry(c, r) or B.entry(r, c) is B.entry(c, r)

    def test_C_pattern_matches_B(self):
        f = P("x1*x1 - 1")
        B = build_B(f)
        C = build_C(B)
        for r in B.row_labels[:40]:
            for c in B.col_labels[:40]:
                b = B.entry(r, c)
                cc = C.entry(r, c)
                if b is UNKNOWN:
                    assert cc is UNKNOWN
                elif b == 0:
                    assert cc == 0
                else:
                    assert cc is NONZERO_UNKNOWN

    def test_square_multiple_flag_accepts_reducible_dots(self):
        # f = x1*x1 is reducible: (u.v) = x1 has (u.v)^2 divisible by f
        f = P("x1*x1")
        B_lin = build_B(f, square_multiple_test=False)
        B_sq = build_B(f, square_multiple_test=True)
        u = L(ONE, ZERO, P("x1"))
        v = L(ZERO, ONE, ONE)
        # dot = x1: linear test leaves it unknown, square test zeroes it
        assert B_lin.entry(u, v) is UNKNOWN
        assert B_sq.entry(u, v) == 0


class TestP:
    def test_p1(self):
        assert build_P(1).to_dense() == [[1, 1, 1], [1, 1, 0], [1, 0, 1]]

    def test_boundaries(self):
        assert build_P(0).entry("1", "1") == 0
        assert build_P(4).entry("1", "1") == 4

    def test_range_checked(self):
        with pytest.raises(ValueError):
            build_P(5)
        with pytest.raises(ValueError):
            build_P(Fraction(-1, 2))


class TestComputeK:
    @pytest.mark.parametrize("text,expected", [
        ("x1*x1 - 1", 144),
        ("x1*x1 + x1 - 1", 729),
        ("1", 9),
    ])
    def test_values(self, text, expected):
        assert compute_K(P(text)) == expected


class TestBuildM:
    def test_dimension(self):
        S = IncompleteMatrix(("1", "2", "3"), ("1", "2", "3"), {("1", "2"): UNKNOWN})
        M = build_M(S, 5)
        assert M.nrows == M.ncols == 5  # 2k + n with k=1, n=3

    def test_fully_known_is_identity_embedding(self):
        S = IncompleteMatrix(("a", "b"), ("a", "b"),
                             {("a", "a"): Fraction(2), ("b", "a"): Fraction(1)})
        M = build_M(S, 3)
        assert M.row_labels == ("a", "b")
        assert M.entry("a", "a") == 2
        assert M.entry("b", "a") == 1
        assert M.entry("a", "b") == 0

    def test_single_unknown_block_is_scaled_P1(self):
        S = IncompleteMatrix(("p", "q"), ("p", "q"), {("p", "p"): UNKNOWN})
        M = build_M(S, 2)
        # block on rows/cols (p, e1[0], e2[0]) equals 2 * P(1)
        order = ("p", "e1[0]", "e2[0]")
        got = [[M.entry(a, b) for b in order] for a in order]
        assert got == [[2, 2, 2], [2, 2, 0], [2, 0, 2]]
        # everything else stays zero
        assert M.entry("q", "e1[0]") == 0
        assert M.entry("q", "p") == 0

    def test_label_order_E1_E2_plain(self):
        S = IncompleteMatrix(("1", "2"), ("1", "2"),
                             {("1", "2"): UNKNOWN, ("2", "1"): UNKNOWN})
        M = build_M(S, 1)
        assert M.row_labels == ("e1[0]", "e1[1]", "e2[0]", "e2[1]", "1", "2")

    def test_deleting_blocks_recovers_known_entries(self):
        S = IncompleteMatrix(("1", "2"), ("1", "2"),
                             {("1", "2"): UNKNOWN, ("1", "1"): Fraction(3),
                              ("2", "1"): Fraction(1)})
        M = build_M(S, 4)
        for r in S.row_labels:
            for c in S.col_labels:
                v = S.entry(r, c)
                if isinstance(v, Fraction):
                    assert M.entry(r, c) == v

    def test_preconditions(self):
        with pytest.raises(ValueError, match="square"):
            build_M(IncompleteMatrix(("a",), ("a", "b"), {}), 1)
        with pytest.raises(ValueError, match="outside"):
            build_M(IncompleteMatrix(("a",), ("a",), {("a", "a"): Fraction(9)}), 2)
        with pytest.raises(ValueError, match="known/unknown"):
            build_M(IncompleteMatrix(("a",), ("a",), {("a", "a"): NONZERO_UNKNOWN}), 2)


def reference_build_M(S, K):
    """M(S, K) entry by entry, block by block: the reference for the
    row-ordered ``build_M``."""
    K = Fraction(K)
    for (r, c), v in S.data.items():
        if v is NONZERO_UNKNOWN:
            raise ValueError("M(S, K) accepts known/unknown entries only")
        if isinstance(v, Fraction) and (v < 0 or v > K):
            raise ValueError(f"known entry {v} at ({r!r},{c!r}) is outside [0, K={K}]")
    E, labels = instance_labels(S)
    k = len(E)
    data = {(r, c): v for (r, c), v in S.data.items() if isinstance(v, Fraction) and v}
    for t, (i, j) in enumerate(E):
        e1, e2 = labels[t], labels[k + t]
        for key in [(i, j), (i, e1), (i, e2), (e1, j), (e1, e1), (e2, j), (e2, e2)]:
            data[key] = K
    return data


def hand_made_S():
    """Unknowns in several rows, one on the diagonal, a known entry equal to
    K = 5, and entries inserted out of row-major order."""
    labels = ("u", "v", "w", "x")
    return IncompleteMatrix(labels, labels, {
        ("w", "u"): UNKNOWN, ("x", "x"): Fraction(1, 2), ("u", "x"): UNKNOWN,
        ("v", "v"): UNKNOWN, ("u", "v"): Fraction(5), ("w", "x"): UNKNOWN,
        ("u", "u"): Fraction(2), ("x", "u"): Fraction(5), ("w", "v"): Fraction(3)})


class TestBuildMOrder:
    @pytest.mark.parametrize("S, K", [
        (hand_made_S(), 5),
        (build_B(P("x1*x1 - 1")), compute_K(P("x1*x1 - 1"))),
    ], ids=["hand-made", "B(x1*x1-1)"])
    def test_row_major_and_equal_to_reference(self, S, K):
        M = build_M(S, K)
        pos = {l: p for p, l in enumerate(M.row_labels)}
        keys = list(M.data)
        assert keys == sorted(keys, key=lambda rc: (pos[rc[0]], pos[rc[1]]))
        assert M.data == reference_build_M(S, K)

    def test_first_bad_entry_named(self):
        # with the labels in this order the known 7 comes first in row-major order
        S = IncompleteMatrix(("b", "a"), ("b", "a"), {
            ("b", "a"): UNKNOWN, ("b", "b"): Fraction(7), ("a", "a"): NONZERO_UNKNOWN,
            ("a", "b"): Fraction(9)})
        with pytest.raises(ValueError) as expected:
            reference_build_M(S, 6)
        with pytest.raises(ValueError) as got:
            build_M(S, 6)
        assert str(got.value) == str(expected.value) == (
            "known entry 7 at ('b','b') is outside [0, K=6]")


def reference_dots(f):
    """(u, v, u.v) for every pair u <= v of H(f) in label order, each dot
    product summed as polynomials from the sigma product table: the
    construction ``_gram_table`` replaced, kept as its reference."""
    sigma = sigma_set(f)
    H = index_set_H(f)
    labels = [h.render() for h in H]
    pos = {p: t for t, p in enumerate(sigma)}
    product = [[p * q for q in sigma] for p in sigma]
    index = [tuple(pos[c] for c in h.coords) for h in H]
    for i, u in enumerate(labels):
        p0, p1, p2 = (product[t] for t in index[i])
        for j in range(i, len(H)):
            a, b, c = index[j]
            yield u, labels[j], p0[a] + p1[b] + p2[c]


def reference_build_A(f):
    square = functools.cache(lambda d: d * d)
    data = {}
    for u, v, d in reference_dots(f):
        if not d.is_zero:
            data[(u, v)] = data[(v, u)] = square(d)
    return data


def reference_build_B(f, square_multiple_test=False):
    """B pair by pair, one dot product at a time, with the entry decision
    memoized per dot product: the reference for ``build_B``."""
    @functools.cache
    def decide(d):
        if d.is_zero:
            return Fraction(0)
        if not d.variables():
            return Fraction(sum(d.coefficients().values())) ** 2
        if square_multiple_test:
            return Fraction(0) if is_multiple_of(d * d, f) else UNKNOWN
        return Fraction(0) if is_multiple_of(d, f) else UNKNOWN

    data = {}
    for u, v, d in reference_dots(f):
        e = decide(d)
        if e is not UNKNOWN and not e:
            continue
        data[(u, v)] = data[(v, u)] = e
    return data


GRAM_CASES = [("x1 - 1", False), ("x1*x1 - 1", False), ("x1*x2 - x1", False),
              ("x1 - x2", False), ("x1*x1", False), ("x1*x1", True)]


def assert_row_major(m):
    """The keys of ``m.data`` are stored in row-major label order."""
    rpos = {l: i for i, l in enumerate(m.row_labels)}
    cpos = {l: j for j, l in enumerate(m.col_labels)}
    keys = list(m.data)
    assert keys == sorted(keys, key=lambda rc: (rpos[rc[0]], cpos[rc[1]]))


class TestGramTableAgainstReference:
    @pytest.mark.parametrize("text, square", GRAM_CASES)
    def test_build_B(self, text, square):
        f = P(text)
        B = build_B(f, square)
        expected = reference_build_B(f, square)
        assert B.data == expected
        assert_row_major(B)
        labels = B.row_labels
        assert write_matrix(B) == write_matrix(IncompleteMatrix(labels, labels, expected))

    def test_reducible_f_square_test_differs(self):
        f = P("x1*x1")
        assert build_B(f, False).data != build_B(f, True).data

    @pytest.mark.parametrize("text", ["x1 - 1", "x1*x2 - x1", "x1*x1"])
    def test_build_A(self, text):
        f = P(text)
        A = build_A(f)
        expected = reference_build_A(f)
        assert A.data == expected
        assert_row_major(A)
        labels = A.row_labels
        assert write_polynomial_matrix(A) == write_polynomial_matrix(
            PolynomialMatrix(labels, labels, expected))


class TestBuildG:
    def test_unit_example(self):
        G = build_G([[1]], [1], [1], 1)
        assert G.to_dense() == [[1, 1, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]]

    def test_zero_core_shows_P1_pattern(self):
        G = build_G([[0]], [0], [0], 1)
        tail = ("mid", "nu1", "nu2")
        got = [[G.entry(a, b) for b in tail] for a in tail]
        assert got == [[1, 1, 1], [1, 1, 0], [1, 0, 1]]

    def test_N_scales_only_corner(self):
        G = build_G([[1]], [1], [1], 2)
        assert G.entry("s1", "s1") == 1
        assert G.entry("mid", "mid") == 2
        assert G.entry("nu1", "mid") == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_G([[1, 0]], [1], [1], 1)
        with pytest.raises(ValueError):
            build_G([[1]], [1, 2], [1], 1)


class TestReduce:
    def test_no_instance_is_well_formed(self):
        out = reduce(P("-1"))
        assert out.k == 0
        assert out.r == 3
        assert out.K == 9
        assert out.M.nrows == 19

    def test_target_and_budget_for_square_minus_one(self):
        out = reduce(P("x1*x1 - 1"))
        assert out.K == 144
        assert out.M.nrows == 2 * out.k + 217
        assert out.r == 2 * out.k + 3
        # golden count from the first verified run, kept as a regression guard
        assert out.k == 35940

    def test_deterministic_bytes(self):
        a = write_matrix(reduce(P("-1")).M, target_rank=3)
        b = write_matrix(reduce(P("-1")).M, target_rank=3)
        assert a == b

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reduce(ZERO)


# ---------------------------------------------------------------------------
# The data view of every table on every pinned rung
# ---------------------------------------------------------------------------

# The pinned rungs, each with a root (B' of x1 - x2 is pinned at 19/23).
RUNG_ROOTS = {"x1 - 1": {1: 1}, "x1*x1 - 1": {1: 1}, "x1*x2 - x1": {1: 0, 2: 0},
              "x1 - x2": {1: Fraction(19, 23), 2: Fraction(19, 23)}}


def reference_completion(f, xi):
    """B' pair by pair: the square of each evaluated dot product, where it
    is nonzero."""
    value = {p: evaluate(p, xi) for p in sigma_set(f)}
    H = index_set_H(f)
    points = {h.render(): [value[c] for c in h.coords] for h in H}
    data = {}
    for u, a in points.items():
        for v, b in points.items():
            d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            if d:
                data[(u, v)] = d * d
    return data


@pytest.mark.parametrize("text", list(RUNG_ROOTS))
def test_data_view_equals_the_dict_it_replaced(text):
    # ``dict(m.data)`` goes through the view's keys and lookups; the
    # references build the dicts the tables held before they became columns.
    f = P(text)
    xi = Assignment.exact({xvar(i): Fraction(x) for i, x in RUNG_ROOTS[text].items()})
    B, K = build_B(f), compute_K(f)
    reference_B = reference_build_B(f)
    tables = [
        (build_A(f), reference_build_A(f)),
        (B, reference_B),
        (build_C(B), {rc: UNKNOWN if v is UNKNOWN else NONZERO_UNKNOWN
                      for rc, v in reference_B.items()}),
        (build_M(B, K), reference_build_M(B, K)),
        (completion_from_root(f, xi).matrix, reference_completion(f, xi)),
    ]
    for m, expected in tables:
        assert dict(m.data) == expected
        assert dict(m.data.items()) == expected and len(m.data) == len(expected)
        rc = next(iter(expected))
        assert rc in m.data and ("zz", rc[1]) not in m.data and "zz" not in m.data
        with pytest.raises(TypeError):
            m.data[rc] = expected[rc]
        with pytest.raises(TypeError):
            del m.data[rc]
        assert m.data[rc] == expected[rc]
