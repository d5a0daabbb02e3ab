import copy
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from psdrank.polynomials import (
    Assignment,
    Monomial,
    ParseError,
    Polynomial,
    VarId,
    VarKind,
    approx_sqrt,
    evaluate,
    format_polynomial,
    is_multiple_of,
    length_of,
    parse_fraction,
    parse_polynomial,
    rational_sqrt,
    sqrt_binding,
    var,
    xvar,
)


def P(text):
    return parse_polynomial(text)


def random_polynomial(rng, max_vars=4, max_degree=4, max_terms=8):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        deg = rng.randint(0, max_degree)
        vars_ = tuple(xvar(rng.randint(1, max_vars)) for _ in range(deg))
        terms.append(Monomial(rng.choice((1, -1)), vars_))
    return Polynomial(terms)


def random_point(rng, max_vars=4):
    return Assignment.exact({xvar(i): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                             for i in range(1, max_vars + 1)})


class TestCanonicalize:
    def test_cancellation(self):
        assert P("x1 + x1 - x1") == P("x1")

    def test_repeated_terms_survive(self):
        p = P("x1*x2 + x2*x1")
        assert [str(t) for t in p.terms] == ["x1*x2", "x1*x2"]

    def test_zero(self):
        assert P("1 - 1") == Polynomial.zero()
        assert P("1 - 1").is_zero

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_polynomial(rng)
            assert Polynomial(p.terms) == p

    def test_evaluation_invariant_under_construction(self):
        # independent oracle: sum the raw signed monomials directly
        rng = random.Random(11)
        for _ in range(100):
            terms = []
            for _ in range(rng.randint(0, 6)):
                deg = rng.randint(0, 3)
                vars_ = tuple(xvar(rng.randint(1, 3)) for _ in range(deg))
                terms.append(Monomial(rng.choice((1, -1)), vars_))
            a = random_point(rng, 3)
            raw = Fraction(0)
            for t in terms:
                prod = Fraction(t.sign)
                for v in t.vars:
                    prod *= a.values[v]
                raw += prod
            assert evaluate(Polynomial(terms), a) == raw


class _DensePoly:
    """Independent exponent-vector arithmetic used as an oracle for +, - and *."""

    def __init__(self, coeffs=None):
        self.c = dict(coeffs or {})

    @classmethod
    def of(cls, p: Polynomial, nvars: int):
        out = {}
        for t in p.terms:
            exp = [0] * nvars
            for v in t.vars:
                exp[v.index - 1] += 1
            key = tuple(exp)
            out[key] = out.get(key, 0) + t.sign
        return cls({k: v for k, v in out.items() if v})

    def combine(self, other, op):
        if op == "add" or op == "sub":
            out = dict(self.c)
            s = 1 if op == "add" else -1
            for k, v in other.c.items():
                out[k] = out.get(k, 0) + s * v
            return _DensePoly({k: v for k, v in out.items() if v})
        out = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
        return _DensePoly({k: v for k, v in out.items() if v})


class TestArith:
    def test_difference_of_squares(self):
        assert P("x1 - 1") * P("x1 + 1") == P("x1*x1 - 1")

    def test_additive_identity(self):
        p = P("x1*x2 - x1 + 1")
        assert p + Polynomial.zero() == p

    def test_cubic_expansion(self):
        assert P("x1*x1 - 1") * P("x1") == P("x1*x1*x1 - x1")

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_against_dense_oracle(self, op):
        rng = random.Random({"add": 1, "sub": 2, "mul": 3}[op])
        for _ in range(60):
            p = random_polynomial(rng, max_vars=4, max_degree=4, max_terms=5)
            q = random_polynomial(rng, max_vars=4, max_degree=4, max_terms=5)
            got = _DensePoly.of(getattr(operator, op)(p, q), 4)
            want = _DensePoly.of(p, 4).combine(_DensePoly.of(q, 4), op)
            assert got.c == want.c


class TestEvaluate:
    def test_root(self):
        assert evaluate(P("x1*x1 - 1"), Assignment.exact({xvar(1): 1})) == 0

    def test_half(self):
        assert evaluate(P("x1*x1 - 1"), Assignment.exact({xvar(1): Fraction(1, 2)})) == Fraction(-3, 4)

    def test_zero_polynomial(self):
        assert evaluate(Polynomial.zero(), Assignment.exact({})) == 0

    def test_missing_binding(self):
        with pytest.raises(ValueError, match="no binding"):
            evaluate(P("x1"), Assignment.exact({}))

    def test_float_mode(self):
        v = evaluate(P("x1*x1 - 1"), Assignment.floating({xvar(1): 0.5}))
        assert isinstance(v, float) and abs(v + 0.75) < 1e-15


def evaluate_by_terms(p, a):
    """Oracle: multiply each term out in the bound values' own arithmetic
    and add the terms one by one as Fractions."""
    total = Fraction(0)
    for k, c in p.coefficients().items():
        term = Fraction(c)
        for v in k:
            term *= a.value_of(v)
        total += term
    return total if a.mode == "exact" else float(total)


EVAL_VARS = (xvar(1), xvar(2), xvar(3), var("u0"), var("w4"), var("y2"), var("z0"))


def random_value(rng, floats):
    kind = rng.randrange(5 if floats else 4)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    if kind == 3:  # the size of an approx_sqrt binding in a lifted witness
        return rng.choice((1, -1)) * approx_sqrt(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
    return rng.uniform(-3, 3)


class TestEvaluateDifferential:
    """``evaluate`` against the term-by-term Fraction loop, equal in value
    and in type, and ``length_of`` against ``len(p.terms)``, on seeded
    polynomials with repeated and cancelling terms."""

    @staticmethod
    def polynomial(rng):
        terms = []
        for _ in range(rng.randint(0, 300)):
            vars_ = [rng.choice(EVAL_VARS) for _ in range(rng.randint(0, 6))]
            terms += [Monomial(rng.choice((1, -1)), vars_)] * rng.choice((1, 1, 2, 3))
        if terms and rng.random() < 0.3:  # cancel a share of the terms exactly
            terms += [Monomial(-t.sign, t.vars) for t in rng.sample(terms, len(terms) // 2)]
        return Polynomial(terms)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            p = self.polynomial(rng)
            assert p.is_zero or length_of(p) == len(p.terms), p
            for mode in ("exact", "float"):
                values = {v: random_value(rng, mode == "float") for v in EVAL_VARS}
                a = Assignment(values, mode)
                got, want = evaluate(p, a), evaluate_by_terms(p, a)
                assert got == want and type(got) is type(want), (p, a)

    def test_unbound_variable_message(self):
        rng = random.Random(5)
        for _ in range(100):
            p = self.polynomial(rng)
            bound = rng.sample(EVAL_VARS, rng.randint(0, len(EVAL_VARS) - 1))
            a = Assignment({v: random_value(rng, False) for v in bound})
            try:
                want = evaluate_by_terms(p, a)
            except ValueError as e:
                with pytest.raises(ValueError) as got:
                    evaluate(p, a)
                assert str(got.value) == str(e)
            else:
                assert evaluate(p, a) == want


class TestMonomialOrder:
    def test_graded_order_respects_multiplication(self):
        # the division routine relies on a*t < b*t whenever a < b
        from psdrank.polynomials import _graded_key
        rng = random.Random(13)
        for _ in range(400):
            a = tuple(sorted(xvar(rng.randint(1, 4)) for _ in range(rng.randint(0, 4))))
            b = tuple(sorted(xvar(rng.randint(1, 4)) for _ in range(rng.randint(0, 4))))
            t = tuple(sorted(xvar(rng.randint(1, 4)) for _ in range(rng.randint(0, 3))))
            if _graded_key(a) < _graded_key(b):
                at = tuple(sorted(a + t))
                bt = tuple(sorted(b + t))
                assert _graded_key(at) < _graded_key(bt)


def fraction_is_multiple_of(g, f):
    """``is_multiple_of`` as it was before it divided on integers: every
    coefficient a ``Fraction`` from the start, kept as its reference."""
    from psdrank.polynomials import _graded_key, _monomial_quotient
    rem_is_zero = True
    work = {k: Fraction(c) for k, c in g.coefficients().items()}
    f_coeffs = {k: Fraction(c) for k, c in f.coefficients().items()}
    f_lead = max(f_coeffs, key=_graded_key)
    f_lead_c = f_coeffs[f_lead]
    while work:
        lead = max(work, key=_graded_key)
        quot = _monomial_quotient(lead, f_lead)
        if quot is None:
            rem_is_zero = False
            del work[lead]
            continue
        factor = work[lead] / f_lead_c
        for k, c in f_coeffs.items():
            kk = tuple(sorted(k + quot))
            nc = work.get(kk, Fraction(0)) - factor * c
            if nc:
                work[kk] = nc
            else:
                work.pop(kk, None)
    return rem_is_zero


class TestDivisibility:
    def test_constructed_multiple(self):
        f = P("x1*x1 - 1")
        assert is_multiple_of(f * P("x1"), f)

    def test_non_multiple(self):
        assert not is_multiple_of(P("x1*x1"), P("x1*x1 - 1"))

    def test_zero_is_multiple(self):
        assert is_multiple_of(Polynomial.zero(), P("x1*x1 - 1"))

    def test_division_by_zero(self):
        with pytest.raises(ValueError):
            is_multiple_of(P("x1"), Polynomial.zero())

    def test_random_products(self):
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            f = random_polynomial(rng, max_vars=3, max_degree=2, max_terms=4)
            q = random_polynomial(rng, max_vars=3, max_degree=2, max_terms=4)
            if f.is_zero:
                continue
            prod = f * q
            assert is_multiple_of(prod, f)
            if f.variables():
                assert not is_multiple_of(prod + Polynomial.constant(1), f)
            checked += 1

    @pytest.mark.parametrize("lead", [1, -1, 2, -2, 3])
    def test_integer_division_matches_fraction_reference(self, lead):
        """f's leading coefficient is ``lead`` (a cubic monomial over lower
        terms); g is a multiple of f, that multiple plus 1, or random."""
        rng = random.Random(100 + lead)
        seen = set()
        for _ in range(60):
            top = tuple(sorted(xvar(rng.randint(1, 3)) for _ in range(3)))
            f = (Polynomial([Monomial(1 if lead > 0 else -1, top)] * abs(lead))
                 + random_polynomial(rng, max_vars=3, max_degree=2, max_terms=4))
            q = random_polynomial(rng, max_vars=3, max_degree=2, max_terms=4)
            for g in (f * q, f * q + Polynomial.constant(1),
                      random_polynomial(rng, max_vars=3, max_degree=5, max_terms=6)):
                want = fraction_is_multiple_of(g, f)
                assert is_multiple_of(g, f) == want
                seen.add(want)
        assert seen == {True, False}

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("s1 s2 s3")

        def to_sympy(p):
            expr = sympy.Integer(0)
            for key, c in p.coefficients().items():
                term = sympy.Integer(c)
                for v in key:
                    term *= symbols[v.index - 1]
                expr += term
            return sympy.expand(expr)

        rng = random.Random(17)
        checked = 0
        while checked < 60:
            f = random_polynomial(rng, max_vars=3, max_degree=3, max_terms=4)
            g = random_polynomial(rng, max_vars=3, max_degree=4, max_terms=5)
            if f.is_zero:
                continue
            want = sympy.div(to_sympy(g), to_sympy(f), *symbols)[1] == 0
            assert is_multiple_of(g, f) == want
            checked += 1


class TestLength:
    def test_examples(self):
        assert length_of(P("x1*x1 - 1")) == 2
        assert length_of(P("x1*x1 + x1 - 1")) == 3
        assert length_of(P("1")) == 1

    def test_zero_errors(self):
        with pytest.raises(ValueError):
            length_of(Polynomial.zero())

    def test_counts_repeats(self):
        assert length_of(P("3*x1")) == 3


class TestTextSyntax:
    def test_round_trip_examples(self):
        for text in ["x1*x1 - 1", "0", "1", "-x1 + 1", "x1*x2 + x1*x2", "y0*y0 - z1"]:
            p = parse_polynomial(text)
            assert parse_polynomial(format_polynomial(p)) == p
            assert format_polynomial(parse_polynomial(format_polynomial(p))) == format_polynomial(p)

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(60):
            p = random_polynomial(rng)
            assert parse_polynomial(format_polynomial(p)) == p
            assert parse_polynomial(format_polynomial(p, compact=True)) == p

    def test_constant_expansion(self):
        assert P("3") == P("1 + 1 + 1")
        assert length_of(P("2*x1*x2")) == 2

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            parse_polynomial("q1 + 1")

    def test_syntax_error_position(self):
        with pytest.raises(ValueError):
            parse_polynomial("x1 + * x2")

    @pytest.mark.parametrize("text, at", [("x1 x2", 3), ("2x1 - 1", 1), ("x1*x2 3", 6),
                                          ("1 1", 2)])
    def test_juxtaposed_terms_rejected(self, text, at):
        with pytest.raises(ParseError, match=f"position {at}$"):
            parse_polynomial(text)


class TestVarId:
    def test_display_round_trip(self):
        for name in ["x0", "x12", "y3", "z2", "u0", "v0", "w0", "u5", "v5", "w5"]:
            assert var(name).name == name

    def test_gadget_triples(self):
        assert var("u2").index == 6
        assert var("v2").index == 7
        assert var("w2").index == 8

    def test_ordering_is_stable(self):
        vs = [var(n) for n in ["x2", "x1", "y0", "u0", "z1"]]
        assert sorted(vs) == [var("x1"), var("x2"), var("u0"), var("y0"), var("z1")]

    def test_negative_index_rejected(self):
        for kind in VarKind:
            with pytest.raises(ValueError, match="nonnegative, got -1"):
                VarId(kind, -1)

    def test_order_and_hash_are_those_of_kind_then_index(self):
        rng = random.Random(23)
        vs = [VarId(rng.choice(list(VarKind)), rng.randint(0, 9)) for _ in range(300)]
        assert sorted(vs) == sorted(vs, key=lambda v: (v.kind, v.index))
        for a, b in zip(vs, reversed(vs)):
            assert (a == b) == ((a.kind, a.index) == (b.kind, b.index))
            assert (a < b) == ((a.kind, a.index) < (b.kind, b.index))
            if a == b:
                assert hash(a) == hash(b)

    def test_name_repr_and_copies_round_trip(self):
        for kind in VarKind:
            for index in (0, 1, 2, 5, 31):
                v = VarId(kind, index)
                assert var(v.name) == v and str(v) == v.name
                assert repr(v) == f"VarId({v.name!r})"
                for copied in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
                    assert copied == v and type(copied) is VarId
        assert repr(var("v2")) == "VarId('v2')"
        assert VarId(kind=VarKind.SLACK, index=3) == var("z3")


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


@pytest.mark.parametrize("x,root,exact", [
    (0.25, 0.5, False),
    (Fraction(9, 16), Fraction(3, 4), True),
    (Fraction(1, 2), Fraction(707106781186547524400844362104, 10 ** 30), False)])
def test_sqrt_binding(x, root, exact):
    assert sqrt_binding(x) == (root, exact)
    assert type(sqrt_binding(x)[0]) is type(root)


def test_parse_fraction_zero_denominator():
    assert parse_fraction("3/4") == Fraction(3, 4)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


def test_parse_fraction_bounds_decimal_literals():
    assert parse_fraction("1e4299") == 10 ** 4299
    assert parse_fraction("-2.5E-3") == Fraction(-1, 400)
    for text in ["1e4300", "1e10000000", "-1.5E-10000000", "1e" + "9" * 100]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_fraction(text)
        assert time.perf_counter() - start < 0.05
