import hashlib
import random
from fractions import Fraction

import pytest

from psdrank.formulas import (
    And,
    Atom,
    ConstE,
    EquationSystem,
    FormulaParseError,
    Not,
    OpE,
    Or,
    VarE,
    expr_ops,
    expr_to_polynomial,
    flatten,
    format_expr,
    formula_size,
    formula_truth,
    lift_witness,
    normalize_atoms,
    parse_formula,
    to_equation_system,
    to_single_polynomial,
)
from psdrank.polynomials import (
    Assignment,
    Polynomial,
    evaluate,
    format_polynomial,
    parse_polynomial,
    var,
    xvar,
)


def P(text):
    return parse_polynomial(text)


class TestParse:
    def test_single_atom(self):
        f = parse_formula("x1*x1 - 1 = 0")
        assert f == Atom(P("x1*x1 - 1"), "=")

    def test_structure(self):
        f = parse_formula("!(x1 > 0) & (x2 > 0)")
        assert f == And(Not(Atom(P("x1"), ">")), Atom(P("x2"), ">"))

    def test_geq(self):
        assert parse_formula("x1 >= 0") == Atom(P("x1"), ">=")

    def test_rhs_moves_left(self):
        assert parse_formula("x1 > x2 + 1") == Atom(P("x1 - x2 - 1"), ">")

    def test_precedence(self):
        f = parse_formula("x1 > 0 | x2 > 0 & x3 > 0")
        assert isinstance(f, Or) and isinstance(f.right, And)

    def test_error_position(self):
        with pytest.raises(FormulaParseError) as e:
            parse_formula("x1 >")
        assert e.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(FormulaParseError, match="unknown variable"):
            parse_formula("foo1 > 0")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaParseError):
            parse_formula("x1 > 0 )")

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "x1 > 0" + ")" * 3000,
        "!" * 3000 + "x1 > 0",
        "(!" * 1500 + "x1 > 0" + ")" * 1500,
    ], ids=["parens", "negations", "mixed"])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(FormulaParseError, match="nests too deep") as e:
            parse_formula(text)
        assert 0 < e.value.position < len(text)

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_long_chains_parse(self, op):
        # The parser loops over a chain; only the later walks recurse on it.
        phi = parse_formula(f" {op} ".join(["x1 > 0"] * 3000))
        atoms = 1
        while not isinstance(phi, Atom):  # a left chain
            assert isinstance(phi, And if op == "&" else Or)
            phi, atoms = phi.left, atoms + 1
        assert atoms == 3000

    @pytest.mark.parametrize("text, x1", [
        ("(" * 200 + "x1 > 0" + ")" * 200, 1),
        ("!" * 600 + "x1 > 0", 1),
        (" & ".join(["x1 > 0"] * 600), 1),
        (" | ".join(["x1 < 0"] * 599 + ["x1 > 0"]), 1),
        ("x1 > 1000", 1001),  # an atom of 1,001 standard-form terms
    ], ids=["parens", "negations", "and-chain", "or-chain", "long-atom"])
    def test_deep_formulas_compile(self, text, x1):
        phi = parse_formula(text)
        poly = to_single_polynomial(flatten(to_equation_system(normalize_atoms(phi))))
        point = Assignment.exact({xvar(1): Fraction(x1)})
        assert formula_truth(phi, point)  # an even number of negations
        assert evaluate(poly, lift_witness(phi, point)) == 0


class TestNormalizeAtoms:
    def test_equality(self):
        g = P("x1 - 1")
        assert normalize_atoms(Atom(g, "=")) == And(Not(Atom(g, ">")), Not(Atom(-g, ">")))

    def test_strict_fixed_point(self):
        a = Atom(P("x1"), ">")
        assert normalize_atoms(a) is a

    def test_leq_complement(self):
        g = P("x1")
        assert normalize_atoms(Atom(g, "<=")) == Not(Atom(g, ">"))

    def test_only_strict_atoms_remain(self):
        f = parse_formula("x1 = 0 | !(x2 != 0) & x3 <= 1")
        def rels(node):
            if isinstance(node, Atom):
                yield node.rel
            elif isinstance(node, Not):
                yield from rels(node.child)
            else:
                yield from rels(node.left)
                yield from rels(node.right)
        assert set(rels(normalize_atoms(f))) == {">"}

    def test_truth_preserved_on_random_points(self):
        rng = random.Random(23)
        formulas = [
            "x1 = 0", "x1 != 0", "x1 >= 0", "x1 <= 0", "x1 < 0",
            "x1*x2 - 1 > 0 & x2 = 0", "!(x1 > x2) | x1*x1 <= 2",
        ]
        for text in formulas:
            f = parse_formula(text)
            g = normalize_atoms(f)
            for _ in range(1000):
                a = Assignment.exact({xvar(i): Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                                      for i in (1, 2)})
                assert formula_truth(f, a) == formula_truth(g, a)


class TestEncoders:
    def test_truth_tables_exhaustive(self):
        for wa in (0, 1):
            assert 1 - wa == int(not wa)
            for wb in (0, 1):
                assert wa * wb == int(wa and wb)
                assert wa + wb - wa * wb == int(wa or wb)


class TestEquationSystem:
    def test_single_atom(self):
        system = to_equation_system(Atom(P("x1"), ">"))
        assert len(system.equations) == 2
        gadget, value = system.equations
        assert expr_to_polynomial(value) == P("w0 - 1")
        # gadget vanishes at the canonical true witness u=1, v=0, w=1, x1=1
        a = Assignment.exact({xvar(1): 1, var("u0"): 1, var("v0"): 0, var("w0"): 1})
        assert evaluate(expr_to_polynomial(gadget), a) == 0
        # and at the canonical false witness u=0, v=1, w=0, x1=-1
        b = Assignment.exact({xvar(1): -1, var("u0"): 0, var("v0"): 1, var("w0"): 0})
        assert evaluate(expr_to_polynomial(gadget), b) == 0

    def test_and_adds_encoder_and_value(self):
        f = And(Atom(P("x1"), ">"), Atom(P("x2"), ">"))
        system = to_equation_system(f)
        # two gadgets, one encoder, one value equation
        assert len(system.equations) == 4
        assert expr_to_polynomial(system.equations[2]) == P("w0 - w1*w2")
        assert expr_to_polynomial(system.equations[3]) == P("w0 - 1")

    def test_not_encoder(self):
        system = to_equation_system(Not(Atom(P("x1"), ">")))
        assert expr_to_polynomial(system.equations[1]) == P("w0 - 1 + w1")
        assert expr_to_polynomial(system.equations[2]) == P("w0 - 1")

    def test_or_encoder(self):
        system = to_equation_system(Or(Atom(P("x1"), ">"), Atom(P("x2"), ">")))
        assert len(system.equations) == 4
        assert expr_to_polynomial(system.equations[2]) == P("w0 - w1 - w2 + w1*w2")
        assert format_expr(system.equations[2]) == "(w0-((w1+w2)-(w1*w2)))"
        assert expr_to_polynomial(system.equations[3]) == P("w0 - 1")

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalize_atoms"):
            to_equation_system(Atom(P("x1"), "="))


class TestFlatten:
    def test_product_chain(self):
        eq = OpE("*", OpE("*", VarE(xvar(1)), VarE(xvar(2))), VarE(xvar(3)))
        out = flatten(EquationSystem((eq,)))
        assert [format_expr(e) for e in out.equations] == ["((x1*x2)-u0)", "(u0*x3)"]

    def test_already_flat(self):
        eq = OpE("+", VarE(xvar(1)), VarE(xvar(2)))
        out = flatten(EquationSystem((eq,)))
        assert list(out.equations) == [eq]
        assert not out.definitions

    def test_two_rewrites(self):
        tree = OpE("+", OpE("*", OpE("+", VarE(xvar(1)), VarE(xvar(2))), VarE(xvar(3))),
                   VarE(xvar(4)))
        out = flatten(EquationSystem((tree,)))
        assert len(out.equations) == 3
        assert len(out.definitions) == 2

    def test_all_outputs_flat_and_equisatisfiable(self):
        f = parse_formula("(x1 > 0) & !(x2*x2 - 2 > 0)")
        system = to_equation_system(normalize_atoms(f))
        flat = flatten(system)
        assert all(expr_ops(e) <= 2 for e in flat.equations)
        # x2*x2 - 2 = -1 and x1 = 4 make every radical rational, so the
        # lifted point is exact and zeroes each flat equation on its own
        w = lift_witness(f, Assignment.exact({xvar(1): 4, xvar(2): 1}))
        assert w.mode == "exact"
        for e in flat.equations:
            assert evaluate(expr_to_polynomial(e), w) == 0

    def test_structure_sharing(self):
        # the same subexpression squared twice gets one definition
        x = VarE(xvar(1))
        sq = OpE("*", OpE("+", x, ConstE(1)), OpE("+", x, ConstE(1)))
        big = OpE("+", sq, OpE("*", sq, x))
        out = flatten(EquationSystem((big,)))
        defined = [format_expr(e) for _, e in out.definitions]
        assert defined.count("(x1+1)") == 1


class TestExpressionNodes:
    """Nodes are tuples: equal nodes hash equal, and nodes of different
    classes are never equal, so flatten's memo keys cannot collide."""

    LEAVES = [VarE(v) for v in (xvar(0), xvar(1), var("u0"), var("w0"), var("y0"), var("z1"))]
    LEAVES += [ConstE(0), ConstE(1)]

    @classmethod
    def random_tree(cls, rng, depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(cls.LEAVES)
        return OpE(rng.choice("+-*"), cls.random_tree(rng, depth - 1),
                   cls.random_tree(rng, depth - 1))

    def test_equal_nodes_hash_equal(self):
        rng = random.Random(31)
        trees = [self.random_tree(rng, 3) for _ in range(400)]
        rng = random.Random(31)
        rebuilt = [self.random_tree(rng, 3) for _ in range(400)]
        for a, b, c in zip(trees, rebuilt, rebuilt[1:] + rebuilt[:1]):
            assert a == b and hash(a) == hash(b)
            assert (a == c) == (format_expr(a) == format_expr(c))
            if a == c:
                assert hash(a) == hash(c)

    def test_classes_never_compare_equal(self):
        nodes = self.LEAVES + [OpE(op, l, r) for op in "+-*"
                               for l in self.LEAVES[:2] for r in self.LEAVES[-2:]]
        for a in nodes:
            for b in nodes:
                if type(a) is not type(b):
                    assert a != b
        assert VarE(xvar(0)) != ConstE(0) and VarE(xvar(1)) != ConstE(1)

    def test_memo_shares_only_equal_subexpressions(self):
        x = VarE(xvar(1))
        tree = OpE("*", OpE("+", x, ConstE(1)), OpE("*", OpE("+", x, ConstE(1)),
                                                      OpE("+", ConstE(1), x)))
        out = flatten(EquationSystem((tree,)))
        assert [format_expr(e) for _, e in out.definitions] == ["(x1+1)", "(1+x1)", "(u0*v0)"]


class TestSinglePolynomial:
    def test_single_square(self):
        system = flatten(EquationSystem((OpE("-", VarE(xvar(1)), ConstE(1)),)))
        assert to_single_polynomial(system) == P("x1*x1 - x1 - x1 + 1")

    def test_empty_system(self):
        assert to_single_polynomial(EquationSystem(())) == Polynomial.zero()

    def test_two_squares(self):
        eqs = (VarE(xvar(1)), VarE(xvar(2)))
        assert to_single_polynomial(EquationSystem(eqs)) == P("x1*x1 + x2*x2")

    def test_requires_flat(self):
        deep = OpE("*", OpE("*", OpE("*", VarE(xvar(1)), VarE(xvar(1))),
                              VarE(xvar(1))), VarE(xvar(1)))
        with pytest.raises(ValueError, match="flatten"):
            to_single_polynomial(EquationSystem((deep,)))


def single_polynomial_of(f):
    return to_single_polynomial(flatten(to_equation_system(normalize_atoms(f))))


class TestLiftWitness:
    def test_true_atom_bindings(self):
        f = parse_formula("x1 > 0")
        w = lift_witness(f, Assignment.exact({xvar(1): 4}))
        assert w.values[var("u0")] == Fraction(1, 2)
        assert w.values[var("v0")] == 0
        assert w.values[var("w0")] == 1
        assert evaluate(single_polynomial_of(f), w) == 0

    def test_false_atom_bindings(self):
        f = parse_formula("!(x1 > 0)")
        w = lift_witness(f, Assignment.exact({xvar(1): -1}))
        # the atom is the child; its triple is allocated after the root's
        assert w.values[var("u1")] == 0
        assert w.values[var("v1")] == 1
        assert w.values[var("w1")] == 0
        assert evaluate(single_polynomial_of(f), w) == 0

    def test_conjunction_value(self):
        f = parse_formula("x1 > 0 & x2 > 0")
        w = lift_witness(f, Assignment.exact({xvar(1): 1, xvar(2): 4}))
        assert w.values[var("w0")] == 1
        assert evaluate(single_polynomial_of(f), w) == 0

    def test_rejects_non_witness(self):
        with pytest.raises(ValueError, match="does not satisfy"):
            lift_witness(parse_formula("x1 > 0"), Assignment.exact({xvar(1): -1}))

    def test_float_point(self):
        f = parse_formula("x1 > 0 & !(x2 >= 1) | x1*x2 = 3")
        w = lift_witness(f, Assignment.floating({xvar(1): 2.5, xvar(2): 0.5}))
        assert w.mode == "float"
        assert abs(evaluate(single_polynomial_of(f), w)) <= 1e-12

    def test_float_mode_when_radical_irrational(self):
        f = parse_formula("x1 > 0")
        w = lift_witness(f, Assignment.exact({xvar(1): 3}))
        assert w.mode == "float"
        assert abs(evaluate(single_polynomial_of(f), w)) <= 1e-12


def random_formula_with_witness(rng, max_atoms=3, max_vars=2):
    a = Assignment.exact({xvar(i): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for i in range(1, max_vars + 1)})
    def atom():
        terms = []
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(0, 2)
            terms.append(("-" if rng.random() < 0.5 else "+")
                         + "*".join(f"x{rng.randint(1, max_vars)}" for _ in range(deg))
                         or "+1")
        text = "".join(t if t not in ("+", "-") else t + "1" for t in terms)
        rel = rng.choice([">", ">=", "=", "!=", "<", "<="])
        return Atom(parse_polynomial(text), rel)
    def tree(n):
        if n <= 1:
            return atom()
        cut = rng.randint(1, n - 1)
        node = rng.choice([And, Or])
        out = node(tree(cut), tree(n - cut))
        return Not(out) if rng.random() < 0.3 else out
    f = tree(rng.randint(1, max_atoms))
    if not formula_truth(f, a):
        f = Not(f)
    return f, a


class TestFrontendSoundness:
    def test_random_formulas_lift_to_zeros(self):
        rng = random.Random(2024)
        for _ in range(100):
            f, a = random_formula_with_witness(rng)
            w = lift_witness(f, a)
            value = evaluate(single_polynomial_of(f), w)
            if w.mode == "exact":
                assert value == 0
            else:
                assert abs(value) <= 1e-12

    def test_output_size_linear_bound(self):
        rng = random.Random(77)
        for _ in range(30):
            f, _ = random_formula_with_witness(rng)
            single = single_polynomial_of(f)
            assert len(single.terms) <= 200 * formula_size(f)


def corpus_digest():
    """sha256 over the single polynomial, the sorted lifted values and the
    mode of a seeded random corpus plus three edge formulas."""
    rng = random.Random(1729)
    cases = [random_formula_with_witness(rng) for _ in range(80)]
    cases += [
        (parse_formula("!(x1 > x1)"), Assignment.exact({xvar(1): 1})),
        (parse_formula("(x1 > x1) | (x2 >= 0)"), Assignment.exact({xvar(1): 1, xvar(2): 0})),
        (parse_formula("u0*x1 > 0"), Assignment.exact({var("u0"): 1, xvar(1): 2})),
    ]
    h = hashlib.sha256()
    for f, a in cases:
        w = lift_witness(f, a)
        values = ",".join(f"{v}={x}" for v, x in sorted(w.values.items()))
        h.update(f"{format_polynomial(single_polynomial_of(f))}\n{values}\n{w.mode}\n".encode())
    return h.hexdigest()


def test_frontend_outputs_pinned():
    assert corpus_digest() == "ff931c503337f00d00dbdc1e9cb27cb92d337d495437d318375603f9845e85b9"
