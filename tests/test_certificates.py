import functools
import hashlib
from fractions import Fraction

import pytest

from psdrank import certificates
from psdrank.certificates import (
    ExtractionError,
    assemble_instance_witness,
    completion_from_root,
    extract_root,
    sqrt_condition_check,
)
from psdrank.factorizations import (
    PSDFactorization,
    VerificationReport,
    dense_vector,
    p_alpha_gram_vectors,
    parse_factorization,
    verify_factorization,
    write_factorization,
)
from psdrank.gadgets import (
    build_B, build_M, compute_K, index_set_H, instance_labels, sigma_set)
from psdrank.matrices import (
    UNKNOWN,
    IncompleteMatrix,
    LabelVector,
    parse_matrix,
    write_matrix,
)
from psdrank.polynomials import Assignment, Polynomial, evaluate, parse_polynomial, xvar
from test_matrices import ROOTS

ONE = Polynomial.constant(1)
ZERO = Polynomial.zero()


def P(text):
    return parse_polynomial(text)


def L(*coords):
    return LabelVector(tuple(coords)).render()


def exact_point(**kw):
    return Assignment.exact({xvar(int(k[1:])): Fraction(v) for k, v in kw.items()})


@functools.lru_cache(maxsize=1)
def _instance_and_witness(text):
    """M(B, K) of a polynomial with a root at x1 = 1, and its witness."""
    f = P(text)
    return build_M(build_B(f), compute_K(f)), assemble_instance_witness(f, exact_point(x1=1))


def point_pair_completion(f, xi, coordinate=lambda x: x, entry=lambda sq: sq):
    """B' by the kernel the Gram table replaced: the distinct evaluated label
    points (each coordinate passed through ``coordinate``) and (p.q)^2 per
    pair of point ids, memoized, where p.q is nonzero; ``entry`` maps each
    square to the value stored (None for none)."""
    value = {p: coordinate(evaluate(p, xi)) for p in sigma_set(f)}
    H = index_set_H(f)
    ids = {}
    pid = [ids.setdefault(tuple(value[c] for c in h.coords), len(ids)) for h in H]
    points = list(ids)

    @functools.cache
    def square(p, q):
        a, b = points[p], points[q]
        d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        return entry(d * d) if d else None

    labels = [h.render() for h in H]
    return {(labels[a], labels[b]): sq for a, p in enumerate(pid) for b, q in enumerate(pid)
            if (sq := square(p, q)) is not None}


FLOAT_ROOTS = [("x1*x1 + x2*x2 - 1", (0.6, 0.8)), ("x1 - x2", (0.3, 0.3)),
               ("x1*x2 - x1", (0.1, 1.0))]


class TestGramTableCompletion:
    """B' is the Gram table at the root: exactly the per-point-pair squares
    at an exact root, and at a float root the nearest float to each exact
    square of a dot product of the coordinates' Fraction values."""

    @pytest.mark.parametrize("text", list(ROOTS))
    def test_equals_point_pair_kernel_at_exact_roots(self, text):
        f = P(text)
        xi = Assignment.exact({xvar(i): Fraction(x) for i, x in ROOTS[text].items()})
        assert dict(completion_from_root(f, xi).matrix.data.items()) == point_pair_completion(f, xi)

    @pytest.mark.parametrize("text,root", FLOAT_ROOTS)
    def test_float_root_entries_round_exact_squares(self, text, root):
        f = P(text)
        xi = Assignment.floating({xvar(i + 1): x for i, x in enumerate(root)})
        comp = completion_from_root(f, xi)
        got = dict(comp.matrix.data.items())
        assert all(type(v) is Fraction for v in got.values())
        assert got == point_pair_completion(f, xi, Fraction, lambda sq: Fraction(float(sq)) or None)
        report = verify_factorization(comp.matrix, comp.factorization)
        assert report.passed and report.max_residual <= 1e-12


class TestCompletionFromRoot:
    def test_zero_where_B_is_zero(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        assert comp.matrix.entry(L(ZERO, ZERO, ONE), L(ONE, ZERO, f)) == 0

    def test_unit_entry(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        assert comp.matrix.entry(L(ONE, ZERO, ZERO), L(ONE, ZERO, ZERO)) == 1

    def test_entry_budget(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        assert max(comp.matrix.data.values(), default=0) <= 144

    def test_agrees_with_every_known_entry(self):
        f = P("x1*x1 - 1")
        B = build_B(f)
        comp = completion_from_root(f, exact_point(x1=1))
        for r in B.row_labels:
            for c in B.col_labels:
                known = B.entry(r, c)
                if isinstance(known, Fraction):
                    assert comp.matrix.entry(r, c) == known

    def test_factorization_certifies_matrix(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=-1))
        report = verify_factorization(comp.matrix, comp.factorization)
        assert report.passed and report.max_residual == 0

    def test_rejects_non_root(self):
        with pytest.raises(ValueError, match="not a root"):
            completion_from_root(P("x1*x1 - 1"), exact_point(x1=0))

    @pytest.mark.parametrize("build", [completion_from_root, assemble_instance_witness])
    def test_float_root_within_tolerance(self, build):
        f = P("x1 - 1")
        build(f, Assignment.floating({xvar(1): 1.0}))
        with pytest.raises(ValueError, match="not a root within"):
            build(f, Assignment.floating({xvar(1): 1 - 1e-9}))

    def test_fractional_root_bytes_pinned(self):
        # the benchmark's bprime.mtx and completion.fac entries for x1 - x2
        comp = completion_from_root(P("x1 - x2"), exact_point(x1="19/23", x2="19/23"))
        digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in
                   (write_matrix(comp.matrix), write_factorization(comp.factorization))]
        assert digests == [
            "1c99251eb1efc213bc3d2bc1b61f4d3fc131552ca6dd4b4ee7c67f37e05e8b8f",
            "d554b01c25cc7819aa6e5a18d1d3f26f76748bd14ad1b7b86bda06c1b21de14f"]

    def test_fractional_root_round_trips(self):
        comp = completion_from_root(P("x1 - x2"), exact_point(x1="19/23", x2="19/23"))
        assert parse_matrix(write_matrix(comp.matrix)).instance == comp.matrix
        F = comp.factorization
        assert parse_factorization(write_factorization(F)) == F

    def test_rejects_points_outside_cube(self):
        with pytest.raises(ValueError, match="unit cube"):
            completion_from_root(P("x1*x1 - 4"), exact_point(x1=2))


def copied_block_witness(f, xi):
    """Oracle: the 2k+3 witness with every block vector copied to its
    coordinates through a shift, one unknown entry at a time."""
    value = {p: evaluate(p, xi) for p in sigma_set(f)}
    B = build_B(f)
    K = Fraction(compute_K(f))
    E, labels = instance_labels(B)
    k = len(E)
    point = {l: tuple(value[c] for c in h.coords)
             for l, h in zip(B.row_labels, index_set_H(f))}
    rows = {l: [dense_vector(p)] for l, p in point.items()}
    cols = {l: [dense_vector(p)] for l, p in point.items()}
    for t, (i, j) in enumerate(E):
        base = 3 + 2 * t
        a, b = point[i], point[j]
        d = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        prows, pcols = p_alpha_gram_vectors((K - d * d) / K, scale=K)

        def shift(vec):
            return {base + c: v for c, v in vec.items()}

        e1, e2 = labels[t], labels[k + t]
        rows[i].extend(shift(v) for v in prows[0])
        rows[e1] = [shift(v) for v in prows[1]]
        rows[e2] = [shift(v) for v in prows[2]]
        cols[j].extend(shift(v) for v in pcols[0])
        cols[e1] = [shift(v) for v in pcols[1]]
        cols[e2] = [shift(v) for v in pcols[2]]
    return 2 * k + 3, labels, rows, cols


class TestAssembleInstanceWitness:
    # x1 at 0: alpha = 1 blocks dominate; x1*x1 - 1 at -1: a negative root
    @pytest.mark.parametrize("text,root", [("x1 - 1", 1), ("x1", 0), ("x1*x1 - 1", -1)])
    def test_vectors_match_copied_blocks(self, text, root):
        f, xi = P(text), exact_point(x1=root)
        F = assemble_instance_witness(f, xi)
        k, labels, rows, cols = copied_block_witness(f, xi)
        assert (F.k, tuple(F.row_labels), tuple(F.col_labels)) == (k, labels, labels)
        assert F.row_vectors.keys() == rows.keys() and F.col_vectors.keys() == cols.keys()
        for l in labels:
            assert F.row_vectors[l] == tuple(rows[l])
            assert F.col_vectors[l] == tuple(cols[l])

    def test_small_instance_verifies_everywhere_it_matters(self):
        # f = x1 with root 0: |H| = 61.  Check every nonzero entry of M
        # exactly, then a large seeded sample for the zero structure.
        f = P("x1")
        F = assemble_instance_witness(f, exact_point(x1=0))
        B = build_B(f)
        M = build_M(B, compute_K(f))
        assert F.k == 2 * len(B.unknown_positions()) + 3
        for (r, c), v in M.data.items():
            assert F.entry(r, c) == v
        report = verify_factorization(M, F, mode="sampled", seed=3, samples=100_000)
        assert report.passed and report.max_residual == 0

    def test_alpha_one_block_when_completion_entry_zero(self):
        # root 0 zeroes most dot products, so alpha_e = 1 blocks dominate:
        # the witness must still certify the exact K at block positions
        f = P("x1")
        B = build_B(f)
        E = B.unknown_positions()
        F = assemble_instance_witness(f, exact_point(x1=0))
        M = build_M(B, compute_K(f))
        i, j = E[0]
        assert F.entry(i, j) == M.entry(i, j) == compute_K(f)

    def test_several_vectors_per_block_slot(self, monkeypatch):
        # each column E1 vector v split into 3/5 v and 4/5 v: the same Gram
        # matrices, but two pieces per E1 column label
        gram = certificates.p_alpha_gram_vectors

        def split(alpha, scale):
            rows, cols = gram(alpha, scale=scale)
            e1 = tuple({c: x * r for c, x in v.items()}
                       for v in cols[1] for r in (Fraction(3, 5), Fraction(4, 5)))
            return rows, (cols[0], e1, cols[2])

        monkeypatch.setattr(certificates, "p_alpha_gram_vectors", split)
        f = P("x1")
        B = build_B(f)
        F = assemble_instance_witness(f, exact_point(x1=0))
        k = len(B.unknown_positions())
        assert [len(F.col_vectors[l]) for l in F.col_labels[:2 * k]] == [2] * k + [1] * k
        report = verify_factorization(build_M(B, compute_K(f)), F)
        assert report.passed and report.max_residual == 0

    def test_budget_violation_rejected(self, monkeypatch):
        # K = 144 for x1*x1 - 1; with the budget shrunk to 1, the first
        # completion entry above 1 must be refused
        f = P("x1*x1 - 1")
        xi = exact_point(x1=1)
        F = assemble_instance_witness(f, xi)  # sanity: the real budget passes
        assert F.mode == "exact"
        monkeypatch.setattr(certificates, "compute_K", lambda f: 1)
        with pytest.raises(ValueError, match="exceeds the budget K = 1"):
            assemble_instance_witness(f, xi)

    def test_witness_bytes_pinned(self):
        F = assemble_instance_witness(P("x1 - 1"), exact_point(x1=1))
        data = write_factorization(F).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == (
            "6370d52ac390e61f0d96202b540b07edfa71d1f22bc27cc1338cb3b5504ee436")

    def test_fractional_root_witness_bytes_pinned(self):
        # x1 - x2 at 19/23: 39,048 unknowns whose blocks take four-square
        # expansions; the digest is the benchmark's instance.fac entry.
        F = assemble_instance_witness(P("x1 - x2"), exact_point(x1="19/23", x2="19/23"))
        data = write_factorization(F).encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == (
            "c544941d01bc6704946344d18687a6d13db42b89a732a8bee73df271c4677343")

    def test_check_workload_witness_bytes_pinned(self):
        # the instance.fac the benchmark's check workload parses
        F = assemble_instance_witness(P("x1*x1 - 1"), exact_point(x1=1))
        data = write_factorization(F).encode("utf-8")
        assert len(data) == 7_624_899
        assert hashlib.sha256(data).hexdigest() == (
            "96e4269c9d369ad8e2d05bd4ea9ba53efe239efaa13830b4fc7a78e3f622fe47")

    def test_sampled_report_reproducible_on_large_witness(self):
        f = P("x1")
        F = assemble_instance_witness(f, exact_point(x1=0))
        M = build_M(build_B(f), compute_K(f))
        r1 = verify_factorization(M, F, mode="sampled", seed=17, samples=20_000)
        r2 = verify_factorization(M, F, mode="sampled", seed=17, samples=20_000)
        assert r1 == r2 and r1.passed

    @pytest.mark.parametrize("text,seed,joined,nonzero,zero_by_support", [
        ("x1 - 1", 1, 30, 29, 99_970), ("x1 - 1", 2, 19, 19, 99_981),
        ("x1 - 1", 7, 20, 19, 99_980), ("x1*x1 - 1", 1, 6, 6, 99_994),
        ("x1*x1 - 1", 2, 3, 3, 99_997), ("x1*x1 - 1", 7, 4, 4, 99_996)])
    def test_sampled_report_pinned(self, text, seed, joined, nonzero, zero_by_support):
        # the whole report, and a second verify of the same witness agrees
        M, F = _instance_and_witness(text)
        report = verify_factorization(M, F, mode="sampled", seed=seed, samples=100_000)
        assert report == VerificationReport(
            "sampled", 100_000, Fraction(0), None, Fraction(0), True, seed,
            joined, nonzero, zero_by_support)
        assert verify_factorization(M, F, mode="sampled", seed=seed, samples=100_000) == report


class TestExtractRoot:
    def test_round_trip_positive(self):
        f = P("x1*x1 - 1")
        F = completion_from_root(f, exact_point(x1=1)).factorization
        y = extract_root(f, F)
        assert y.values[xvar(1)] == 1

    def test_round_trip_negative(self):
        f = P("x1*x1 - 1")
        F = completion_from_root(f, exact_point(x1=-1)).factorization
        assert extract_root(f, F).values[xvar(1)] == -1

    def test_round_trip_two_variables(self):
        f = P("x1*x2 - 1")
        F = completion_from_root(f, exact_point(x1=1, x2=1)).factorization
        y = extract_root(f, F)
        assert y.values[xvar(1)] == 1
        assert y.values[xvar(2)] == 1

    def test_round_trip_fractional_root(self):
        # x1*x2*x2 - x1 vanishes at (1/2, 1) inside the cube; x2 hides
        # behind x1 in every monomial, exercising the prefix-ratio path
        f = P("x1*x2*x2 - x1")
        xi = Assignment.exact({xvar(1): Fraction(1, 2), xvar(2): 1})
        F = completion_from_root(f, xi).factorization
        y = extract_root(f, F)
        assert y.values[xvar(1)] == Fraction(1, 2)
        assert y.values[xvar(2)] == 1

    def test_float_witness_within_tolerance(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        noisy_rows = {l: tuple({c: float(x) + 1e-11 for c, x in v.items()} for v in vs)
                      for l, vs in comp.factorization.row_vectors.items()}
        noisy_cols = {l: tuple({c: float(x) for c, x in v.items()} for v in vs)
                      for l, vs in comp.factorization.col_vectors.items()}
        F = PSDFactorization(3, comp.factorization.row_labels,
                             comp.factorization.col_labels, noisy_rows, noisy_cols,
                             "float")
        y = extract_root(f, F)
        assert abs(y.values[xvar(1)] - 1) <= 1e-9

    def test_singular_basis_error(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        rows = dict(comp.factorization.row_vectors)
        rows[L(ZERO, ONE, ZERO)] = rows[L(ONE, ZERO, ZERO)]  # collinear basis
        F = PSDFactorization(3, comp.factorization.row_labels,
                             comp.factorization.col_labels, rows,
                             dict(comp.factorization.col_vectors), "exact")
        with pytest.raises(ExtractionError, match="singular"):
            extract_root(f, F)

    def test_label_set_guard(self):
        f = P("x1*x1 - 1")
        with pytest.raises(ExtractionError, match="labels"):
            extract_root(f, PSDFactorization(3, ("a",), ("a",), {}, {}))

    @pytest.mark.parametrize("line, match", [
        # l_(1,0,x1) reads x1 = 1 + 1e-8, and f(y) = 1e-8
        ("col (1,0,x1) 1/1 0/1 100000001/100000000", "misses the zero set"),
        ("col (1,0,x1) 1/1 1/100000000 1/1", "violates the zero pattern"),
    ], ids=["residual", "zero-pattern"])
    def test_exact_witness_decided_exactly(self, line, match):
        f = P("x1 - 1")
        text = write_factorization(completion_from_root(f, exact_point(x1=1)).factorization)
        bad = text.replace("col (1,0,x1) 1/1 0/1 1/1\n", line + "\n")
        assert bad != text
        with pytest.raises(ExtractionError, match=match):
            extract_root(f, parse_factorization(bad))

    def test_tiny_second_vector_is_not_rank_one(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1))
        rows = dict(comp.factorization.row_vectors)
        rows[L(ONE, ZERO, ZERO)] = tuple(rows[L(ONE, ZERO, ZERO)]) + ({0: Fraction(1, 10**8)},)
        F = PSDFactorization(3, comp.factorization.row_labels,
                             comp.factorization.col_labels, rows,
                             dict(comp.factorization.col_vectors), "exact")
        with pytest.raises(ExtractionError, match=r"row \(1,0,0\) is not rank one"):
            extract_root(f, F)

    def test_size_other_than_three_refused(self):
        f = P("x1*x1 - 1")
        comp = completion_from_root(f, exact_point(x1=1)).factorization
        F = PSDFactorization(4, comp.row_labels, comp.col_labels,
                             dict(comp.row_vectors), dict(comp.col_vectors), "exact")
        with pytest.raises(ExtractionError, match="size 3, not 4"):
            extract_root(f, F)


class TestSqrtCondition:
    def test_B_satisfies(self):
        ok, witness = sqrt_condition_check(build_B(P("x1*x1 - 1")))
        assert ok and witness is not None

    def test_parsed_file_gives_the_same_witness(self):
        B = build_B(P("x1*x1 - 1"))
        parsed = parse_matrix(write_matrix(B)).incomplete
        assert parsed == B
        assert sqrt_condition_check(parsed) == sqrt_condition_check(B)

    def test_witness_pattern_is_real(self):
        B = build_B(P("x1*x1 - 1"))
        ok, witness = sqrt_condition_check(B)
        assert ok
        for k, (i1, i2, j1, j2) in witness.columns.items():
            assert B.entry(i1, k) == 0 and B.entry(i2, k) == 0
            assert B.entry(i1, j1) == 1 and B.entry(i2, j1) == 0
            assert B.entry(i1, j2) == 0 and B.entry(i2, j2) == 1

    def test_bare_pattern_fails_transpose(self):
        S = IncompleteMatrix(("r0", "r1"), ("c0", "c1", "c2"),
                             {("r0", "c1"): Fraction(1), ("r1", "c2"): Fraction(1)})
        ok, witness = sqrt_condition_check(S)
        assert not ok and witness is None

    def test_all_unknown_fails(self):
        S = IncompleteMatrix(("a", "b", "c"), ("a", "b", "c"),
                             {(r, c): UNKNOWN for r in "abc" for c in "abc"})
        assert sqrt_condition_check(S) == (False, None)

    def test_exhaustive_path_without_label_vectors(self):
        # a 5x5 cyclic pattern satisfies the condition without guided labels
        rows = ("a", "b", "c", "d", "e")
        data = {}
        # permutation-style pattern rich enough on both sides
        ones = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        for r, c in ones:
            data[(r, c)] = Fraction(1)
        S = IncompleteMatrix(rows, rows, data)
        ok, witness = sqrt_condition_check(S)
        assert ok
        for k, (i1, i2, j1, j2) in witness.columns.items():
            assert S.entry(i1, j1) == 1 and S.entry(i2, j2) == 1
