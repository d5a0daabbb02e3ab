"""Matrix gadget constructions for the PSD-rank reduction.

From a standard-form polynomial f the builders derive: the closure set
sigma(f), the index set H of sigma-triples with a 1 coordinate, the
polynomial matrix A(u|v) = (u.v)^2, its incomplete shadow B (constants where
A is constant, zero where the dot product is a multiple of f, unknown
elsewhere), the zero/nonzero pattern C, the 3x3 matrix P(alpha), the
completion gadget M(S, K) and the corner gadget G.  ``reduce`` chains them
into the final instance (M, 2k+3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, pairwise, repeat
from operator import is_
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from .matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    PolynomialMatrix,
    _distinct,
)
from .polynomials import Polynomial, length_of, is_multiple_of


def sigma_set(f: Polynomial) -> Tuple[Polynomial, ...]:
    """Prefix products of every monomial, partial sums of f, 0 and ±1.

    Per monomial p = ±x_{i1}...x_{ik} (stored sorted order) the prefixes
    x_{i1}, x_{i1}x_{i2}, ..., |p| enter with both signs; per term position
    t the partial sum p_1+...+p_t enters with both signs; 0 and ±1 always.
    The result is deduplicated and ordered by ``Polynomial.sort_key``.
    """
    if f.is_zero:
        raise ValueError("sigma set of the zero polynomial is not defined")
    seen: Dict[Polynomial, None] = {}

    def add(p: Polynomial) -> None:
        seen.setdefault(p, None)
        seen.setdefault(-p, None)

    add(Polynomial.constant(1))
    seen.setdefault(Polynomial.zero(), None)
    for t in f.terms:
        for cut in range(1, len(t.vars) + 1):
            add(Polynomial.monomial(t.vars[:cut]))
    partial = Polynomial.zero()
    for t in f.terms:
        partial = partial + Polynomial.monomial(t.vars, t.sign)
        add(partial)
    return tuple(sorted(seen, key=lambda p: p.sort_key()))


def _triples_with_one(sigma: Sequence[Polynomial]) -> Tuple[LabelVector, ...]:
    one = Polynomial.constant(1)
    return tuple(LabelVector((a, b, c)) for a in sigma for b in sigma for c in sigma
                 if a == one or b == one or c == one)


def index_set_H(f: Polynomial) -> Tuple[LabelVector, ...]:
    """All sigma-triples with some coordinate equal to 1, in lexicographic
    order of the sigma ordering; |H| = |sigma|^3 - (|sigma|-1)^3."""
    return _triples_with_one(sigma_set(f))


def index_set_size(sigma: Sequence[Polynomial]) -> int:
    """|H| for the sigma set ``sigma`` without building H: sigma holds the
    constant 1 exactly once, so s^3 - (s-1)^3 of its s^3 triples have a 1
    coordinate."""
    s = len(sigma)
    return s ** 3 - (s - 1) ** 3


def _gram_table(f: Polynomial, entry: Callable[[Any], Any],
                value: Callable[[Polynomial], Any] = lambda p: p) -> Tuple[
        Tuple[str, ...], array, array, List[Any]]:
    """The rendered labels of H(f) and the columns (starts, cols, values) of
    the symmetric table (u, v) -> entry(u.v) over H, filled row by row;
    pairs whose entry is None stay absent.  Sigma element p stands for
    ``value(p)``: p itself for A and B, its exact value at a root for B'.

    Every coordinate of an H label lies in sigma(f), so u.v is a sum of three
    entries of the |sigma| x |sigma| product table.  Each distinct product
    gets an integer id, and a pair is keyed by the sorted triple of its three
    ids (addition commutes and values are exact).  The sum is formed once per
    distinct key and ``entry`` runs once per distinct sum, every pair with
    that sum sharing its result: a few hundred sums fill the table.
    """
    sigma = sigma_set(f)
    H = _triples_with_one(sigma)
    labels = tuple(h.render() for h in H)
    pos = {p: t for t, p in enumerate(sigma)}
    values = list(map(value, sigma))
    ids: Dict[Any, int] = {}
    product = [[ids.setdefault(p * q, len(ids)) for q in values] for p in values]
    products = tuple(ids)
    index = [tuple(pos[c] for c in h.coords) for h in H]
    by_sum: Dict[Any, Any] = {}
    by_key: Dict[Tuple[int, int, int], Any] = {}
    # Ids in coordinate order, in front of ``by_key``: a pair seen before
    # costs one lookup and no sort.
    by_triple: Dict[Tuple[int, int, int], Any] = {}

    def resolve(triple: Tuple[int, int, int]) -> Any:
        key = tuple(sorted(triple))
        if key not in by_key:
            d = products[key[0]] + products[key[1]] + products[key[2]]
            if d not in by_sum:
                by_sum[d] = entry(d)
            by_key[key] = by_sum[d]
        by_triple[triple] = by_key[key]
        return by_key[key]

    starts, cols, values = array("q", [0]), array("q"), []
    for s0, s1, s2 in index:
        p0, p1, p2 = product[s0], product[s1], product[s2]
        for v, (a, b, c) in enumerate(index):
            triple = (p0[a], p1[b], p2[c])
            try:
                e = by_triple[triple]
            except KeyError:
                e = resolve(triple)
            if e is not None:
                cols.append(v)
                values.append(e)
        starts.append(len(values))
    return labels, starts, cols, values


def build_A(f: Polynomial) -> PolynomialMatrix:
    """The symmetric polynomial matrix with entries (u.v)^2 over H(f)."""
    labels, *columns = _gram_table(f, lambda d: None if d.is_zero else d * d)
    return PolynomialMatrix._from_columns(labels, labels, *columns)


def build_B(f: Polynomial, square_multiple_test: bool = False) -> IncompleteMatrix:
    """Incomplete shadow of A: constants stay, multiples of f become known
    zeros, everything else is unknown.

    The zero test checks f | (u.v) by default; ``square_multiple_test``
    switches to f | (u.v)^2, which can mark more zeros when f is reducible.
    ``_gram_table`` decides each distinct dot product once, so the pairs of
    H cost a lookup each and no polynomial arithmetic.
    """

    def decide(d: Polynomial) -> Any:
        if d.is_zero:
            return None
        if not d.variables():
            return Fraction(sum(d.coefficients().values())) ** 2
        if square_multiple_test:
            return None if is_multiple_of(d * d, f) else UNKNOWN
        return None if is_multiple_of(d, f) else UNKNOWN

    labels, *columns = _gram_table(f, decide)
    return IncompleteMatrix._from_columns(labels, labels, *columns)


def build_C(B: IncompleteMatrix) -> IncompleteMatrix:
    """Zero / nonzero-unknown / unknown pattern of B: B's own ``starts`` and
    ``cols``, every unknown kept and every other stored entry (nonzero, as
    every stored entry is) a nonzero unknown."""
    return IncompleteMatrix._from_columns(
        B.row_labels, B.col_labels, B.starts, B.cols,
        [v if v is UNKNOWN else NONZERO_UNKNOWN for v in B.values])


def build_P(alpha: Union[int, Fraction]) -> InstanceMatrix:
    """The 3x3 gadget [[alpha,1,1],[1,1,0],[1,0,1]]; PSD rank 2 on [0, 4]."""
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 4:
        raise ValueError(f"alpha must lie in [0, 4], got {alpha}")
    return InstanceMatrix.from_dense(
        [[alpha, 1, 1], [1, 1, 0], [1, 0, 1]],
        row_labels=("1", "2", "3"), col_labels=("1", "2", "3"))


def compute_K(f: Polynomial) -> int:
    """Entry budget 9 * (number of standard-form terms)^4."""
    return 9 * length_of(f) ** 4


def instance_labels(S: IncompleteMatrix) -> Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...]]:
    """Unknown positions E of S and the label order of M(S, K).

    E is in row-major order; unknown #t owns the fresh labels ``e1[t]`` and
    ``e2[t]``.  M lists every E1 label, then every E2 label, then S's own
    labels, so with k = |E| the E1 label of unknown t is ``labels[t]`` and
    its E2 label ``labels[k + t]``.
    """
    E = S.unknown_positions()
    k = len(E)
    labels = (tuple(f"e1[{t}]" for t in range(k)) + tuple(f"e2[{t}]" for t in range(k))
              + S.row_labels)
    return E, labels


def build_M(S: IncompleteMatrix, K: Union[int, Fraction]) -> InstanceMatrix:
    """The completion gadget M(S, K) of dimension 2k + n.

    k is the number of unknown entries of S (row-major order).  Known
    entries of S land on the plain part; each unknown e = (i, j) plants the
    block K*P(1) on rows {i, e1, e2} x columns {j, e1, e2}; all remaining
    entries are zero.  Labels follow ``instance_labels``, and the columns
    are filled row by row from the columns of S.
    """
    K = Fraction(K)
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if S.row_labels != S.col_labels:
        raise ValueError("M(S, K) needs a square S with matching label order")

    def bad(v: Any) -> bool:
        return v is NONZERO_UNKNOWN or (v is not UNKNOWN and (v < 0 or v > K))

    # Each distinct value object is checked once; only a failure walks the
    # entries in row-major order, so the first bad entry is the one named.
    if any(map(bad, _distinct(S.values))):
        for rc, v in S.entries():
            if v is NONZERO_UNKNOWN:
                raise ValueError("M(S, K) accepts known/unknown entries only")
            if bad(v):
                raise ValueError(f"known entry {v} at ({rc[0]!r},{rc[1]!r}) is outside [0, K={K}]")
    E, labels = instance_labels(S)
    k, off = len(E), 2 * len(E)
    unknown = list(map(is_, S.values, repeat(UNKNOWN)))
    # Positions in M: e1 of unknown t is t, its e2 is k + t, and S's label
    # at position i is off + i.
    ejs = [off + j for j in compress(S.cols, unknown)]
    per_row = [sum(unknown[lo:hi]) for lo, hi in pairwise(S.starts)]
    # K * P(1) on rows (i, e1, e2) x cols (j, e1, e2) for unknown t at
    # (i, j); its zeros at (e1, e2) and (e2, e1) stay absent.  Row e holds
    # (e, e) and (e, j); row i holds the E1, then the E2 labels of its run
    # of E, then S's row.
    starts = array("q", range(0, 2 * off + 1, 2))
    cols = array("q", chain.from_iterable(zip(range(off), ejs + ejs)))
    values = [K] * (2 * off)
    known = [K if u else v for u, v in zip(unknown, S.values)]
    t = 0
    for (lo, hi), n in zip(pairwise(S.starts), per_row):
        cols.extend(range(t, t + n))
        cols.extend(range(k + t, k + t + n))
        cols.extend([off + j for j in S.cols[lo:hi]])
        values += repeat(K, 2 * n)
        values += known[lo:hi]
        starts.append(len(values))
        t += n
    return InstanceMatrix._from_columns(labels, labels, starts, cols, values)


def build_G(S: Sequence[Sequence[Union[int, Fraction]]],
            b: Sequence[Union[int, Fraction]],
            c: Sequence[Union[int, Fraction]],
            N: int) -> InstanceMatrix:
    """Corner gadget [[S, b, 0, 0], [c, N, N, N], [0, N, N, 0], [0, N, 0, N]].

    S is n x n, b a column, c a row, N a positive integer.  The block matrix
    has n + 3 rows: the n S-rows (s1..sn), the row carrying c and the N
    corner (labeled "mid" since the traditional 1..n, nu1, nu2 labeling has
    one name too few for it), and the two nu-rows.
    """
    n = len(S)
    if any(len(row) != n for row in S):
        raise ValueError("S must be square")
    if len(b) != n or len(c) != n:
        raise ValueError("b and c must have S's dimension")
    if N <= 0:
        raise ValueError(f"N must be a positive integer, got {N}")
    labels = tuple(f"s{i + 1}" for i in range(n)) + ("mid", "nu1", "nu2")
    dense: List[List[Fraction]] = []
    for i in range(n):
        dense.append([Fraction(v) for v in S[i]] + [Fraction(b[i]), Fraction(0), Fraction(0)])
    dense.append([Fraction(v) for v in c] + [Fraction(N)] * 3)
    dense.append([Fraction(0)] * n + [Fraction(N), Fraction(N), Fraction(0)])
    dense.append([Fraction(0)] * n + [Fraction(N), Fraction(0), Fraction(N)])
    return InstanceMatrix.from_dense(dense, row_labels=labels, col_labels=labels)


@dataclass(frozen=True)
class ReductionOutput:
    """The reduction's result: decide PSD rank(M) <= r to decide f = 0."""

    M: InstanceMatrix
    r: int
    k: int
    K: int
    B: IncompleteMatrix
    trace: Tuple[str, ...]


def reduce(f: Polynomial, square_multiple_test: bool = False) -> ReductionOutput:
    """Full pipeline f -> (M, 2k+3); deterministic for identical inputs."""
    if f.is_zero:
        raise ValueError("cannot reduce the zero polynomial")
    B = build_B(f, square_multiple_test)
    K = compute_K(f)
    M = build_M(B, K)
    k = (M.nrows - B.nrows) // 2
    r = 2 * k + 3
    trace = (
        f"terms={length_of(f)}",
        f"sigma={len(sigma_set(f))}",
        f"H={B.nrows}",
        f"k={k}",
        f"K={K}",
        f"M_dim={M.nrows}",
        f"r={r}",
    )
    return ReductionOutput(M, r, k, K, B, trace)
