"""Matrix gadget constructions for the PSD-rank reduction.

From a standard-form polynomial f the builders derive: the closure set
sigma(f), the index set H of sigma-triples with a 1 coordinate, the
symbolic matrix A(u|v) = (u.v)^2, its incomplete shadow B (constants where
A is constant, zero where the dot product is a multiple of f, unknown
elsewhere), the zero/nonzero pattern C, the 3x3 matrix P(alpha), the
completion gadget M(S, K) and the corner gadget G.  ``reduce`` chains them
into the final instance (M, 2k+3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .matrices import (
    NONZERO_UNKNOWN,
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    SymbolicMatrix,
)
from .polynomials import Polynomial, length_of, is_multiple_of


@dataclass(frozen=True)
class SigmaSet:
    """Deduplicated, deterministically ordered closure set of f."""

    elements: Tuple[Polynomial, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: Polynomial) -> bool:
        return p in set(self.elements)


def sigma_set(f: Polynomial) -> SigmaSet:
    """Prefix products of every monomial, partial sums of f, 0 and ±1.

    Per monomial p = ±x_{i1}...x_{ik} (stored sorted order) the prefixes
    x_{i1}, x_{i1}x_{i2}, ..., |p| enter with both signs; per term position
    t the partial sum p_1+...+p_t enters with both signs; 0 and ±1 always.
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
    ordered = sorted(seen, key=lambda p: p.sort_key())
    return SigmaSet(tuple(ordered))


def index_set_H(f: Polynomial) -> Tuple[LabelVector, ...]:
    """All sigma-triples with some coordinate equal to 1, in lexicographic
    order of the sigma ordering; |H| = |sigma|^3 - (|sigma|-1)^3."""
    sigma = sigma_set(f)
    one = Polynomial.constant(1)
    out: List[LabelVector] = []
    for a in sigma:
        for b in sigma:
            for c in sigma:
                if a == one or b == one or c == one:
                    out.append(LabelVector((a, b, c)))
    return tuple(out)


def build_A(f: Polynomial) -> SymbolicMatrix:
    """The symmetric symbolic matrix with entries (u.v)^2 over H(f)."""
    return SymbolicMatrix(index_set_H(f))


def build_B(f: Polynomial, square_multiple_test: bool = False) -> IncompleteMatrix:
    """Incomplete shadow of A: constants stay, multiples of f become known
    zeros, everything else is unknown.

    The zero test checks f | (u.v) by default; ``square_multiple_test``
    switches to f | (u.v)^2, which can mark more zeros when f is reducible.
    """
    H = index_set_H(f)
    labels = tuple(h.render() for h in H)
    # Every coordinate of an H label lies in sigma(f), so each dot product
    # is a sum of three entries of the |sigma| x |sigma| product table.
    sigma = sigma_set(f).elements
    pos = {p: t for t, p in enumerate(sigma)}
    product = [[p * q for q in sigma] for p in sigma]
    index = [tuple(pos[c] for c in h.coords) for h in H]
    data: Dict[Tuple[str, str], object] = {}
    # Entry decisions depend only on the dot product, so memoize per
    # canonical dot; the H x H table repeats a small set of values.
    decision: Dict[Polynomial, object] = {}

    def decide(d: Polynomial):
        hit = decision.get(d)
        if hit is not None:
            return hit
        if d.is_zero:
            out: object = Fraction(0)
        elif not d.variables():
            c = sum(c for c in d.coefficients().values())
            out = Fraction(c) ** 2
        elif square_multiple_test:
            out = Fraction(0) if is_multiple_of(d * d, f) else UNKNOWN
        else:
            out = Fraction(0) if is_multiple_of(d, f) else UNKNOWN
        decision[d] = out
        return out

    n = len(H)
    for i in range(n):
        p0, p1, p2 = (product[t] for t in index[i])
        for j in range(i, n):
            a, b, c = index[j]
            e = decide(p0[a] + p1[b] + p2[c])
            if e is not UNKNOWN and not e:
                continue
            data[(labels[i], labels[j])] = e
            if i != j:
                data[(labels[j], labels[i])] = e
    return IncompleteMatrix(labels, labels, data, label_vectors=H)


def build_C(f: Polynomial, square_multiple_test: bool = False) -> IncompleteMatrix:
    """Zero / nonzero-unknown / unknown pattern of B."""
    B = build_B(f, square_multiple_test)
    data: Dict[Tuple[str, str], object] = {}
    for key, v in B.data.items():
        if v is UNKNOWN:
            data[key] = UNKNOWN
        elif isinstance(v, Fraction) and v != 0:
            data[key] = NONZERO_UNKNOWN
    return IncompleteMatrix(B.row_labels, B.col_labels, data, label_vectors=B.label_vectors)


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


def block_labels(index: int) -> Tuple[str, str]:
    """Labels of the two fresh rows/columns attached to unknown #index."""
    return (f"e1[{index}]", f"e2[{index}]")


def build_M(S: IncompleteMatrix, K: Union[int, Fraction]) -> InstanceMatrix:
    """The completion gadget M(S, K) of dimension 2k + n.

    k is the number of unknown entries of S (row-major order).  Known
    entries of S land on the plain part; each unknown e = (i, j) plants the
    block K*P(1) on rows {i, e1, e2} x columns {j, e1, e2}; all remaining
    entries are zero.  Label order is E1, E2, then S's own labels.
    """
    K = Fraction(K)
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if S.row_labels != S.col_labels:
        raise ValueError("M(S, K) needs a square S with matching label order")
    for (r, c), v in S.data.items():
        if v is NONZERO_UNKNOWN:
            raise ValueError("M(S, K) accepts known/unknown entries only")
        if isinstance(v, Fraction) and (v < 0 or v > K):
            raise ValueError(f"known entry {v} at ({r!r},{c!r}) is outside [0, K={K}]")
    E = S.unknown_positions()
    k = len(E)
    e1_labels = tuple(block_labels(t)[0] for t in range(k))
    e2_labels = tuple(block_labels(t)[1] for t in range(k))
    labels = e1_labels + e2_labels + S.row_labels
    data: Dict[Tuple[str, str], Fraction] = {}
    for (r, c), v in S.data.items():
        if isinstance(v, Fraction) and v:
            data[(r, c)] = v
    for t, (i, j) in enumerate(E):
        e1, e2 = block_labels(t)
        # K * P(1) on rows (i, e1, e2) x cols (j, e1, e2); its zeros at
        # (e1, e2) and (e2, e1) stay absent.
        data[(i, j)] = K
        data[(i, e1)] = K
        data[(i, e2)] = K
        data[(e1, j)] = K
        data[(e1, e1)] = K
        data[(e2, j)] = K
        data[(e2, e2)] = K
    return InstanceMatrix(labels, labels, data)


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
    k = len(B.unknown_positions())
    K = compute_K(f)
    M = build_M(B, K)
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
