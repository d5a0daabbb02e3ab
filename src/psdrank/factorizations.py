"""PSD factorization witnesses: representation, verification, constructions.

A witness for "A has PSD rank at most k" stores, per row index i and column
index j, a list of k-dimensional Gram vectors; the induced PSD matrices are
B_i = sum u u^T and C_j = sum v v^T, so the certified entry is

    tr(B_i C_j) = sum_{t,tau} (u_t . v_tau)^2.

Vectors are sparse (coordinate -> value maps) because the reduction's
witnesses live in dimension 2k+3 with only a handful of active coordinates
per index.  Exact witnesses may carry more than k vectors per index: a
rational PSD matrix generally has no rational Gram decomposition with only
k summands, but it always has one with a few extra rank-one terms (weights
are expanded through four-square decompositions), and extra summands do not
change the certified size, which is the vector dimension k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .matrices import InstanceMatrix
from .polynomials import Number, parse_fraction

Vector = Dict[int, Number]  # sparse coordinate -> value


def sparse_dot(u: Vector, v: Vector) -> Number:
    if len(u) > len(v):
        u, v = v, u
    total: Number = 0
    for coord, x in u.items():
        y = v.get(coord)
        if y is not None:
            total += x * y
    return total


def vector_norm_sq(u: Vector) -> Number:
    return sum(x * x for x in u.values())


@dataclass
class PSDFactorization:
    """Gram-vector lists per row and column label, all of dimension k."""

    k: int
    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    row_vectors: Dict[str, Tuple[Vector, ...]]
    col_vectors: Dict[str, Tuple[Vector, ...]]
    mode: str = "exact"  # "exact" | "float"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"factorization size must be positive, got {self.k}")
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for labels, table, side in ((self.row_labels, self.row_vectors, "row"),
                                    (self.col_labels, self.col_vectors, "col")):
            label_set = set(labels)
            for l in labels:
                table.setdefault(l, ())
            for l, vecs in table.items():
                if l not in label_set:
                    raise ValueError(f"{side} vectors for unknown label {l!r}")
                for vec in vecs:
                    for coord, val in vec.items():
                        if not 0 <= coord < self.k:
                            raise ValueError(
                                f"vector coordinate {coord} outside dimension {self.k}")
                        if self.mode == "exact" and isinstance(val, float):
                            raise ValueError("exact factorization holds a float value")
        self._row_index: Dict[str, Dict[int, Tuple[int, ...]]] = {}
        self._col_index: Dict[str, Dict[int, Tuple[int, ...]]] = {}

    def _support_index(self, side: str, label: str) -> Dict[int, Tuple[int, ...]]:
        cache = self._row_index if side == "row" else self._col_index
        hit = cache.get(label)
        if hit is None:
            table = self.row_vectors if side == "row" else self.col_vectors
            idx: Dict[int, List[int]] = {}
            for t, vec in enumerate(table.get(label, ())):
                for coord in vec:
                    idx.setdefault(coord, []).append(t)
            hit = {c: tuple(ts) for c, ts in idx.items()}
            cache[label] = hit
        return hit

    def entry(self, r: str, c: str) -> Number:
        """Certified value sum (u.v)^2 over vector pairs with shared support."""
        rvecs = self.row_vectors.get(r, ())
        cvecs = self.col_vectors.get(c, ())
        if not rvecs or not cvecs:
            return Fraction(0) if self.mode == "exact" else 0.0
        rmap = self._support_index("row", r)
        cmap = self._support_index("col", c)
        if len(rmap) > len(cmap):
            pairs = {(t, tau) for coord, taus in cmap.items()
                     for t in rmap.get(coord, ()) for tau in taus}
        else:
            pairs = {(t, tau) for coord, ts in rmap.items()
                     for tau in cmap.get(coord, ()) for t in ts}
        total: Number = Fraction(0) if self.mode == "exact" else 0.0
        for t, tau in pairs:
            d = sparse_dot(rvecs[t], cvecs[tau])
            total += d * d
        return total

    def max_vectors(self) -> int:
        counts = [len(v) for v in self.row_vectors.values()]
        counts += [len(v) for v in self.col_vectors.values()]
        return max(counts, default=0)


def dense_vector(values: Sequence[Number]) -> Vector:
    return {i: v for i, v in enumerate(values) if v}


def from_dense_vectors(
    k: int,
    rows: Mapping[str, Sequence[Sequence[Number]]],
    cols: Mapping[str, Sequence[Sequence[Number]]],
    mode: str = "exact",
    row_labels: Optional[Sequence[str]] = None,
    col_labels: Optional[Sequence[str]] = None,
) -> PSDFactorization:
    rl = tuple(row_labels) if row_labels is not None else tuple(rows)
    cl = tuple(col_labels) if col_labels is not None else tuple(cols)
    conv = (lambda x: Fraction(x)) if mode == "exact" else float
    return PSDFactorization(
        k, rl, cl,
        {l: tuple(dense_vector([conv(x) for x in vec]) for vec in vecs)
         for l, vecs in rows.items()},
        {l: tuple(dense_vector([conv(x) for x in vec]) for vec in vecs)
         for l, vecs in cols.items()},
        mode)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

_SM_MASK = (1 << 64) - 1


def splitmix64(seed: int):
    """The 64-bit splitmix generator; documented so independent tools can
    reproduce sampled verification streams bit for bit."""
    state = seed & _SM_MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _SM_MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SM_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SM_MASK
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class VerificationReport:
    mode: str                      # "full" | "sampled"
    entries_checked: int
    max_residual: Union[Fraction, float]
    worst_entry: Optional[Tuple[str, str]]
    tolerance: Union[Fraction, float]
    passed: bool
    seed: Optional[int] = None

    def summary(self) -> str:
        worst = f"{self.worst_entry[0]} {self.worst_entry[1]}" if self.worst_entry else "-"
        out = (f"mode={self.mode} entries={self.entries_checked} "
               f"max_residual={self.max_residual} worst={worst} "
               f"tol={self.tolerance} passed={self.passed}")
        if self.seed is not None:
            out += f" seed={self.seed}"
        return out


def verify_factorization(
    A: InstanceMatrix,
    F: PSDFactorization,
    mode: str = "full",
    tol: Optional[Union[Fraction, float]] = None,
    seed: int = 1,
    samples: int = 100_000,
) -> VerificationReport:
    """Check tr(B_i C_j) against A entrywise.

    Full mode visits every entry; sampled mode draws ``samples`` coordinate
    pairs from the splitmix64 stream of ``seed`` and is reproducible.  The
    default tolerance is exact zero for exact witnesses and 1e-9 otherwise.
    """
    if set(A.row_labels) != set(F.row_labels) or set(A.col_labels) != set(F.col_labels):
        raise ValueError("matrix and factorization label sets differ")
    if tol is None:
        tol = Fraction(0) if F.mode == "exact" else 1e-9
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown verification mode {mode!r}")

    worst: Optional[Tuple[str, str]] = None
    max_res: Union[Fraction, float] = Fraction(0) if F.mode == "exact" else 0.0
    checked = 0

    def visit(r: str, c: str) -> None:
        nonlocal worst, max_res, checked
        res = F.entry(r, c) - A.entry(r, c)
        if res < 0:
            res = -res
        checked += 1
        if res > max_res:
            max_res = res
            worst = (r, c)

    if mode == "full":
        for r in A.row_labels:
            for c in A.col_labels:
                visit(r, c)
        return VerificationReport("full", checked, max_res, worst, tol, max_res <= tol)

    gen = splitmix64(seed)
    nr, nc = A.nrows, A.ncols
    for _ in range(samples):
        i = next(gen) % nr
        j = next(gen) % nc
        visit(A.row_labels[i], A.col_labels[j])
    return VerificationReport("sampled", checked, max_res, worst, tol,
                              max_res <= tol, seed=seed)


# ---------------------------------------------------------------------------
# Rational sums of squares
# ---------------------------------------------------------------------------

def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _two_squares_possible(n: int) -> bool:
    """n is a sum of two integer squares iff every prime 3 mod 4 divides it
    to an even power (trial division; desk-scale inputs)."""
    if n == 0:
        return True
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if d % 4 == 3 and e % 2:
                return False
        d += 1
    return n % 4 != 3


def _two_squares(n: int) -> Optional[Tuple[int, int]]:
    if not _two_squares_possible(n):
        return None
    a = math.isqrt(n)
    while a * a * 2 >= n:
        rest = n - a * a
        r = math.isqrt(rest)
        if r * r == rest:
            return (a, r)
        a -= 1
    return None  # unreachable for valid n


def _three_squares_possible(n: int) -> bool:
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7


def _three_squares(n: int) -> Optional[Tuple[int, int, int]]:
    if not _three_squares_possible(n):
        return None
    for a in range(math.isqrt(n), -1, -1):
        two = _two_squares(n - a * a)
        if two is not None:
            return (a, two[0], two[1])
    return None


def four_squares(n: int) -> Tuple[int, ...]:
    """A representation of n >= 0 as a sum of at most four integer squares;
    zero components are dropped."""
    if n < 0:
        raise ValueError("four_squares needs a nonnegative integer")
    if n == 0:
        return ()
    three = _three_squares(n)
    if three is None:
        for a in range(math.isqrt(n), 0, -1):
            three = _three_squares(n - a * a)
            if three is not None:
                three = (a,) + three
                break
        assert three is not None
    return tuple(x for x in three if x)


def rational_square_sum(c: Fraction) -> Tuple[Fraction, ...]:
    """Rationals s_1..s_t (t <= 4) with sum of squares exactly c >= 0."""
    c = Fraction(c)
    if c < 0:
        raise ValueError(f"cannot write negative {c} as a sum of squares")
    if c == 0:
        return ()
    p, q = c.numerator, c.denominator
    return tuple(Fraction(a, q) for a in four_squares(p * q))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def p_alpha_gram_vectors(alpha: Fraction, scale: Fraction = Fraction(1)) -> Tuple[
        Tuple[Tuple[Vector, ...], ...], Tuple[Tuple[Vector, ...], ...]]:
    """Exact rational size-2 Gram vectors for scale * P(alpha).

    Row side realizes [[1,1],[1,1]], E11, E22; the column side realizes
    s*[[1,b],[b,1]], s*E11, s*E22 with b = (alpha-2)/2, using the rank-one
    split [[1,b],[b,1]] = (1,b)(1,b)^T + (1-b^2) e2 e2^T and a four-square
    expansion of the weights so every stored vector is rational.
    """
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 4:
        raise ValueError(f"alpha must lie in [0, 4], got {alpha}")
    b = (alpha - 2) / 2
    rows = (
        ({0: Fraction(1), 1: Fraction(1)},),
        ({0: Fraction(1)},),
        ({1: Fraction(1)},),
    )
    col1 = [ {0: s, 1: s * b} for s in rational_square_sum(scale) ]
    col1 += [{1: s} for s in rational_square_sum(scale * (1 - b * b))]
    cols = (
        tuple(col1),
        tuple({0: s} for s in rational_square_sum(scale)),
        tuple({1: s} for s in rational_square_sum(scale)),
    )
    return rows, cols


def p_alpha_factorization(alpha: Union[int, Fraction]) -> PSDFactorization:
    """Size-2 exact witness for P(alpha), alpha in [0, 4]; residual 0."""
    rows, cols = p_alpha_gram_vectors(Fraction(alpha))
    labels = ("1", "2", "3")
    return PSDFactorization(
        2, labels, labels,
        {l: v for l, v in zip(labels, rows)},
        {l: v for l, v in zip(labels, cols)},
        "exact")


def _matrix_rows(P: Sequence[Sequence[Number]]) -> List[List[Number]]:
    rows = [list(r) for r in P]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def hadamard_square_factorization(
    P: Sequence[Sequence[Number]],
    Q: Sequence[Sequence[Number]],
    row_labels: Optional[Sequence[str]] = None,
    col_labels: Optional[Sequence[str]] = None,
) -> PSDFactorization:
    """Rank-one witness of (PQ) o (PQ) at size r from P (m x r), Q (r x n).

    Row i's single Gram vector is the i-th row of P; column j's is the j-th
    column of Q, so every certified entry is ((PQ)_{ij})^2.
    """
    Pr = _matrix_rows(P)
    Qr = _matrix_rows(Q)
    r = len(Pr[0]) if Pr else 0
    if len(Qr) != r:
        raise ValueError(f"inner dimensions differ: P is mx{r}, Q has {len(Qr)} rows")
    n = len(Qr[0]) if Qr else 0
    rl = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(len(Pr)))
    cl = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(n))
    exact = all(not isinstance(x, float) for row in Pr + Qr for x in row)
    conv = (lambda x: Fraction(x)) if exact else float
    rows = {rl[i]: (dense_vector([conv(x) for x in Pr[i]]),) for i in range(len(Pr))}
    cols = {cl[j]: (dense_vector([conv(Qr[t][j]) for t in range(r)]),) for j in range(n)}
    return PSDFactorization(max(r, 1), rl, cl, rows, cols, "exact" if exact else "float")


def hadamard_square_target(
    P: Sequence[Sequence[Number]],
    Q: Sequence[Sequence[Number]],
    row_labels: Optional[Sequence[str]] = None,
    col_labels: Optional[Sequence[str]] = None,
) -> InstanceMatrix:
    """The matrix (PQ) o (PQ) the factorization above certifies."""
    Pr = _matrix_rows(P)
    Qr = _matrix_rows(Q)
    m, r = len(Pr), len(Pr[0]) if Pr else 0
    n = len(Qr[0]) if Qr else 0
    rl = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(m))
    cl = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(n))
    dense = [[sum(Fraction(Pr[i][t]) * Fraction(Qr[t][j]) for t in range(r)) ** 2
              for j in range(n)] for i in range(m)]
    return InstanceMatrix.from_dense(dense, rl, cl)


def direct_sum(F1: PSDFactorization, F2: PSDFactorization) -> PSDFactorization:
    """Witness for A1 + A2 from witnesses of A1 and A2 over the same labels:
    block-diagonal padding, size k1 + k2.  F1's label order wins."""
    if (set(F1.row_labels) != set(F2.row_labels)
            or set(F1.col_labels) != set(F2.col_labels)):
        raise ValueError("direct sum needs identical label sets")
    k = F1.k + F2.k

    def shift(vec: Vector) -> Vector:
        return {c + F1.k: v for c, v in vec.items()}

    rows = {l: tuple(F1.row_vectors.get(l, ())) + tuple(shift(v) for v in F2.row_vectors.get(l, ()))
            for l in F1.row_labels}
    cols = {l: tuple(F1.col_vectors.get(l, ())) + tuple(shift(v) for v in F2.col_vectors.get(l, ()))
            for l in F1.col_labels}
    mode = "exact" if F1.mode == F2.mode == "exact" else "float"
    return PSDFactorization(k, F1.row_labels, F1.col_labels, rows, cols, mode)


def identity_factorization(n: int) -> PSDFactorization:
    """The canonical size-n witness for I_n (diagonal unit Gram vectors)."""
    labels = tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(n))
    rows = {f"r{i}": ({i: Fraction(1)},) for i in range(n)}
    cols = {f"c{j}": ({j: Fraction(1)},) for j in range(n)}
    return PSDFactorization(n, labels[0], labels[1], rows, cols, "exact")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

FACTORIZATION_HEADER = "psdrank-factorization v1"


def _num_token(x: Number, mode: str) -> str:
    if mode == "exact":
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def write_factorization(F: PSDFactorization, sparse: Optional[bool] = None) -> str:
    """Serialize a factorization.

    Dense lines carry whole vectors of k numbers each; the sparse variant
    (chosen automatically for large k) writes per-vector coordinate pairs.
    """
    if sparse is None:
        sparse = F.k > 64
    head = f"{FACTORIZATION_HEADER} {F.k} {len(F.row_labels)} {len(F.col_labels)} {F.mode}"
    lines = [head + (" sparse" if sparse else "")]
    for side, labels, table in (("row", F.row_labels, F.row_vectors),
                                ("col", F.col_labels, F.col_vectors)):
        for l in labels:
            vecs = table.get(l, ())
            if sparse:
                parts = [side, l, str(len(vecs))]
                for vec in vecs:
                    items = sorted(vec.items())
                    parts.append(str(len(items)))
                    for coord, val in items:
                        parts.append(str(coord))
                        parts.append(_num_token(val, F.mode))
            else:
                parts = [side, l]
                for vec in vecs:
                    for coord in range(F.k):
                        parts.append(_num_token(vec.get(coord, 0), F.mode))
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_factorization(text: str) -> PSDFactorization:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(FACTORIZATION_HEADER):
        raise ValueError(f"missing '{FACTORIZATION_HEADER}' header")
    head = lines[0].split()
    if len(head) not in (6, 7):
        raise ValueError("malformed factorization header")
    k = int(head[2])
    nrows, ncols = int(head[3]), int(head[4])
    mode = head[5]
    sparse = len(head) == 7 and head[6] == "sparse"
    conv = parse_fraction if mode == "exact" else float
    row_labels: List[str] = []
    col_labels: List[str] = []
    rows: Dict[str, Tuple[Vector, ...]] = {}
    cols: Dict[str, Tuple[Vector, ...]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) < 2 or parts[0] not in ("row", "col"):
            raise ValueError(f"malformed factorization line: {ln!r}")
        side, label = parts[0], parts[1]
        vecs: List[Vector] = []
        if sparse:
            try:
                nvec = int(parts[2])
                pos = 3
                for _ in range(nvec):
                    nnz = int(parts[pos]); pos += 1
                    vec: Vector = {}
                    for _ in range(nnz):
                        coord = int(parts[pos]); val = conv(parts[pos + 1]); pos += 2
                        if val:
                            vec[coord] = val
                    vecs.append(vec)
            except IndexError:
                raise ValueError(f"truncated sparse line: {ln!r}") from None
            if pos != len(parts):
                raise ValueError(f"trailing tokens in sparse line: {ln!r}")
        else:
            numbers = parts[2:]
            if len(numbers) % k:
                raise ValueError(f"dense vector data is not a multiple of k={k}: {ln!r}")
            for off in range(0, len(numbers), k):
                vec = {i: conv(numbers[off + i]) for i in range(k) if conv(numbers[off + i])}
                vecs.append(vec)
        if side == "row":
            row_labels.append(label)
            rows[label] = tuple(vecs)
        else:
            col_labels.append(label)
            cols[label] = tuple(vecs)
    if len(row_labels) != nrows or len(col_labels) != ncols:
        raise ValueError("factorization label lines do not match the header counts")
    return PSDFactorization(k, tuple(row_labels), tuple(col_labels), rows, cols, mode)
