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

The four-square expansion is the greedy one `four_squares` documents.  The
bytes of every written witness depend on that choice, so any faster method
must return the same tuples; the oracle tests compare against trial division.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .matrices import InstanceMatrix
from .polynomials import Number, ParseError, parse_fraction

Vector = Dict[int, Number]  # sparse coordinate -> value
Piece = Tuple[Sequence[Vector], int]  # (template vectors, coordinate shift)


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


class GramVectors:
    """One label's Gram vectors as pieces (template vectors, shift): a
    template vector at shift s stands for its copy with each coordinate
    raised by s.  ``len`` reads only the pieces; the shifted dicts are
    built on first iteration or indexing.  Equal to the tuple of them."""

    __slots__ = ("pieces", "_built")

    def __init__(self, pieces: Sequence[Piece]) -> None:
        self.pieces, self._built = tuple(pieces), None

    def vectors(self) -> Tuple[Vector, ...]:
        if self._built is None:
            self._built = tuple(vec if not s else {c + s: v for c, v in vec.items()}
                                for tmpl, s in self.pieces for vec in tmpl)
        return self._built

    def __len__(self) -> int:
        return sum(len(tmpl) for tmpl, _ in self.pieces)

    def __getitem__(self, i):
        return self.vectors()[i]

    def __iter__(self):
        return iter(self.vectors())

    def __eq__(self, other) -> bool:
        other = other.vectors() if isinstance(other, GramVectors) else other
        return self.vectors() == other if isinstance(other, tuple) else NotImplemented


def _pieces(vecs: Sequence[Vector]) -> Sequence[Piece]:
    """A label's pieces; a plain vector sequence is one piece at shift 0."""
    return vecs.pieces if isinstance(vecs, GramVectors) else ((vecs, 0),)


@dataclass
class PSDFactorization:
    """Gram vectors per row and column label (plain sequences or `GramVectors`)."""

    k: int
    row_labels: Tuple[str, ...]
    col_labels: Tuple[str, ...]
    row_vectors: Dict[str, Sequence[Vector]]
    col_vectors: Dict[str, Sequence[Vector]]
    mode: str = "exact"  # "exact" | "float"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"factorization size must be positive, got {self.k}")
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        k, exact = self.k, self.mode == "exact"  # read once, not per coordinate

        def top(tmpl: Sequence[Vector]) -> float:
            """Check a template's values; its largest coordinate, or -inf."""
            hi = -math.inf
            for vec in tmpl:
                for coord, val in vec.items():
                    if not 0 <= coord:
                        raise ValueError(f"vector coordinate {coord} outside dimension {k}")
                    if exact and isinstance(val, float):
                        raise ValueError("exact factorization holds a float value")
                    if coord > hi:
                        hi = coord
            return hi

        tops: Dict[int, float] = {}  # id(template) -> top(template), checked once

        for labels, table, side in ((self.row_labels, self.row_vectors, "row"),
                                    (self.col_labels, self.col_vectors, "col")):
            label_set = set(labels)
            for l in labels:
                table.setdefault(l, ())
            for l, vecs in table.items():
                if l not in label_set:
                    raise ValueError(f"{side} vectors for unknown label {l!r}")
                if not isinstance(vecs, GramVectors):  # one piece at shift 0
                    if top(vecs) >= k:
                        raise ValueError(f"vector coordinate {top(vecs)} outside dimension {k}")
                    continue
                for t, shift in vecs.pieces:
                    hi = tops[id(t)] if id(t) in tops else tops.setdefault(id(t), top(t))
                    lo = min((c for v in t for c in v), default=math.inf) if shift < 0 else 0
                    if shift + lo < 0 or shift + hi >= k:
                        bad = shift + lo if shift + lo < 0 else shift + hi
                        raise ValueError(f"vector coordinate {bad} outside dimension {k}")
        self._supports: Dict[str, Dict[str, Dict[int, Tuple[int, ...]]]] = {"row": {}, "col": {}}
        self._template_supports: Dict[int, tuple] = {}  # id -> (template, support to shift)

    def support(self, side: str, label: str) -> Dict[int, Tuple[int, ...]]:
        """Each coordinate -> the positions of the label's vectors using it; built once."""
        hit = self._supports[side].get(label)
        if hit is None:
            vecs = (self.row_vectors if side == "row" else self.col_vectors).get(label, ())
            if not isinstance(vecs, GramVectors):
                hit = _positions(vecs)
            else:
                hit, pos, memo = {}, 0, self._template_supports
                for t, shift in vecs.pieces:
                    _, tsup = memo.get(id(t)) or memo.setdefault(id(t), (t, _positions(t)))
                    for coord, ps in tsup.items():
                        hit[coord + shift] = hit.get(coord + shift, ()) + tuple(p + pos for p in ps)
                    pos += len(t)
            self._supports[side][label] = hit
        return hit

    def entry(self, r: str, c: str) -> Number:
        """Certified sum (u.v)^2 over vector pairs with shared support."""
        rmap, cmap = self.support("row", r), self.support("col", c)
        pairs = {(t, tau) for coord in rmap.keys() & cmap.keys()
                 for t in rmap[coord] for tau in cmap[coord]}
        num, den = 0, 1  # exact sums stay integers over a common denominator
        for t, tau in pairs:
            u, v, dn, dd = self.row_vectors[r][t], self.col_vectors[c][tau], 0, 1
            for coord, x in u.items():
                y = v.get(coord)
                if y is not None and self.mode == "float":
                    dn += x * y
                elif y is not None:
                    q = x.denominator * y.denominator
                    dn, dd = dn * q + x.numerator * y.numerator * dd, dd * q
            num, den = num * dd * dd + dn * dn * den, den * dd * dd
        return Fraction(num, den) if self.mode == "exact" else float(num)


def _positions(vecs: Sequence[Vector]) -> Dict[int, Tuple[int, ...]]:
    if len(vecs) == 1:  # most labels; one shared (0,)
        return {coord: (0,) for coord in vecs[0]}
    idx: Dict[int, Tuple[int, ...]] = {}
    for t, vec in enumerate(vecs):
        for coord in vec:
            idx[coord] = idx.get(coord, ()) + (t,)
    return idx


def dense_vector(values: Sequence[Number]) -> Vector:
    return {i: v for i, v in enumerate(values) if v}


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
    joined: int = 0                # entries whose row and column supports meet
    nonzero: int = 0               # entries where A is nonzero
    zero_by_support: int = 0       # the rest: disjoint supports where A is zero

    def summary(self) -> str:
        worst = f"{self.worst_entry[0]} {self.worst_entry[1]}" if self.worst_entry else "-"
        out = (f"mode={self.mode} entries={self.entries_checked} "
               f"max_residual={self.max_residual} worst={worst} "
               f"tol={self.tolerance} passed={self.passed}")
        if self.seed is not None:
            out += f" seed={self.seed}"
        if self.mode == "full":
            out += (f" joined={self.joined} nonzero={self.nonzero}"
                    f" zero_by_support={self.zero_by_support}")
        return out


def verify_factorization(
    A: InstanceMatrix,
    F: PSDFactorization,
    mode: str = "full",
    tol: Optional[Union[Fraction, float]] = None,
    seed: int = 1,
    samples: int = 100_000,
) -> VerificationReport:
    """Check tr(B_i C_j) against A entrywise.  An entry whose row and column
    vectors share no coordinate is 0, so where A is 0 too the supports certify
    it; `PSDFactorization.entry` checks the rest.  Full mode certifies every
    entry by joining each row's support with the column supports indexed by
    coordinate; sampled mode checks ``samples`` (row, column) index pairs of
    the splitmix64 stream of ``seed``.  ``worst_entry`` is the first largest
    residual in row-major label order; a NaN residual fails.  The default
    tolerance is exact zero for exact witnesses and 1e-9 otherwise."""
    if set(A.row_labels) != set(F.row_labels) or set(A.col_labels) != set(F.col_labels):
        raise ValueError("matrix and factorization label sets differ")
    if tol is None:
        tol = Fraction(0) if F.mode == "exact" else 1e-9
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled verification needs at least one sample, got {samples}")
    if mode == "sampled" and not (A.nrows and A.ncols):
        raise ValueError(f"cannot sample entries of a {A.nrows}x{A.ncols} matrix")

    worst: Optional[Tuple[str, str]] = None
    max_res: Union[Fraction, float] = Fraction(0) if F.mode == "exact" else 0.0
    joined = nonzero = visited = 0

    def visit(r: str, c: str) -> None:
        nonlocal worst, max_res, visited
        visited += 1
        value, a = F.entry(r, c), A.data.get((r, c), 0)
        if value != a:
            res = abs(value - a)
            if res > max_res or (res != res and max_res == max_res):  # the first NaN stays
                max_res, worst = res, (r, c)

    if mode == "full":
        cols, index = A.col_labels, {}  # index: coordinate -> positions of the columns using it
        for j, c in enumerate(cols):
            for coord in F.support("col", c):
                index.setdefault(coord, []).append(j)
        cpos = {c: j for j, c in enumerate(cols)}
        nonzero_cols: Dict[str, List[int]] = {}
        for r, c in A.data:
            nonzero_cols.setdefault(r, []).append(cpos[c])
        for r in A.row_labels:
            js = set().union(*(index.get(coord, ()) for coord in F.support("row", r)))
            joined += len(js)
            for j in sorted(js.union(nonzero_cols.get(r, ()))):
                visit(r, cols[j])
        nonzero, checked = len(A.data), A.nrows * A.ncols
    else:
        gen = splitmix64(seed)
        for _ in range(samples):
            r, c = A.row_labels[next(gen) % A.nrows], A.col_labels[next(gen) % A.ncols]
            meet = not F.support("row", r).keys().isdisjoint(F.support("col", c))
            hit = (r, c) in A.data
            joined, nonzero = joined + meet, nonzero + hit
            if meet or hit:
                visit(r, c)
        checked = samples
    return VerificationReport(mode, checked, max_res, worst, tol, max_res <= tol,
                              None if mode == "full" else seed, joined, nonzero, checked - visited)


# ---------------------------------------------------------------------------
# Rational sums of squares
# ---------------------------------------------------------------------------

def _primes_below(n: int) -> Tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i in range(n) if sieve[i])


_SMALL_PRIMES = _primes_below(1000)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the 13 bases above is proven deterministic below this
# bound (Sorenson and Webster, 2015); beyond it a strong Lucas test is added.
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd > 2 passes to base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, n odd > 2."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Primality of n: exact below 3.3e24, Baillie-PSW above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if not all(_strong_probable_prime(n, a) for a in _MR_BASES):
        return False
    return n < _MR_DETERMINISTIC_BELOW or _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's variant of rho,
    seeded by n, so every run takes the same path)."""
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _two_square_factors(n: int) -> Optional[Dict[int, int]]:
    """The prime factorization of n > 0 if n is a sum of two squares (every
    prime 3 mod 4 divides it to an even power), else None.

    Trial division by the primes below 1000 comes first.  A cofactor that is
    then 3 mod 4 has a prime 3 mod 4 to an odd power, so the answer is no
    without factoring it; otherwise it is split by Pollard-Brent rho, which
    only ever sees composites because `_is_prime` never rejects a prime.
    """
    factors: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return None
            factors[p] = e
    if n % 4 == 3:
        return None
    stack = [n] if n > 1 else []
    while stack:
        c = stack.pop()
        if _is_prime(c):
            factors[c] = factors.get(c, 0) + 1
        else:
            d = _pollard_brent(c)
            stack += [d, c // d]
    if any(p % 4 == 3 and e % 2 for p, e in factors.items()):
        return None
    return factors


def _prime_two_squares(p: int) -> Tuple[int, int]:
    """(x, y) with x^2 + y^2 = p for a prime p = 1 mod 4 (Cornacchia:
    Euclid on p and a square root of -1, stopped below sqrt(p))."""
    for c in count(2):
        h = pow(c, (p - 1) // 2, p)
        if h == p - 1:
            break  # c is a non-residue, so c^((p-1)/4) squares to -1
        if h != 1:
            raise ArithmeticError(f"{p} fails Euler's criterion: not prime")
    a, b = p, pow(c, (p - 1) // 4, p)
    root = math.isqrt(p)
    while b > root:
        a, b = b, a % b
    y = math.isqrt(p - b * b)
    if b * b + y * y != p:
        raise ArithmeticError(f"Cornacchia failed on {p}")
    return b, y


def _gauss_mul(z: Tuple[int, int], w: Tuple[int, int]) -> Tuple[int, int]:
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _two_squares(n: int) -> Optional[Tuple[int, int]]:
    """(a, b) with a^2 + b^2 = n and a >= b >= 0 as large as possible, the
    pair a descending scan from isqrt(n) finds first; None if there is none.

    Up to a unit, each Gaussian integer of norm n is a product of one
    factor per prime power p^e of n: (1+i)^e for p = 2, p^(e/2) for
    p = 3 mod 4, and pi^t conj(pi)^(e-t) with 0 <= t <= e for
    p = pi conj(pi) = 1 mod 4.  Units only swap and negate the two parts,
    so enumerating every t finds every pair.
    """
    if n == 0:
        return (0, 0)
    factors = _two_square_factors(n)
    if factors is None:
        return None
    reps = [(1, 0)]
    for p, e in factors.items():
        if p == 2:  # (1+i)^2 = 2i
            h = 2 ** (e // 2)
            choices = [(h, h if e % 2 else 0)]
        elif p % 4 == 3:
            choices = [(p ** (e // 2), 0)]
        else:
            pi = _prime_two_squares(p)
            powers = [(1, 0)]
            for _ in range(e):
                powers.append(_gauss_mul(powers[-1], pi))
            choices = [_gauss_mul(powers[t], (powers[e - t][0], -powers[e - t][1]))
                       for t in range(e + 1)]
        reps = [_gauss_mul(z, w) for z in reps for w in choices]
    a = max(max(abs(x), abs(y)) for x, y in reps)
    return (a, math.isqrt(n - a * a))


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
    """The greedy representation of n >= 0 as a sum of at most four integer
    squares, in descending order with zero components dropped.

    If n is a sum of three squares (not of the form 4^a(8b+7)), the result
    is (a, b, c): a is the largest value with n - a^2 a sum of two squares,
    and b >= c with b as large as possible.  Otherwise it is (a,) followed
    by the greedy three-square tuple of n - a^2, for the largest a that
    leaves a sum of three squares.  Each candidate remainder is factored
    (trial division below 1000, Miller-Rabin/Baillie-PSW, Pollard-Brent rho)
    and its largest two-square pair is read off the factorization; the
    result is checked to sum to n exactly.
    """
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
    parts = tuple(x for x in three if x)
    if sum(x * x for x in parts) != n:
        raise ArithmeticError(f"four_squares({n}) produced {parts}")
    return parts


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
    scaled = rational_square_sum(scale)
    col1 = [{0: s, 1: s * b} for s in scaled]
    col1 += [{1: s} for s in rational_square_sum(scale * (1 - b * b))]
    cols = (
        tuple(col1),
        tuple({0: s} for s in scaled),
        tuple({1: s} for s in scaled),
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


def _hadamard_operands(P, Q, row_labels, col_labels):
    """P and Q as row lists, inner size r, Q's column count n, and labels."""
    Pr, Qr = [list(x) for x in P], [list(x) for x in Q]
    if any(len(x) != len(M[0]) for M in (Pr, Qr) for x in M):
        raise ValueError("ragged matrix")
    r, n = len(Pr[0]) if Pr else 0, len(Qr[0]) if Qr else 0
    if len(Qr) != r:
        raise ValueError(f"inner dimensions differ: P is mx{r}, Q has {len(Qr)} rows")
    rl = tuple(row_labels) if row_labels is not None else tuple(f"r{i}" for i in range(len(Pr)))
    cl = tuple(col_labels) if col_labels is not None else tuple(f"c{j}" for j in range(n))
    return Pr, Qr, r, n, rl, cl


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
    Pr, Qr, r, n, rl, cl = _hadamard_operands(P, Q, row_labels, col_labels)
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
    Pr, Qr, r, n, rl, cl = _hadamard_operands(P, Q, row_labels, col_labels)
    dense = [[sum(Fraction(Pr[i][t]) * Fraction(Qr[t][j]) for t in range(r)) ** 2
              for j in range(n)] for i in range(len(Pr))]
    return InstanceMatrix.from_dense(dense, rl, cl)


def direct_sum(F1: PSDFactorization, F2: PSDFactorization) -> PSDFactorization:
    """Witness for A1 + A2 from witnesses of A1 and A2 over the same labels:
    block-diagonal padding, size k1 + k2.  F1's label order wins."""
    if (set(F1.row_labels) != set(F2.row_labels)
            or set(F1.col_labels) != set(F2.col_labels)):
        raise ValueError("direct sum needs identical label sets")

    def join(a: Sequence[Vector], b: Sequence[Vector]) -> GramVectors:
        return GramVectors((*_pieces(a), *((t, s + F1.k) for t, s in _pieces(b))))

    rows = {l: join(F1.row_vectors[l], F2.row_vectors[l]) for l in F1.row_labels}
    cols = {l: join(F1.col_vectors[l], F2.col_vectors[l]) for l in F1.col_labels}
    mode = "exact" if F1.mode == F2.mode == "exact" else "float"
    return PSDFactorization(F1.k + F2.k, F1.row_labels, F1.col_labels, rows, cols, mode)


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
    # A witness repeats few value objects many times: render each object
    # once.  Keys are ids, which stay unique while F keeps every value alive;
    # hashing a Fraction would cost as much as rendering it.
    tokens: Dict[int, str] = {}

    def token(x: Number) -> str:
        tok = tokens.get(id(x))
        if tok is None:
            tok = tokens[id(x)] = _num_token(x, F.mode)
        return tok

    # Sparse lines render each template once, as text with a "{n}" field for
    # its n-th distinct coordinate; each piece fills in those plus its shift.
    texts: Dict[int, Tuple[str, List[int]]] = {}

    def render(tmpl: Sequence[Vector]) -> Tuple[str, List[int]]:
        field: Dict[int, str] = {}
        parts = []
        for vec in tmpl:
            items = sorted(vec.items())
            parts.append(str(len(items)))
            for coord, val in items:
                parts += (field.setdefault(coord, f"{{{len(field)}}}"), token(val))
        texts[id(tmpl)] = hit = (" ".join(parts), list(field))
        return hit

    for side, labels, table in (("row", F.row_labels, F.row_vectors),
                                ("col", F.col_labels, F.col_vectors)):
        for l in labels:
            vecs = table.get(l, ())
            if sparse:
                parts, nvec = [side, l, ""], 0
                for tmpl, shift in _pieces(vecs):
                    if tmpl:
                        text, coords = texts.get(id(tmpl)) or render(tmpl)
                        parts.append(text.format(*[c + shift for c in coords]))
                        nvec += len(tmpl)
                parts[2] = str(nvec)
            else:
                parts = [side, l, *(token(vec.get(c, 0)) for vec in vecs for c in range(F.k))]
            lines.append(" ".join(parts))
    lines.append("")
    return "\n".join(lines)


def parse_factorization(text: str) -> PSDFactorization:
    """Read back a factorization file; every rejected line, including a
    repeated row or col label, raises ParseError naming it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(FACTORIZATION_HEADER):
        raise ParseError(f"missing '{FACTORIZATION_HEADER}' header")
    head = lines[0].split()
    try:
        if len(head) not in (6, 7):
            raise ValueError("expected 6 or 7 tokens")
        k = int(head[2])
        nrows, ncols = int(head[3]), int(head[4])
        if k < 1:
            raise ValueError(f"size {k} is not positive")
        if head[6:] not in ([], ["sparse"]):
            raise ValueError(f"unknown layout {head[6]!r}")
    except ValueError as e:
        raise ParseError(f"malformed factorization header: {lines[0]!r} ({e})") from None
    mode = head[5]
    sparse = len(head) == 7

    def finite_float(token: str) -> float:
        x = float(token)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {token!r}")
        return x

    # Few distinct values fill most of a witness: convert each token once.
    conv = functools.cache(parse_fraction if mode == "exact" else finite_float)
    tables: Dict[str, Dict[str, Tuple[Vector, ...]]] = {"row": {}, "col": {}}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) < 2 or parts[0] not in tables:
            raise ParseError(f"malformed factorization line: {ln!r}")
        side, label = parts[0], parts[1]
        if label in tables[side]:
            raise ParseError(f"repeated {side} label in line {ln!r}")
        vecs: List[Vector] = []
        try:
            if sparse:
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
                if pos != len(parts):
                    raise ValueError("trailing tokens")
            else:
                numbers = [conv(t) for t in parts[2:]]
                if len(numbers) % k:
                    raise ValueError(f"dense vector data is not a multiple of k={k}")
                for off in range(0, len(numbers), k):
                    vecs.append({i: x for i, x in enumerate(numbers[off:off + k]) if x})
        except IndexError:
            raise ParseError(f"truncated sparse line: {ln!r}") from None
        except ValueError as e:
            raise ParseError(f"malformed factorization line: {ln!r} ({e})") from None
        tables[side][label] = tuple(vecs)
    rows, cols = tables["row"], tables["col"]
    if len(rows) != nrows or len(cols) != ncols:
        raise ParseError("factorization label lines do not match the header counts")
    try:
        return PSDFactorization(k, tuple(rows), tuple(cols), rows, cols, mode)
    except ValueError as e:
        raise ParseError(str(e)) from None
