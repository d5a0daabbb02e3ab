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

Each side of a witness is one `PieceTable`: every Gram vector is a piece, a
template placed at a shift, and the few distinct templates are stored once.
Labels go in as runs, each label with its count of pieces, and the table is
its side's label -> vectors mapping.  A witness holds only its two tables;
what verification needs besides lives in a `_Join` built per call.

The four-square expansion is the greedy one `four_squares` documents.  The
bytes of every written witness depend on that choice, so any faster method
must return the same tuples; the oracle tests compare against trial division.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat
from operator import add, ne, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .matrices import InstanceMatrix, _check_labels, nonblank_lines
from .polynomials import Number, ParseError, parse_fraction

Vector = Dict[int, Number]  # sparse coordinate -> value
Template = Tuple[Tuple[int, Number], ...]  # (coordinate, value) pairs, lowest coordinate 0


def _check_vectors(vecs: Iterable[Vector], k: int) -> None:
    """Raise ValueError naming a label's offending coordinate: its first
    negative one in item order, else its largest one if that reaches k."""
    hi = -math.inf
    for vec in vecs:
        for coord in vec:
            if not 0 <= coord:
                raise ValueError(f"vector coordinate {coord} outside dimension {k}")
            if coord > hi:
                hi = coord
    if hi >= k:
        raise ValueError(f"vector coordinate {hi} outside dimension {k}")


def _column(k: int):
    """An empty integer column for coordinates below k: machine words unless
    k itself does not fit one."""
    return array("q") if k < 1 << 63 else []


class PieceTable(Mapping):
    """One side of a witness: label -> `LabelVectors`, each vector a piece.

    A piece is a template placed at a shift and stands for the template with
    every coordinate raised by the shift.  ``templates`` lists the distinct
    templates, each a tuple of (coordinate, value) pairs whose lowest
    coordinate is 0; ``tids`` and ``shifts`` are flat columns of template
    ids and shifts, label by label, and label i owns the slice
    ``starts[i]:starts[i + 1]`` of them.  Vectors are interned with
    `template` and labels go in as runs through `extend` (`build` does both),
    and then the table is only read; every coordinate is in [0, k).
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.labels: List[str] = []
        self.index: Dict[str, int] = {}
        self.templates: List[Template] = []
        self.tops: List[int] = []  # each template's largest coordinate, -1 if empty
        self._ids: Dict[Template, int] = {}
        self.tids, self.shifts, self.starts = (_column(k) for _ in range(3))
        self.starts.append(0)

    @classmethod
    def build(cls, k: int, labels: Sequence[str],
              pieces: Mapping[str, Iterable[Tuple[Vector, int]]]) -> "PieceTable":
        """The table of (vector, shift) pairs per label, a label missing from
        ``pieces`` having none; each vector is interned through `template`.
        Raises ValueError for a coordinate outside [0, k)."""
        T = cls(k)
        counts, tids, shifts = [], [], []
        for label in labels:
            n = len(tids)
            for vec, shift in pieces.get(label, ()):
                tid, lo = T.template(vec)
                tids.append(tid)
                shifts.append(shift if lo is None else shift + lo)
            counts.append(len(tids) - n)
        T.extend(labels, counts, tids, shifts)
        return T

    def template(self, vec: Mapping[int, Number]) -> Tuple[int, Optional[int]]:
        """The id of ``vec``'s template, interned by content, and its lowest
        coordinate (None if it has none).  A coordinate that is not an int
        raises ValueError: every producer of a witness interns through here."""
        for c in vec:
            if not isinstance(c, int):
                raise ValueError(f"vector coordinate {c} outside dimension {self.k}")
        lo = min(vec) if vec else None
        tmpl = tuple((c - lo, x) for c, x in vec.items()) if vec else ()
        tid = self._ids.get(tmpl)
        if tid is None:
            tid = self._ids[tmpl] = len(self.templates)
            self.templates.append(tmpl)
            self.tops.append(max((c for c, _ in tmpl), default=-1))
        return tid, lo

    def extend(self, labels: Sequence[str], counts: Sequence[int],
               tids: Sequence[int], shifts: Sequence[int]) -> None:
        """Append label n with the next ``counts[n]`` pieces of the flat
        ``tids`` and ``shifts`` columns.  A run that leaves [0, k) raises
        ValueError with `_check_vectors`' message for its first offending
        label and appends nothing."""
        k, top = self.k, self.tops.__getitem__
        # a piece's coordinates run from its shift to its shift plus its template's top
        if shifts and (min(shifts) < 0 or max(map(add, shifts, map(top, tids))) >= k):
            for a, b in zip(accumulate(counts, initial=0), accumulate(counts)):
                _check_vectors(({c + s: x for c, x in self.templates[t]}
                                for t, s in zip(tids[a:b], shifts[a:b])), k)
        self.index.update(zip(labels, count(len(self.labels))))
        self.labels.extend(labels)
        self.tids.extend(tids)
        self.shifts.extend(shifts)
        self.starts.extend(accumulate(counts, initial=self.starts.pop()))

    def pieces(self, i: int) -> range:
        return range(self.starts[i], self.starts[i + 1])

    def vectors(self, i: int) -> Iterator[Vector]:
        """Label i's Gram vectors, shifted into place."""
        for p in self.pieces(i):
            s = self.shifts[p]
            yield {c + s: x for c, x in self.templates[self.tids[p]]}

    def __getitem__(self, label: str) -> "LabelVectors":
        return LabelVectors(self, self.index[label])

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def values(self) -> List["LabelVectors"]:
        """Every label's vectors in label order, without label lookups."""
        return [LabelVectors(self, i) for i in range(len(self.labels))]

    def __eq__(self, other) -> bool:
        """Piece for piece, templates by content; label by label against a plain mapping."""
        if not isinstance(other, PieceTable):
            return super().__eq__(other)
        if (self.k, self.labels) != (other.k, other.labels) or not (
                list(self.starts) == list(other.starts)
                and list(self.shifts) == list(other.shifts)):
            return False
        mine = [dict(t) for t in self.templates]
        theirs = [dict(t) for t in other.templates]
        return all(mine[a] == theirs[b] for a, b in zip(self.tids, other.tids))

    __hash__ = None


class LabelVectors(SequenceABC):
    """One label's Gram vectors, read from its pieces: ``len`` counts them
    without building any; indexing and iteration build the shifted dicts.
    Equal to the tuple of them."""

    __slots__ = ("_table", "_i")

    def __init__(self, table: PieceTable, i: int) -> None:
        self._table, self._i = table, i

    def __len__(self) -> int:
        return self._table.starts[self._i + 1] - self._table.starts[self._i]

    def __iter__(self) -> Iterator[Vector]:
        return self._table.vectors(self._i)

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other) -> bool:
        other = tuple(other) if isinstance(other, LabelVectors) else other
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    __hash__ = None


_MODES = ("exact", "float")


class PSDFactorization:
    """Gram vectors per row and column label, held as two `PieceTable`s.

    The constructor takes label -> vector sequences; `parse_factorization`
    and `assemble_instance_witness` fill the tables directly through
    `from_tables`.  ``row_vectors`` and ``col_vectors`` are the tables
    themselves, read as label -> vectors mappings, and ``row_labels`` and
    ``col_labels`` their label lists.  The constructor refuses the labels the
    file format cannot hold: non-strings, empty ones, ones holding whitespace
    and repeats."""

    def __init__(self, k: int, row_labels: Sequence[str], col_labels: Sequence[str],
                 row_vectors: Mapping[str, Sequence[Vector]],
                 col_vectors: Mapping[str, Sequence[Vector]], mode: str = "exact") -> None:
        _check_size_and_mode(k, mode)
        row_labels, col_labels = (_check_labels(labels, "factorization", frozenset())
                                  for labels in (row_labels, col_labels))
        for labels, table, side in ((row_labels, row_vectors, "row"),
                                    (col_labels, col_vectors, "col")):
            known = set(labels)
            for label in table:
                if label not in known:
                    raise ValueError(f"{side} vectors for unknown label {label!r}")
        rows, cols = (PieceTable.build(k, labels, {l: [(v, 0) for v in vecs]
                                                   for l, vecs in table.items()})
                      for labels, table in ((row_labels, row_vectors), (col_labels, col_vectors)))
        self._init(rows, cols, mode)

    @classmethod
    def from_tables(cls, rows: PieceTable, cols: PieceTable, mode: str) -> "PSDFactorization":
        """A witness of size ``rows.k`` over two tables built for it."""
        _check_size_and_mode(rows.k, mode)
        self = cls.__new__(cls)
        self._init(rows, cols, mode)
        return self

    def _init(self, rows: PieceTable, cols: PieceTable, mode: str) -> None:
        """Both constructors end here; an exact witness holding a float value
        raises ValueError."""
        if mode == "exact" and any(isinstance(x, float) for T in (rows, cols)
                                   for t in T.templates for _, x in t):
            raise ValueError("exact factorization holds a float value")
        self.k, self.mode, self.rows, self.cols = rows.k, mode, rows, cols
        self.row_vectors, self.col_vectors = rows, cols
        self.row_labels, self.col_labels = rows.labels, cols.labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, PSDFactorization):
            return NotImplemented
        return ((self.k, self.mode, self.rows, self.cols)
                == (other.k, other.mode, other.rows, other.cols))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"PSDFactorization(k={self.k}, rows={len(self.rows.labels)}, "
                f"cols={len(self.cols.labels)}, mode={self.mode!r})")

    def entry(self, r: str, c: str) -> Number:
        """Certified sum (u.v)^2 over vector pairs with shared support."""
        join = _Join(self)
        total = join.sum(self.rows.index[r], self.cols.index[c]) or 0
        return Fraction(total, join.denominator) if join.exact else float(total)


class _Join:
    """The verification kernel of one witness, built per call.  Exact
    templates are held as integers over one common denominator per side,
    Dr for rows and Dc for columns, so two pieces that share a coordinate
    contribute (u.v)^2 in units of ``denominator`` = (Dr * Dc)^2 (1 for
    float), memoized by (row template, column template, shift difference)."""

    def __init__(self, F: PSDFactorization) -> None:
        self.rows, self.cols, self.exact = F.rows, F.cols, F.mode == "exact"
        scaled, D = [], 1
        for T in (F.rows, F.cols):
            d = math.lcm(*(x.denominator for t in T.templates for _, x in t)) if self.exact else 1
            scaled.append([tuple((c, x.numerator * (d // x.denominator)) for c, x in t)
                           for t in T.templates] if self.exact else T.templates)
            D *= d
        self.row_templates, self.col_templates = scaled[0], [dict(t) for t in scaled[1]]
        self.denominator = D * D
        self.kernel: Dict[Tuple[int, int, int], Tuple[Optional[int], Number]] = {}

    def pair(self, a: int, b: int, d: int) -> Tuple[Optional[int], Number]:
        """Row template a against column template b placed d coordinates
        lower, for two pieces that share a coordinate: the first coordinate
        of a (in item order) that b uses and (a.b)^2 in scaled units."""
        ct, first, dot = self.col_templates[b], None, 0
        for c, x in self.row_templates[a]:
            y = ct.get(c + d)
            if y is not None:
                if first is None:
                    first = c
                dot += x * y
        self.kernel[(a, b, d)] = hit = (first, dot * dot)
        return hit

    def row_pairs(self, i: int, index: Mapping[int, List[int]]) -> Iterator[Tuple[int, Number]]:
        """(column piece, kernel value) for each pair of a piece of row i and
        a column piece that ``index`` lists at a coordinate of it.  A pair
        that shares several coordinates counts once, at the first shared
        coordinate of its row piece."""
        R, C, kernel = self.rows, self.cols, self.kernel
        for p in R.pieces(i):
            a, s = R.tids[p], R.shifts[p]
            for x, _ in R.templates[a]:
                for q in index.get(x + s, ()):
                    key = (a, C.tids[q], s - C.shifts[q])
                    first, value = kernel.get(key) or self.pair(*key)
                    if first == x:
                        yield q, value

    def sum(self, i: int, j: int) -> Optional[Number]:
        """Row i against column j in scaled units, or None when their vectors
        share no coordinate: column j's pieces are indexed by coordinate for
        this call alone and joined with row i's."""
        total = None
        for _, value in self.row_pairs(i, _coordinate_index(self.cols, self.cols.pieces(j))):
            total = value if total is None else total + value
        return total

    @staticmethod
    def spans(T: PieceTable) -> Tuple[Sequence[int], Sequence[int]]:
        """Each label's coordinate span (lo, hi), (0, -1) when it has none, as
        two columns; labels whose spans miss each other share no coordinate.
        Column operations read every label as one piece; a walk fixes the rest."""
        starts, shifts, top, n = T.starts, T.shifts, T.tops.__getitem__, len(T.labels)
        m = bisect_left(starts, len(shifts), 0, n)  # the labels from m on hold no pieces
        firsts, los, his = starts[:m], _column(T.k), _column(T.k)
        los.extend(map(shifts.__getitem__, firsts))
        his.extend(map(add, los, map(top, map(T.tids.__getitem__, firsts))))
        los.extend(repeat(0, n - m))
        his.extend(repeat(-1, n - m))
        for i in compress(count(), map(ne, map(sub, starts[1:], starts[:-1]), repeat(1))):
            a, b = starts[i], starts[i + 1]
            los[i] = min(shifts[a:b], default=0)
            his[i] = max(map(add, shifts[a:b], map(top, T.tids[a:b])), default=-1)
        return los, his


def _coordinate_index(T: PieceTable, pieces: Iterable[int]) -> Dict[int, List[int]]:
    """Coordinate -> the pieces among ``pieces`` that use it, in order."""
    index: Dict[int, List[int]] = {}
    for q in pieces:
        s = T.shifts[q]
        for y, _ in T.templates[T.tids[q]]:
            at = index.get(y + s)
            if at is None:
                index[y + s] = [q]
            else:
                at.append(q)
    return index


def _check_size_and_mode(k: int, mode: str) -> None:
    if k < 1:
        raise ValueError(f"factorization size must be positive, got {k}")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


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
    it; a `_Join` built for this call computes the rest from the pieces.
    Full mode certifies every entry by joining each row's pieces with the
    column pieces indexed by coordinate; sampled mode checks ``samples``
    (row, column) index pairs of the splitmix64 stream of ``seed``, testing
    label spans, which it computes first, before pieces.  ``worst_entry``
    is the first largest residual in row-major label order (full) or
    stream order (sampled); a NaN residual fails.  The default tolerance
    is exact zero for exact witnesses and 1e-9 otherwise; a negative or
    NaN one raises ValueError."""
    if set(A.row_labels) != set(F.row_labels) or set(A.col_labels) != set(F.col_labels):
        raise ValueError("matrix and factorization label sets differ")
    exact = F.mode == "exact"
    if tol is None:
        tol = Fraction(0) if exact else 1e-9
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    if mode not in ("full", "sampled"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled verification needs at least one sample, got {samples}")
    if mode == "sampled" and not (A.nrows and A.ncols):
        raise ValueError(f"cannot sample entries of a {A.nrows}x{A.ncols} matrix")

    worst: Optional[Tuple[int, int]] = None  # positions in A
    max_res: Union[Fraction, float] = Fraction(0) if exact else 0.0
    joined = nonzero = visited = 0
    join = _Join(F)
    DD = join.denominator

    def visit(i: int, j: int, a: Number, total: Number, first: bool) -> None:
        """Compare the scaled sum ``total`` of entry (i, j) with its value
        ``a`` in A.  ``first``: a tie with the worst entry so far goes to
        the earlier position."""
        nonlocal worst, max_res, visited
        visited += 1
        if exact:
            if total * a.denominator == a.numerator * DD:
                return
            res = abs(Fraction(total, DD) - a)
        else:
            value = float(total)
            if value == a:
                return
            res = abs(value - a)
        nan = res != res
        if (res > max_res or (nan and max_res == max_res)  # the first NaN stays
                or first and (res == max_res or nan) and (i, j) < worst):
            max_res, worst = res, (i, j)

    R, C = F.rows, F.cols
    values = A.values
    if mode == "full":
        owner = [0] * len(C.tids)  # column piece -> its column's position in A
        for j, c in enumerate(A.col_labels):
            lo, hi = C.starts[C.index[c]], C.starts[C.index[c] + 1]
            owner[lo:hi] = [j] * (hi - lo)
        index = _coordinate_index(C, range(len(C.tids)))
        # Row by row in order: the row's nonzero entries from its slice of
        # the columns, then its other joined ones, whose ties with the
        # worst entry so far are decided by position.
        for i, (r, lo, hi) in enumerate(zip(A.row_labels, A.starts, islice(A.starts, 1, None))):
            sums: Dict[int, Number] = {}  # column position -> scaled entry
            for q, value in join.row_pairs(R.index[r], index):
                sums[owner[q]] = sums.get(owner[q], 0) + value
            joined += len(sums)
            for j, a in zip(A.cols[lo:hi], values[lo:hi]):
                visit(i, j, a, sums.pop(j, 0), False)
            for j, total in sums.items():
                visit(i, j, 0, total, True)
        nonzero, checked = A.nnz, A.nrows * A.ncols
    else:
        nrows, ncols = A.nrows, A.ncols
        rpos = [R.index[r] for r in A.row_labels]
        cpos = [C.index[c] for c in A.col_labels]
        (rlo, rhi), (clo, chi) = join.spans(R), join.spans(C)
        gen = splitmix64(seed)
        for _ in range(samples):
            ai, aj = next(gen) % nrows, next(gen) % ncols
            i, j = rpos[ai], cpos[aj]
            # most pairs are rejected by their spans, without a call
            total = join.sum(i, j) if rlo[i] <= chi[j] and clo[j] <= rhi[i] else None
            p = A._at(ai, aj)
            meet, hit = total is not None, p >= 0
            joined, nonzero = joined + meet, nonzero + hit
            if meet or hit:
                visit(ai, aj, values[p] if hit else 0, total or 0, False)
        checked = samples
    if worst is not None:
        worst = (A.row_labels[worst[0]], A.col_labels[worst[1]])
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


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

FACTORIZATION_HEADER = "psdrank-factorization v1"


def _num_token(x: Number, mode: str) -> str:
    if mode == "exact":
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def write_factorization(F: PSDFactorization) -> str:
    """Serialize a factorization.

    Dense lines carry whole vectors of k numbers each; for k > 64 the sparse
    layout writes per-vector coordinate pairs instead.
    """
    sparse = F.k > 64
    head = f"{FACTORIZATION_HEADER} {F.k} {len(F.row_labels)} {len(F.col_labels)} {F.mode}"
    lines = [head + (" sparse" if sparse else "")]

    def render(tmpl: Template) -> Tuple[str, Tuple[int, ...]]:
        """A template's text in coordinate order, with a "{n}" field for its
        n-th coordinate, and those coordinates if it has several (each piece
        fills in its own; a single coordinate is 0, so it is the shift)."""
        items = sorted(tmpl)
        text = " ".join([str(len(items))] + [f"{{{n}}} {_num_token(x, F.mode)}"
                                             for n, (_, x) in enumerate(items)])
        return text, tuple(c for c, _ in items) if len(items) > 1 else ()

    for side, T in (("row", F.rows), ("col", F.cols)):
        if not sparse:
            for i, label in enumerate(T.labels):
                lines.append(" ".join([side, label, *(_num_token(vec.get(c, 0), F.mode)
                                                      for vec in T.vectors(i) for c in range(F.k))]))
            continue
        tids, shifts = T.tids, T.shifts
        texts = [render(t) for t in T.templates]
        # lines of one-piece labels of templates with at most one coordinate
        ones = [None if coords else f"{side} {{0}} 1 {text.replace('{0}', '{1}')}"
                for text, coords in texts]
        for label, lo, hi in zip(T.labels, T.starts, islice(T.starts, 1, None)):
            if hi - lo == 1 and ones[tids[lo]] is not None:
                lines.append(ones[tids[lo]].format(label, shifts[lo]))
                continue
            parts = [side, label, str(hi - lo)]
            for t, s in zip(tids[lo:hi], shifts[lo:hi]):
                text, coords = texts[t]
                parts.append(text.format(*map(s.__add__, coords)) if coords else text.format(s))
            lines.append(" ".join(parts))
    lines.append("")
    return "\n".join(lines)


def _finite_float(token: str) -> float:
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {token!r}")
    return x


def parse_factorization(text: str) -> PSDFactorization:
    """Read back a factorization file; every rejected line, including a
    repeated row or col label, raises ParseError naming it.

    Each vector is interned while it is read: its tokens, with coordinates
    taken relative to its first one, key its template and its offset from
    that first coordinate, so each distinct vector's values are converted
    and checked once, when its key is new.  Zero values are dropped."""
    lines = nonblank_lines(text)
    first = next(lines, "")
    head = first.split()
    if head[:2] != FACTORIZATION_HEADER.split():
        raise ParseError(f"missing '{FACTORIZATION_HEADER}' header")
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
        raise ParseError(f"malformed factorization header: {first!r} ({e})") from None
    mode = head[5]
    sparse = len(head) == 7
    conv = parse_fraction if mode == "exact" else _finite_float
    sides = {"row": PieceTable(k), "col": PieceTable(k)}
    # per side: vector key -> (template id, lowest coordinate relative to the first)
    placed: Dict[str, Dict[object, Tuple[int, Optional[int]]]] = {"row": {}, "col": {}}
    # per side, the run for `extend`: labels (a dict, to find repeats), counts, tids, shifts
    runs = {side: [{}, _column(k), _column(k), _column(k)] for side in sides}

    def place(T: PieceTable, pairs: Iterable[Tuple[int, str]]) -> Tuple[int, Optional[int]]:
        """Intern the vector of a new key from its (relative coordinate,
        value token) pairs; only here are value tokens converted."""
        return T.template({c: x for c, tok in pairs if (x := conv(tok))})

    for ln in lines:
        parts = ln.split()
        if len(parts) < 2 or parts[0] not in sides:
            raise ParseError(f"malformed factorization line: {ln!r}")
        side, label = parts[0], parts[1]
        T, known, (labels, counts, tids, shifts) = sides[side], placed[side], runs[side]
        if label in labels:
            raise ParseError(f"repeated {side} label in line {ln!r}")
        start = len(tids)
        try:
            if sparse:
                pos = 3
                for _ in range(int(parts[2])):
                    nnz = int(parts[pos])
                    pos += 1
                    first = 0
                    if nnz == 1:
                        first, key = int(parts[pos]), parts[pos + 1]
                        pos += 2
                    else:
                        pairs: List[object] = []
                        for n in range(nnz):
                            c, tok = int(parts[pos]), parts[pos + 1]
                            pos += 2
                            if not n:
                                first = c
                            pairs += (c - first, tok)
                        key = tuple(pairs)
                    hit = known.get(key)
                    if hit is None:
                        hit = known[key] = place(T, ((0, key),) if nnz == 1
                                                 else zip(key[::2], key[1::2]))
                    tids.append(hit[0])
                    shift = 0 if hit[1] is None else first + hit[1]
                    try:
                        shifts.append(shift)
                    except OverflowError:  # far outside [0, k): kept whole for `extend` to name
                        shifts = runs[side][3] = [*shifts, shift]
                if pos != len(parts):
                    raise ValueError("trailing tokens")
            else:
                tokens = parts[2:]
                if len(tokens) % k:
                    raise ValueError(f"dense vector data is not a multiple of k={k}")
                for off in range(0, len(tokens), k):
                    key = tuple(tokens[off:off + k])
                    hit = known.get(key)
                    if hit is None:
                        hit = known[key] = place(T, enumerate(key))
                    tids.append(hit[0])
                    shifts.append(hit[1] or 0)
        except IndexError:
            raise ParseError(f"truncated sparse line: {ln!r}") from None
        except ValueError as e:
            raise ParseError(f"malformed factorization line: {ln!r} ({e})") from None
        labels[label] = None
        counts.append(len(tids) - start)
    if len(runs["row"][0]) != nrows or len(runs["col"][0]) != ncols:
        raise ParseError("factorization label lines do not match the header counts")
    if mode not in _MODES:
        raise ParseError(f"unknown mode {mode!r}")
    for side in ("row", "col"):
        try:
            sides[side].extend(*runs.pop(side))
        except ValueError as e:
            raise ParseError(str(e)) from None
    return PSDFactorization.from_tables(sides["row"], sides["col"], mode)
