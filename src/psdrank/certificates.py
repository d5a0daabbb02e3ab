"""Certificate layer: build, verify and invert the reduction's witnesses.

Yes-instances flow forward: a root xi of f in the unit cube induces the
rank-3 completion B'(u|v) = ((u.v)(xi))^2 of B, which extends to a size
2k+3 witness for M(B, K).  The converse direction is executable too:
``extract_root`` walks a rank-3 completion back to a root of f, and
``sqrt_condition_check`` verifies the pattern condition that makes the
converse argument work.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, pairwise, repeat
from operator import is_
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .factorizations import (
    PieceTable,
    PSDFactorization,
    Vector,
    dense_vector,
    p_alpha_gram_vectors,
)
from .gadgets import (
    _gram_table, build_B, compute_K, index_set_H, instance_labels, sigma_set)
from .matrices import (
    UNKNOWN,
    IncompleteMatrix,
    InstanceMatrix,
    LabelVector,
    _distinct,
)
from .polynomials import (
    Assignment,
    Number,
    Polynomial,
    VarId,
    evaluate,
    format_polynomial,
)


# ---------------------------------------------------------------------------
# Completion from a root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Completion:
    """A rank-3 completion of B: the matrix B' and its size-3 witness."""

    matrix: InstanceMatrix
    factorization: PSDFactorization


# Largest |f(xi)| a float root may leave.
ROOT_TOL = 1e-12


def _root_values(f: Polynomial, xi: Assignment) -> Dict[Polynomial, Number]:
    """Check that xi is a cube root of f (exactly, or within ``ROOT_TOL`` for
    a float point), then evaluate each sigma element once; every coordinate
    of an H label is one of them."""
    for v in f.variables():
        val = xi.value_of(v)
        mag = abs(val if isinstance(val, float) else Fraction(val))
        if mag > 1:
            raise ValueError(f"|{v}| = {val} lies outside the unit cube")
    residual = evaluate(f, xi)
    if xi.mode == "exact":
        if residual != 0:
            raise ValueError(f"point is not a root: f(xi) = {residual}")
    elif abs(residual) > ROOT_TOL:
        raise ValueError(f"point is not a root within {ROOT_TOL}: f(xi) = {residual}")
    return {p: evaluate(p, xi) for p in sigma_set(f)}


def completion_from_root(f: Polynomial, xi: Assignment) -> Completion:
    """B', the Gram table of H at xi, plus its rank-one witness by the
    evaluated label vectors.

    B'(u|v) = ((u.v)(xi))^2 agrees with every known entry of B and its
    entries stay within 9*(length f)^4 because |xi_i| <= 1.  Each dot product
    d is exact, from the Fractions the coordinates equal (a float root's
    too); a float root stores the Fraction of the float nearest d^2, absent
    where that underflows to 0.
    """
    value = _root_values(f, xi)
    square = ((lambda d: d * d or None) if xi.mode == "exact"
              else (lambda d: Fraction(float(d * d)) or None))
    labels, *columns = _gram_table(f, square, lambda p: Fraction(value[p]))
    rows = {l: (dense_vector([value[c] for c in h.coords]),)
            for l, h in zip(labels, index_set_H(f))}
    return Completion(InstanceMatrix._from_columns(labels, labels, *columns),
                      PSDFactorization(3, labels, labels, rows, rows, xi.mode))


# ---------------------------------------------------------------------------
# Witness assembly for M(B, K)
# ---------------------------------------------------------------------------

def assemble_instance_witness(f: Polynomial, xi: Assignment) -> PSDFactorization:
    """Size 2k+3 witness for M(B(f), K) from a cube root xi of f.

    M decomposes as the embedded completion plus k disjoint blocks
    K*P(alpha_e) with alpha_e = (K - B'(e))/K; the completion occupies
    coordinates 0..2 and block t occupies coordinates 3+2t, 4+2t, which is
    exactly the block-diagonal padding of the direct-sum bound.  B' is read
    only at the k unknown entries e of B.
    """
    completion = completion_from_root(f, xi)
    B = build_B(f)
    K = Fraction(compute_K(f))
    E, labels = instance_labels(B)
    k = len(E)
    rows, cols = PieceTable(2 * k + 3), PieceTable(2 * k + 3)

    def placed(T: PieceTable, vectors: Sequence[Vector]) -> Tuple[Tuple[int, ...], ...]:
        """The vectors' template ids in T and their lowest coordinates."""
        ids = [T.template(v) for v in vectors]
        return tuple(t for t, _ in ids), tuple(lo or 0 for _, lo in ids)

    # each H label's core piece is its completion vector
    core = {l: (placed(rows, V), placed(cols, V))
            for l, V in completion.factorization.rows.items()}

    # A block depends only on its completion value: its vectors are interned
    # once per value, as template ids and offsets in the block per table
    # slot, and placed in each label at 3+2t.
    @functools.cache
    def value_block(bval: Fraction):
        if bval > K:
            raise ValueError(f"completion entry {bval} exceeds the budget K = {K}")
        prows, pcols = p_alpha_gram_vectors((K - bval) / K, scale=K)
        if xi.mode == "float":  # the exact block's correctly rounded values
            prows, pcols = ([[{c: float(x) for c, x in v.items()} for v in slot] for slot in side]
                            for side in (prows, pcols))
        return (tuple(placed(rows, slot) for slot in prows),
                tuple(placed(cols, slot) for slot in pcols))

    # B'(e) row by row (E is row-major in B, whose labels B' shares), then its
    # block, found per value object: B' shares one per distinct dot product
    Bp, zero, blocks = completion.matrix, Fraction(0), []
    for (lo, hi), (plo, phi) in zip(pairwise(B.starts), pairwise(Bp.starts)):
        row = dict(zip(Bp.cols[plo:phi], Bp.values[plo:phi]))
        unknown = compress(B.cols[lo:hi], map(is_, B.values[lo:hi], repeat(UNKNOWN)))
        blocks += map(row.get, unknown, repeat(zero))
    by_id = {id(v): value_block(v) for v in _distinct(blocks)}
    blocks = [by_id[id(v)] for v in blocks]
    # per side, each label of B -> the blocks it holds a piece of
    own: Tuple[Dict[str, List[int]], Dict[str, List[int]]] = (
        {l: [] for l in B.row_labels}, {l: [] for l in B.row_labels})
    for t, (i, j) in enumerate(E):
        own[0][i].append(t)
        own[1][j].append(t)

    for side, T in enumerate((rows, cols)):
        for slot in (1, 2):  # every E1 label, then every E2 label
            tids, offs = ([b[side][slot][n] for b in blocks] for n in (0, 1))
            counts = array("q", map(len, tids))
            bases = chain.from_iterable(map(repeat, range(3, 2 * k + 3, 2), counts))  # per piece
            T.extend(labels[(slot - 1) * k:slot * k], counts, array("q", chain.from_iterable(tids)),
                     array("q", map(int.__add__, bases, chain.from_iterable(offs))))
        # one run per label of B: a run of them all would first copy their pieces
        # into flat columns (3 MB on x1 - x2), which raised peak RSS by about 2 MB
        for l in B.row_labels:
            tids, shifts = map(list, core[l][side])
            for t in own[side][l]:
                btids, offs = blocks[t][side][0]
                tids += btids
                shifts += [3 + 2 * t + o for o in offs]
            T.extend([l], [len(tids)], tids, shifts)
    return PSDFactorization.from_tables(rows, cols, xi.mode)


# ---------------------------------------------------------------------------
# Root extraction from a rank-3 completion
# ---------------------------------------------------------------------------

class ExtractionError(ValueError):
    pass


# Zero thresholds for a float witness; an exact witness is decided exactly.
COORD_TOL = 1e-7  # a determinant or a transformed coordinate
PATTERN_TOL = 1e-6  # the middle coordinate of a normalized l (the zero pattern)
RESIDUAL_TOL = 1e-6  # f(y)


def _det3(M: Sequence[Sequence[Number]]) -> Number:
    return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
            - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
            + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))


def extract_root(f: Polynomial, F: PSDFactorization) -> Assignment:
    """Invert a rank-3 completion witness into a root of f.

    Let p_0, p_1, p_2 be the row vectors of (1,0,0), (0,1,0), (0,0,1) and D
    their determinant.  Sending them to the standard basis and rescaling
    diagonally so that p_(1,1,1) = (1,1,1) maps a column vector l to
    coordinates w_i (p_i . l), where w_i (Cramer's rule) is the determinant
    with p_i replaced by p_(1,1,1), over D.  Each variable x_i in sigma is
    then read off l_(1,0,x_i) normalized to first coordinate 1.  Variables
    that appear in monomials only behind other variables are recovered from
    consecutive prefix-product values (val(prefix*x) / val(prefix)); any
    coordinate that stays undetermined defaults to 0 and f(y) = 0 decides
    acceptance.  Every zero test is exact for an exact witness; a float
    witness uses ``COORD_TOL``, ``PATTERN_TOL`` and ``RESIDUAL_TOL``.
    """
    if F.k != 3:
        raise ExtractionError(f"a completion witness has size 3, not {F.k}")
    sigma = set(sigma_set(f))
    labels = {h.render() for h in index_set_H(f)}
    if set(F.row_labels) != labels or set(F.col_labels) != labels:
        raise ExtractionError("factorization labels do not match H(f)")
    exact = F.mode == "exact"

    def zero(x: Number, tol: float = COORD_TOL) -> bool:
        return x == 0 if exact else abs(float(x)) <= tol

    def vector(side: str, T: PieceTable, *coords: Polynomial) -> List[Number]:
        """The one nonzero Gram vector of the label (0 if it has none)."""
        label = LabelVector(coords).render()
        live = [v for v in T.vectors(T.index[label])
                if not zero(sum(x * x for x in v.values()), COORD_TOL ** 2)]
        if len(live) > 1:
            raise ExtractionError(f"{side} {label} is not rank one")
        vec = live[0] if live else {}
        return [vec.get(c, 0) for c in range(3)]

    one, nil = Polynomial.constant(1), Polynomial.zero()
    p = [vector("row", F.rows, *e) for e in ((one, nil, nil), (nil, one, nil), (nil, nil, one))]
    D = _det3(p)
    if zero(D):
        raise ExtractionError("the p-vectors of (1,0,0),(0,1,0),(0,0,1) are singular")
    D = Fraction(D) if exact else D  # an exact witness may hold ints: keep w rational
    p111 = vector("row", F.rows, one, one, one)
    w = [_det3(p[:i] + [p111] + p[i + 1:]) / D for i in range(3)]
    if any(map(zero, w)):
        raise ExtractionError("a coordinate of p_(1,1,1) vanishes")

    def value_at(s: Polynomial) -> Number:
        """The last coordinate of the transformed l_(1,0,s) over its first."""
        l = vector("col", F.cols, one, nil, s)
        first, mid, last = (w[i] * (p[i][0] * l[0] + p[i][1] * l[1] + p[i][2] * l[2])
                            for i in range(3))
        if zero(first):
            raise ExtractionError(
                f"first coordinate of l_(1,0,{format_polynomial(s, compact=True)}) vanishes")
        if not zero(mid / first, PATTERN_TOL):
            raise ExtractionError(
                f"l_(1,0,{format_polynomial(s, compact=True)}) violates the zero pattern")
        return last / first

    fvars = f.variables()
    values: Dict[VarId, Number] = {v: value_at(x) for v in fvars
                                   if (x := Polynomial.variable(v)) in sigma}
    # Prefix-product fallback for variables hidden behind others; every
    # prefix of a monomial lies in sigma.
    for term in f.terms:
        prev: Number = 1
        for cut, v in enumerate(term.vars, 1):
            val = value_at(Polynomial.monomial(term.vars[:cut]))
            if v not in values and not zero(prev):
                values[v] = val / prev
            prev = val
    for v in fvars:
        values.setdefault(v, Fraction(0))

    if not exact:
        values = {k: float(x) for k, x in values.items()}
    result = Assignment(values, F.mode)
    residual = evaluate(f, result)
    if not zero(residual, RESIDUAL_TOL):
        raise ExtractionError(f"extracted point misses the zero set: f(y) = {residual}")
    return result


# ---------------------------------------------------------------------------
# sqrt condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtWitness:
    """Per column: rows (i1, i2) and columns (j1, j2) realizing the pattern
    [[0,1,0],[0,0,1]] against that column; same for the transpose."""

    columns: Mapping[str, Tuple[str, str, str, str]]
    transpose_columns: Mapping[str, Tuple[str, str, str, str]]


def _column_witness(rows0: Sequence[str], ones: Mapping[str, set], zeros: Mapping[str, set],
                    col_pos: Mapping[str, int]) -> Optional[Tuple[str, str, str, str]]:
    """First (i1, i2, j1, j2) in label order over the rows ``rows0`` that
    hold a known 0 in the column."""
    for i1 in rows0:
        if not ones[i1]:
            continue
        for i2 in rows0:
            if i1 == i2 or not ones[i2]:
                continue
            j1s = ones[i1] & zeros[i2]
            if not j1s:
                continue
            j2s = zeros[i1] & ones[i2]
            if not j2s:
                continue
            j1 = min(j1s, key=col_pos.__getitem__)
            j2 = min(j2s, key=col_pos.__getitem__)
            return (i1, i2, j1, j2)
    return None


def _is_symmetric(S: IncompleteMatrix, T: IncompleteMatrix) -> bool:
    """Whether S equals its transpose T entry by entry."""
    return (S.row_labels == S.col_labels and S.starts == T.starts and S.cols == T.cols
            and S.values == T.values)


def sqrt_condition_check(S: IncompleteMatrix) -> Tuple[bool, Optional[SqrtWitness]]:
    """Decide the pattern condition for S and its transpose.

    Every column needs two rows whose known entries form [[0,1,0],[0,0,1]]
    against the column and two witness columns.  The search is exhaustive
    in label order and reads only the entries, so a matrix and its parsed
    file give the same witness: the first one per column.
    """
    def one_side(T: IncompleteMatrix) -> Optional[Dict[str, Tuple[str, str, str, str]]]:
        # row -> columns holding a known 1 / a known 0; a zero is never
        # stored, so a row's known zeros are the columns it stores nothing in
        ones: Dict[str, set] = {i: set() for i in T.row_labels}
        zeros: Dict[str, set] = {i: set(T.col_labels) for i in T.row_labels}
        for (r, c), v in T.entries():
            zeros[r].discard(c)
            if isinstance(v, Fraction) and v == 1:
                ones[r].add(c)
        zero_rows: Dict[str, List[str]] = {k: [] for k in T.col_labels}
        for i in T.row_labels:
            for k in zeros[i]:
                zero_rows[k].append(i)
        col_pos = {c: t for t, c in enumerate(T.col_labels)}
        out: Dict[str, Tuple[str, str, str, str]] = {}
        for k in T.col_labels:
            got = _column_witness(zero_rows[k], ones, zeros, col_pos)
            if got is None:
                return None
            out[k] = got
        return out

    primal = one_side(S)
    if primal is None:
        return (False, None)
    T = S.transpose()
    if _is_symmetric(S, T):
        return (True, SqrtWitness(primal, dict(primal)))
    dual = one_side(T)
    if dual is None:
        return (False, None)
    return (True, SqrtWitness(primal, dual))
