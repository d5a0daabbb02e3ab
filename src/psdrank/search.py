"""Seeded numerical search for PSD factorizations of a target size.

The search minimizes sum_ij (tr(U_i U_i^T V_j V_j^T) - A_ij)^2 over k x k
factor blocks with Levenberg-Marquardt, restarted from seeded random
initializations, and keeps the best run.  A restart stops after
POLISH_ITERATIONS accepted steps, or sooner once an accepted step lowers the
cost by less than STALL_RTOL of itself.  A run that ends with max-abs
entry residual at or below the success threshold yields a float witness; a
failed search is evidence only, never a proof of a rank lower bound.  The
search builds a dense (m*n) x ((m+n)*k^2) Jacobian, so it refuses targets
where that exceeds MAX_JACOBIAN_ENTRIES.  Size-1 decisions skip numerics
entirely: PSD rank 1 equals nonnegative rank 1, which is an exact rational
rank-one test.

This is the only module that uses numpy, and it imports numpy inside the
functions that need it: importing psdrank, and every command but
``psdrank search``, never loads it, and the first numerical search in a
process loads it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

from .factorizations import PSDFactorization, rational_square_sum
from .matrices import InstanceMatrix

POLISH_ITERATIONS = 80           # Levenberg-Marquardt steps per restart
STALL_RTOL = 1e-8                # an accepted step lowering the cost by less ends a restart
MAX_JACOBIAN_ENTRIES = 1 << 24   # float64 entries of the largest Jacobian built


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 32
    seed: int = 1
    success_tol: float = 1e-8      # max-abs entry residual declaring a witness

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if not self.success_tol >= 0:
            raise ValueError(f"success tolerance must be nonnegative, got {self.success_tol}")


@dataclass(frozen=True)
class SearchReport:
    k: int
    verdict: str                   # "witness-found" | "failed"
    best_residual: float
    best_restart: int
    iterations: int                # accepted Levenberg-Marquardt steps
    seed: int
    exact: bool = False            # set by the rational size-1 decision
    witness: Optional[PSDFactorization] = None

    @property
    def found(self) -> bool:
        return self.verdict == "witness-found"

    def summary(self) -> str:
        return (f"k={self.k} verdict={self.verdict} best_residual={self.best_residual:.3e} "
                f"restart={self.best_restart} iterations={self.iterations} seed={self.seed}"
                + (" exact" if self.exact else ""))


def _gram(U: np.ndarray, V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G_ij = U_i^T V_j and the trace table tr(G_ij G_ij^T) = tr(U_i U_i^T V_j V_j^T)."""
    import numpy as np
    G = np.einsum("ica,jcb->ijab", U, V)
    return G, np.einsum("ijab,ijab->ij", G, G)


def _trace_table(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return _gram(U, V)[1]


def _jacobian_buffer(m: int, n: int, k: int):
    """A zero Jacobian for an m x n target at size k, shaped by blocks, and
    the index arrays of the two k^2-blocks each residual row depends on."""
    import numpy as np
    return np.zeros((m, n, m + n, k * k)), np.arange(m)[:, None], np.arange(n)[None, :]


def _gram_jacobian(U, V, G, buffer=None):
    """Analytic Jacobian of the entry residuals in (U, V) at Gram tensor G.
    Written into ``buffer`` (from `_jacobian_buffer`, reused from call to
    call) when one is given: only the two k^2-blocks per row change, and
    every other entry stays zero."""
    import numpy as np
    m, k = U.shape[0], U.shape[1]
    n = V.shape[0]
    # Residual (i, j) depends only on block U_i (parameter block i) and
    # block V_j (parameter block m + j).
    J, ii, jj = _jacobian_buffer(m, n, k) if buffer is None else buffer
    J[ii, jj, ii] = (2.0 * np.einsum("ijab,jcb->ijca", G, V)).reshape(m, n, k * k)
    J[ii, jj, m + jj] = (2.0 * np.einsum("ijab,ica->ijcb", G, U)).reshape(m, n, k * k)
    return J.reshape(m * n, (m + n) * k * k)


def _jacobian(U, V, A):
    """Entry residuals and their Jacobian at (U, V)."""
    G, T = _gram(U, V)
    return (T - A).reshape(-1), _gram_jacobian(U, V, G)


def _polish(U, V, A):
    """Levenberg-Marquardt from (U, V); returns the end point and the number
    of accepted steps.  A trial point is judged by its residual alone, and its
    Gram tensor builds the Jacobian once the step is accepted.  The run stops
    after ``POLISH_ITERATIONS`` accepted steps, at cost below 1e-30, when no
    damping helps, or after an accepted step (still counted) that lowers the
    cost by less than ``STALL_RTOL`` of itself."""
    import numpy as np
    m, k = U.shape[0], U.shape[1]
    n = V.shape[0]
    lam = 1e-6
    theta = np.concatenate([U.reshape(-1), V.reshape(-1)])

    def unpack(th):
        return th[:m * k * k].reshape(m, k, k), th[m * k * k:].reshape(n, k, k)

    G, T = _gram(U, V)
    R = (T - A).reshape(-1)
    cost = float(R @ R)
    eye = np.eye(theta.size)
    buffer = _jacobian_buffer(m, n, k)
    steps, stalled = 0, False
    while steps < POLISH_ITERATIONS and cost >= 1e-30 and not stalled:
        J = _gram_jacobian(*unpack(theta), G, buffer)
        JtJ = J.T @ J
        g = J.T @ R
        for _ in range(25):
            try:
                delta = np.linalg.solve(JtJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            th2 = theta + delta
            G2, T2 = _gram(*unpack(th2))
            R2 = (T2 - A).reshape(-1)
            cost2 = float(R2 @ R2)
            if cost2 < cost:
                stalled = cost - cost2 < STALL_RTOL * cost
                theta, G, R, cost = th2, G2, R2, cost2
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10
        else:
            break  # no damping improves the cost
        steps += 1
    U, V = unpack(theta)
    return U, V, steps


def _rank_one_exact(A: InstanceMatrix) -> Optional[PSDFactorization]:
    """Exact witness when A is a nonnegative outer product, else None.

    The pivot is the first stored entry (row-major label order); u is its
    column over the pivot and v its row.  A equals u v^T exactly when every
    stored entry matches u[r] v[c] and there are as many stored entries as
    pairs of nonzero u[r] and v[c]; the test costs O(nnz + m log n).
    """
    if not A.nnz:
        # the zero matrix: empty Gram lists certify every entry
        return PSDFactorization(1, A.row_labels, A.col_labels, {}, {}, "exact")
    (r0, c0), base = next(A.entries())
    u = {r: A.entry(r, c0) / base for r in A.row_labels}
    v = {c: A.entry(r0, c) for c in A.col_labels}
    if (any(x != u[r] * v[c] for (r, c), x in A.entries())
            or sum(map(bool, u.values())) * sum(map(bool, v.values())) != A.nnz):
        return None
    rows = {r: tuple({0: s} for s in rational_square_sum(u[r])) for r in A.row_labels}
    cols = {c: tuple({0: s} for s in rational_square_sum(v[c])) for c in A.col_labels}
    return PSDFactorization(1, A.row_labels, A.col_labels, rows, cols, "exact")


def _float_witness(A: InstanceMatrix, U: np.ndarray, V: np.ndarray) -> PSDFactorization:
    k = U.shape[1]
    rows = {l: tuple({c: float(U[i, c, a]) for c in range(k) if U[i, c, a]}
                     for a in range(k))
            for i, l in enumerate(A.row_labels)}
    cols = {l: tuple({c: float(V[j, c, b]) for c in range(k) if V[j, c, b]}
                     for b in range(k))
            for j, l in enumerate(A.col_labels)}
    return PSDFactorization(k, A.row_labels, A.col_labels, rows, cols, "float")


def psd_rank_search(A: InstanceMatrix, k: int,
                    config: SearchConfig = SearchConfig()) -> SearchReport:
    """Look for a size-k witness of A; reproducible from the seed.

    Restart r draws its initialization from default_rng([seed, r]) at scale
    sqrt(mean(A))/k and runs Levenberg-Marquardt from it.  The best run (ties
    to the lowest restart index) is compared against the success threshold,
    and the first restart at or below it ends the search.  For k >= 2 a
    target whose Jacobian would exceed MAX_JACOBIAN_ENTRIES is refused with
    ValueError before anything is built.
    """
    if k < 1:
        raise ValueError(f"target size must be positive, got {k}")
    for v in A.values:
        if v < 0:
            raise ValueError("search target must be nonnegative")

    if k == 1:
        W = _rank_one_exact(A)
        if W is not None:
            return SearchReport(1, "witness-found", 0.0, 0, 0, config.seed,
                                exact=True, witness=W)
        return SearchReport(1, "failed", float("inf"), 0, 0, config.seed, exact=True)

    m, n = A.nrows, A.ncols
    if m * n * (m + n) * k * k > MAX_JACOBIAN_ENTRIES:
        raise ValueError(f"search target {m}x{n} at k={k} needs a {m * n} x {(m + n) * k * k} "
                         f"Jacobian, above the limit of {MAX_JACOBIAN_ENTRIES} entries")
    import numpy as np
    dense = np.array(A.to_dense(), dtype=float)
    scale = float(np.sqrt(dense.mean())) / k or 1.0 / k  # 1/k when the mean is 0
    best: Optional[Tuple[float, int, np.ndarray, np.ndarray]] = None
    total_steps = 0

    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        U = rng.normal(0.0, scale, size=(m, k, k))
        V = rng.normal(0.0, scale, size=(n, k, k))
        U, V, steps = _polish(U, V, dense)
        total_steps += steps
        residual = float(np.max(np.abs(_trace_table(U, V) - dense)))
        if best is None or residual < best[0]:
            best = (residual, r, U, V)
        if residual <= config.success_tol:
            break  # deterministic early exit; later restarts cannot report earlier

    assert best is not None
    residual, restart, U, V = best
    if residual <= config.success_tol:
        return SearchReport(k, "witness-found", residual, restart, total_steps,
                            config.seed, witness=_float_witness(A, U, V))
    return SearchReport(k, "failed", residual, restart, total_steps, config.seed)
