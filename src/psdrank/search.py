"""Seeded numerical search for PSD factorizations of a target size.

The search minimizes sum_ij (tr(U_i U_i^T V_j V_j^T) - A_ij)^2 over k x k
factor blocks with gradient descent plus Armijo backtracking, restarted
from seeded random initializations.  Every restart is polished with
Levenberg-Marquardt, and the best polished run is kept.  A run that ends
with max-abs entry residual at or below the success threshold yields a
float witness; a failed search is evidence only, never a proof of a rank
lower bound.  Size-1 decisions skip numerics entirely: PSD rank 1 equals
nonnegative rank 1, which is an exact rational rank-one test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .factorizations import PSDFactorization, rational_square_sum
from .matrices import InstanceMatrix


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 32
    seed: int = 1
    iterations: int = 300          # gradient-descent steps per restart
    polish_iterations: int = 80    # Levenberg-Marquardt steps per restart
    success_tol: float = 1e-8      # max-abs entry residual declaring a witness
    init: Optional[Tuple[np.ndarray, np.ndarray]] = None  # restart-0 override

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")


@dataclass(frozen=True)
class SearchReport:
    k: int
    verdict: str                   # "witness-found" | "failed"
    best_residual: float
    best_restart: int
    iterations: int
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


def _trace_table(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    G = np.einsum("ica,jcb->ijab", U, V)
    return np.einsum("ijab,ijab->ij", G, G)


def _loss_and_grad(U, V, A):
    G = np.einsum("ica,jcb->ijab", U, V)
    T = np.einsum("ijab,ijab->ij", G, G)
    R = T - A
    loss = float(np.einsum("ij,ij->", R, R))
    CV = np.einsum("jca,jcb->jab", V, V)   # V_j V_j^T
    CU = np.einsum("ica,icb->iab", U, U)
    gU = 4.0 * np.einsum("ij,jab,icb->ica", R, CV, U)
    gV = 4.0 * np.einsum("ij,iab,jcb->jca", R, CU, V)
    return loss, gU, gV


def _gradient_descent(U, V, A, iterations: int):
    step = 0.1
    loss, gU, gV = _loss_and_grad(U, V, A)
    done = 0
    for _ in range(iterations):
        gnorm = float(np.sum(gU * gU) + np.sum(gV * gV))
        if gnorm < 1e-24 or loss < 1e-26:
            break
        # Armijo backtracking on the joint step
        accepted = False
        for _ in range(40):
            U2 = U - step * gU
            V2 = V - step * gV
            loss2, gU2, gV2 = _loss_and_grad(U2, V2, A)
            if loss2 <= loss - 1e-4 * step * gnorm:
                U, V, loss, gU, gV = U2, V2, loss2, gU2, gV2
                step *= 1.5
                accepted = True
                break
            step *= 0.5
        done += 1
        if not accepted:
            break
    return U, V, loss, done


def _jacobian(U, V, A):
    """Analytic Jacobian of the entry residuals in (U, V) parameters."""
    m, k = U.shape[0], U.shape[1]
    n = V.shape[0]
    G = np.einsum("ica,jcb->ijab", U, V)
    T = np.einsum("ijab,ijab->ij", G, G)
    R = (T - A).reshape(-1)
    JU = 2.0 * np.einsum("ijab,jcb->ijca", G, V)
    JV = 2.0 * np.einsum("ijab,ica->ijcb", G, U)
    # Residual (i, j) depends only on block U_i (parameter block i) and
    # block V_j (parameter block m + j).
    J = np.zeros((m, n, m + n, k * k))
    ii, jj = np.arange(m)[:, None], np.arange(n)[None, :]
    J[ii, jj, ii] = JU.reshape(m, n, k * k)
    J[ii, jj, m + jj] = JV.reshape(m, n, k * k)
    return R, J.reshape(m * n, (m + n) * k * k)


def _polish(U, V, A, iterations: int):
    """Damped Gauss-Newton to machine-precision residuals near a minimum."""
    m, k = U.shape[0], U.shape[1]
    n = V.shape[0]
    lam = 1e-6
    theta = np.concatenate([U.reshape(-1), V.reshape(-1)])

    def unpack(th):
        return th[:m * k * k].reshape(m, k, k), th[m * k * k:].reshape(n, k, k)

    R, J = _jacobian(U, V, A)
    cost = float(R @ R)
    for _ in range(iterations):
        if cost < 1e-30:
            break
        JtJ = J.T @ J
        g = J.T @ R
        improved = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(JtJ + lam * np.eye(JtJ.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            th2 = theta + delta
            U2, V2 = unpack(th2)
            R2, J2 = _jacobian(U2, V2, A)
            cost2 = float(R2 @ R2)
            if cost2 < cost:
                theta, R, J, cost = th2, R2, J2, cost2
                lam = max(lam * 0.3, 1e-12)
                improved = True
                break
            lam *= 10
        if not improved:
            break
    U, V = unpack(theta)
    return U, V, cost


def _rank_one_exact(A: InstanceMatrix) -> Optional[PSDFactorization]:
    """Exact witness when A is a nonnegative outer product, else None."""
    pivot = None
    for r in A.row_labels:
        for c in A.col_labels:
            if A.entry(r, c):
                pivot = (r, c)
                break
        if pivot:
            break
    if pivot is None:
        # the zero matrix: empty Gram lists certify every entry
        return PSDFactorization(1, A.row_labels, A.col_labels, {}, {}, "exact")
    r0, c0 = pivot
    base = A.entry(r0, c0)
    u = {r: A.entry(r, c0) / base for r in A.row_labels}
    v = {c: A.entry(r0, c) for c in A.col_labels}
    for r in A.row_labels:
        for c in A.col_labels:
            if A.entry(r, c) != u[r] * v[c]:
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


def pad_witness_arrays(F: PSDFactorization, A: InstanceMatrix, k_new: int) -> Tuple[np.ndarray, np.ndarray]:
    """Embed a found witness into dimension k_new as a warm start."""
    if k_new < F.k:
        raise ValueError("cannot pad a witness into a smaller dimension")
    m, n = A.nrows, A.ncols
    U = np.zeros((m, k_new, k_new))
    V = np.zeros((n, k_new, k_new))
    for i, l in enumerate(A.row_labels):
        for a, vec in enumerate(F.row_vectors.get(l, ())[:k_new]):
            for c, val in vec.items():
                U[i, c, a] = float(val)
    for j, l in enumerate(A.col_labels):
        for b, vec in enumerate(F.col_vectors.get(l, ())[:k_new]):
            for c, val in vec.items():
                V[j, c, b] = float(val)
    return U, V


def psd_rank_search(A: InstanceMatrix, k: int,
                    config: SearchConfig = SearchConfig()) -> SearchReport:
    """Look for a size-k witness of A; reproducible from the seed.

    Restart r draws its initialization from default_rng([seed, r]) at scale
    sqrt(mean(A))/k.  Every restart is polished; the best polished run (ties
    to the lowest restart index) is compared against the success threshold,
    and the first restart at or below it ends the search.
    """
    if k < 1:
        raise ValueError(f"target size must be positive, got {k}")
    for v in A.data.values():
        if v < 0:
            raise ValueError("search target must be nonnegative")

    if k == 1:
        W = _rank_one_exact(A)
        if W is not None:
            return SearchReport(1, "witness-found", 0.0, 0, 0, config.seed,
                                exact=True, witness=W)
        return SearchReport(1, "failed", float("inf"), 0, 0, config.seed, exact=True)

    dense = np.array(A.to_dense(), dtype=float)
    m, n = dense.shape
    scale = float(np.sqrt(dense.mean())) / k if dense.any() else 1.0 / k
    best: Optional[Tuple[float, int, np.ndarray, np.ndarray]] = None
    total_iters = 0

    for r in range(config.restarts):
        if r == 0 and config.init is not None:
            U0, V0 = config.init
            U = np.array(U0, dtype=float).copy()
            V = np.array(V0, dtype=float).copy()
        else:
            rng = np.random.default_rng([config.seed, r])
            U = rng.normal(0.0, scale or 1.0, size=(m, k, k))
            V = rng.normal(0.0, scale or 1.0, size=(n, k, k))
        U, V, loss, done = _gradient_descent(U, V, dense, config.iterations)
        total_iters += done
        U, V, _ = _polish(U, V, dense, config.polish_iterations)
        residual = float(np.max(np.abs(_trace_table(U, V) - dense)))
        if best is None or residual < best[0]:
            best = (residual, r, U, V)
        if residual <= config.success_tol:
            break  # deterministic early exit; later restarts cannot report earlier

    assert best is not None
    residual, restart, U, V = best
    if residual <= config.success_tol:
        return SearchReport(k, "witness-found", residual, restart, total_iters,
                            config.seed, witness=_float_witness(A, U, V))
    return SearchReport(k, "failed", residual, restart, total_iters, config.seed)
