import random
import time
from array import array
from fractions import Fraction

import numpy as np
import pytest

from psdrank.factorizations import (
    parse_factorization, verify_factorization, write_factorization)
from psdrank.gadgets import build_G, build_P
from psdrank.matrices import InstanceMatrix
from psdrank.search import (
    MAX_JACOBIAN_ENTRIES,
    POLISH_ITERATIONS,
    STALL_RTOL,
    SearchConfig,
    _jacobian,
    _polish,
    _rank_one_exact,
    _trace_table,
    psd_rank_search,
)

I2 = InstanceMatrix.from_dense([[1, 0], [0, 1]])
I3 = InstanceMatrix.from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


class TestExactSizeOne:
    def test_identity_fails_exactly(self):
        report = psd_rank_search(I2, 1)
        assert not report.found and report.exact

    def test_outer_product_found(self):
        A = InstanceMatrix.from_dense([[1, 2], [2, 4]])
        report = psd_rank_search(A, 1)
        assert report.found and report.exact
        assert verify_factorization(A, report.witness).max_residual == 0

    def test_zero_matrix(self):
        Z = InstanceMatrix(("a",), ("b",), {})
        report = psd_rank_search(Z, 1)
        assert report.found
        assert verify_factorization(Z, report.witness).max_residual == 0

    def test_fractional_outer_product(self):
        A = InstanceMatrix.from_dense([[Fraction(1, 2), Fraction(3, 2)],
                                       [Fraction(1, 3), 1]])
        report = psd_rank_search(A, 1)
        assert report.found
        assert verify_factorization(A, report.witness).max_residual == 0

    @pytest.mark.parametrize("seed", [5, 0])
    def test_pivot_ignores_stored_order(self, seed):
        # seed 5 stores (r0,c0), (r0,c2), (r2,c2), (r2,c0); seed 0 starts at (r2,c0)
        labels = (("r0", "r1", "r2"), ("c0", "c1", "c2"))
        ordered = {("r0", "c0"): Fraction(2), ("r0", "c2"): Fraction(4),
                   ("r2", "c0"): Fraction(1), ("r2", "c2"): Fraction(2)}
        items = list(ordered.items())
        random.Random(seed).shuffle(items)
        W = _rank_one_exact(InstanceMatrix(*labels, dict(items)))
        assert write_factorization(W) == write_factorization(
            _rank_one_exact(InstanceMatrix(*labels, ordered)))


class TestSizeOneScale:
    """The rank-one decision reads the stored entries, not every pair."""

    N = 3000
    ROWS = tuple(f"r{i}" for i in range(N))
    COLS = tuple(f"c{j}" for j in range(N))

    def decide(self, data):
        A = InstanceMatrix(self.ROWS, self.COLS, data)
        start = time.perf_counter()
        report = psd_rank_search(A, 1)
        assert time.perf_counter() - start < 1.0
        return A, report

    def rank_one(self):
        # u and v nonzero on every 60th label, with the pivot's row and
        # column inside those: 50 x 50 stored entries.
        u = {r: Fraction(i % 7 + 1, 3) for i, r in enumerate(self.ROWS) if i % 60 == 5}
        v = {c: Fraction(j % 5 + 1) for j, c in enumerate(self.COLS) if j % 60 == 7}
        return {(r, c): a * b for r, a in u.items() for c, b in v.items()}

    def test_empty(self):
        A, report = self.decide({})
        assert report.found and report.exact
        assert verify_factorization(A, report.witness).max_residual == 0

    def test_rank_one(self):
        A, report = self.decide(self.rank_one())
        assert report.found and report.exact
        assert verify_factorization(A, report.witness).max_residual == 0

    @pytest.mark.parametrize("change", ["extra before the pivot", "extra after the pivot",
                                        "entry changed", "entry missing"])
    def test_off_by_one_entry_refused(self, change):
        data = self.rank_one()
        last = next(reversed(data))
        if change == "extra before the pivot":
            data[(self.ROWS[0], self.COLS[0])] = Fraction(1)
        elif change == "extra after the pivot":
            data[(self.ROWS[-1], self.COLS[-1])] = Fraction(1)
        elif change == "entry changed":
            data[last] += 1
        else:
            del data[last]
        _, report = self.decide(data)
        assert not report.found and report.exact


class TestNumericSearch:
    def test_identity_two_block_lower_evidence(self):
        report = psd_rank_search(I2, 1)
        assert not report.found
        report = psd_rank_search(I2, 2, SearchConfig(restarts=8))
        assert report.found and report.best_residual <= 1e-8

    def test_p_of_two_at_size_two(self):
        report = psd_rank_search(build_P(2), 2, SearchConfig(restarts=8))
        assert report.found

    def test_identity_three_fails_at_two(self):
        report = psd_rank_search(I3, 2, SearchConfig(seed=1))
        assert not report.found
        assert report.best_residual >= 0.05

    def test_identity_three_succeeds_at_three(self):
        report = psd_rank_search(I3, 3, SearchConfig(seed=1))
        assert report.found and report.best_residual <= 1e-10

    def test_gadget_threshold(self):
        G = build_G([[1]], [1], [1], 1)
        assert not psd_rank_search(G, 2, SearchConfig(restarts=16)).found
        assert psd_rank_search(G, 3, SearchConfig(restarts=16)).found

    def test_deterministic(self):
        a = psd_rank_search(I3, 2, SearchConfig(seed=5, restarts=6))
        b = psd_rank_search(I3, 2, SearchConfig(seed=5, restarts=6))
        assert (a.best_residual, a.best_restart, a.iterations) == \
               (b.best_residual, b.best_restart, b.iterations)

    def test_witness_actually_verifies(self):
        report = psd_rank_search(build_P(1), 2, SearchConfig(restarts=8))
        assert report.found
        check = verify_factorization(build_P(1), report.witness, tol=1e-7)
        assert check.passed

    def test_witness_round_trips(self):
        F = psd_rank_search(build_P(2), 2, SearchConfig(seed=1)).witness
        assert F is not None and F.mode == "float"
        text = write_factorization(F)
        assert parse_factorization(text) == F
        assert write_factorization(parse_factorization(text)) == text


def known_rank_target(seed, m, k):
    """m x m with A_ij = tr(U_i U_i^T V_j V_j^T) for seeded k x k blocks, so
    its PSD rank is at most k."""
    rng = np.random.default_rng(seed)
    U, V = rng.normal(size=(m, k, k)), rng.normal(size=(m, k, k))
    return InstanceMatrix.from_dense(_trace_table(U, V).tolist())


@pytest.mark.parametrize("m,k,seed", [(4, 2, 0), (4, 2, 1), (6, 3, 0), (6, 3, 1)])
def test_random_target_of_known_rank(m, k, seed):
    A = known_rank_target(seed, m, k)
    report = psd_rank_search(A, k, SearchConfig(restarts=8, seed=1))
    assert report.found and report.iterations > 0
    assert verify_factorization(A, report.witness, tol=1e-7).passed


def test_jacobian_layout():
    # Row i*n + j holds d(residual ij)/d(theta) with theta = (U blocks, V
    # blocks), each block flattened row-major; check it against central
    # differences of the residuals and against the per-entry loop layout.
    rng = np.random.default_rng(3)
    m, n, k = 3, 3, 2
    U, V = rng.normal(size=(m, k, k)), rng.normal(size=(n, k, k))
    A = rng.random((m, n))
    R, J = _jacobian(U, V, A)
    theta = np.concatenate([U.reshape(-1), V.reshape(-1)])

    def residual(th):
        return (_trace_table(th[:m * k * k].reshape(m, k, k),
                             th[m * k * k:].reshape(n, k, k)) - A).reshape(-1)

    assert np.array_equal(R, residual(theta))
    h = 1e-6
    fd = np.column_stack([(residual(theta + h * e) - residual(theta - h * e)) / (2 * h)
                          for e in np.eye(theta.size)])
    np.testing.assert_allclose(J, fd, rtol=0, atol=1e-7)

    G = np.einsum("ica,jcb->ijab", U, V)
    JU = 2.0 * np.einsum("ijab,jcb->ijca", G, V)
    JV = 2.0 * np.einsum("ijab,ica->ijcb", G, U)
    loop = np.zeros_like(J)
    for i in range(m):
        for j in range(n):
            loop[i * n + j, i * k * k:(i + 1) * k * k] = JU[i, j].reshape(-1)
            loop[i * n + j, (m + j) * k * k:(m + j + 1) * k * k] = JV[i, j].reshape(-1)
    assert np.array_equal(J, loop)


def reference_polish(U, V, A, iterations, stall_rtol=STALL_RTOL):
    """Levenberg-Marquardt that builds the full Jacobian at every trial
    point; _polish, which builds it only at accepted points from the trial's
    Gram tensor, must take the same steps.  stall_rtol=0 turns the stall
    stop off."""
    m, k = U.shape[0], U.shape[1]
    n = V.shape[0]
    lam = 1e-6
    theta = np.concatenate([U.reshape(-1), V.reshape(-1)])

    def unpack(th):
        return th[:m * k * k].reshape(m, k, k), th[m * k * k:].reshape(n, k, k)

    R, J = _jacobian(U, V, A)
    cost = float(R @ R)
    steps = 0
    for _ in range(iterations):
        if cost < 1e-30:
            break
        JtJ = J.T @ J
        g = J.T @ R
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
                stalled = cost - cost2 < stall_rtol * cost
                theta, R, J, cost = th2, R2, J2, cost2
                lam = max(lam * 0.3, 1e-12)
                break
            lam *= 10
        else:
            break
        steps += 1
        if stalled:
            break
    U, V = unpack(theta)
    return U, V, steps


POLISH_TARGETS = {"I2": I2, "I3": I3, "G": build_G([[1]], [1], [1], 1), "P(2)": build_P(2)}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", POLISH_TARGETS)
def test_polish_matches_reference(name, k):
    # From the start point psd_rank_search draws for restart 0 of seeds
    # 1-3, _polish ends where the reference does, bit for bit.
    A = np.array(POLISH_TARGETS[name].to_dense(), dtype=float)
    scale = float(np.sqrt(A.mean())) / k
    for seed in (1, 2, 3):
        rng = np.random.default_rng([seed, 0])
        U = rng.normal(0.0, scale, size=(A.shape[0], k, k))
        V = rng.normal(0.0, scale, size=(A.shape[1], k, k))
        U1, V1, steps = _polish(U, V, A)
        U0, V0, ref_steps = reference_polish(U, V, A, POLISH_ITERATIONS)
        assert steps == ref_steps > 0
        assert np.array_equal(U1, U0) and np.array_equal(V1, V0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", POLISH_TARGETS)
def test_stall_stop_keeps_every_outcome(name, k):
    # Restarts 0-31 of seed 1, with the stall stop and without it: each
    # restart succeeds or fails alike, and a failing one ends at nearly the
    # same max-abs residual.  On the rank-3 targets at size 2 the stop cuts
    # every restart short.
    A = np.array(POLISH_TARGETS[name].to_dense(), dtype=float)
    scale = float(np.sqrt(A.mean())) / k
    tol = SearchConfig().success_tol
    for r in range(32):
        rng = np.random.default_rng([1, r])
        U = rng.normal(0.0, scale, size=(A.shape[0], k, k))
        V = rng.normal(0.0, scale, size=(A.shape[1], k, k))
        U1, V1, steps = _polish(U, V, A)
        U0, V0, _ = reference_polish(U, V, A, POLISH_ITERATIONS, stall_rtol=0.0)
        stopped = float(np.max(np.abs(_trace_table(U1, V1) - A)))
        uncapped = float(np.max(np.abs(_trace_table(U0, V0) - A)))
        assert (stopped <= tol) == (uncapped <= tol), r
        if uncapped > tol:
            assert abs(stopped - uncapped) <= 1e-4 * uncapped, r
        if name in ("I3", "G") and k == 2:
            assert steps < POLISH_ITERATIONS, r


class TestValidation:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            psd_rank_search(I2, 0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_must_be_positive(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=restarts)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
    def test_success_tol_must_be_nonnegative(self, tol):
        with pytest.raises(ValueError, match="success tolerance"):
            SearchConfig(success_tol=tol)
        assert SearchConfig(success_tol=0.0).success_tol == 0

    def test_oversized_target_refused_before_building(self, monkeypatch):
        labels = tuple(f"l{i}" for i in range(3000))
        A = InstanceMatrix(labels, labels, {})
        assert 3000 * 3000 * 6000 * 4 > MAX_JACOBIAN_ENTRIES
        monkeypatch.setattr(InstanceMatrix, "to_dense", lambda self: pytest.fail("built"))
        with pytest.raises(ValueError, match="Jacobian"):
            psd_rank_search(A, 2)

    def test_negative_entries_cannot_occur_but_guarded(self):
        # InstanceMatrix already rejects negatives; the guard is for raw dicts
        # built through the columns, which bypass the constructor on purpose
        m = InstanceMatrix._from_columns(("a",), ("a",), array("q", [0, 1]), array("q", [0]),
                                         [Fraction(-1)])
        with pytest.raises(ValueError, match="nonnegative"):
            psd_rank_search(m, 2)
