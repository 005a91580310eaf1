"""Closed-form and incremental estimation of the linear mappings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldlkit import Mapping, prune, solve_endstate, train_incremental, wh_update
from ldlkit.cues import csr_arrays
from ldlkit.mappings import MappingError, load_mapping, save_mapping


def normal_equations_oracle(X, Y):
    """Independent textbook solution for full-rank designs."""
    return np.linalg.solve(X.T @ X, X.T @ Y)


def gather_scatter_stream(W, indptr, indices, S, stream, eta):
    """The fancy-index token loop that _wh_numpy.run_stream must reproduce bit for bit."""
    for eid in stream:
        idx = indices[indptr[eid] : indptr[eid + 1]]
        delta = eta * (S[eid] - W[idx].sum(axis=0))
        W[idx] += delta


class TestSolveEndstate:
    def test_identity_design(self):
        Y = np.arange(12.0).reshape(4, 3)
        m = solve_endstate(np.eye(4), Y)
        np.testing.assert_allclose(m.W, Y)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 30))
        Y = rng.normal(size=(50, 20))
        W = solve_endstate(X, Y).W
        W0 = normal_equations_oracle(X, Y)
        assert np.linalg.norm(W - W0) / np.linalg.norm(W0) <= 1e-8

    def test_homophone_rows_predict_average(self):
        # analytic least squares for two identical inputs: prediction is
        # the target mean
        c = np.array([[1.0, 0.0, 1.0]])
        s1 = np.array([1.0, 2.0])
        s2 = np.array([3.0, -2.0])
        X = np.vstack([c, c])
        Y = np.vstack([s1, s2])
        m = solve_endstate(X, Y)
        np.testing.assert_allclose(c @ m.W, (s1 + s2)[None, :] / 2, atol=1e-12)

    def test_duplicate_pairs_deduplicated(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 4))
        Y = rng.normal(size=(10, 3))
        X2 = np.vstack([X, X[:3]])
        Y2 = np.vstack([Y, Y[:3]])
        np.testing.assert_allclose(solve_endstate(X2, Y2).W, solve_endstate(X, Y).W)

    def test_consistency_on_realizable_targets(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 25))
        W0 = rng.normal(size=(25, 7))
        m = solve_endstate(X, X @ W0)
        np.testing.assert_allclose(X @ m.W, X @ W0, atol=1e-8)

    def test_interpolation_on_independent_rows(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 30))  # wide: rows independent a.s.
        Y = rng.normal(size=(20, 5))
        m = solve_endstate(X, Y)
        resid = np.linalg.norm(X @ m.W - Y)
        assert resid <= 1e-8 * np.linalg.norm(Y)

    def test_minimum_norm_for_rank_deficient(self):
        X = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        Y = np.array([[2.0], [2.0]])
        m = solve_endstate(X, Y)
        np.testing.assert_allclose(m.W, [[2.0], [0.0], [0.0]], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            solve_endstate(np.zeros((0, 3)), np.zeros((0, 2)))

    def test_mismatch_rejected(self):
        with pytest.raises(MappingError):
            solve_endstate(np.zeros((3, 2)), np.zeros((4, 2)))


class TestWhUpdate:
    def test_one_step_exact(self):
        W = np.zeros((2, 1))
        W1 = wh_update(W, np.array([1.0, 0.0]), np.array([1.0]), eta=0.1)
        assert W1.tolist() == [[0.1], [0.0]]

    def test_zero_cue_vector_is_identity(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(4, 3))
        W1 = wh_update(W, np.zeros(4), rng.normal(size=3), eta=0.5)
        np.testing.assert_array_equal(W1, W)

    def test_only_active_rows_change(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(6, 3))
        c = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        W1 = wh_update(W, c, rng.normal(size=3), eta=0.1)
        changed = np.flatnonzero(np.abs(W1 - W).sum(axis=1))
        assert set(changed) <= {1, 3}

    def test_is_negative_gradient_step(self):
        # finite-difference oracle for 0.5 * ||c^T W - o^T||^2
        rng = np.random.default_rng(2)
        eta, h = 0.5, 1e-5
        for _ in range(10):
            W = rng.normal(size=(5, 4))
            c = rng.normal(size=5)
            o = rng.normal(size=4)
            delta = wh_update(W, c, o, eta) - W

            def loss(M):
                return 0.5 * np.sum((c @ M - o) ** 2)

            grad = np.zeros_like(W)
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += h
                    Wm[i, j] -= h
                    grad[i, j] = (loss(Wp) - loss(Wm)) / (2 * h)
            assert np.abs(delta - (-eta * grad)).max() <= 1e-6

    def test_repeated_updates_converge_geometrically(self):
        # closed form: error after k steps shrinks by (1 - eta*|c|^2)^k
        c = np.array([1.0, 1.0, 0.0])
        o = np.array([2.0, -1.0])
        eta = 0.1
        W = np.zeros((3, 2))
        rate = 1 - eta * float(c @ c)
        for k in range(1, 25):
            W = wh_update(W, c, o, eta)
            expected = o * (1 - rate**k)
            np.testing.assert_allclose(c @ W, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(MappingError):
            wh_update(np.zeros((2, 2)), np.zeros(3), np.zeros(2), eta=0.1)


class TestTrainIncremental:
    def _toy(self, seed=0, n=12, cues=20, dim=6):
        rng = np.random.default_rng(seed)
        C = (rng.random((n, cues)) < 0.25).astype(float)
        C[C.sum(axis=1) == 0, 0] = 1.0
        S = rng.normal(size=(n, dim))
        return C, S

    def test_empty_stream_gives_zero_mapping(self):
        C, S = self._toy()
        final, snaps = train_incremental(np.zeros(0, dtype=np.int64), C, S, eta=0.1)
        assert not final.W.any()
        assert snaps == []

    def test_matches_sequential_wh_update(self):
        C, S = self._toy()
        stream = np.array([0, 3, 1, 3, 2, 0, 5], dtype=np.int64)
        final, _ = train_incremental(stream, C, S, eta=0.07)
        W = np.zeros((C.shape[1], S.shape[1]))
        for t in stream:
            W = wh_update(W, C[t], S[t], eta=0.07)
        np.testing.assert_allclose(final.W, W, atol=1e-12)

    def test_checkpoints(self):
        C, S = self._toy()
        stream = np.tile(np.arange(len(C)), 5).astype(np.int64)
        final, snaps = train_incremental(stream, C, S, eta=0.05, checkpoints=[0, 10, len(stream)])
        assert [s.trained_tokens for s in snaps] == [0, 10, len(stream)]
        assert not snaps[0].W.any()
        np.testing.assert_array_equal(snaps[-1].W, final.W)

    def test_order_sensitivity(self):
        C, S = self._toy()
        s1 = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
        s2 = s1[::-1].copy()
        w1, _ = train_incremental(s1, C, S, eta=0.2)
        w2, _ = train_incremental(s2, C, S, eta=0.2)
        assert np.abs(w1.W - w2.W).max() > 1e-9

    def test_epochs_approach_endstate(self):
        C, S = self._toy(seed=5, n=10, cues=25)
        W_end = solve_endstate(C, S).W
        dists = []
        for epochs in (5, 50, 500):
            stream = np.tile(np.arange(len(C)), epochs).astype(np.int64)
            final, _ = train_incremental(stream, C, S, eta=0.02)
            dists.append(np.linalg.norm(final.W - W_end))
        assert dists[0] > dists[1] > dists[2]

    def test_on_checkpoint_sees_live_weights_in_order(self):
        C, S = self._toy(seed=3)
        stream = np.tile(np.arange(len(C)), 5).astype(np.int64)
        checkpoints = [0, 10, 10, 33, len(stream)]
        seen = []
        final, snaps = train_incremental(
            stream, C, S, eta=0.05, checkpoints=checkpoints,
            on_checkpoint=lambda m: seen.append((m.trained_tokens, m.W, m.W.copy())),
        )
        assert snaps == []
        assert [t for t, _, _ in seen] == checkpoints
        assert all(np.shares_memory(W, final.W) for _, W, _ in seen), "no snapshot copy"

        default_final, default_snaps = train_incremental(
            stream, C, S, eta=0.05, checkpoints=checkpoints
        )
        np.testing.assert_array_equal(default_final.W, final.W)
        assert [s.trained_tokens for s in default_snaps] == checkpoints
        for snap, (_, _, W_at) in zip(default_snaps, seen):
            np.testing.assert_array_equal(snap.W, W_at)
            assert not np.shares_memory(snap.W, default_final.W)

    def test_nonbinary_cues_rejected(self):
        C, S = self._toy()
        C[0, 0] = 0.5
        with pytest.raises(MappingError, match="binary"):
            train_incremental(np.zeros(1, dtype=np.int64), C, S)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_entries=st.integers(1, 6),
    n_cues=st.integers(20, 40),
    dim=st.integers(2, 12),  # a one-column W[idx].sum(axis=0) sums in another order
    n_tokens=st.integers(0, 80),
    n_inner=st.integers(0, 4),
    eta=st.floats(1e-3, 0.5),
)
@example(seed=0, n_entries=3, n_cues=20, dim=4, n_tokens=0, n_inner=2, eta=0.1)
@settings(max_examples=80, deadline=None)
def test_run_stream_is_bit_identical_to_gather_scatter(
    seed, n_entries, n_cues, dim, n_tokens, n_inner, eta
):
    rng = np.random.default_rng(seed)
    C = np.zeros((n_entries, n_cues))
    for row in C:
        row[rng.choice(n_cues, size=rng.integers(1, 21), replace=False)] = 1.0
    S = rng.normal(size=(n_entries, dim))
    stream = rng.integers(0, n_entries, size=n_tokens)  # few entries, so ids repeat
    # 0, repeats and the stream's end among the checkpoints
    inner = rng.integers(0, n_tokens + 1, size=n_inner)
    checkpoints = np.sort(np.concatenate([[0, 0], inner, inner, [n_tokens]])).astype(np.int64)

    indptr, indices = csr_arrays(C)
    assert indices.flags.c_contiguous  # a copy, not a view of nonzero's (nnz, 2) array
    np.testing.assert_array_equal(indices, np.concatenate([np.flatnonzero(r) for r in C]))
    np.testing.assert_array_equal(indptr[1:], np.cumsum(C.sum(axis=1)))

    seen = []
    final, _ = train_incremental(
        stream, C, S, eta=eta, checkpoints=checkpoints,
        on_checkpoint=lambda m: seen.append((m.trained_tokens, m.W.copy())),
    )
    assert [t for t, _ in seen] == checkpoints.tolist()

    # the oracle over the same segments of the stream
    W = np.zeros((n_cues, dim))
    done = 0
    for t, W_at in seen:
        gather_scatter_stream(W, indptr, indices, S, stream[done:t], eta)
        done = t
        np.testing.assert_array_equal(W_at, W)
    gather_scatter_stream(W, indptr, indices, S, stream[done:], eta)
    np.testing.assert_array_equal(final.W, W)


class TestPrune:
    def test_zero_threshold_unchanged(self):
        W = np.array([[0.0, 0.5], [-0.2, 0.0]])
        m, frac = prune(Mapping(W=W), theta_p=0.0)
        np.testing.assert_array_equal(m.W, W)
        assert frac == 0.5  # share of exact zeros

    def test_infinite_threshold_zeroes_all(self):
        W = np.array([[1.0, -3.0], [0.2, 0.4]])
        m, frac = prune(Mapping(W=W), theta_p=np.inf)
        assert not m.W.any()
        assert frac == 1.0

    def test_threshold_is_strict(self):
        W = np.array([[0.5, -0.5, 0.49]])
        m, frac = prune(Mapping(W=W), theta_p=0.5)
        assert m.W.tolist() == [[0.5, -0.5, 0.0]]
        assert frac == pytest.approx(1 / 3)

    def test_fraction_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        m = Mapping(W=rng.normal(size=(30, 30)))
        fracs = [prune(m, t)[1] for t in np.linspace(0, 3, 10)]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))


def test_mapping_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = Mapping(W=rng.normal(size=(7, 4)), kind="production",
                provenance="incremental", trained_tokens=123, eta=0.01)
    path = tmp_path / "map.bin"
    save_mapping(m, path)
    back = load_mapping(path)
    np.testing.assert_array_equal(back.W, m.W)
    assert back.kind == "production"
    assert back.provenance == "incremental"
    assert back.trained_tokens == 123
    assert back.eta == 0.01
