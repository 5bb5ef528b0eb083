"""Coefficient extraction: solver correctness against brute-force oracles."""

import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roboface
from roboface import retarget
from roboface.lbs import (
    BlendCoefficients,
    BlendshapeBasis,
    FaceMesh,
    LbsRig,
    apply_skinning,
)
from roboface.retarget import (
    FACTOR_SETS,
    MAX_ITERATIONS,
    TOLERANCE,
    BoxLeastSquares,
    project_sequence,
    project_to_basis,
    transfer_coefficients,
)
from roboface.motionnet import init_params
from roboface.pipeline import PipelineConfig, run_pipeline
from roboface.rigsim import _kinematics, build_reference_rig, solve_ik
from roboface.synthdata import make_logits, make_motion


def random_rig(v=200, b=8, seed=0):
    rng = np.random.default_rng(seed)
    mesh = FaceMesh(rng.normal(0, 30, 3 * v))
    names = tuple(f"ch{i:02d}" for i in range(b))
    disp = tuple(rng.normal(0, 2, 3 * v) for _ in names)
    return LbsRig(
        mesh,
        BlendshapeBasis(names, disp),
        mouth_mask=np.arange(v // 2, v),
        landmark_groups={"mouth": np.arange(v // 2, v)},
    )


def grid_search(matrix, y, step=1e-3):
    """Exhaustive box-constrained least squares for B=2, the slow way."""
    g = matrix.T @ matrix
    c = matrix.T @ y
    const = y @ y
    axis = np.arange(0.0, 1.0 + step / 2, step)
    t0, t1 = np.meshgrid(axis, axis, indexing="ij")
    f = (
        g[0, 0] * t0 * t0
        + 2 * g[0, 1] * t0 * t1
        + g[1, 1] * t1 * t1
        - 2 * (c[0] * t0 + c[1] * t1)
        + const
    )
    i, j = np.unravel_index(np.argmin(f), f.shape)
    return np.array([axis[i], axis[j]])


def solve_target(matrix, y, x0=None):
    """Box least squares on a target ``y`` as ``project_to_basis`` and
    ``solve_ik`` run it: ``minimize`` on A^T y, then ||A x - y||^2.
    Returns (x, residual, converged, iterations)."""
    solver = BoxLeastSquares(matrix.T @ matrix)
    x, converged, iterations = solver.minimize(matrix.T @ y, x0)
    r = matrix @ x - y
    return x, float(r @ r), converged, iterations


def oracle_solve(matrix, y, x0=None):
    """Reference box least squares by projected gradient, for comparison.

    Each iteration takes a projected-gradient step with exact line search
    and then an exact solve on the free subspace, both clipped at the box
    and accepted only if the objective does not rise. Slow to converge
    from a poor start, but shares no bookkeeping with the active-set
    ``BoxLeastSquares.minimize``, and stops by the same rule. Returns
    (x, converged).
    """
    g_mat = matrix.T @ matrix
    c = matrix.T @ y
    n = g_mat.shape[0]

    def objective(x):
        return float(x @ (g_mat @ x) - 2.0 * (c @ x) + y @ y)

    def blocked(x, grad):
        return ((x <= 0.0) & (grad > 0)) | ((x >= 1.0) & (grad < 0))

    def step_to_box(x, d):
        with np.errstate(divide="ignore", invalid="ignore"):
            to_hi = np.where(d > 0, (1.0 - x) / d, np.inf)
            to_lo = np.where(d < 0, (0.0 - x) / d, np.inf)
        return float(np.minimum(to_hi, to_lo).min())

    x = np.zeros(n) if x0 is None else np.clip(np.asarray(x0, float), 0.0, 1.0)
    f = objective(x)
    for _ in range(MAX_ITERATIONS):
        grad = 2.0 * (g_mat @ x - c)
        pg = np.where(blocked(x, grad), 0.0, grad)
        if np.abs(pg).max(initial=0.0) <= TOLERANCE:
            return x, True
        moved = False
        d = -pg
        curv = d @ (g_mat @ d)
        if curv > 0:
            alpha = min((pg @ pg) / (2.0 * curv), step_to_box(x, d))
            cand = np.clip(x + alpha * d, 0.0, 1.0)
            f_cand = objective(cand)
            if f_cand <= f:
                x, f, moved = cand, f_cand, True
        free = ~blocked(x, 2.0 * (g_mat @ x - c))
        if free.any():
            idx = np.flatnonzero(free)
            rhs = c[idx] - g_mat[np.ix_(idx, ~free)] @ x[~free]
            sub = g_mat[np.ix_(idx, idx)]
            try:
                target = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                target = np.linalg.lstsq(sub, rhs, rcond=None)[0]
            delta = target - x[idx]
            if delta.any():
                beta = min(1.0, step_to_box(x[idx], delta))
                cand = x.copy()
                cand[idx] = np.clip(x[idx] + beta * delta, 0.0, 1.0)
                f_cand = objective(cand)
                if f_cand <= f:
                    x, f, moved = cand, f_cand, True
        if not moved:
            break
    return x, False


@st.composite
def box_problems(draw):
    """(A, y, x0, full_rank): a small box least-squares problem.

    A is (m, n), of full column rank or of rank r < n (a product of thin
    factors). The unconstrained optimum lies in [-0.5, 1.5]^n, so some
    bounds bind. The warm start is absent, inside, on or outside the box.
    """
    n = draw(st.integers(1, 8))
    full_rank = n == 1 or draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n + draw(st.integers(2, 12))
    if full_rank:
        a = rng.normal(0.0, 1.0, (m, n))
    else:
        rank = draw(st.integers(1, n - 1))
        a = rng.normal(0.0, 1.0, (m, rank)) @ rng.normal(0.0, 1.0, (rank, n))
    y = a @ rng.uniform(-0.5, 1.5, n) + rng.normal(0.0, 0.1, m)
    start = draw(st.sampled_from(["cold", "inside", "on", "outside"]))
    x0 = {
        "cold": None,
        "inside": rng.uniform(0.05, 0.95, n),
        "on": rng.integers(0, 2, n).astype(float),
        "outside": rng.uniform(-2.0, 3.0, n),
    }[start]
    return a, y, x0, full_rank


def kkt_violation(matrix, y, x):
    """Largest KKT violation of x: free gradient, or bound gradient sign."""
    grad = 2.0 * (matrix.T @ (matrix @ x - y))
    free = (x > 0.0) & (x < 1.0)
    wrong = np.where(x <= 0.0, -grad, np.where(x >= 1.0, grad, 0.0))
    return max(np.abs(grad[free]).max(initial=0.0), wrong.max(initial=0.0))


class TestActiveSetAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(box_problems())
    def test_matches_projected_gradient_oracle(self, problem):
        a, y, x0, full_rank = problem
        x, residual, converged, _ = solve_target(a, y, x0)
        expected, oracle_converged = oracle_solve(a, y, x0)
        assert converged
        assert x.min() >= 0.0 and x.max() <= 1.0
        r = a @ x - y
        assert residual == float(r @ r)
        if full_rank and oracle_converged:
            np.testing.assert_allclose(x, expected, rtol=0, atol=1e-10)
        else:
            # A rank-deficient minimiser is not unique, and the oracle stalls
            # on some problems: the solve must fit at least as well.
            miss = a @ expected - y
            assert residual <= float(miss @ miss) * (1 + 1e-12) + 1e-15

    @settings(max_examples=300, deadline=None)
    @given(box_problems())
    def test_kkt_holds(self, problem):
        a, y, x0, _ = problem
        x, _, converged, _ = solve_target(a, y, x0)
        assert converged
        assert kkt_violation(a, y, x) <= TOLERANCE

    @settings(max_examples=300, deadline=None)
    @given(box_problems())
    def test_one_iteration_cap_reports_unconverged(self, problem):
        a, y, x0, _ = problem
        _, _, _, needed = solve_target(a, y, x0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retarget, "MAX_ITERATIONS", 1)
            x, _, converged, iterations = solve_target(a, y, x0)
        assert iterations == 1
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert converged == (needed == 1)

    def test_output_does_not_depend_on_the_factor_cache(self, monkeypatch):
        # Stream k pushes coordinate k past 1, so the streams' working sets
        # differ but have the same size. With one cached set, interleaving
        # them evicts the cached inverse on every solve; with the default,
        # every set stays cached. Each stream must still get the bits of a
        # solver of its own, at either capacity.
        rng = np.random.default_rng(20)
        a = rng.normal(0.0, 1.0, (30, 6))
        streams = []
        for k in range(4):
            thetas = rng.uniform(0.2, 0.8, (25, 6))
            thetas[:, k] = 1.5
            streams.append(thetas @ a.T)

        def chain(solver, ys):
            warm, out = None, []
            for y in ys:
                warm = solver.minimize(a.T @ y, warm)[0]
                out.append(warm)
            return np.array(out).tobytes()

        alone = [chain(BoxLeastSquares(a.T @ a), ys) for ys in streams]

        for capacity in (1, retarget.FACTOR_SETS):
            monkeypatch.setattr(retarget, "FACTOR_SETS", capacity)
            shared = BoxLeastSquares(a.T @ a)
            warms, outs = [None] * 4, [[] for _ in range(4)]
            for t in range(25):
                for k, ys in enumerate(streams):
                    warms[k] = shared.minimize(a.T @ ys[t], warms[k])[0]
                    outs[k].append(warms[k])
            assert [np.array(out).tobytes() for out in outs] == alone
            # Every interleaved solve misses with one cached set, none past
            # the streams' first few with the default.
            assert (shared._factor.cache_info().misses >= 100) == (capacity == 1)

            results = [None] * 4

            def worker(k):
                results[k] = chain(shared, streams[k])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert results == alone

    def test_factor_cache_is_bounded(self):
        # Cold solves of random targets meet far more working sets than the
        # cache keeps; it stays full at ``FACTOR_SETS``, least recently used
        # out first.
        rng = np.random.default_rng(31)
        a = rng.normal(0.0, 1.0, (20, 8))
        solver = BoxLeastSquares(a.T @ a)
        keys, cache = [], solver._factor

        def recorded(key):
            keys.append(key)
            return cache(key)

        solver._factor = recorded
        for _ in range(300):
            solver.minimize(a.T @ (a @ rng.uniform(-1.0, 2.0, 8)))
            assert cache.cache_info().currsize <= FACTOR_SETS
        assert len(set(keys)) > FACTOR_SETS
        assert cache.cache_info().currsize == FACTOR_SETS
        recent = list(dict.fromkeys(reversed(keys)))[:FACTOR_SETS]
        misses = cache.cache_info().misses
        for key in recent:
            cache(key)
        assert cache.cache_info().misses == misses

    def test_cached_factors_are_read_only(self):
        a = np.random.default_rng(32).normal(0.0, 1.0, (12, 5))
        solver = BoxLeastSquares(a.T @ a)
        for side in ([0, 0, 0, 0, 0], [1, 0, -1, 0, 0], [1, 1, 1, 1, 1]):
            free, inverse = solver._factor(np.array(side, dtype=np.int8).tobytes())
            for array in (free, inverse):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_cold_start_on_reference_rig_takes_at_most_five_iterations(self):
        # The tick's coefficient problem, cold-started on every filtered
        # model output of a reference stream.
        rig, config = build_reference_rig(seed=0)
        params = init_params(seed=0, window_size=8, hidden_size=64, style_count=4)
        motion = make_motion(60, rig.blendshape_count, 25.0, np.random.default_rng(0))
        logits = make_logits(motion, params.class_count, seed=0).frames
        stream = run_pipeline(PipelineConfig(), params, rig, config, logits).motion
        kin = _kinematics(config, rig)
        solver = kin.landmark_solver
        for theta in stream.frames:
            _, _, converged, iterations = solver.solve(*kin.coefficient_problem(theta))
            assert converged and iterations <= 5


class TestProjectToBasis:
    def test_interior_round_trip(self):
        rig = random_rig()
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta0 = rng.uniform(0.1, 0.9, rig.blendshape_count)
            target = apply_skinning(rig, theta0)
            result = project_to_basis(target, rig)
            assert result.converged
            np.testing.assert_allclose(result.coefficients.values, theta0, atol=1e-6)
            assert result.residual <= 1e-10

    def test_neutral_target_gives_zero(self):
        rig = random_rig(seed=2)
        result = project_to_basis(FaceMesh(rig.mesh.positions), rig)
        theta, residual = result
        assert not theta.values.any()
        assert residual == 0.0

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(0, 1, (60, 2))
        # Pull the optimum against the box so clipping is exercised.
        for true in ([0.4, 0.7], [1.3, -0.2], [0.0, 1.0]):
            y = matrix @ np.array(true) + rng.normal(0, 0.01, 60)
            x, _, converged, _ = solve_target(matrix, y)
            assert converged
            expected = grid_search(matrix, y)
            np.testing.assert_allclose(x, expected, atol=2e-3)

    def test_result_always_inside_box(self):
        rig = random_rig(seed=5)
        rng = np.random.default_rng(5)
        wild = FaceMesh(rig.mesh.positions + rng.normal(0, 50, 3 * rig.vertex_count))
        theta, residual = project_to_basis(wild, rig)
        assert theta.values.min() >= 0.0 and theta.values.max() <= 1.0
        assert residual > 0.0

    def test_iteration_cap_flags_unconverged(self, monkeypatch):
        rng = np.random.default_rng(6)
        # Nearly collinear columns, forced to quit after one iteration.
        base = rng.normal(0, 1, 40)
        matrix = np.column_stack([base, base + 1e-6 * rng.normal(0, 1, 40)])
        monkeypatch.setattr(retarget, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(retarget, "TOLERANCE", 1e-14)
        y = matrix @ np.array([0.5, 0.5])
        x, _, converged, iterations = solve_target(matrix, y)
        assert iterations == 1
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert not converged

    def test_vertex_count_mismatch_rejected(self):
        rig = random_rig(seed=7)
        with pytest.raises(ValueError, match="vertices"):
            project_to_basis(FaceMesh(np.zeros(3 * 7)), rig)

    def test_rank_deficient_basis_still_solves(self):
        rng = np.random.default_rng(8)
        col = rng.normal(0, 1, 50)
        matrix = np.column_stack([col, col, rng.normal(0, 1, 50)])
        y = matrix @ np.array([0.3, 0.3, 0.5])
        x, residual, converged, _ = solve_target(matrix, y)
        assert converged
        assert residual <= 1e-18


def test_solvers_take_no_stopping_rule_callback_or_vertex_set():
    # The stopping rule is MAX_ITERATIONS and TOLERANCE, and IK is solved
    # over the landmark union; no entry point takes a value to change either.
    for fn in (BoxLeastSquares.__init__, BoxLeastSquares.minimize,
               BoxLeastSquares.solve, project_to_basis, solve_ik):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"settings", "callback", "eval_vertices"}, fn
    assert not hasattr(roboface, "ProjectionSettings")
    assert "ProjectionSettings" not in roboface.__all__


def test_solver_keeps_a_read_only_copy_of_a_square_gram():
    gram = np.eye(3)
    solver = BoxLeastSquares(gram)
    gram[0, 0] = 5.0
    assert solver.gram[0, 0] == 1.0 and not solver.gram.flags.writeable
    assert not hasattr(solver, "matrix")
    for bad in (np.ones((3, 2)), np.ones(3), np.zeros((0, 0)), np.ones((1, 2, 2))):
        with pytest.raises(ValueError, match="square and non-empty"):
            BoxLeastSquares(bad)


class TestTransfer:
    def test_identical_order_is_bitwise_identity(self):
        rig = random_rig(seed=12)
        theta = BlendCoefficients(np.random.default_rng(12).uniform(0, 1, 8))
        out = transfer_coefficients(theta, rig, rig)
        assert out.values.tobytes() == theta.values.tobytes()

    def test_permutation_reorders(self):
        rig = random_rig(v=30, b=4, seed=13)
        perm = [2, 0, 3, 1]
        dest = LbsRig(
            rig.mesh,
            BlendshapeBasis(
                tuple(rig.basis.names[p] for p in perm),
                tuple(rig.basis.displacements[p] for p in perm),
            ),
            rig.mouth_mask,
            rig.landmark_groups,
        )
        theta = BlendCoefficients(np.array([0.1, 0.2, 0.3, 0.4]))
        out = transfer_coefficients(theta, rig, dest)
        np.testing.assert_array_equal(out.values, theta.values[perm])
        back = transfer_coefficients(out, dest, rig)
        np.testing.assert_array_equal(back.values, theta.values)

    def test_missing_name_reported(self):
        rig = random_rig(v=30, b=4, seed=14)
        dest = LbsRig(
            rig.mesh,
            BlendshapeBasis(
                rig.basis.names[:-1] + ("other",), rig.basis.displacements
            ),
            rig.mouth_mask,
            rig.landmark_groups,
        )
        with pytest.raises(ValueError, match=rig.basis.names[-1]):
            transfer_coefficients(BlendCoefficients.zeros(4), rig, dest)


class TestProjectSequence:
    def test_matches_per_frame_solves(self):
        rig = random_rig(v=60, b=5, seed=16)
        rng = np.random.default_rng(16)
        thetas = rng.uniform(0.1, 0.9, (6, 5))
        frames = np.stack([apply_skinning(rig, t).positions for t in thetas])
        seq, residuals = project_sequence(frames, 25.0, rig)
        assert seq.frame_count == 6
        np.testing.assert_allclose(seq.frames, thetas, atol=1e-6)
        assert residuals.max() <= 1e-10

    def test_equals_warm_started_per_frame_chain(self):
        # Noisy reference-rig clips on which restarting the warm-start chain
        # at a chunk edge changes the output bits, so a split chain shows.
        # 41 frames leave a partial last chunk.
        rig, _ = build_reference_rig(seed=0)
        for count in (48, 41):
            self.check_chain(rig, count)

    @staticmethod
    def check_chain(rig, count):
        rng = np.random.default_rng(1)
        tracks = make_motion(count, rig.blendshape_count, 25.0, rng).frames
        frames = tracks @ rig.basis.matrix + rig.mesh.positions
        frames += rng.normal(0.0, 0.05, frames.shape)
        solver = BoxLeastSquares(rig.gram)
        basis = rig.basis.matrix
        # The same normal-equation rows and residual rows, a chunk at a time,
        # through one unbroken warm-started chain of the iteration.
        chain, chain_residuals, warm = [], [], None
        for start in range(0, count, retarget.CHUNK_FRAMES):
            y = frames[start:start + retarget.CHUNK_FRAMES] - rig.mesh.positions
            rows = []
            for c in y @ basis.T:
                warm, _, _ = solver.minimize(c, warm)
                rows.append(warm)
            r = np.array(rows) @ basis - y
            chain += rows
            chain_residuals += list(np.einsum("ij,ij->i", r, r))
        per_frame, per_frame_residuals, warm = [], [], None
        for frame in frames:
            result = project_to_basis(FaceMesh(frame), rig, warm_start=warm)
            warm = result.coefficients.values
            per_frame.append(warm)
            per_frame_residuals.append(result.residual)
        for _ in range(2):
            seq, residuals = project_sequence(frames, 25.0, rig)
            assert seq.frames.tobytes() == np.array(chain).tobytes()
            assert residuals.tobytes() == np.array(chain_residuals).tobytes()
            # The products sum in another order than one solve per frame.
            assert np.abs(seq.frames - np.array(per_frame)).max() <= 1e-12
            np.testing.assert_allclose(residuals, per_frame_residuals, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frame_before_any_solve(self, bad, monkeypatch):
        rig = random_rig(v=60, b=5, seed=16)
        frames = np.tile(rig.mesh.positions, (40, 1))
        frames[19, 7] = bad
        frames[33, 0] = np.nan
        calls = []
        monkeypatch.setattr(
            BoxLeastSquares, "minimize", lambda *args: calls.append(args)
        )
        with pytest.raises(ValueError, match="frame 19 holds NaN or inf"):
            project_sequence(frames, 25.0, rig)
        assert calls == []

    def test_first_call_copies_no_basis(self):
        # The first call on a rig builds its (B, B) Gram, and the solver
        # keeps only that. A 16-frame chunk is 1.8 MB; a transposed copy of
        # the 5.9 MB basis would take the traced peak past 5 MB.
        rig, _ = build_reference_rig(seed=0)
        rng = np.random.default_rng(3)
        tracks = make_motion(16, rig.blendshape_count, 25.0, rng).frames
        frames = tracks @ rig.basis.matrix + rig.mesh.positions
        assert "gram" not in vars(rig)
        tracemalloc.start()
        try:
            project_sequence(frames, 25.0, rig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert "gram" in vars(rig)

    def test_memory_stays_a_few_chunks(self):
        # The 200-frame reference-rig clip is 23 MB and a chunk 1.8 MB: a
        # whole-clip temporary would take the traced peak far past 8 MB.
        rig, _ = build_reference_rig(seed=0)
        rng = np.random.default_rng(2)
        tracks = make_motion(200, rig.blendshape_count, 25.0, rng).frames
        frames = tracks @ rig.basis.matrix + rig.mesh.positions
        project_sequence(frames[:2], 25.0, rig)  # the rig's Gram, built once
        tracemalloc.start()
        try:
            seq, _ = project_sequence(frames, 25.0, rig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seq.frame_count == 200
        assert peak < 8e6
