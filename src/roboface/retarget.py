"""Blendshape coefficient extraction and transfer.

Dense human vertex motion becomes coefficient motion by projecting each
frame onto the rig's blendshape basis: a box-constrained linear least
squares problem

    minimize ||neutral + E theta - target||^2   s.t.  0 <= theta <= 1.

The solver is a projected-gradient method with exact line search for the
quadratic objective, plus an exact solve on the free (non-bound) subspace
each iteration to kill the slow zigzag pure projected gradient suffers on
ill-conditioned bases. Both step types are clipped at the box and accepted
only if the objective does not increase, so the iterate sequence is
monotone by construction; an iteration that accepts neither ends the
solve. The box is always [0, 1]. The B x B Gram matrix E^T E is computed
once per rig (U >> B makes that the dominant saving). When the target is
itself a linear image of coefficients, ``CoefficientBoxLeastSquares``
takes those coefficients as the right-hand side and never forms the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lbs import BlendCoefficients, FaceMesh, LbsRig, MotionSequence


@dataclass(frozen=True)
class ProjectionSettings:
    """Stopping rule for the least-squares solver; the box is always [0, 1]."""

    max_iterations: int = 500
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class ProjectionResult:
    """Solver output; iterable as (coefficients, residual) for convenience."""

    coefficients: BlendCoefficients
    residual: float
    converged: bool
    iterations: int

    def __iter__(self):
        return iter((self.coefficients, self.residual))


class BoxLeastSquares:
    """min ||A x - y||^2 over the box [0, 1]^n, reusable across y.

    Construction precomputes A^T A; ``solve`` then runs in O(n^2) per
    iteration regardless of A's row count. The objective is expanded as
    x^T (A^T A) x - 2 c^T x + const; ``_normal_equations`` derives the pair
    (c, const) from the right-hand side and ``_residual`` reports the final
    ||A x - y||^2, so a subclass can take the right-hand side in another
    form (see ``CoefficientBoxLeastSquares``) and reuse the iteration.
    """

    def __init__(self, matrix: np.ndarray, settings: ProjectionSettings | None = None):
        a = np.ascontiguousarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("matrix must be 2-D and non-empty")
        self.matrix = a
        self.gram = a.T @ a
        self.settings = settings or ProjectionSettings()

    def _objective(self, x, c, const):
        return float(x @ (self.gram @ x) - 2.0 * (c @ x) + const)

    def _normal_equations(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        if y.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"right-hand side has shape {y.shape}, "
                f"matrix has {self.matrix.shape[0]} rows"
            )
        return self.matrix.T @ y, float(y @ y)

    def _residual(self, x: np.ndarray, y: np.ndarray, objective: float) -> float:
        r = self.matrix @ x - y
        return float(r @ r)

    def solve(self, y: np.ndarray, x0: np.ndarray | None = None, callback=None):
        """Returns (x, residual, converged, iterations).

        ``x0`` warm-starts the iteration (clipped into the box). ``callback``
        receives (iteration, objective) after every iteration. Convergence
        is an infinity-norm test on the projected gradient. When neither
        step lowers the objective (the numerical floor) or the iteration
        cap is hit, the best iterate is returned with converged=False.
        """
        s = self.settings
        g_mat = self.gram
        y = np.asarray(y, dtype=np.float64)
        c, const = self._normal_equations(y)
        n = g_mat.shape[0]

        x = np.zeros(n) if x0 is None else np.clip(np.asarray(x0, float), 0.0, 1.0)
        f = self._objective(x, c, const)
        converged = False
        iterations = 0

        for iterations in range(1, s.max_iterations + 1):
            grad = 2.0 * (g_mat @ x - c)
            pg = np.where(_blocked(x, grad), 0.0, grad)
            if np.abs(pg).max(initial=0.0) <= s.tolerance:
                converged = True
                break

            moved = False

            # Projected-gradient step, exact line search clipped at the box.
            d = -pg
            curv = d @ (g_mat @ d)
            if curv > 0:
                alpha = min((pg @ pg) / (2.0 * curv), _step_to_box(x, d))
                cand = np.clip(x + alpha * d, 0.0, 1.0)
                f_cand = self._objective(cand, c, const)
                if f_cand <= f:
                    x, f = cand, f_cand
                    moved = True

            # Exact solve on the free subspace, step clipped at the box.
            free = ~_blocked(x, 2.0 * (g_mat @ x - c))
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
                    beta = min(1.0, _step_to_box(x[idx], delta))
                    cand = x.copy()
                    cand[idx] = np.clip(x[idx] + beta * delta, 0.0, 1.0)
                    f_cand = self._objective(cand, c, const)
                    if f_cand <= f:
                        x, f = cand, f_cand
                        moved = True

            if callback is not None:
                callback(iterations, f)
            if not moved:
                break

        return x, self._residual(x, y, f), converged, iterations


def _blocked(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinates held at a bound by a gradient that points out of the box."""
    return ((x <= 0.0) & (grad > 0)) | ((x >= 1.0) & (grad < 0))


def _step_to_box(x: np.ndarray, d: np.ndarray) -> float:
    """Largest t with x + t d still in [0, 1]^n (inf when d is all zero)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi = np.where(d > 0, (1.0 - x) / d, np.inf)
        to_lo = np.where(d < 0, (0.0 - x) / d, np.inf)
    return float(np.minimum(to_hi, to_lo).min())


class CoefficientBoxLeastSquares(BoxLeastSquares):
    """The same box problem with y = theta @ basis, solved from theta alone.

    ``basis`` is (B, rows) over the rows of the landmark solver's matrix A.
    Precomputing M = basis @ A (B x n) and basis @ basis^T (B x B) gives
    c = theta M and ||y||^2 = theta^T (basis basis^T) theta, so the
    rows-long target y is never formed. The residual is the final objective
    itself, clamped at 0 against rounding. ``matrix``, ``gram`` and
    ``settings`` are the landmark solver's own objects.
    """

    def __init__(self, landmark_solver: BoxLeastSquares, basis: np.ndarray):
        basis = np.ascontiguousarray(basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] != landmark_solver.matrix.shape[0]:
            raise ValueError(
                f"basis has shape {basis.shape}, solver matrix has "
                f"{landmark_solver.matrix.shape[0]} rows"
            )
        self.matrix = landmark_solver.matrix
        self.gram = landmark_solver.gram
        self.settings = landmark_solver.settings
        self.basis_matrix = basis @ self.matrix
        self.basis_gram = basis @ basis.T

    def _normal_equations(self, theta: np.ndarray) -> tuple[np.ndarray, float]:
        if theta.shape != (self.basis_gram.shape[0],):
            raise ValueError(
                f"coefficient vector has shape {theta.shape}, basis has "
                f"{self.basis_gram.shape[0]} blendshapes"
            )
        return theta @ self.basis_matrix, float(theta @ (self.basis_gram @ theta))

    def _residual(self, x: np.ndarray, theta: np.ndarray, objective: float) -> float:
        return max(objective, 0.0)


def project_to_basis(
    target: FaceMesh,
    rig: LbsRig,
    settings: ProjectionSettings | None = None,
    warm_start: np.ndarray | None = None,
    callback=None,
) -> ProjectionResult:
    """Coefficients whose skinned pose best matches ``target`` (box [0,1])."""
    if target.vertex_count != rig.vertex_count:
        raise ValueError(
            f"target has {target.vertex_count} vertices, rig has {rig.vertex_count}"
        )
    solver = _rig_solver(rig, settings)
    x, residual, converged, iters = solver.solve(
        target.positions - rig.mesh.positions, x0=warm_start, callback=callback
    )
    return ProjectionResult(BlendCoefficients(x), residual, converged, iters)


def _rig_solver(rig: LbsRig, settings: ProjectionSettings | None) -> BoxLeastSquares:
    """Per-rig solver cache keyed on the settings, Gram matrix built once."""
    settings = settings or ProjectionSettings()
    cache = getattr(rig, "_solver_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(rig, "_solver_cache", cache)
    solver = cache.get(settings)
    if solver is None:
        solver = BoxLeastSquares(rig.basis.matrix.T, settings)
        cache[settings] = solver
    return solver


def project_sequence(
    frames: np.ndarray,
    fps: float,
    rig: LbsRig,
    settings: ProjectionSettings | None = None,
) -> tuple[MotionSequence, np.ndarray]:
    """Project every dense frame (T, 3V) onto the rig basis.

    One sequential chain: each solve warm-starts from the previous frame's
    solution, so the result is ``project_to_basis`` run frame by frame and
    does not depend on the machine. Returns the coefficient motion and the
    per-frame residuals (mm^2).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != 3 * rig.vertex_count:
        raise ValueError("frames must be (T, 3V) matching the rig")
    solver = _rig_solver(rig, settings)
    neutral = rig.mesh.positions
    coeffs = np.empty((frames.shape[0], rig.blendshape_count))
    residuals = np.empty(frames.shape[0])
    warm = None
    for t, frame in enumerate(frames):
        warm, residuals[t], _, _ = solver.solve(frame - neutral, x0=warm)
        coeffs[t] = warm
    return MotionSequence(fps, coeffs), residuals


def transfer_order(source_rig: LbsRig, dest_rig: LbsRig) -> np.ndarray:
    """Indices taking a source-rig coefficient vector to destination order.

    ``theta[order]`` is the same pose on ``dest_rig``. Rigs must carry the
    same blendshape names, in any order.
    """
    src_names = source_rig.basis.names
    dst_names = dest_rig.basis.names
    if src_names == dst_names:
        return np.arange(len(src_names))
    missing = sorted(set(src_names) - set(dst_names))
    extra = sorted(set(dst_names) - set(src_names))
    if missing or extra:
        raise ValueError(
            "rigs are not name-aligned: "
            f"destination missing {missing}, destination extra {extra}"
        )
    src_index = {name: i for i, name in enumerate(src_names)}
    return np.array([src_index[name] for name in dst_names])


def transfer_coefficients(
    theta: BlendCoefficients, source_rig: LbsRig, dest_rig: LbsRig
) -> BlendCoefficients:
    """Move a pose between semantically aligned rigs by blendshape name."""
    if len(theta) != source_rig.blendshape_count:
        raise ValueError(
            f"pose has {len(theta)} coefficients, source rig has "
            f"{source_rig.blendshape_count}"
        )
    return BlendCoefficients(theta.values[transfer_order(source_rig, dest_rig)])
