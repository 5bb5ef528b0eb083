"""Blendshape coefficient extraction and transfer.

Dense human vertex motion becomes coefficient motion by projecting each
frame onto the rig's blendshape basis: a box-constrained linear least
squares problem

    minimize ||neutral + E theta - target||^2   s.t.  0 <= theta <= 1.

The solver is a primal active-set method over the box [0, 1], warm-started
from the previous solution (the online active-set strategy of Ferreau,
Bock and Diehl, 2008). For a fixed working set, meaning which coordinates
sit at 0, which at 1 and which are free, the optimum is an affine function
of the right-hand side (Bemporad et al., 2002), reached by one Newton step
on the free coordinates. A step that would leave the box stops at its edge
and binds the blocking coordinate; a full step is followed by releasing the
bound whose gradient points most into the box. On a smooth stream the
working set rarely changes, so a solve is one step from a cached inverse.
``BoxLeastSquares`` holds only the B x B Gram E^T E, which the rig builds
once (``LbsRig.gram``; U >> B) and training shares, and takes each problem
as its normal equations, so a caller whose target is a linear image of
coefficients (``rigsim.Kinematics``) forms them from the coefficients and
never forms the target. Every solve stops by one rule: ``MAX_ITERATIONS``
iterations at most and gradients within ``TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lbs import BlendCoefficients, FaceMesh, LbsRig, MotionSequence
from .util import frozen_array


# Stopping rule of every solve; the box is always [0, 1].
MAX_ITERATIONS = 500
TOLERANCE = 1e-8

# Frames ``project_sequence`` and ``rigsim.evaluate_tracking`` take per
# matrix-matrix product; the extra memory is a few (CHUNK_FRAMES, rows)
# arrays.
CHUNK_FRAMES = 16


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
    """min ||A x - y||^2 over the box [0, 1]^n, reusable across problems.

    Construction copies the Gram A^T A. A problem is given by its normal
    equations: the objective is x^T (A^T A) x - 2 c^T x + const with
    c = A^T y and const = y^T y, and the caller forms the pair in whatever
    way suits its target (a rig coefficient vector, a chunk of frames as
    one matrix-matrix product). ``minimize`` runs the active-set iteration
    on c alone, in O(n^2) per iteration regardless of A's row count, plus
    one O(n^3) inverse each time the working set differs from the
    previous iteration's (the inverse of the last working set is kept).
    ``solve`` is ``minimize`` plus the objective at the solution. Every
    solve stops by the module's rule, ``MAX_ITERATIONS`` and ``TOLERANCE``.
    """

    def __init__(self, gram: np.ndarray):
        g = frozen_array(gram)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
            raise ValueError(f"Gram must be square and non-empty, got shape {g.shape}")
        self.gram = g

    # (working-set key, ``_factor`` result) of the last working set solved.
    _cached: tuple | None = None

    def solve(self, c: np.ndarray, const: float, x0: np.ndarray | None = None):
        """Returns (x, residual, converged, iterations): ``minimize`` from
        ``x0``, and the residual ||A x - y||^2 as the objective at x,
        clamped at 0 against rounding."""
        x, converged, iterations = self.minimize(c, x0)
        residual = float(x @ (self.gram @ x) - 2.0 * (c @ x) + const)
        return x, max(residual, 0.0), converged, iterations

    def minimize(self, c: np.ndarray, x0: np.ndarray | None = None):
        """The active-set iteration on x^T (A^T A) x - 2 c^T x; returns
        (x, converged, iterations).

        ``x0`` warm-starts the working set: clipped into the box, each
        coordinate at 0 or 1 starts bound there and the rest start free.
        Without ``x0`` the start is the unconstrained minimiser clipped into
        the box. Converged means every bound gradient points out of the box
        and every free gradient is zero, to within ``TOLERANCE``. When every
        bound holds but a free gradient exceeds the tolerance, the Newton
        step is repeated while that gradient shrinks; when it stops
        shrinking (the numerical floor) or ``MAX_ITERATIONS`` is hit, x is
        returned with converged=False.
        """
        g_mat = self.gram
        n = c.size

        if x0 is None:
            _, inverse = self._factor(np.zeros(n, dtype=np.int8))
            x = np.clip(inverse @ c, 0.0, 1.0)
        else:
            x = np.clip(np.asarray(x0, dtype=np.float64), 0.0, 1.0)
        # Working set: -1 held at 0, +1 held at 1, 0 free.
        side = (x >= 1.0).astype(np.int8) - (x <= 0.0)
        grad = 2.0 * (g_mat @ x - c)
        converged = False
        iterations = 0
        floor = np.inf

        for iterations in range(1, MAX_ITERATIONS + 1):
            free, inverse = self._factor(side)
            changed = False
            if free.size:
                # Newton step to the minimiser over the free coordinates.
                x_free = x[free]
                d = inverse @ grad[free] * -0.5
                target = x_free + d
                if 0.0 <= target.min() and target.max() <= 1.0:
                    x[free] = target
                else:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        to_edge = np.where(
                            d > 0,
                            (1.0 - x_free) / d,
                            np.where(d < 0, -x_free / d, np.inf),
                        )
                    alpha = min(1.0, float(to_edge.min()))
                    # Stop at the box edge; the blocking coordinates bind.
                    x[free] = np.clip(x_free + alpha * d, 0.0, 1.0)
                    blocking = to_edge <= alpha
                    up = free[blocking & (d > 0)]
                    down = free[blocking & (d < 0)]
                    x[up] = 1.0
                    x[down] = 0.0
                    side[up] = 1
                    side[down] = -1
                    changed = bool(blocking.any())
                grad = 2.0 * (g_mat @ x - c)
            if not changed:
                # Release the bound whose gradient points most into the box.
                wrong = side * grad
                worst = int(wrong.argmax())
                changed = wrong[worst] > TOLERANCE
                if changed:
                    side[worst] = 0
            if changed:
                floor = np.inf
                continue
            # Every bound holds. A free gradient left by an inaccurate G_FF^-1
            # shrinks with each repeated Newton step, down to rounding.
            free_grad = np.abs(grad[free]).max(initial=0.0)
            converged = free_grad <= TOLERANCE
            if converged or free_grad >= floor:
                break
            floor = free_grad

        return x, bool(converged), iterations

    def _factor(self, side: np.ndarray) -> tuple:
        """(free, G_FF^-1) for the working set ``side``.

        G_FF^-1 is the pseudo-inverse when G_FF is singular to working
        precision (condition number past 1 / (n eps), the cut-off of
        ``np.linalg.lstsq``). Only the last working set is kept: the solves
        of one stream mostly share it. ``minimize`` runs the same operations
        on the same arrays on a hit as on a miss, so its output does not
        depend on the cache.
        """
        key = side.tobytes()
        cached = self._cached
        if cached is not None and cached[0] == key:
            return cached[1]
        free = np.flatnonzero(side == 0)
        sub = self.gram[np.ix_(free, free)]
        try:
            inverse = np.linalg.inv(sub)
            cond = np.linalg.norm(sub, 1) * np.linalg.norm(inverse, 1)
            # Written so that a NaN condition number counts as singular.
            singular = not cond * free.size * np.finfo(float).eps < 1.0
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            inverse = np.linalg.pinv(sub)
        factor = (free, inverse)
        self._cached = (key, factor)
        return factor


def project_to_basis(
    target: FaceMesh,
    rig: LbsRig,
    warm_start: np.ndarray | None = None,
) -> ProjectionResult:
    """Coefficients whose skinned pose best matches ``target`` (box [0,1])."""
    if target.vertex_count != rig.vertex_count:
        raise ValueError(
            f"target has {target.vertex_count} vertices, rig has {rig.vertex_count}"
        )
    basis = rig.basis.matrix
    y = target.positions - rig.mesh.positions
    x, converged, iters = BoxLeastSquares(rig.gram).minimize(basis @ y, warm_start)
    r = x @ basis - y
    return ProjectionResult(BlendCoefficients(x), float(r @ r), converged, iters)


def project_sequence(
    frames: np.ndarray,
    fps: float,
    rig: LbsRig,
) -> tuple[MotionSequence, np.ndarray]:
    """Project every dense frame (T, 3V) onto the rig basis.

    One sequential chain: each solve warm-starts from the previous frame's
    solution, so the result does not depend on the machine. Frames go
    ``CHUNK_FRAMES`` at a time: over the (B, 3V) basis E, a chunk's normal
    equations Y E^T and residual rows X E - Y are one matrix-matrix product
    each, and its rows run the active-set iteration in order. The result equals
    ``project_to_basis`` run frame by frame to rounding (the products sum
    in another order), and the extra memory is a few chunks whatever the
    clip length. A NaN or inf frame is rejected before any solve. Returns
    the coefficient motion and the per-frame residuals (mm^2).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != 3 * rig.vertex_count:
        raise ValueError("frames must be (T, 3V) matching the rig")
    count = frames.shape[0]
    for start in range(0, count, CHUNK_FRAMES):
        finite = np.isfinite(frames[start:start + CHUNK_FRAMES]).all(axis=1)
        if not finite.all():
            raise ValueError(f"frame {start + int(finite.argmin())} holds NaN or inf")
    solver = BoxLeastSquares(rig.gram)
    basis = rig.basis.matrix
    neutral = rig.mesh.positions
    coeffs = np.empty((count, rig.blendshape_count))
    residuals = np.empty(count)
    warm = None
    for start in range(0, count, CHUNK_FRAMES):
        y = frames[start:start + CHUNK_FRAMES] - neutral
        x = coeffs[start:start + len(y)]
        for i, c in enumerate(y @ basis.T):
            warm, _, _ = solver.minimize(c, warm)
            x[i] = warm
        r = x @ basis
        r -= y
        residuals[start:start + len(y)] = np.einsum("ij,ij->i", r, r)
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
