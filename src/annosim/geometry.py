"""Multi-view pinhole geometry.

Projection, homogeneous DLT triangulation, and exhaustive-pair robust
triangulation with refit on inliers.

All 3D coordinates are millimeters in a shared world frame; image
coordinates are pixels. The robust triangulation of many keypoints is
backed by batched kernels, so that a whole frame, or a whole pool of
frames, is solved at once. The bulk of the work, the 4x4 two-view
systems of the view pairs, is solved by one-sided (Hestenes) Jacobi: a
few dozen whole-array operations on thousands of systems, instead of one
LAPACK SVD per system. The refit on the winning pair's inliers,
triangulate_dlt and every other solve use SVD. The pairs are solved in
stages: a keypoint that one pair already explains in every view leaves
after that stage, because its result is then the all-view refit
whichever pair would win. The rest go through every pair.

Pair hypotheses reach the result only through decisions: which systems
have a clean null space, which views are inliers, which keypoints settle
early and which pair wins. Every such decision that the Jacobi output
puts within a narrow margin of its boundary (_CERTIFY_MARGIN) sends the
keypoint back through the same stages with SVD, and so does every
keypoint whose result would be a pair's own point. Results are therefore
bit-identical to solving every pair of every keypoint with SVD.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DegenerateProjection,
    DimensionMismatch,
    IllConditioned,
    InsufficientViews,
    InvariantViolation,
    NoConsensus,
)

# Homogeneous depth below this is treated as degenerate.
_W_EPS = 1e-9
# If the two smallest singular values of a DLT system are this close, the
# null space is not one-dimensional and the solution is meaningless.
_NULLSPACE_RATIO = 0.99
_ORTHO_TOL = 1e-9
# Pair indices at which robust triangulation checks for keypoints that one
# pair already explains in every view (see _robust_triangulate_batch).
_STAGE_CUTS = (1, 4)
# The Jacobi kernel for pair systems (_jacobi_nullspace): cyclic sweeps over
# the six row pairs, on chunks of systems small enough to stay in cache.
_JACOBI_SWEEPS = 5
_JACOBI_CHUNK = 4096
# A system has converged when no rotation of its last sweep is larger than
# this: |gamma| <= tol * sqrt(alpha * beta) for every row pair, or
# |gamma| <= _JACOBI_FLOOR * max(alpha, beta) when one row of the pair is
# numerically zero and its direction is rounding noise.
_JACOBI_TOL = 1e-8
_JACOBI_FLOOR = 1e-15
# Relative half-width of the band around a decision boundary inside which
# the Jacobi output is not trusted and the keypoint is solved with SVD:
# |s1 - _NULLSPACE_RATIO*s2| against s_max, |d2 - t^2| and the gap between
# rival mean errors against t^2. The band comes from measurement, not from
# an error bound: over the 4.2 M and 3.1 M pair residuals within 100 t^2 of
# the benchmark's rand-st and coreset-outlier campaigns (seed 0), Jacobi
# residuals (projected by one matrix product) and SVD residuals differed
# by at most 2.06e-9 t^2 and 1.57e-9 t^2.
_CERTIFY_MARGIN = 1e-6
# Keypoints per triangulate_frames batch (see there).
_TRIANGULATE_BATCH = 1024

# The mc_error forms of the frame residual that aggregate_epsilon computes.
MC_ERROR_MODES = ("squared", "euclidean")

# Default penalty charged per (view, keypoint) when a keypoint fails to
# triangulate: squared diagonal of a 1000x1000 px image. Callers with a
# different image size pass their own value.
DEFAULT_FAILURE_PENALTY_PX2 = 2.0e6


@dataclass
class CameraParams:
    """One calibrated pinhole camera: x ~ intrinsics @ [rotation | translation] @ X.

    rotation maps world to camera coordinates; translation is in mm. The
    3x4 projection matrix is precomputed once at construction.
    """

    id: int
    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    projection: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.intrinsics = np.asarray(self.intrinsics, dtype=float)
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        k, r = self.intrinsics, self.rotation
        if k.shape != (3, 3) or r.shape != (3, 3):
            raise DimensionMismatch(
                f"camera {self.id}: intrinsics and rotation must be 3x3"
            )
        if not np.all(np.isfinite(k)) or not np.all(np.isfinite(r)) or not np.all(
            np.isfinite(self.translation)
        ):
            raise InvariantViolation(f"camera {self.id}: non-finite parameters")
        if np.any(np.abs(k[np.tril_indices(3, -1)]) > 0):
            raise InvariantViolation(
                f"camera {self.id}: intrinsics must be upper triangular"
            )
        if np.any(np.diag(k) <= 0):
            raise InvariantViolation(
                f"camera {self.id}: intrinsics diagonal must be positive"
            )
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHO_TOL):
            raise InvariantViolation(f"camera {self.id}: rotation not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise InvariantViolation(f"camera {self.id}: rotation determinant not +1")
        self.projection = k @ np.hstack([r, self.translation[:, None]])

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates (mm)."""
        return -self.rotation.T @ self.translation


def project(camera: CameraParams, point: np.ndarray) -> np.ndarray:
    """Project one world point (3,) to pixel coordinates (2,)."""
    p = np.asarray(point, dtype=float).reshape(3)
    x = camera.projection @ np.append(p, 1.0)
    if abs(x[2]) <= _W_EPS:
        raise DegenerateProjection(
            f"camera {camera.id}: point {p} has homogeneous depth {x[2]:.3e}"
        )
    return x[:2] / x[2]


def project_many(projections: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Project points (..., 3) through stacked matrices (V, 3, 4) -> (V, ..., 2).

    Degenerate rows (|depth| <= 1e-9) come back as +inf so callers can mask
    them; points behind a camera still get their algebraic projection.
    """
    pts = np.asarray(points, dtype=float)
    ph = np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1)
    x = np.einsum("vij,...j->v...i", projections, ph)
    w = x[..., 2]
    bad = np.abs(w) <= _W_EPS
    safe_w = np.where(bad, 1.0, w)
    uv = x[..., :2] / safe_w[..., None]
    uv[bad] = np.inf
    return uv


@dataclass
class KeypointTriangulation:
    """Robust triangulation result for one keypoint across N views."""

    point: np.ndarray  # (3,), mm
    inlier_mask: np.ndarray  # (N,), bool, at least two True
    reproj_error_px2: float  # mean squared pixel error over inlier views


@dataclass
class FrameTriangulation:
    """The robust triangulation of a stack of F frames of K keypoints.

    points (F, K, 3), inlier_mask (F, K, N), reproj_error_px2 (F, K),
    epsilon (F,) and inlier_count (F,) are read-only arrays. A keypoint
    with no consensus has a NaN point, no inlier view and an infinite
    error. A frame's epsilon is the mean reprojection residual over every
    (view, keypoint) pair, outlier views included, with failed keypoints
    charged the failure penalty. Its inlier_count is the minimum across
    keypoints of the number of inlier views (failed keypoints count as
    zero).

    Iterating yields one-frame stacks, and per_keypoint lists the stack's
    keypoints as objects. Both remain only for the benchmark tracer, which
    counts keypoints through them, and for robust_triangulate; the
    campaign indexes the arrays by frame row.
    """

    points: np.ndarray
    inlier_mask: np.ndarray
    reproj_error_px2: np.ndarray
    epsilon: np.ndarray
    inlier_count: np.ndarray

    def __iter__(self):
        """One-frame stacks, in frame order."""
        arrays = [getattr(self, f.name) for f in fields(self)]
        for row in range(len(self.epsilon)):
            yield FrameTriangulation(*(array[row : row + 1] for array in arrays))

    @property
    def per_keypoint(self) -> list:
        """One KeypointTriangulation per keypoint in (frame, keypoint)
        order, None for a keypoint with no consensus; built afresh on
        every read."""
        masks = self.inlier_mask.reshape(-1, self.inlier_mask.shape[-1])
        errors = self.reproj_error_px2.reshape(-1)
        return [
            KeypointTriangulation(point, mask, float(err)) if mask.any() else None
            for point, mask, err in zip(self.points.reshape(-1, 3), masks, errors)
        ]


def _dlt_rows(projections: np.ndarray, points: np.ndarray) -> np.ndarray:
    """DLT constraint rows u*P3-P1, v*P3-P2 for each view: (B, N, 2, 4)."""
    u = points[..., 0:1]
    v = points[..., 1:2]
    p0, p1, p2 = projections[:, 0], projections[:, 1], projections[:, 2]
    return np.stack([u * p2 - p0, v * p2 - p1], axis=-2)


def _solve_nullspace(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest right singular vectors of stacked systems (..., M, 4).

    Returns (solutions (..., 4) scaled to w=1, ok (...,)) where ok is False
    when the two smallest singular values are too close (no clean null
    direction) or the homogeneous coordinate vanishes. Scaling to w=1
    removes the null vector's sign ambiguity so depth signs are meaningful
    downstream; rows with ok=False keep the raw unit vector.
    """
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return _dehomogenize(vt[..., -1, :], s[..., -1], s[..., -2])


def _dehomogenize(x, s1, s2):
    """Null vectors x (..., 4) with their two smallest singular values:
    (x scaled to w=1, ok), as _solve_nullspace returns them."""
    ok = (s2 > 0) & (s1 <= _NULLSPACE_RATIO * s2)
    w = x[..., 3]
    ok &= np.abs(w) > _W_EPS * np.linalg.norm(x, axis=-1)
    safe_w = np.where(np.abs(w) > _W_EPS, w, 1.0)
    return x / safe_w[..., None], ok


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of stacked 4-vectors (..., 4, m) -> (..., m).

    Summed in one fixed order, so that a system's result does not depend
    on how many systems share the batch (a reduction may reorder it).
    """
    ab = a * b
    return ab[..., 0, :] + ab[..., 1, :] + ab[..., 2, :] + ab[..., 3, :]


def _cross4(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """A vector orthogonal to a, b and c, each (4, m): (4, m) cofactors."""
    m01 = a[0] * b[1] - a[1] * b[0]
    m02 = a[0] * b[2] - a[2] * b[0]
    m03 = a[0] * b[3] - a[3] * b[0]
    m12 = a[1] * b[2] - a[2] * b[1]
    m13 = a[1] * b[3] - a[3] * b[1]
    m23 = a[2] * b[3] - a[3] * b[2]
    return np.stack([
        c[1] * m23 - c[2] * m13 + c[3] * m12,
        c[2] * m03 - c[0] * m23 - c[3] * m02,
        c[0] * m13 - c[1] * m03 + c[3] * m01,
        c[1] * m02 - c[0] * m12 - c[2] * m01,
    ])


def _jacobi_chunk(a: np.ndarray) -> tuple:
    """One-sided Jacobi SVD of m systems (m, 4, 4), rotating their rows.

    A plane rotation of two rows keeps a system's singular values and
    right singular vectors. Sweeps of such rotations (one-sided Jacobi on
    the transposed system) make the rows orthogonal, so that each row is
    a right singular vector times its singular value. The null vector is
    then the cross product of the three largest rows: the smallest row
    may be rounding noise, but the others span its orthogonal complement
    accurately, and no product of the rotations has to be kept.

    The systems are stored row by row, w[r] being row r of every system
    as (4, m). Each step rotates two disjoint row pairs at once, cycling
    through (0,2),(1,3) | (0,1),(2,3) | (0,3),(1,2): on the DLT pair systems
    of whole campaigns, starting with pairs across the two views converges
    within _JACOBI_SWEEPS, where starting with the two rows of one view
    leaves about 0.2% of the systems unconverged. Returns the unit null
    vectors (m, 4), the singular values (3, m) in the order smallest,
    second smallest, largest, and whether the last sweep converged (m,).
    """
    m = a.shape[0]
    w = a.transpose(1, 2, 0).copy()
    # Scaling each system by a power of two is exact, and it keeps alpha,
    # beta and gamma clear of overflow and of underflow.
    _, exponent = np.frexp(np.abs(w).max(axis=(0, 1)))
    np.ldexp(w, -exponent, out=w)
    steps = (
        (slice(0, 2), slice(2, 4)),
        (slice(0, 4, 2), slice(1, 4, 2)),
        (slice(0, 2), slice(3, 1, -1)),
    )
    converged = np.ones(m, dtype=bool)
    for sweep in range(_JACOBI_SWEEPS):
        # The squared row norms are summed afresh once per sweep and carried
        # through its steps by the rotation's exact update (de Rijk 1989):
        # t * gamma moves from row p to row q. Carrying them over all sweeps
        # loses the small rows to cancellation.
        norm2 = _dot_rows(w, w)
        for rows_p, rows_q in steps:
            p, q = w[rows_p], w[rows_q]
            alpha, beta = norm2[rows_p], norm2[rows_q]
            gamma = _dot_rows(p, q)
            if sweep == _JACOBI_SWEEPS - 1:
                # NaN reads as not converged.
                bound = np.maximum(
                    _JACOBI_TOL * np.sqrt(alpha) * np.sqrt(beta),
                    _JACOBI_FLOOR * np.maximum(alpha, beta),
                )
                converged &= (np.abs(gamma) <= bound).all(axis=0)
            # t is the smaller root of t^2 + 2 zeta t - 1 = 0 with
            # zeta = (beta - alpha) / (2 gamma), in a form that gives t = 0
            # for gamma = 0; den is 0 only where gamma is 0 and alpha = beta.
            d = beta - alpha
            g2 = 2.0 * gamma
            den = d + np.copysign(np.sqrt(d * d + g2 * g2), d)
            den[den == 0] = 1.0
            t = g2 / den
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (c * t)[:, None]
            c = c[:, None]
            sp = s * p
            p *= c
            p -= s * q
            q *= c
            q += sp
            tg = t * gamma
            alpha -= tg
            beta += tg
    norm2 = _dot_rows(w, w)
    # Rows whose norms tie exactly keep their index order, whatever sort
    # numpy picks for this machine.
    order = np.argsort(norm2, axis=0, kind="stable")
    sv = np.ldexp(np.sqrt(np.take_along_axis(norm2, order[[0, 1, 3]], axis=0)), exponent)
    x = _cross4(*np.take_along_axis(w, order[1:, None, :], axis=0))
    x /= np.sqrt(_dot_rows(x, x))
    return x.T, sv, converged


def _jacobi_nullspace(a: np.ndarray) -> tuple:
    """_solve_nullspace for stacked 4x4 systems (..., 4, 4), by Jacobi.

    Returns (solutions, ok, sure): solutions and ok as _solve_nullspace
    gives them, and sure (...), False where ok is not certain to match
    SVD's: the last sweep had not converged, the smallest singular value
    lies within _CERTIFY_MARGIN * s_max of _NULLSPACE_RATIO times the
    second, or a clean null space has w within _W_EPS of its cutoff.
    """
    flat = a.reshape(-1, 4, 4)
    n = flat.shape[0]
    x = np.empty((n, 4))
    sv = np.empty((3, n))
    converged = np.empty(n, dtype=bool)
    # Non-finite systems turn to NaN and come out not sure.
    with np.errstate(invalid="ignore"):
        for start in range(0, n, _JACOBI_CHUNK):
            part = slice(start, start + _JACOBI_CHUNK)
            x[part], sv[:, part], converged[part] = _jacobi_chunk(flat[part])
    s1, s2, s_max = sv
    solutions, ok = _dehomogenize(x, s1, s2)
    gap = s1 - _NULLSPACE_RATIO * s2
    sure = converged & (np.abs(gap) > _CERTIFY_MARGIN * s_max)
    sure &= (gap > 0) | (np.abs(x[:, 3]) > 2.0 * _W_EPS * np.linalg.norm(x, axis=-1))
    shape = a.shape[:-2]
    return solutions.reshape(*shape, 4), ok.reshape(shape), sure.reshape(shape)


def triangulate_dlt(observations) -> np.ndarray:
    """Homogeneous DLT from a sequence of (CameraParams, (u, v)) pairs.

    Stacks two constraint rows per view and returns the smallest right
    singular vector, dehomogenized. Raises InsufficientViews for fewer than
    two observations and IllConditioned when the null space is ambiguous.
    """
    if len(observations) < 2:
        raise InsufficientViews(
            f"triangulation needs at least 2 views, got {len(observations)}"
        )
    projections = np.stack([cam.projection for cam, _ in observations])
    points = np.asarray([uv for _, uv in observations], dtype=float)
    if points.shape != (len(observations), 2):
        raise DimensionMismatch("each observation must be a 2-vector")
    rows = _dlt_rows(projections, points[None, :, :])[0].reshape(-1, 4)
    x, ok = _solve_nullspace(rows)
    if not ok:
        raise IllConditioned("DLT system has no one-dimensional null space")
    return x[:3] / x[3]


def _reproj_dist2(
    projections: np.ndarray, xh: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Squared pixel distance from each view's observation to the reprojection.

    xh: homogeneous points (..., 4); points: (..., N, 2) observations with
    leading dims broadcast against xh's. Views where the point is at or
    behind the camera get +inf (not observable, never an inlier).
    """
    return _image_dist2(np.einsum("nij,...j->...ni", projections, xh), points)


def _image_dist2(x: np.ndarray, points: np.ndarray) -> np.ndarray:
    """_reproj_dist2 from the projected homogeneous points x (..., N, 3)."""
    w = x[..., 2]
    bad = w <= _W_EPS
    safe_w = np.where(bad, 1.0, w)
    du = x[..., 0] / safe_w - points[..., 0]
    dv = x[..., 1] / safe_w - points[..., 1]
    d2 = du * du + dv * dv
    d2[bad] = np.inf
    return d2


@dataclass
class _BatchTriangulation:
    """Vectorized robust triangulation of B independent keypoints.

    Shared by the single-keypoint and the whole-pool entry points so every
    code path uses identical arithmetic. Fields are (B,...) arrays; rows
    with ok=False had no consensus.
    """

    points: np.ndarray
    inlier_mask: np.ndarray
    dist2: np.ndarray
    ok: np.ndarray
    mean_inlier_err: np.ndarray


def _pair_hypotheses(rows, projections, points, pairs, threshold_px, exact=False):
    """Two-view DLT hypotheses for the given view pairs.

    rows: (B, N, 2, 4) constraint rows; pairs: (P, 2) view indices.
    Returns homogeneous points (B, P, 4), squared reprojection distances
    (B, P, N), inlier masks (B, P, N) and sure (B,); a hypothesis without a
    clean null space has no inliers. The systems are solved by the Jacobi
    kernel, and sure is False for a keypoint where the clean-null-space
    test, or an inlier or behind-camera test of a pair with a clean null
    space, is too close to call. exact=True solves them by SVD, measures
    them with _reproj_dist2 and trusts every decision.
    """
    n_kp, n_views = points.shape[:2]
    a_pairs = rows[:, pairs].reshape(n_kp, len(pairs), 4, 4)
    if exact:
        xh, valid = _solve_nullspace(a_pairs)
        d2 = _reproj_dist2(projections, xh, points[:, None, :, :])
    else:
        # One matrix product projects every hypothesis into every view. Its
        # last bits may differ from the einsum's, so both decisions taken
        # on its values are certified below: the inlier test as the other
        # residual tests are, and the behind-camera test w <= _W_EPS
        # against sum_j |P_3j xh_j|, of which either product's rounding
        # error is below 1e-15 for four terms.
        xh, valid, sure = _jacobi_nullspace(a_pairs)
        x = (xh @ projections.reshape(-1, 4).T).reshape(n_kp, len(pairs), n_views, 3)
        d2 = _image_dist2(x, points[:, None, :, :])
    t2 = threshold_px**2
    inliers = d2 <= t2
    inliers[~valid] = False
    if exact:
        return xh, d2, inliers, np.ones(n_kp, dtype=bool)
    depth_terms = np.abs(xh) @ np.abs(projections[:, 2]).T
    close = (np.abs(d2 - t2) <= _CERTIFY_MARGIN * t2) | (
        np.abs(x[..., 2] - _W_EPS) <= _CERTIFY_MARGIN * depth_terms
    )
    close &= valid[:, :, None]
    return xh, d2, inliers, sure.all(axis=1) & ~close.any(axis=(1, 2))


def _best_pair_refit(rows, xh, d2, inliers, threshold_px):
    """Exhaustive pair selection and inlier refit for B keypoints.

    xh, d2, inliers are the hypotheses of every view pair, in pair order.
    Returns (homogeneous point (B, 4), ok (B,), sure (B,)): the refit on
    the winning pair's inliers, or the pair's own point where that refit is
    degenerate. sure is False where the result is a pair's own point, or
    where another pair with the winning count but a different mask comes
    within _CERTIFY_MARGIN * threshold_px**2 of the winner's mean error:
    there the winner depends on the hypotheses' exact values.
    """
    n_views = rows.shape[1]
    counts = inliers.sum(axis=2)  # (B, P)
    with np.errstate(invalid="ignore"):
        mean_err = np.where(
            counts > 0, np.sum(np.where(inliers, d2, 0.0), axis=2) / np.maximum(counts, 1), np.inf
        )

    # Lexicographic best: max count, then min mean error, then first pair.
    best_count = counts.max(axis=1)
    at_max = counts == best_count[:, None]
    err_masked = np.where(at_max, mean_err, np.inf)
    best_err = err_masked.min(axis=1)
    best_pair = np.argmax(at_max & (err_masked == best_err[:, None]), axis=1)

    b_idx = np.arange(rows.shape[0])
    hyp_mask = inliers[b_idx, best_pair]  # (B, N)
    hyp_xh = xh[b_idx, best_pair]  # (B, 4)
    ok = best_count >= 2

    # Refit on inliers: zero the rows of outlier views, solve the full
    # (2N, 4) system. Zeroed rows contribute nothing, so this is exactly
    # the DLT on the inlier subset.
    refit_a = rows * hyp_mask[:, :, None, None]
    refit_xh, refit_ok = _solve_nullspace(refit_a.reshape(-1, 2 * n_views, 4))
    # Keep the pair hypothesis where the refit is degenerate.
    use = refit_ok & ok
    rival = (
        at_max
        & (err_masked <= best_err[:, None] + _CERTIFY_MARGIN * threshold_px**2)
        & (inliers != hyp_mask[:, None, :]).any(axis=2)
    )
    return np.where(use[:, None], refit_xh, hyp_xh), ok, use & ~rival.any(axis=1)


def _pair_stages(n_views: int) -> list:
    """View pairs in pair-index order, cut into the early-exit stages."""
    pairs = np.array(list(itertools.combinations(range(n_views), 2)))
    cuts = [c for c in _STAGE_CUTS if c < len(pairs)]
    return np.split(pairs, cuts)


def _staged_pairs(rows, projections, points, threshold_px, exact):
    """Winning homogeneous points (B, 4), ok (B,) and sure (B,).

    The staged pair search of _robust_triangulate_batch. A keypoint whose
    stage is not sure leaves the search at once, with its point unset;
    exact=True solves by SVD and is sure of every keypoint.
    """
    n_kp, n_views = rows.shape[:2]
    stages = _pair_stages(n_views)
    final_xh = np.empty((n_kp, 4))
    ok = np.ones(n_kp, dtype=bool)
    sure = np.ones(n_kp, dtype=bool)

    # Early exit: drop the keypoints some pair of a stage explains in
    # every view; hyps keeps each stage's hypotheses of those still left.
    settled = np.zeros(n_kp, dtype=bool)
    left = np.arange(n_kp)
    hyps = []
    for pairs in stages:
        if not left.size:
            break
        *stage, stage_sure = _pair_hypotheses(
            rows[left], projections, points[left], pairs, threshold_px, exact
        )
        done = stage[2].all(axis=2).any(axis=1)
        sure[left] = stage_sure
        settled[left[done & stage_sure]] = True
        keep = ~done & stage_sure
        hyps = [tuple(h[keep] for h in hyp) for hyp in hyps + [stage]]
        left = left[keep]

    final_xh[settled], refit_ok = _solve_nullspace(rows[settled].reshape(-1, 2 * n_views, 4))
    if left.size:
        xh, d2, inliers = (np.concatenate(parts, axis=1) for parts in zip(*hyps))
        final_xh[left], ok[left], sure[left] = _best_pair_refit(
            rows[left], xh, d2, inliers, threshold_px
        )
    # A degenerate all-view refit falls back to the winning pair's point,
    # so those keypoints go through every pair after all.
    redo = np.flatnonzero(settled)[~refit_ok]
    if redo.size:
        *hyp, hyp_sure = _pair_hypotheses(
            rows[redo], projections, points[redo], np.concatenate(stages), threshold_px, exact
        )
        final_xh[redo], ok[redo], refit_sure = _best_pair_refit(rows[redo], *hyp, threshold_px)
        sure[redo] = hyp_sure & refit_sure
    return final_xh, ok, sure


def _robust_triangulate_batch(
    projections: np.ndarray, points: np.ndarray, threshold_px: float
) -> _BatchTriangulation:
    """Exhaustive-pair robust triangulation for B keypoints at once.

    projections: (N, 3, 4); points: (B, N, 2). For every keypoint, each of
    the C(N,2) view pairs yields a DLT hypothesis; the hypothesis with the
    most views within threshold_px wins (ties: lower mean inlier squared
    error, then lower pair index). The winner is refit on its inliers by
    zeroing the constraint rows of outlier views, then mask and errors are
    recomputed against the refit point.

    The pairs are solved in stages, and a keypoint leaves after the first
    stage in which some pair puts all N views within threshold_px. That
    result is exact: such a pair reaches the largest possible count, so
    whichever pair wins the tie-break its mask is all-True, and the winner
    is refit on every view. Only a keypoint whose all-view refit is
    degenerate falls back to the winning pair's own point; it rejoins the
    keypoints that go through every pair.

    The pair systems are solved by the Jacobi kernel, and the refits by
    SVD. A keypoint goes through the stages again with the pair systems
    solved by SVD when the Jacobi output leaves one of its decisions
    within _CERTIFY_MARGIN of the boundary: an unconverged system, a
    singular-value ratio, w or a view's depth near its cutoff, a residual
    near threshold_px**2, or rival winners with different masks and
    near-equal mean errors. So does every keypoint whose result is a
    pair's own point, as it is for keypoints without consensus. Each solve
    depends on its own system alone, so the output is bit-identical to
    solving all pairs of every keypoint by SVD.
    """
    rows = _dlt_rows(projections, points)  # (B, N, 2, 4)
    final_xh, ok, sure = _staged_pairs(rows, projections, points, threshold_px, exact=False)
    redo = np.flatnonzero(~sure)
    if redo.size:
        final_xh[redo], ok[redo], _ = _staged_pairs(
            rows[redo], projections, points[redo], threshold_px, exact=True
        )

    d2_final = _reproj_dist2(projections, final_xh, points)  # (B, N)
    final_mask = d2_final <= threshold_px**2
    final_mask[~ok] = False
    final_counts = final_mask.sum(axis=1)
    ok &= final_counts >= 2

    with np.errstate(invalid="ignore"):
        final_err = np.where(
            ok,
            np.sum(np.where(final_mask, d2_final, 0.0), axis=1)
            / np.maximum(final_counts, 1),
            np.inf,
        )
    w = final_xh[:, 3]
    pts = final_xh[:, :3] / np.where(np.abs(w) > _W_EPS, w, 1.0)[:, None]
    pts[~ok] = np.nan
    final_mask[~ok] = False
    return _BatchTriangulation(pts, final_mask, d2_final, ok, final_err)


def robust_triangulate(
    cameras, points, threshold_px: float = 5.0
) -> KeypointTriangulation:
    """Robustly triangulate one keypoint seen in N >= 2 views.

    points: (N, 2) pixel observations aligned with cameras. A one-frame,
    one-keypoint triangulate_frames call, with its argument checks. Raises
    NoConsensus when no view pair explains at least two observations
    within threshold_px.
    """
    preds = np.atleast_2d(np.asarray(points, dtype=float))[None, :, None]
    kt = triangulate_frames(cameras, preds, threshold_px).per_keypoint[0]
    if kt is None:
        raise NoConsensus("no view pair reaches two inliers")
    return kt


def aggregate_epsilon(
    dist2: np.ndarray,
    failed: np.ndarray,
    mc_error: str = "squared",
    failure_penalty_px2: float = DEFAULT_FAILURE_PENALTY_PX2,
):
    """Frame-level reprojection residual from per-(view, keypoint) distances.

    dist2: (..., K, N) squared pixel distances to the triangulated points;
    failed: (..., K) bool marking keypoints with no consensus, whose N
    entries are replaced by the penalty. mc_error picks the residual form:
    "squared" averages dist2, "euclidean" averages sqrt(dist2); the penalty
    is given in squared-pixel units in both modes. Returns one residual per
    frame, shape (...): a float for one frame's (K, N) distances.
    """
    if mc_error not in MC_ERROR_MODES:
        raise InvariantViolation(f"unknown mc_error mode {mc_error!r}")
    d2 = np.where(failed[..., None], failure_penalty_px2, dist2)
    if mc_error == "euclidean":
        d2 = np.sqrt(d2)
    # Each frame's K*N residuals are reduced as one contiguous row, the
    # same summation as the mean of that frame alone.
    return d2.reshape(*d2.shape[:-2], d2.shape[-2] * d2.shape[-1]).mean(axis=-1)


def triangulate_frames(
    cameras,
    predictions: np.ndarray,
    threshold_px: float = 5.0,
    mc_error: str = "squared",
    failure_penalty_px2: float = DEFAULT_FAILURE_PENALTY_PX2,
    workers: int = 1,
) -> FrameTriangulation:
    """Robustly triangulate every keypoint of a stack of frames in one kernel.

    predictions: (F, N, K, 2), view-major per frame. Returns one
    FrameTriangulation of the F frames, in their order; keypoints without
    consensus are charged failure_penalty_px2 in epsilon. An empty stack
    gives an empty FrameTriangulation.

    The F*K keypoints are solved in ceil(F*K / _TRIANGULATE_BATCH)
    batches of equal size (to one keypoint). A batch's transient arrays,
    the pair hypotheses of its keypoints above all, grow with its size:
    the five calls of a two-iteration bsb campaign on the default scene
    raised a process's peak memory from 40.6 MiB to 94 MiB in batches of
    4,096 keypoints, and to 57 MiB in batches of 1,024, in the same
    serial time (1.0-1.2 s on a 2-core x86_64 host). With workers > 1 the
    batches are solved on a thread pool of that many threads; the
    kernel's array operations release the GIL, and those five calls took
    0.82-0.85 s on two threads, peaking at 68-70 MiB.

    Each keypoint's result depends on its own observations alone, so it
    is the same whatever frames share the stack, whatever the batch size
    and whatever the worker count.
    """
    if len(cameras) < 2:
        raise InsufficientViews(
            f"triangulation needs at least 2 views, got {len(cameras)}"
        )
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim != 4 or preds.shape[1] != len(cameras) or preds.shape[3] != 2:
        raise DimensionMismatch(
            f"expected predictions of shape (F, {len(cameras)}, K, 2), got {preds.shape}"
        )
    if threshold_px <= 0:
        raise InvariantViolation("threshold_px must be positive")
    n_frames, n_views, n_kp = preds.shape[:3]
    projections = np.stack([c.projection for c in cameras])
    # (F, N, K, 2) -> (F*K, N, 2): each keypoint is an independent problem.
    flat = preds.transpose(0, 2, 1, 3).reshape(n_frames * n_kp, n_views, 2)
    # An empty stack is one empty batch.
    batches = np.array_split(flat, max(1, -(-flat.shape[0] // _TRIANGULATE_BATCH)))

    def solve(batch):
        return _robust_triangulate_batch(projections, batch, threshold_px)

    if workers > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(solve, batches))
    else:
        parts = [solve(batch) for batch in batches]

    def pooled(name):
        """One field of every batch as one (F, K, ...) array."""
        whole = np.concatenate([getattr(part, name) for part in parts])
        return whole.reshape(n_frames, n_kp, *whole.shape[1:])

    mask = pooled("inlier_mask")
    epsilon = aggregate_epsilon(pooled("dist2"), ~pooled("ok"), mc_error, failure_penalty_px2)
    inlier_count = mask.sum(axis=2).min(axis=1)
    arrays = (pooled("points"), mask, pooled("mean_inlier_err"), epsilon, inlier_count)
    for array in arrays:
        array.flags.writeable = False
    return FrameTriangulation(*arrays)
