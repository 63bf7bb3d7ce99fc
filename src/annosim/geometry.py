"""Multi-view pinhole geometry.

Projection, homogeneous DLT triangulation, and exhaustive-pair robust
triangulation with refit on inliers.

All 3D coordinates are millimeters in a shared world frame; image
coordinates are pixels. The robust triangulation of many keypoints is
backed by batched kernels, so that a whole frame, or a whole pool of
frames, is solved at once. The 4x4 two-view systems of the view pairs,
the bulk of the work, are solved from their Gram matrices (each the sum
of its two views'), by Newton steps on a secular equation, then refined
from their rows, in whole-array operations, instead of one LAPACK SVD
per system. Every other solve uses SVD. The pairs are solved in stages:
a keypoint that one pair already explains in every view leaves after
that stage, because its result is then the all-view refit whichever
pair would win.

Pair hypotheses reach the result only through decisions: which systems
have a clean null space, which views are inliers or behind the camera,
which keypoints settle early and which pair wins. Each system's solution
has an a-posteriori error bound, carried into every view; a system whose
decisions that bound, or the floor _CERTIFY_MARGIN under it, leaves too
close to call is solved again by SVD. A keypoint the staged search is
not sure of (its winner rests on exact values, or its refit has no
clean null space) takes the one fallback, _exhaustive_pairs: every
pair by SVD, the definition itself. Results are therefore bit-identical
to solving every pair of every keypoint by SVD.
"""

from __future__ import annotations

import itertools
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
# A 4x4 Gram matrix G = A^T A is kept as its ten upper-triangle entries in
# this order: H = G[:3, :3], then g = G[:3, 3], then gamma = G[3, 3].
_GRAM_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3), (3, 3))
# The pair kernel (see _secular_newton): Newton steps, stopping tolerance
# relative to trace(H), share of the way to the pole a step may go, and
# pair systems per chunk, few enough for its arrays to stay in cache.
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-13
_NEWTON_REACH = 0.9
_KERNEL_CHUNK = 4096
# Refinement passes of _certify at most, and the largest step, relative to
# |(y, 1)|, after which a system needs no more (see _pair_kernel).
_REFINE_PASSES = 3
_REFINE_TOL = 1e-12
# Rounding allowance of _certify: it covers forming the Gram matrices, G x
# from the rows, and every four-term inner product the certificate
# evaluates.
_ROUNDING = 64 * np.finfo(float).eps
# Relative half-width of the band around a decision boundary inside which
# a pair system goes to SVD: |s1 - _NULLSPACE_RATIO*s2| against s_max,
# |d2 - t^2| and rival mean errors against t^2, the behind-camera test
# against the size of its terms. It is a floor under _certify's computed
# bound and covers SVD's own rounding, which that bound leaves out.
_CERTIFY_MARGIN = 1e-6

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
    campaign keeps only each prediction chunk's poses and per-frame
    arrays, and triangulates at most campaign.CHUNK_KEYPOINTS keypoints
    per stack.
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
    x, s1, s2 = vt[..., -1, :], s[..., -1], s[..., -2]
    ok = (s2 > 0) & (s1 <= _NULLSPACE_RATIO * s2)
    w = x[..., 3]
    ok &= np.abs(w) > _W_EPS * np.linalg.norm(x, axis=-1)
    safe_w = np.where(np.abs(w) > _W_EPS, w, 1.0)
    return x / safe_w[..., None], ok


def _pair_kernel(rows: np.ndarray, pairs: np.ndarray) -> tuple:
    """The pair systems of views' DLT rows (..., V, 2, 4) for pairs (P, 2)
    of view indices, in (..., P) order: (y (3, m), valid (m,), bound
    (m,)) as _certify defines them, w = 1.

    Each keypoint's rows are first scaled by one power of two: exact, and
    it keeps the squares clear of overflow and underflow. A pair's Gram
    matrix is the sum of its two views', each formed once.
    """
    _, exponent = np.frexp(np.abs(rows).max(axis=(-3, -2, -1)))
    rows = np.moveaxis(np.ldexp(rows, -exponent[..., None, None, None]), (-2, -1), (0, 1))
    r0, r1 = rows  # (4, ..., V) each
    grams = np.stack([r0[i] * r0[j] + r1[i] * r1[j] for i, j in _GRAM_ENTRIES])
    first, second = pairs.T
    gram = (grams[..., first] + grams[..., second]).reshape(10, -1)
    a = np.concatenate([rows[..., first], rows[..., second]]).reshape(4, 4, -1)
    y, valid, bound, moving = _certify(gram, a, _secular_newton(gram))
    # A system whose refinement step was above _REFINE_TOL is refined
    # again: forming G lost digits, and each pass regains them, cutting the
    # error by about eps cond(G). One still moving after _REFINE_PASSES is
    # not certified.
    todo = np.flatnonzero(moving)
    for _ in range(_REFINE_PASSES - 1):
        if todo.size:
            y[:, todo], valid[todo], bound[todo], moving = _certify(
                gram[:, todo], a[..., todo], y[:, todo]
            )
            todo = todo[moving]
    valid[todo] = False
    return y, valid, bound


def _dot(u, v):
    """Dot products of stacked 3-vectors (3, m)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sym_apply(s, v):
    """Symmetric 3x3 matrices, as six upper-triangle rows, times v (3, m)."""
    rows = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
    return np.stack([s[i] * v[0] + s[j] * v[1] + s[k] * v[2] for i, j, k in rows])


def _sym_adjugate(a00, a01, a02, a11, a12, a22):
    """Adjugates, as six upper-triangle rows, and determinants of symmetric
    3x3 matrices, positive definite iff a00, adj[5] and det are > 0."""
    adj = (a11 * a22 - a12 * a12, a02 * a12 - a01 * a22, a01 * a12 - a02 * a11,
           a00 * a22 - a02 * a02, a01 * a02 - a00 * a12, a00 * a11 - a01 * a01)
    return adj, a00 * adj[0] + a01 * adj[1] + a02 * adj[2]


def _secular_newton(gram: np.ndarray) -> np.ndarray:
    """Null-vector estimates y (3, m), w = 1, of Gram matrices (10, m).

    G = [[H, g], [g^T, gamma]] has the least eigenvector (y, 1), y =
    -(H - lambda I)^-1 g, where lambda is the root of gamma - lambda + g^T y
    below H's least eigenvalue, the pole (Bunch, Nielsen & Sorensen, Numer.
    Math. 31, 1978). Newton runs from 0 on 1/phi - 1/(gamma - lambda),
    phi = -g^T y, nearly linear near the pole. No step goes beyond
    _NEWTON_REACH of det/tr adj(H - lambda I), below the distance to the
    pole, or of gamma - lambda, gamma being above the root. Every third
    step, systems whose step fell below _NEWTON_TOL * trace(H) leave (each
    step would fragment the heap: +2-4 MiB peak RSS on bsb-w2).
    """
    lam_out, active = np.zeros(gram.shape[1]), np.arange(gram.shape[1])
    part, lam = gram, lam_out.copy()
    tol = _NEWTON_TOL * (gram[0] + gram[3] + gram[5])
    for step_no in range(1, _NEWTON_STEPS + 1):
        h, g, d = part[:6], part[6:9], part[9] - lam
        adj, det = _sym_adjugate(h[0] - lam, h[1], h[2], h[3] - lam, h[4], h[5] - lam)
        z = _sym_apply(adj, g)  # -y det
        phi_det = _dot(g, z)
        step = (d * det - phi_det) * phi_det * d / (_dot(z, z) * d * d + phi_det * phi_det)
        step = np.minimum(step, _NEWTON_REACH * np.minimum(det / (adj[0] + adj[3] + adj[5]), d))
        lam += step
        lam_out[active] = lam
        moving = np.abs(step) > tol
        if step_no % 3 == 0 and not moving.all():
            active, part, lam, tol = active[moving], part[:, moving], lam[moving], tol[moving]
            if not active.size:
                break
    h = gram[:6]
    adj, det = _sym_adjugate(h[0] - lam_out, h[1], h[2], h[3] - lam_out, h[4], h[5] - lam_out)
    return _sym_apply(adj, gram[6:9]) / -det


def _certify(gram: np.ndarray, a: np.ndarray, y: np.ndarray) -> tuple:
    """A posteriori certificate and refinement of null-vector estimates y
    (3, m) of the systems a (4 rows, 4, m) with Gram matrices G (10, m).

    Returns (y, valid, bound, moving), y refined, the others (m,).
    valid: the system certainly has a clean null space by
    _solve_nullspace's test, _CERTIFY_MARGIN clear of its cutoffs (never
    certain that it has none). bound: a bound on |y - y*|, y* the exact
    null vector of G, w = 1, for the y returned. moving: the refinement
    step was above _REFINE_TOL |(y, 1)|.

    With x = (y, 1)/n and Q an orthonormal basis of x's complement, the
    exact vector is x + Q z, z = -(C - lambda_1 I)^-1 Q^T G x with C =
    Q^T G Q. sigma = x^T G x plus rounding lies above lambda_1, and sigma +
    det/tr adj(C - sigma I) below lambda_2 (Cauchy interlacing), so
    (C - sigma I)^-1 bounds |z| and z's first entry: Davis & Kahan's sin
    theta bound (SIAM J. Numer. Anal. 7, 1970) per direction. Q's first
    vector is the w axis' part orthogonal to x, along which DLT systems
    are orders of magnitude larger; the others span y's complement in
    xyz. Rounding is |dG_ij| <= _ROUNDING sqrt(G_ii G_jj), and the bounds
    are doubled for second-order terms.

    G x is formed as a^T (a x), not from G: its rounding error then has
    little weight along G's small eigenvectors, and the step x + Q z, z
    = -(C - sigma I)^-1 Q^T G x, refines y to about SVD's accuracy where
    forming G squared the system's condition, as in Bjorck's corrected
    seminormal equations (Linear Algebra Appl. 88/89, 1987). bound grows
    by that step.
    """
    h, g, gamma = gram[:6], gram[6:9], gram[9]
    yy = _dot(y, y)
    n2 = 1.0 + yy
    n, ny = np.sqrt(n2), np.sqrt(yy)
    t = a[:, 0] * y[0] + a[:, 1] * y[1] + a[:, 2] * y[2] + a[:, 3]  # a (y, 1)
    u = a[0] * t[0] + a[1] * t[1] + a[2] * t[2] + a[3] * t[3]  # G (y, 1)
    u, u3 = u[:3], u[3]
    root_gamma = np.sqrt(gamma)
    dy = _dot(np.sqrt(h[[0, 3, 5]]), np.abs(y))
    scale = _ROUNDING * (dy + root_gamma)
    sigma = (_dot(y, u) + u3) / n2 + scale * (dy + root_gamma) / n2
    # e, f: orthonormal complement of y (Duff et al., J. Comput. Graph.
    # Tech. 6(1), 2017). p = G (-y, |y|^2), the w axis' part.
    v = y / ny
    sign = np.copysign(1.0, v[2])
    k = -1.0 / (sign + v[2])
    b = v[0] * v[1] * k
    e = np.stack([1.0 + sign * v[0] * v[0] * k, sign * b, -sign * v[0]])
    f = np.stack([b, sign + v[1] * v[1] * k, -v[1]])
    p, p3, nq = n2 * g - u, n2 * gamma - u3, n * ny
    he, hf = _sym_apply(h, e), _sym_apply(h, f)
    c00 = (yy * p3 - _dot(y, p)) / (n2 * yy) - sigma  # C - sigma I
    adj, det = _sym_adjugate(
        c00, _dot(e, p) / nq, _dot(f, p) / nq, _dot(e, he) - sigma, _dot(e, hf), _dot(f, hf) - sigma
    )
    # r = Q^T G x with its rounding along the first basis vector and across.
    r = np.stack([(yy * u3 - _dot(y, u)) / (n2 * ny), _dot(e, u) / n, _dot(f, u) / n])
    dr0 = scale * (dy + yy * root_gamma) / (n2 * ny)
    dr12 = scale * np.sqrt(h[0] + h[3] + h[5]) / n
    s = _sym_apply(adj, r) / det
    inv_norm, root_00 = (adj[0] + adj[3] + adj[5]) / det, np.sqrt(adj[0] / det)
    tilt = 2.0 * (np.sqrt(_dot(s, s)) + dr0 * np.sqrt(_dot(adj, adj)) / det + dr12 * inv_norm)
    tilt_w = 2.0 * root_00 * (np.sqrt(np.abs(_dot(r, s))) + dr0 * root_00 + dr12 * np.sqrt(inv_norm))
    # y* - y = n (d_xyz - d_w y) / (1 + n d_w) for the correction d = Q z.
    lift = tilt_w * ny
    bound = (n * tilt + tilt_w * yy) / (1.0 - lift)
    valid = (c00 > 0) & (adj[5] > 0) & (det > 0)
    gap = _NULLSPACE_RATIO * np.sqrt(sigma + 1.0 / inv_norm) - np.sqrt(np.maximum(sigma, 0.0))
    valid &= gap > _CERTIFY_MARGIN * np.sqrt(h[0] + h[3] + h[5] + gamma)
    valid &= 1.0 - lift > 2.0 * _W_EPS * n * (1.0 + tilt)
    step = n * (n * s[0] * v - s[1] * e - s[2] * f) / (1.0 - s[0] * ny)
    step2 = _dot(step, step)
    return y + step, valid, bound + np.sqrt(step2), step2 > _REFINE_TOL**2 * n2


def triangulate_dlt(observations) -> np.ndarray:
    """Homogeneous DLT from a sequence of (CameraParams, (u, v)) pairs: a
    one-keypoint triangulate_dlt_many solve.

    Raises InsufficientViews for fewer than two observations and
    IllConditioned when the null space is ambiguous.
    """
    if len(observations) < 2:
        raise InsufficientViews(
            f"triangulation needs at least 2 views, got {len(observations)}"
        )
    projections = np.stack([cam.projection for cam, _ in observations])
    points = np.asarray([uv for _, uv in observations], dtype=float)
    if points.shape != (len(observations), 2):
        raise DimensionMismatch("each observation must be a 2-vector")
    if not np.isfinite(points).all():
        raise InvariantViolation("observations must be finite")
    point = triangulate_dlt_many(projections, points[None])[0]
    if np.isnan(point).any():
        raise IllConditioned("DLT system has no one-dimensional null space")
    return point


def triangulate_dlt_many(projections: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Homogeneous DLT of M keypoints in one solve: points (M, N, 2), seen
    through the stacked matrices projections (N, 3, 4), give (M, 3), each
    the smallest right singular vector of two rows per view, dehomogenized,
    or NaN where there is no clean null space. Each system is solved on
    its own: a row equals its keypoint's one-row solve byte for byte."""
    rows = _dlt_rows(projections, points).reshape(len(points), -1, 4)
    x, ok = _solve_nullspace(rows)
    x[~ok] = np.nan
    return x[:, :3] / x[:, 3:]


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


def _mean_inlier_err(d2, inliers):
    """Mean squared distance (...) over the inlier views of (..., N)
    distances; +inf where no view is an inlier. Each entry reduces its own
    views alone, so it is the same whatever shares the array."""
    counts = inliers.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        return np.where(
            counts > 0, np.sum(np.where(inliers, d2, 0.0), axis=-1) / np.maximum(counts, 1), np.inf
        )


def _exact_hypotheses(a, projections, points, t2):
    """SVD hypotheses of systems a (..., 4, 4) with the observations points
    (..., N, 2): (xh (..., 4), mean_err (...), inliers (..., N)), the
    inliers being the views within squared distance t2 of a hypothesis
    with a clean null space and mean_err their _mean_inlier_err."""
    xh, valid = _solve_nullspace(a)
    d2 = _reproj_dist2(projections, xh, points)
    inliers = (d2 <= t2) & valid[..., None]
    return xh, _mean_inlier_err(d2, inliers), inliers


def _pair_hypotheses(rows, projections, points, pairs, threshold_px, out=None):
    """Two-view DLT hypotheses of the given view pairs by the pair kernel,
    in chunks of about _KERNEL_CHUNK systems.

    rows: (B, N, 2, 4) constraint rows; pairs: (P, 2) view indices.
    Returns mean inlier squared reprojection errors (B, P) and inlier masks
    (B, P, N), written into out when it is given as such a pair of arrays;
    a hypothesis without a clean null space has no inliers. The points and
    squared distances behind them live one chunk at a time (see
    _kernel_chunk). Every decision taken on a hypothesis is the one SVD
    takes: a system the chunk cannot certify is solved by SVD here.
    """
    n_kp, n_pairs = len(points), len(pairs)
    views, pair_views = np.unique(pairs, return_inverse=True)
    pair_views = pair_views.reshape(pairs.shape)
    bounds = (
        np.linalg.norm(projections[:, :2, :3], axis=(1, 2)),
        np.linalg.norm(projections[:, 2, :3], axis=1),
    )
    t2 = threshold_px**2
    if out is None:
        out = np.empty((n_kp, n_pairs)), np.empty((n_kp, n_pairs, len(projections)), dtype=bool)
    mean_err, inliers = out
    certain = np.empty((n_kp, n_pairs), dtype=bool)
    step = max(1, _KERNEL_CHUNK // n_pairs)
    for start in range(0, n_kp, step):
        part = slice(start, start + step)
        mean_err[part], inliers[part], certain[part] = _kernel_chunk(
            rows[part][:, views], projections, points[part], pair_views, bounds, t2
        )
    redo = np.flatnonzero(~certain)
    if redo.size:
        kp, pair = np.divmod(redo, n_pairs)
        a = rows[kp[:, None], pairs[pair]].reshape(-1, 4, 4)
        resolved = _exact_hypotheses(a, projections, points[kp], t2)
        mean_err[kp, pair], inliers[kp, pair] = resolved[1:]
    return mean_err, inliers


def _kernel_chunk(rows, projections, points, pairs, bounds, t2):
    """One chunk of _pair_hypotheses: (mean_err (b, P), inliers (b, P, N),
    certain (b, P)) of the pair kernel's hypotheses of b keypoints, rows
    (b, V, 2, 4) being their constraint rows in the pairs' views V and
    bounds the norms (|P12|, |P3|) of each view's projection rows. Its
    per-view arrays are freed when it returns, before the next chunk's
    kernel runs.

    _certify's bound e on |y - y*| carries into each view as |w - w*| <=
    |P3| e and |pixel - pixel*| <= e (|P12| + |pixel| |P3|) / (w - |P3| e),
    P3 and P12 being the xyz columns of its projection rows. A view's
    behind-camera test w <= _W_EPS and, in front, its inlier test are
    certain outside that bound and _CERTIFY_MARGIN of their boundaries; an
    inlier's d2 must also be within half the margin, for the rival test of
    _best_pair_refit. A hypothesis is certain when its system and all
    these tests are.
    """
    n_kp, n_pairs, n_views = len(points), len(pairs), len(projections)
    p12, p3 = bounds
    margin = _CERTIFY_MARGIN * t2
    # Non-finite systems turn to NaN, fail every test and go to SVD.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        y, valid, bound = _pair_kernel(rows, pairs)
        hyp = np.ones((n_kp, n_pairs, 4))
        hyp[..., :3] = y.T.reshape(-1, n_pairs, 3)
        x = (hyp @ projections.reshape(-1, 4).T).reshape(n_kp, n_pairs, n_views, 3)
        dist2 = _image_dist2(x, points[:, None])
        inliers = dist2 <= t2
        mean_err = _mean_inlier_err(dist2, inliers)
        w, e, root = x[..., 2], bound.reshape(-1, n_pairs, 1), np.sqrt(dist2)
        obs_norm = np.linalg.norm(points, axis=-1)[:, None, :]
        pixel_err = e * (p12 + (obs_norm + root) * p3) / (w - p3 * e)
        dist2_err = pixel_err * (2.0 * root + pixel_err)
        depth_terms = np.abs(hyp) @ np.abs(projections[:, 2]).T
        sure = np.abs(w - _W_EPS) > np.maximum(p3 * e, _CERTIFY_MARGIN * depth_terms)
        inlier_sure = np.abs(dist2 - t2) > np.maximum(dist2_err, margin)
        inlier_sure &= (dist2 > t2) | (dist2_err <= 0.5 * margin)
        sure &= (w <= _W_EPS) | inlier_sure
    return mean_err, inliers, valid.reshape(-1, n_pairs) & sure.all(axis=2)


def _best_pair_refit(rows, mean_err, inliers, threshold_px):
    """Exhaustive pair selection and inlier refit for B keypoints.

    mean_err (B, P) and inliers (B, P, N) are the hypotheses of every view
    pair, in pair order (see _pair_hypotheses). Returns (homogeneous point
    (B, 4), ok (B,), refit (B,), sure (B,), winning pair (B,)): the refit
    on the winning pair's inliers, which has a clean null space where
    refit is True. Where it has none, the result is the winning pair's own
    point, which _exhaustive_pairs puts back. sure is False there, and
    where another pair with the winning count but a different mask comes
    within _CERTIFY_MARGIN * threshold_px**2 of the winner's mean error:
    there the winner depends on the hypotheses' exact values.
    """
    n_views = rows.shape[1]
    counts = inliers.sum(axis=2)  # (B, P)

    # Lexicographic best: max count, then min mean error, then first pair.
    best_count = counts.max(axis=1)
    at_max = counts == best_count[:, None]
    err_masked = np.where(at_max, mean_err, np.inf)
    best_err = err_masked.min(axis=1)
    best_pair = np.argmax(at_max & (err_masked == best_err[:, None]), axis=1)

    hyp_mask = inliers[np.arange(rows.shape[0]), best_pair]  # (B, N)
    ok = best_count >= 2

    # Refit on inliers: zero the rows of outlier views, solve the full
    # (2N, 4) system. Zeroed rows contribute nothing, so this is exactly
    # the DLT on the inlier subset.
    refit_a = rows * hyp_mask[:, :, None, None]
    refit_xh, refit_ok = _solve_nullspace(refit_a.reshape(-1, 2 * n_views, 4))
    refit = refit_ok & ok
    rival = (
        at_max
        & (err_masked <= best_err[:, None] + _CERTIFY_MARGIN * threshold_px**2)
        & (inliers != hyp_mask[:, None, :]).any(axis=2)
    )
    return refit_xh, ok, refit, refit & ~rival.any(axis=1), best_pair


def _pair_stages(n_views: int) -> list:
    """View pairs in pair-index order, cut into the early-exit stages."""
    pairs = np.array(list(itertools.combinations(range(n_views), 2)))
    cuts = [c for c in _STAGE_CUTS if c < len(pairs)]
    return np.split(pairs, cuts)


def _staged_pairs(rows, projections, points, threshold_px):
    """Winning homogeneous points (B, 4), ok (B,) and sure (B,).

    The staged pair search of _robust_triangulate_batch on the pair
    kernel's hypotheses. sure is False where the winner depends on their
    exact values or where the result's refit is degenerate (see
    _best_pair_refit); the point is then left to _exhaustive_pairs.
    """
    n_kp, n_views = rows.shape[:2]
    final_xh = np.empty((n_kp, 4))
    ok = np.ones(n_kp, dtype=bool)
    sure = np.ones(n_kp, dtype=bool)

    # Early exit: drop the keypoints some pair of a stage explains in
    # every view; hyps keeps each earlier stage's hypotheses of those
    # still left. The last stage writes into arrays that hold every pair
    # of the keypoints that reach it, and they all go to the refit: one
    # settled there is refit on every view, as it would be on its own.
    stages = _pair_stages(n_views)
    settled = np.zeros(n_kp, dtype=bool)
    left = np.arange(n_kp)
    hyps = []
    for pairs in stages[:-1]:
        stage = _pair_hypotheses(rows[left], projections, points[left], pairs, threshold_px)
        keep = ~stage[1].all(axis=2).any(axis=1)
        settled[left[~keep]] = True
        hyps = [tuple(h[keep] for h in hyp) for hyp in hyps + [stage]]
        left = left[keep]
        if not left.size:
            break

    final_xh[settled], sure[settled] = _solve_nullspace(rows[settled].reshape(-1, 2 * n_views, 4))
    if left.size:
        n_pairs = sum(len(pairs) for pairs in stages)
        mean_err = np.empty((len(left), n_pairs))
        inliers = np.empty((len(left), n_pairs, n_views), dtype=bool)
        done = 0
        for stage_err, stage_inliers in hyps:
            mean_err[:, done : done + stage_err.shape[1]] = stage_err
            inliers[:, done : done + stage_err.shape[1]] = stage_inliers
            done += stage_err.shape[1]
        _pair_hypotheses(
            rows[left], projections, points[left], stages[-1], threshold_px,
            out=(mean_err[:, done:], inliers[:, done:]),
        )
        final_xh[left], ok[left], _, sure[left], _ = _best_pair_refit(
            rows[left], mean_err, inliers, threshold_px
        )
    return final_xh, ok, sure


def _exhaustive_pairs(rows, projections, points, threshold_px):
    """Winning homogeneous points (B, 4) and ok (B,) of every view pair
    solved by SVD: the definition that the staged search must match, and
    its fallback for the keypoints it is not sure of. Where the winner's
    refit is degenerate, the point is the winning pair's own."""
    pairs = np.concatenate(_pair_stages(rows.shape[1]))
    a = rows[:, pairs].reshape(len(rows), len(pairs), 4, 4)
    xh, mean_err, inliers = _exact_hypotheses(a, projections, points[:, None], threshold_px**2)
    final_xh, ok, refit, _, best_pair = _best_pair_refit(rows, mean_err, inliers, threshold_px)
    pair_point = ~refit
    final_xh[pair_point] = xh[pair_point, best_pair[pair_point]]
    return final_xh, ok


def _robust_triangulate_batch(
    projections: np.ndarray, points: np.ndarray, threshold_px: float
) -> tuple:
    """Exhaustive-pair robust triangulation for B keypoints at once.

    projections: (N, 3, 4); points: (B, N, 2). Returns (points (B, 3),
    inlier_mask (B, N), dist2 (B, N), mean_inlier_err (B,)). A keypoint
    with no consensus has a NaN point, no inlier view and an infinite
    error; any other keeps at least two inlier views.

    For every keypoint, each of the C(N,2) view pairs yields a DLT
    hypothesis; the hypothesis with the most views within threshold_px
    wins (ties: lower mean inlier squared error, then lower pair index).
    The winner is refit on its inliers by zeroing the constraint rows of
    outlier views, then mask and errors are recomputed against the refit
    point.

    The pairs are solved by the pair kernel (see _pair_hypotheses) in
    stages, and a keypoint leaves after the first stage in which some pair
    puts all N views within threshold_px. That result is exact: such a
    pair reaches the largest possible count, so whichever pair wins the
    tie-break its mask is all-True, and the winner is refit on every view.

    A keypoint the staged search is not sure of (see _staged_pairs: a
    winner that rests on the hypotheses' exact values, or a degenerate
    refit) goes to _exhaustive_pairs, which solves all its pairs by SVD.
    Each solve depends on its own system alone, so the output equals
    solving every pair by SVD.
    """
    rows = _dlt_rows(projections, points)  # (B, N, 2, 4)
    final_xh, ok, sure = _staged_pairs(rows, projections, points, threshold_px)
    redo = np.flatnonzero(~sure)
    if redo.size:
        final_xh[redo], ok[redo] = _exhaustive_pairs(
            rows[redo], projections, points[redo], threshold_px
        )

    d2_final = _reproj_dist2(projections, final_xh, points)  # (B, N)
    final_mask = d2_final <= threshold_px**2
    final_mask[~ok] = False
    ok &= final_mask.sum(axis=1) >= 2
    final_err = np.where(ok, _mean_inlier_err(d2_final, final_mask), np.inf)
    w = final_xh[:, 3]
    pts = final_xh[:, :3] / np.where(np.abs(w) > _W_EPS, w, 1.0)[:, None]
    pts[~ok] = np.nan
    final_mask[~ok] = False
    return pts, final_mask, d2_final, final_err


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
) -> FrameTriangulation:
    """Robustly triangulate every keypoint of a stack of frames in one kernel.

    predictions: (F, N, K, 2), view-major per frame. Returns one
    FrameTriangulation of the F frames, in their order; keypoints without
    consensus are charged failure_penalty_px2 in epsilon. An empty stack
    gives an empty FrameTriangulation.

    The F*K keypoints are solved in one batch, whose transient arrays,
    the pair hypotheses above all, grow with the stack: per keypoint and
    view pair they hold one mean inlier error and N inlier flags, while
    pair points and squared distances per view live one kernel chunk at
    a time. Callers bound the stack; the campaign triangulates a pass
    chunk by chunk (see campaign.CHUNK_KEYPOINTS).

    Each keypoint's result depends on its own observations alone, and
    epsilon and inlier_count reduce over each frame's own keypoints. So a
    frame's result is the same whatever frames share the stack: the
    parts of any split of a stack concatenate to the whole.
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
    if not threshold_px > 0:  # NaN too
        raise InvariantViolation("threshold_px must be positive")
    # SVD cannot solve a system with a non-finite entry.
    if not np.isfinite(preds).all():
        raise InvariantViolation("observations must be finite")
    n_frames, n_views, n_kp = preds.shape[:3]
    projections = np.stack([c.projection for c in cameras])
    # (F, N, K, 2) -> (F*K, N, 2): each keypoint is an independent problem.
    flat = preds.transpose(0, 2, 1, 3).reshape(n_frames * n_kp, n_views, 2)
    points, mask, dist2, mean_inlier_err = (
        array.reshape(n_frames, n_kp, *array.shape[1:])
        for array in _robust_triangulate_batch(projections, flat, threshold_px)
    )
    epsilon = aggregate_epsilon(dist2, ~mask.any(axis=2), mc_error, failure_penalty_px2)
    inlier_count = mask.sum(axis=2).min(axis=1)
    arrays = (points, mask, mean_inlier_err, epsilon, inlier_count)
    for array in arrays:
        array.flags.writeable = False
    return FrameTriangulation(*arrays)
