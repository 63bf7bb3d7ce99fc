"""Keypoint heatmaps: rendering, peak finding, and per-view uncertainty.

A heatmap is a small non-negative grid (default 64x64) holding one
keypoint's predicted location likelihood in one view. Peaks are strict
local maxima; the two uncertainty scores consume the peak lists: the
best-vs-second-best margin on max-normalized values, and the entropy of a
softmax over raw peak values.

Maps that are sums of Gaussian bumps can be scored without rendering the
full grid: peak_windows picks, per map, the grid rows and columns that
hold every cell at or above the peak floor plus their neighbors, and
gaussian_values_stack renders just those cells with the same arithmetic
as the full render. Peak search on such HeatmapWindows gives exactly the
peak lists of the full maps. peak_windows computes each bump's row and
column factors only on its floor box, the cells outside of which the
factor stays below min_frac / n of its maximum in a map of n bumps: 11
cells per axis on the default 64-cell grid, never the whole axis unless
the box is that wide. A map of one bump is not rendered at all: its
cells are a * (f_v[i] * f_u[j]) for the bump's row and column factors,
rounding is monotone, and when both factors rise to their maximum and
then fall on the box, every cell at or above the floor but the map's
first argmax has a neighbor at least as large. Its peak list is that
argmax alone, read off the two factors. The campaign scores bsb and mpe
this way. Dense maps, Heatmap objects or a raw stack, go through the same
search as dense_windows, every map one full-grid window; every search
returns one Peaks, all maps' peak lists in flat arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyHeatmap, InvariantViolation, check_field_types


@dataclass(frozen=True)
class HeatmapSpec:
    """Grid geometry for rendered heatmaps."""

    width: int = 64
    height: int = 64
    sigma_px: float = 2.0

    def __post_init__(self):
        check_field_types(self)
        if self.width < 1 or self.height < 1:
            raise InvariantViolation("heatmap grid must be at least 1x1")
        if self.sigma_px <= 0:
            raise InvariantViolation("heatmap sigma_px must be positive")


@dataclass(frozen=True)
class PeakParams:
    """Peak-finding knobs: odd NMS window, relative floor, list cap."""

    window: int = 3
    min_frac: float = 0.1
    max_peaks: int = 5

    def __post_init__(self):
        check_field_types(self)
        if self.window < 3 or self.window % 2 == 0:
            raise InvariantViolation("peak window must be odd and >= 3")
        if not 0.0 <= self.min_frac < 1.0:
            raise InvariantViolation("min_frac must be in [0, 1)")
        if self.max_peaks < 1:
            raise InvariantViolation("max_peaks must be >= 1")


class Heatmap:
    """Non-negative (height, width) grid of float values."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        if v.ndim != 2:
            raise DimensionMismatch(f"heatmap must be 2-D, got shape {v.shape}")
        _check_values(v)
        self.values = v


def _check_values(v: np.ndarray) -> None:
    """Raise InvariantViolation unless every value of v is finite and >= 0."""
    if not (np.isfinite(v).all() and (v >= 0).all()):
        raise InvariantViolation("heatmap values must be finite and >= 0")


def gaussian_values(
    center: np.ndarray, spec: HeatmapSpec, amplitude: float = 1.0
) -> np.ndarray:
    """Unnormalized isotropic Gaussian bump sampled on the grid.

    center is (u, v) in grid coordinates and may lie off-grid; the grid
    then just samples the tail. A one-map gaussian_values_stack. Wrap sums
    of bumps in Heatmap to compose multi-peak maps.
    """
    return gaussian_values_stack(
        np.asarray(center, dtype=float)[None], spec, np.array([amplitude], dtype=float)
    )[0]


def _gaussian_factor(index: np.ndarray, center: np.ndarray, s2: float) -> np.ndarray:
    """One separable factor exp(-(index - center)^2 / s2), broadcast."""
    return np.exp(-((index - center) ** 2) / s2)


def _bump_arrays(centers, amplitudes) -> tuple:
    """(M, 2) centers and (M,) amplitudes as float arrays, checked: all
    finite, amplitudes positive."""
    c = np.asarray(centers, dtype=float)
    a = np.asarray(amplitudes, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or a.shape != (c.shape[0],):
        raise DimensionMismatch(
            f"need (M, 2) centers and (M,) amplitudes, got {c.shape} and {a.shape}"
        )
    if not (np.isfinite(c).all() and np.isfinite(a).all()):
        raise InvariantViolation("bump centers and amplitudes must be finite")
    if np.any(a <= 0):
        raise InvariantViolation("amplitude must be positive")
    return c, a


def gaussian_values_stack(
    centers: np.ndarray, spec: HeatmapSpec, amplitudes: np.ndarray, window=None
) -> np.ndarray:
    """Many bumps at once: (M, 2) centers, (M,) amplitudes -> (M, H, W).

    The kernel is separable, so a full map costs width + height
    exponentials. window = (rows (M, h), cols (M, w)) of grid indices
    renders only those rows and columns of each map, as (M, h, w); every
    value is bit-identical to the same cell of the full render.
    """
    c, a = _bump_arrays(centers, amplitudes)
    if window is None:
        window = (np.arange(spec.height)[None, :], np.arange(spec.width)[None, :])
    s2 = 2.0 * spec.sigma_px**2
    cols = _gaussian_factor(window[0], c[:, 1:2], s2)
    rows = _gaussian_factor(window[1], c[:, 0:1], s2)
    # Amplitude scales the finished outer product.
    return a[:, None, None] * (cols[:, :, None] * rows[:, None, :])


def _dilate(mask: np.ndarray, r: int) -> np.ndarray:
    """Grow each row of a (S, n) mask by r cells to both sides."""
    out = mask.copy()
    for d in range(1, r + 1):
        out[:, d:] |= mask[:, :-d]
        out[:, :-d] |= mask[:, d:]
    return out


def _pad_to_indices(mask: np.ndarray) -> np.ndarray:
    """(S, n) masks -> (S, m) ascending indices, m the largest row count.

    Shorter rows are topped up with their first unmarked indices.
    """
    count = mask.sum(axis=1)
    free = ~mask
    mask = mask | (free & (np.cumsum(free, axis=1) <= (count.max() - count)[:, None]))
    return np.nonzero(mask)[1].reshape(mask.shape[0], -1)


def _unimodal(f: np.ndarray) -> np.ndarray:
    """Which rows of f (S, n) never fall before their first argmax and
    never rise after it."""
    step = np.diff(f, axis=1)
    before = np.arange(step.shape[1]) < f.argmax(axis=1)[:, None]
    return np.where(before, step >= 0, step <= 0).all(axis=1)


# Below this share of its lower bound a map's floor test is decided by
# subnormal rounding, which is absolute rather than relative.
_FAINT = 2.0**-1000


def _box_width(size: int, n: int, s2: float, min_frac: float) -> int:
    """Cells per axis of the floor box of a bump in a map of n bumps.

    The factor exp(-d^2 / s2) of a cell d from the center falls below
    share = min(min_frac, 1/4) / n of its largest grid value, which lies
    at most 0.5 cells off the center or at the grid edge, beyond
    reach = sqrt(0.25 + s2 ln(n / share)); the 1e-6 added to the logarithm
    covers rounding in the computed factors. The 1/4 cap keeps subnormal
    rounding from tying a cell outside the box with the argmax. The box is
    the 2 ceil(reach) + 1 cells from floor(center) - ceil(reach), the
    whole axis if that is wider or min_frac is 0.
    """
    share = min(min_frac, 0.25) / n
    if share <= 0:
        return size
    reach = math.sqrt(0.25 + s2 * (math.log(1.0 / share) + 1e-6))
    return min(size, 2 * math.ceil(reach) + 1)


def _box_factors(center: np.ndarray, size: int, width: int, s2: float) -> tuple:
    """(start (L,), factors (L, width), maxima (L,)) of L bumps on one axis:
    each bump's factors on the width grid cells from start, its box moved
    onto the grid when it sticks out, and their largest value."""
    start = np.clip(np.floor(center) - width // 2, 0, size - width).astype(int)
    f = _gaussian_factor(start[:, None] + np.arange(width), center[:, None], s2)
    return start, f, f.max(axis=1)


def peak_windows(
    layers, n_maps: int, spec: HeatmapSpec, params: PeakParams = PeakParams()
) -> tuple:
    """The peaks of one-bump maps, and sub-grids that hold every peak of
    the other maps made of Gaussian bumps.

    Each layer is (maps (L,), centers (L, 2), amplitudes (L,)) with
    distinct maps: one bump for each of those maps, its center and
    amplitude finite and its amplitude positive. Map m is the sum, in layer
    order, of its bumps, rendered as gaussian_values_stack renders them.

    Every bump's row and column factors are computed only on its floor
    box (_box_width), with the render's arithmetic for each cell: for a
    layer whose maps have at most n bumps, every cell outside the box has
    a factor below min_frac / n of the factor's maximum. The box therefore
    holds the factor's first argmax and every cell that can reach the peak
    floor, which is all that the rest needs.

    A map of one bump is the grid of a * (f_v[i] * f_u[j]) over its row
    factor f_v and column factor f_u. Where both factors are unimodal on
    their boxes (_unimodal, checked on the computed values), every cell at
    or above the floor off the factors' argmax row or column has a
    neighbor toward it that is at least as large, because rounding is
    monotone; so the map's peak list is its first row-major argmax alone:
    the first row v maximizing a * (f_v * max f_u), then the first column
    u maximizing a * (f_v[v] * f_u), with that cell's rendered value. When
    that value is 0 the grid is all zeros and its first argmax is (0, 0).

    Each bump's largest grid value is a lower bound L on its map's
    maximum, so a cell of an n-bump map reaches the peak floor
    min_frac * max only where one of its bumps reaches min_frac * L / n.
    For a separable bump that holds only inside a box of grid rows and
    columns, found from the bump's two factors on its floor box. A map's
    window keeps the rows and columns of its bumps' boxes, each grown by
    the neighborhood radius, so every cell at or above the floor is in the
    window together with all of its in-grid neighbors, in grid order.

    Returns (single, groups). single is (maps, u, v, values) of the
    one-bump maps, maps ascending: each map's one peak. groups are
    (maps (S,), rows (S, h), cols (S, w)) of ascending grid indices for
    every other map, one group per bump count; narrower windows in a
    group are topped up with other rows or columns. A map whose bumps all
    vanish, or whose min_frac * L / n is below 2^-1000, where rounding is
    no longer relative, keeps the full grid.
    """
    layers = [(np.asarray(maps),) + _bump_arrays(c, a) for maps, c, a in layers]
    n_bumps = np.zeros(n_maps, dtype=int)
    for maps, _, _ in layers:
        n_bumps[maps] += 1
    s2 = 2.0 * spec.sigma_px**2
    lower = np.zeros(n_maps)
    bumps = []
    for maps, c, a in layers:
        n = int(n_bumps[maps].max(initial=1))
        # (start, factors, maxima) of each bump's floor boxes over grid rows
        # (v) and grid columns (u).
        rows, cols = (
            _box_factors(center, size, _box_width(size, n, s2, params.min_frac), s2)
            for center, size in ((c[:, 1], spec.height), (c[:, 0], spec.width))
        )
        lower[maps] = np.maximum(lower[maps], a * (rows[2] * cols[2]))
        bumps.append((maps, a, rows, cols))

    windowed = np.ones(n_maps, dtype=bool)
    none = np.zeros(0, dtype=int)
    single = [(none, none, none, np.zeros(0))]
    for maps, a, (v0, f_v, _), (u0, f_u, u_max) in bumps:
        one = np.flatnonzero(n_bumps[maps] == 1)
        one = one[_unimodal(f_v[one]) & _unimodal(f_u[one])]
        windowed[maps[one]] = False
        a, f_v, f_u, at = a[one], f_v[one], f_u[one], np.arange(len(one))
        v = (a[:, None] * (f_v * u_max[one, None])).argmax(axis=1)
        row = a[:, None] * (f_v[at, v][:, None] * f_u)
        u = row.argmax(axis=1)
        value = row[at, u]
        found = value > 0
        u, v = np.where(found, u0[one] + u, 0), np.where(found, v0[one] + v, 0)
        single.append((maps[one], u, v, value))
    single = [np.concatenate(part) for part in zip(*single)]
    order = np.argsort(single[0])
    single = tuple(part[order] for part in single)

    rest = np.flatnonzero(windowed)
    slot = np.full(n_maps, -1)
    slot[rest] = np.arange(len(rest))
    keep_rows = np.zeros((len(rest), spec.height), dtype=bool)
    keep_cols = np.zeros((len(rest), spec.width), dtype=bool)
    # The slack covers rounding in the products; a larger box is harmless.
    share = params.min_frac * lower / np.maximum(n_bumps, 1) * (1.0 - 1e-9)
    for maps, a, (v0, f_v, v_max), (u0, f_u, u_max) in bumps:
        on = slot[maps] >= 0
        if not on.any():
            continue
        maps, at = maps[on], slot[maps[on]][:, None]
        # The bump's largest value in each grid row and in each column.
        row_best = f_v[on] * (a[on] * u_max[on])[:, None]
        col_best = f_u[on] * (a[on] * v_max[on])[:, None]
        keep_rows[at, v0[on, None] + np.arange(f_v.shape[1])] |= row_best >= share[maps, None]
        keep_cols[at, u0[on, None] + np.arange(f_u.shape[1])] |= col_best >= share[maps, None]
    r = params.window // 2
    keep_rows = _dilate(keep_rows, r)
    keep_cols = _dilate(keep_cols, r)
    faint = share[rest] < _FAINT
    keep_rows[faint] = True
    keep_cols[faint] = True

    groups = []
    for k in np.unique(n_bumps[rest]):
        at = np.flatnonzero(n_bumps[rest] == k)
        groups.append((rest[at], _pad_to_indices(keep_rows[at]), _pad_to_indices(keep_cols[at])))
    return single, groups


class HeatmapWindows:
    """Peaks and windows of a stack of heatmaps, as made by peak_windows
    or dense_windows.

    shape is the leading shape of the stack, e.g. (frames, views,
    keypoints), over which map indices run flat. single is
    (maps, u, v, values): the one peak of each one-bump map, exact without
    rendering (peak_windows). Each group is (maps (S,), values (S, h, w),
    rows (S, h), cols (S, w)): the values of the other maps at those grid
    rows and columns. Peak lists of the windows equal those of the full
    maps.
    """

    __slots__ = ("shape", "groups", "single")

    def __init__(self, shape: tuple, groups: list, single: tuple):
        self.shape = tuple(shape)
        self.groups = groups
        self.single = single


class Peaks:
    """The peak lists of a stack of maps, flat: the list of map m is items
    starts[m] to starts[m + 1] of u (grid columns), v (grid rows) and
    values, value descending, in map order. len() is the number of maps."""

    __slots__ = ("u", "v", "values", "starts")

    def __init__(self, u: np.ndarray, v: np.ndarray, values: np.ndarray, starts: np.ndarray):
        self.u = u
        self.v = v
        self.values = values
        self.starts = starts

    def __len__(self) -> int:
        return len(self.starts) - 1


def dense_windows(maps, shape=None) -> HeatmapWindows:
    """Dense maps as HeatmapWindows in which every map is one full-grid
    window: one group, no one-peak entries.

    maps is a non-empty sequence of same-shape maps, each a Heatmap or a
    2-D array, or an (S, H, W) array; shape is the leading shape over
    which the S maps run flat, (S,) unless given. Array values are checked
    as a Heatmap's are.
    """
    if not isinstance(maps, np.ndarray):
        values = [getattr(m, "values", m) for m in maps]
        if len({np.shape(m) for m in values}) != 1:
            raise DimensionMismatch("dense maps must be one or more maps of one shape")
        maps = np.stack(values)
    v = np.asarray(maps, dtype=float)
    if v.ndim != 3 or len(v) == 0:
        raise DimensionMismatch(f"expected a (S, H, W) stack of S >= 1 maps, got shape {v.shape}")
    _check_values(v)
    n, h, w = v.shape
    shape = (n,) if shape is None else tuple(shape)
    if int(np.prod(shape)) != n:
        raise DimensionMismatch(f"{n} maps cannot have leading shape {shape}")
    rows = np.broadcast_to(np.arange(h), (n, h))
    cols = np.broadcast_to(np.arange(w), (n, w))
    none = np.zeros(0, dtype=int)
    return HeatmapWindows(shape, [(np.arange(n), v, rows, cols)], (none, none, none, np.zeros(0)))


def _window_peaks(v: np.ndarray, rows: np.ndarray, cols: np.ndarray, params: PeakParams) -> tuple:
    """The peaks of (S, h, w) windows at grid rows (S, h), cols (S, w).

    Neighbors are compared by position in the window, with cells beyond
    its edge counting as absent. That is exact when every cell at or above
    the floor has all of its in-grid neighbors in the window, at their
    grid offsets (peak_windows guarantees it; a full grid has it
    trivially). Rows and columns ascend, so window order is grid order.

    Returns (u, v, values, starts): grid columns, grid rows and values of
    the peaks of every slice, in list order (value descending, then row,
    then column) and cut to max_peaks per slice; slice m holds items
    starts[m] to starts[m + 1].
    """
    n, h, w = v.shape
    flat_argmax = v.reshape(n, -1).argmax(axis=1)
    vmax = v.reshape(n, -1)[np.arange(n), flat_argmax]
    if np.any(vmax <= 0):
        raise EmptyHeatmap("heatmap has no strictly positive value")

    r = params.window // 2
    padded = np.full((n, h + 2 * r, w + 2 * r), -np.inf)
    padded[:, r : r + h, r : r + w] = v
    ok = v >= params.min_frac * vmax[:, None, None]
    for dy in range(2 * r + 1):
        for dx in range(2 * r + 1):
            if dy != r or dx != r:
                ok &= v > padded[:, dy : dy + h, dx : dx + w]
    # The first row-major cell attaining each slice max counts, plateau
    # or not.
    ok.reshape(n, -1)[np.arange(n), flat_argmax] = True

    s_idx, vs, us = np.nonzero(ok)
    vals = v[s_idx, vs, us]
    order = np.lexsort((us, vs, -vals, s_idx))
    ranked = s_idx[order]
    rank = np.arange(order.size) - np.searchsorted(ranked, ranked)
    order = order[rank < params.max_peaks]
    starts = np.searchsorted(s_idx[order], np.arange(n + 1))
    s_idx, vs, us = s_idx[order], vs[order], us[order]
    return cols[s_idx, us], rows[s_idx, vs], vals[order], starts


def local_peaks_stack(windows: HeatmapWindows, params: PeakParams = PeakParams()) -> Peaks:
    """The peak lists of every map of HeatmapWindows, in flat map order.

    A cell is a peak when it strictly exceeds every other cell in its
    window x window neighborhood (grid border cells compare against
    in-grid neighbors only) and reaches min_frac of its map's max. The
    map's first row-major argmax is always included, even on a plateau.
    Ties sort by (row, column); each list is cut to max_peaks. The
    one-peak entries and each group's peaks are merged by map.
    """
    if not isinstance(windows, HeatmapWindows):
        raise DimensionMismatch("peak search takes HeatmapWindows, dense maps by dense_windows")
    maps, us, vs, values = windows.single
    if np.any(values <= 0):
        raise EmptyHeatmap("heatmap has no strictly positive value")
    parts = [(maps, us, vs, values)]
    for maps, values, rows, cols in windows.groups:
        us, vs, values, starts = _window_peaks(values, rows, cols, params)
        parts.append((np.repeat(maps, np.diff(starts)), us, vs, values))
    owner, us, vs, values = (np.concatenate(part) for part in zip(*parts))
    # A stable sort keeps each map's peaks in list order.
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(int(np.prod(windows.shape)) + 1))
    return Peaks(us[order], vs[order], values[order], starts)


def peak_margins(peaks: Peaks) -> np.ndarray:
    """BSB margin of each peak value list, top first: 1 - second/top, or
    1 for a single peak. 1 is a confident single-peak map, 0 two equal
    peaks."""
    two = np.diff(peaks.starts) >= 2
    top = peaks.starts[:-1][two]
    out = np.ones(len(two))
    out[two] = 1.0 - peaks.values[top + 1] / peaks.values[top]
    return out


def peak_entropies(peaks: Peaks) -> np.ndarray:
    """Shannon entropy (nats) of a softmax over each list's raw peak
    values.

    A one-value list has probability 1, and -(1 * log 1) is -0.0. Lists
    with the same length and the same number of nonzero probabilities are
    done as one array, so each sum adds the same terms in the same order
    as it would for the list alone: value descending, leaving out the
    probabilities that exp underflows to 0.
    """
    count = np.diff(peaks.starts)
    if np.any(count == 0):
        raise DimensionMismatch("softmax entropy of an empty value list")
    out = np.full(len(count), -0.0)
    for n in np.unique(count[count >= 2]).tolist():
        at = np.flatnonzero(count == n)
        v = peaks.values[peaks.starts[at][:, None] + np.arange(n)]
        z = np.exp(v - v.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, p * np.log(p), 0.0)
        nonzero = (p > 0).sum(axis=1)
        for m in np.unique(nonzero).tolist():
            rows = nonzero == m
            out[at[rows]] = -terms[rows, :m].sum(axis=1)
    return out


def mpe_view(heatmaps, params: PeakParams = PeakParams()) -> float:
    """Multi-peak entropy for one view, averaged over keypoints.

    Per keypoint: entropy of the softmax over raw values at the detected
    peaks. A single-peak map contributes exactly 0. The maps are searched
    as one dense_windows stack, so they must share one grid.
    """
    return float(np.mean(peak_entropies(local_peaks_stack(dense_windows(heatmaps), params))))
