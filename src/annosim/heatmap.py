"""Keypoint heatmaps: rendering, peak finding, and per-view uncertainty.

A heatmap is a small non-negative grid (default 64x64) holding one
keypoint's predicted location likelihood in one view. Peaks are strict
local maxima; the two uncertainty scores consume the peak list: the
best-vs-second-best margin on max-normalized values, and the entropy of a
softmax over raw peak values.

Maps that are sums of Gaussian bumps can be scored without rendering the
full grid: peak_windows picks, per map, the grid rows and columns that
hold every cell at or above the peak floor plus their neighbors, and
gaussian_values_stack renders just those cells with the same arithmetic
as the full render. Peak search on such HeatmapWindows gives exactly the
peak lists of the full maps. A map of one bump is not rendered at all:
its cells are a * (f_v[i] * f_u[j]) for the bump's row and column
factors, rounding is monotone, and when both factors rise to their
maximum and then fall, every cell but the map's first argmax has a
neighbor at least as large. Its peak list is that argmax alone, read off
the two factors. The campaign scores bsb and mpe this way; Heatmap
objects and raw stacks keep the full-grid path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyHeatmap, InvariantViolation


@dataclass(frozen=True)
class HeatmapSpec:
    """Grid geometry for rendered heatmaps."""

    width: int = 64
    height: int = 64
    sigma_px: float = 2.0

    def __post_init__(self):
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
        if not np.all(np.isfinite(v)) or v.min() < 0:
            raise InvariantViolation("heatmap values must be finite and >= 0")
        self.values = v


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


def gaussian_values_stack(
    centers: np.ndarray, spec: HeatmapSpec, amplitudes: np.ndarray, window=None
) -> np.ndarray:
    """Many bumps at once: (M, 2) centers, (M,) amplitudes -> (M, H, W).

    The kernel is separable, so a full map costs width + height
    exponentials. window = (rows (M, h), cols (M, w)) of grid indices
    renders only those rows and columns of each map, as (M, h, w); every
    value is bit-identical to the same cell of the full render.
    """
    c = np.asarray(centers, dtype=float)
    a = np.asarray(amplitudes, dtype=float)
    if c.ndim != 2 or c.shape[1] != 2 or a.shape != (c.shape[0],):
        raise DimensionMismatch(
            f"need (M, 2) centers and (M,) amplitudes, got {c.shape} and {a.shape}"
        )
    if np.any(a <= 0):
        raise InvariantViolation("amplitude must be positive")
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


def peak_windows(
    layers, n_maps: int, spec: HeatmapSpec, params: PeakParams = PeakParams()
) -> tuple:
    """The peaks of one-bump maps, and sub-grids that hold every peak of
    the other maps made of Gaussian bumps.

    Each layer is (maps (L,), centers (L, 2), amplitudes (L,)) with
    distinct maps: one bump for each of those maps. Map m is the sum, in
    layer order, of its bumps, rendered as gaussian_values_stack renders
    them.

    A map of one bump is the grid of a * (f_v[i] * f_u[j]) over its row
    factor f_v and column factor f_u. Where both factors are unimodal
    (_unimodal, checked on the computed values), every cell off the
    factors' argmax row or column has a neighbor toward it that is at
    least as large, because rounding is monotone; so the map's peak list
    is its first row-major argmax alone: the first row v maximizing
    a * (f_v * max f_u), then the first column u maximizing
    a * (f_v[v] * f_u), with that cell's rendered value.

    Each bump's largest grid value is a lower bound L on its map's
    maximum, so a cell of an n-bump map reaches the peak floor
    min_frac * max only where one of its bumps reaches min_frac * L / n.
    For a separable bump that holds only inside a box of grid rows and
    columns, found from the bump's two factors. A map's window keeps the
    rows and columns of its bumps' boxes, each grown by the neighborhood
    radius, so every cell at or above the floor is in the window together
    with all of its in-grid neighbors, in grid order.

    Returns (single, groups). single is (maps, u, v, values) of the
    one-bump maps, maps ascending: each map's one peak. groups are
    (maps (S,), rows (S, h), cols (S, w)) of ascending grid indices for
    every other map, one group per bump count; narrower windows in a
    group are topped up with other rows or columns. A map whose bumps all
    vanish keeps the full grid.
    """
    s2 = 2.0 * spec.sigma_px**2
    lower = np.zeros(n_maps)
    n_bumps = np.zeros(n_maps, dtype=int)
    bumps = []
    for maps, centers, amplitudes in layers:
        c = np.asarray(centers, dtype=float)
        a = np.asarray(amplitudes, dtype=float)
        # The bump's factors over grid rows (v) and grid columns (u).
        f_v = _gaussian_factor(np.arange(spec.height)[None, :], c[:, 1:2], s2)
        f_u = _gaussian_factor(np.arange(spec.width)[None, :], c[:, 0:1], s2)
        v_max = f_v.max(axis=1)
        u_max = f_u.max(axis=1)
        lower[maps] = np.maximum(lower[maps], a * (v_max * u_max))
        n_bumps[maps] += 1
        bumps.append((maps, a, f_v, f_u, v_max, u_max))

    windowed = np.ones(n_maps, dtype=bool)
    none = np.zeros(0, dtype=int)
    single = [(none, none, none, np.zeros(0))]
    for maps, a, f_v, f_u, _, u_max in bumps:
        one = np.flatnonzero(n_bumps[maps] == 1)
        one = one[_unimodal(f_v[one]) & _unimodal(f_u[one])]
        windowed[maps[one]] = False
        a, f_v, f_u = a[one], f_v[one], f_u[one]
        v = (a[:, None] * (f_v * u_max[one, None])).argmax(axis=1)
        row = a[:, None] * (f_v[np.arange(len(one)), v][:, None] * f_u)
        u = row.argmax(axis=1)
        single.append((maps[one], u, v, row[np.arange(len(one)), u]))
    single = [np.concatenate(part) for part in zip(*single)]
    order = np.argsort(single[0])
    single = tuple(part[order] for part in single)

    r = params.window // 2
    rest = np.flatnonzero(windowed)
    slot = np.full(n_maps, -1)
    slot[rest] = np.arange(len(rest))
    keep_rows = np.zeros((len(rest), spec.height), dtype=bool)
    keep_cols = np.zeros((len(rest), spec.width), dtype=bool)
    for maps, a, f_v, f_u, v_max, u_max in bumps:
        on = slot[maps] >= 0
        if not on.any():
            continue
        maps, at = maps[on], slot[maps[on]]
        # The bump's largest value in each grid row and in each column.
        row_best = f_v[on] * (a[on] * u_max[on])[:, None]
        col_best = f_u[on] * (a[on] * v_max[on])[:, None]
        # The slack covers rounding in the products; a larger box is harmless.
        share = (params.min_frac * lower[maps] / n_bumps[maps] * (1.0 - 1e-9))[:, None]
        keep_rows[at] |= _dilate(row_best >= share, r)
        keep_cols[at] |= _dilate(col_best >= share, r)
    empty = lower[rest] <= 0
    keep_rows[empty] = True
    keep_cols[empty] = True

    groups = []
    for k in np.unique(n_bumps[rest]):
        at = np.flatnonzero(n_bumps[rest] == k)
        groups.append((rest[at], _pad_to_indices(keep_rows[at]), _pad_to_indices(keep_cols[at])))
    return single, groups


class HeatmapWindows:
    """Peaks and windows of a stack of heatmaps, as made by peak_windows.

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


class PeakValues:
    """The peak value lists of a stack of maps, flat: list m is
    values[starts[m]:starts[m + 1]], value descending, in map order.
    len() is the number of maps."""

    __slots__ = ("values", "starts")

    def __init__(self, values: np.ndarray, starts: np.ndarray):
        self.values = values
        self.starts = starts

    def __len__(self) -> int:
        return len(self.starts) - 1


@dataclass(frozen=True)
class Peak:
    """One detected peak: integer grid position and its raw value."""

    u: int
    v: int
    value: float


def _grid_peaks(values, params: PeakParams) -> tuple:
    """_window_peaks of a (S, H, W) stack of full grids."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 3:
        raise DimensionMismatch(f"expected a (S, H, W) stack, got shape {v.shape}")
    n, h, w = v.shape
    rows = np.broadcast_to(np.arange(h), (n, h))
    cols = np.broadcast_to(np.arange(w), (n, w))
    return _window_peaks(v, rows, cols, params)


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


def _windows_peaks(windows: HeatmapWindows, params: PeakParams) -> tuple:
    """_window_peaks of HeatmapWindows, over all maps in map order: the
    one-peak entries and each group's peaks, merged by map."""
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
    return us[order], vs[order], values[order], starts


def _peak_lists(peaks: tuple) -> list:
    """Per-slice Peak lists of a _window_peaks result."""
    us, vs, vals, starts = peaks
    flat = [Peak(u=u, v=v, value=x) for u, v, x in zip(us.tolist(), vs.tolist(), vals.tolist())]
    starts = starts.tolist()
    return [flat[lo:hi] for lo, hi in zip(starts, starts[1:])]


def local_peaks(heatmap: Heatmap, params: PeakParams = PeakParams()) -> list:
    """Strict local maxima, sorted by value descending.

    A cell is a peak when it strictly exceeds every other cell in its
    window x window neighborhood (grid border cells compare against
    in-grid neighbors only) and reaches min_frac of the global max. The
    global argmax cell is always included even on a plateau. Ties sort by
    (row, column); the list is truncated to max_peaks.
    """
    return local_peaks_stack(heatmap.values[None], params)[0]


def local_peaks_stack(
    heatmaps, params: PeakParams = PeakParams(), values_only: bool = False
):
    """local_peaks for many same-shape heatmaps with one filter pass.

    Accepts a sequence of Heatmaps, a raw (S, H, W) array or
    HeatmapWindows (lists in flat map order). Returns one Peak list per
    input map, identical to calling local_peaks on each; stacking just
    amortizes the neighborhood-maximum pass. values_only=True returns
    the lists' peak values (same order and cut) as one PeakValues
    instead, without building Peak objects or a list per map.
    """
    if isinstance(heatmaps, HeatmapWindows):
        peaks = _windows_peaks(heatmaps, params)
    elif isinstance(heatmaps, np.ndarray):
        peaks = _grid_peaks(heatmaps, params)
    else:
        if len(heatmaps) == 0:
            raise DimensionMismatch("local_peaks_stack needs at least one heatmap")
        shapes = {hm.values.shape for hm in heatmaps}
        if len(shapes) != 1:
            raise DimensionMismatch("stacked heatmaps must share one shape")
        peaks = _grid_peaks(np.stack([hm.values for hm in heatmaps]), params)
    if values_only:
        return PeakValues(peaks[2], peaks[3])
    return _peak_lists(peaks)


def peak_margins(peaks: PeakValues) -> np.ndarray:
    """BSB margin of each peak value list, top first: 1 - second/top, or
    1 for a single peak. 1 is a confident single-peak map, 0 two equal
    peaks."""
    two = np.diff(peaks.starts) >= 2
    top = peaks.starts[:-1][two]
    out = np.ones(len(two))
    out[two] = 1.0 - peaks.values[top + 1] / peaks.values[top]
    return out


def peak_entropies(peaks: PeakValues) -> np.ndarray:
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
    as one local_peaks_stack, so they must share one grid.
    """
    if len(heatmaps) == 0:
        raise DimensionMismatch("mpe_view needs at least one heatmap")
    return float(np.mean(peak_entropies(local_peaks_stack(heatmaps, params, values_only=True))))
