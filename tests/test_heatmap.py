"""Gaussian rendering, peak extraction, and the BSB/MPE view metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annosim import heatmap
from annosim.errors import DimensionMismatch, EmptyHeatmap, InvariantViolation
from annosim.heatmap import (
    Heatmap,
    HeatmapSpec,
    HeatmapWindows,
    PeakParams,
    Peaks,
    dense_windows,
    gaussian_values,
    gaussian_values_stack,
    local_peaks_stack,
    mpe_view,
    peak_entropies,
    peak_margins,
    peak_windows,
)
from annosim.selection import score_bsb

SPEC64 = HeatmapSpec(width=64, height=64, sigma_px=2.0)


def two_bumps(c1, c2, amp2, spec=SPEC64):
    """One unit bump plus a second of amplitude amp2, far enough apart
    that the cross-tails vanish at float precision."""
    return Heatmap(gaussian_values(c1, spec) + gaussian_values(c2, spec, amp2))


def dense_peaks(maps, params=PeakParams()):
    """local_peaks_stack of dense maps (Heatmaps or an (S, H, W) array)."""
    return local_peaks_stack(dense_windows(maps), params)


def peak_lists(peaks):
    """The (u, v, value) lists of a Peaks, one Python list per map."""
    items = list(zip(peaks.u.tolist(), peaks.v.tolist(), peaks.values.tolist()))
    starts = peaks.starts.tolist()
    return [items[lo:hi] for lo, hi in zip(starts, starts[1:])]


def assert_same_peaks(got, want):
    """Two Peaks hold the same arrays, bit for bit and of the same dtypes."""
    for name in ("u", "v", "values", "starts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def reference_peaks(values, params):
    """Direct per-cell neighborhood check, the slow oracle for peak search."""
    h, w = values.shape
    vmax = values.max()
    r = params.window // 2
    found = []
    for v in range(h):
        for u in range(w):
            val = values[v, u]
            if val < params.min_frac * vmax:
                continue
            strict = True
            for dv in range(-r, r + 1):
                for du in range(-r, r + 1):
                    if dv == 0 and du == 0:
                        continue
                    nv, nu = v + dv, u + du
                    if 0 <= nv < h and 0 <= nu < w and values[nv, nu] >= val:
                        strict = False
                        break
                if not strict:
                    break
            if strict:
                found.append((u, v, val))
    av, au = divmod(int(values.argmax()), w)
    if not any(u == au and v == av for u, v, _ in found):
        found.append((au, av, float(values[av, au])))
    found.sort(key=lambda t: (-t[2], t[1], t[0]))
    return found[: params.max_peaks]


class TestRenderGaussian:
    def test_on_grid_center_peaks_at_one(self):
        hm = Heatmap(gaussian_values((32.0, 32.0), SPEC64))
        assert hm.values[32, 32] == 1.0
        assert hm.values.max() == 1.0

    def test_neighbor_cell_value(self):
        hm = Heatmap(gaussian_values((32.0, 32.0), SPEC64))
        assert hm.values[32, 33] == pytest.approx(np.exp(-1.0 / 8.0), abs=1e-12)
        assert hm.values[33, 32] == pytest.approx(np.exp(-1.0 / 8.0), abs=1e-12)

    def test_far_off_grid_tail(self):
        hm = Heatmap(gaussian_values((500.0, 500.0), SPEC64))
        assert hm.values.max() < 1e-6
        assert np.all(hm.values >= 0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvariantViolation):
            HeatmapSpec(sigma_px=0.0)

    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(InvariantViolation):
            gaussian_values((3.0, 3.0), SPEC64, amplitude=0.0)

    @pytest.mark.parametrize("center", [(3.0,), (3.0, 3.0, 3.0), [[3.0, 3.0]]])
    def test_rejects_wrong_center_shape(self, center):
        with pytest.raises(DimensionMismatch):
            gaussian_values(center, SPEC64)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
    @settings(max_examples=25)
    def test_stack_matches_single_renders(self, seed, count):
        r = np.random.default_rng(seed)
        centers = r.uniform(-10.0, 74.0, size=(count, 2))
        amps = r.uniform(0.1, 2.0, size=count)
        stack = gaussian_values_stack(centers, SPEC64, amps)
        for m in range(count):
            assert np.array_equal(stack[m], gaussian_values(centers[m], SPEC64, amps[m]))

    def test_stack_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            gaussian_values_stack(np.zeros((3, 2)), SPEC64, np.ones(2))


class TestHeatmapType:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            Heatmap(np.zeros(5))

    def test_rejects_negative_values(self):
        with pytest.raises(InvariantViolation):
            Heatmap(np.array([[0.0, -1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantViolation):
            Heatmap(np.array([[np.inf, 0.0]]))


class TestLocalPeaks:
    def test_single_gaussian_single_peak(self):
        peaks = dense_peaks([Heatmap(gaussian_values((20.0, 40.0), SPEC64))])
        assert (peaks.u.tolist(), peaks.v.tolist(), peaks.values.tolist()) == ([20], [40], [1.0])

    def test_two_gaussians_two_peaks(self):
        peaks = dense_peaks([two_bumps((20.0, 30.0), (40.0, 30.0), 1.0)])
        assert list(zip(peaks.u.tolist(), peaks.v.tolist())) == [(20, 30), (40, 30)]

    def test_zero_heatmap_rejected(self):
        with pytest.raises(EmptyHeatmap):
            dense_peaks([Heatmap(np.zeros((8, 8)))])

    def test_constant_plateau_keeps_only_argmax(self):
        # No strict maxima exist; the global argmax is force-included.
        peaks = dense_peaks([Heatmap(np.ones((8, 8)))])
        assert (peaks.u.tolist(), peaks.v.tolist()) == ([0], [0])

    def test_min_frac_floor_drops_weak_peaks(self):
        hm = two_bumps((10.0, 10.0), (50.0, 50.0), 0.05)
        assert len(dense_peaks([hm], PeakParams(min_frac=0.1)).values) == 1
        assert len(dense_peaks([hm], PeakParams(min_frac=0.01)).values) == 2

    def test_max_peaks_truncation_keeps_strongest(self):
        spec = HeatmapSpec(width=96, height=32, sigma_px=1.5)
        vals = sum(
            gaussian_values((12.0 + 14.0 * i, 16.0), spec, 1.0 - 0.1 * i)
            for i in range(6)
        )
        peaks = dense_peaks([Heatmap(vals)], PeakParams(max_peaks=3))
        assert peaks.u.tolist() == [12, 26, 40]

    def test_descending_order_and_distinct_cells(self):
        hm = two_bumps((20.0, 30.0), (44.0, 18.0), 0.7)
        peaks = dense_peaks([hm])
        values = peaks.values.tolist()
        assert values == sorted(values, reverse=True)
        assert len(set(zip(peaks.u.tolist(), peaks.v.tolist()))) == len(values)

    def test_rescaling_preserves_peak_cells(self):
        hm = two_bumps((20.0, 30.0), (44.0, 18.0), 0.7)
        peaks = dense_peaks([hm])
        scaled = dense_peaks([Heatmap(hm.values * 37.5)])
        assert (peaks.u.tolist(), peaks.v.tolist()) == (scaled.u.tolist(), scaled.v.tolist())

    def test_params_validation(self):
        with pytest.raises(InvariantViolation):
            PeakParams(window=4)
        with pytest.raises(InvariantViolation):
            PeakParams(min_frac=1.0)
        with pytest.raises(InvariantViolation):
            PeakParams(max_peaks=0)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(2, 4),
        st.sampled_from([3, 5]),
        st.sampled_from([0.0, 0.1, 0.5]),
    )
    @settings(max_examples=120)
    def test_matches_reference_on_plateaued_grids(self, seed, h, w, levels, window, min_frac):
        # Low-cardinality integer grids exercise ties, plateaus, borders.
        r = np.random.default_rng(seed)
        vals = r.integers(0, levels, size=(h, w)).astype(float)
        vals[r.integers(h), r.integers(w)] = levels  # guarantee a positive max
        params = PeakParams(window=window, min_frac=min_frac, max_peaks=5)
        got = peak_lists(dense_peaks([Heatmap(vals)], params))
        assert got == [reference_peaks(vals, params)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30)
    def test_stack_matches_per_map(self, seed, count):
        r = np.random.default_rng(seed)
        maps = [
            Heatmap(r.integers(0, 4, size=(7, 6)).astype(float) + 0.5)
            for _ in range(count)
        ]
        stacked = dense_peaks(maps)
        assert_same_peaks(dense_peaks(np.stack([m.values for m in maps])), stacked)
        assert len(stacked) == count
        assert peak_lists(stacked) == [peak_lists(dense_peaks([hm]))[0] for hm in maps]

    def test_stack_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            dense_peaks([Heatmap(np.ones((4, 4))), Heatmap(np.ones((5, 4)))])


BAD_DENSE_MAPS = {
    "empty list": ([], DimensionMismatch),
    "mixed shapes": ([Heatmap(np.ones((4, 4))), Heatmap(np.ones((5, 4)))], DimensionMismatch),
    "2-D array": (np.ones((4, 4)), DimensionMismatch),
    "4-D array": (np.ones((1, 2, 4, 4)), DimensionMismatch),
    "all-zero map": ([Heatmap(np.ones((4, 4))), Heatmap(np.zeros((4, 4)))], EmptyHeatmap),
    # Raw arrays get Heatmap's value check: finite, no negative cell.
    "NaN cell": (np.where(np.arange(16).reshape(1, 4, 4) == 5, np.nan, 1.0), InvariantViolation),
    "infinite cell": (np.where(np.arange(16).reshape(1, 4, 4) == 5, np.inf, 1.0), InvariantViolation),
    "mostly negative map": (
        np.where(np.arange(16).reshape(1, 4, 4) == 5, 1.0, -1.0),
        InvariantViolation,
    ),
}


class TestDenseWindows:
    def test_every_map_is_one_full_grid_window(self):
        maps = np.arange(6 * 4 * 5, dtype=float).reshape(6, 4, 5)
        windows = dense_windows(maps, (2, 3))
        assert windows.shape == (2, 3)
        [(idx, values, rows, cols)] = windows.groups
        assert idx.tolist() == list(range(6)) and np.array_equal(values, maps)
        assert rows.tolist() == [list(range(4))] * 6
        assert cols.tolist() == [list(range(5))] * 6
        assert all(part.size == 0 for part in windows.single)
        assert dense_windows(maps).shape == (6,)
        # A sequence of maps may hold Heatmaps or 2-D arrays.
        for seq in ([Heatmap(m) for m in maps], list(maps)):
            [(_, values, _, _)] = dense_windows(seq, (2, 3)).groups
            assert np.array_equal(values, maps)
        with pytest.raises(DimensionMismatch):
            dense_windows(maps, (4,))

    def test_peak_search_takes_only_windows(self):
        with pytest.raises(DimensionMismatch):
            local_peaks_stack(np.ones((2, 4, 4)))

    @pytest.mark.parametrize("case", BAD_DENSE_MAPS)
    def test_bad_maps_raise_through_every_caller(self, case):
        maps, error = BAD_DENSE_MAPS[case]
        with pytest.raises(error):
            local_peaks_stack(dense_windows(maps))
        with pytest.raises(error):
            mpe_view(maps)
        if isinstance(maps, np.ndarray):
            # One frame is never scored from an array, only from nested
            # [view][keypoint] maps: here one view of the array's maps.
            with pytest.raises(DimensionMismatch):
                score_bsb(0, maps)
            maps = list(maps)
        with pytest.raises(error):
            score_bsb(0, [maps])


def render_bumps(maps, spec, windows=None):
    """Stack of maps, each the in-order sum of its (u, v, amplitude) bumps,
    on the full grid or on per-map windows (rows (S, h), cols (S, w))."""
    out = []
    for i, bumps in enumerate(maps):
        window = None if windows is None else (windows[0][i : i + 1], windows[1][i : i + 1])
        values = None
        for u, v, amp in bumps:
            one = gaussian_values_stack(np.array([[u, v]]), spec, np.array([amp]), window)
            values = one if values is None else values + one
        out.append(values[0])
    return np.stack(out)


def bump_layers(maps):
    """The maps' (u, v, amplitude) bumps as peak_windows layers: layer j
    holds the j-th bump of every map that has one."""
    layers = []
    for j in range(max(len(bumps) for bumps in maps)):
        idx = [m for m, bumps in enumerate(maps) if len(bumps) > j]
        layers.append((
            np.array(idx),
            np.array([maps[m][j][:2] for m in idx], dtype=float),
            np.array([maps[m][j][2] for m in idx], dtype=float),
        ))
    return layers


def windowed(maps, spec, params):
    """peak_windows for the maps, with every window rendered."""
    single, groups = peak_windows(bump_layers(maps), len(maps), spec, params)
    groups = [
        (idx, render_bumps([maps[m] for m in idx], spec, (rows, cols)), rows, cols)
        for idx, rows, cols in groups
    ]
    return HeatmapWindows((len(maps),), groups, single)


def assert_windows_match_dense(maps, spec, params):
    dense = render_bumps(maps, spec)
    windows = windowed(maps, spec, params)
    # Every map is a one-peak entry or in one window group.
    covered = windows.single[0].tolist() + [int(m) for group in windows.groups for m in group[0]]
    assert sorted(covered) == list(range(len(maps)))
    for idx, values, rows, cols in windows.groups:
        for i, m in enumerate(idx):
            # Bit-identical values, and every cell at or above the floor
            # inside the window together with its in-grid neighbors.
            assert np.array_equal(values[i], dense[m][np.ix_(rows[i], cols[i])])
            r = params.window // 2
            vs, us = np.nonzero(dense[m] >= params.min_frac * dense[m].max())
            for near, index, size in ((vs, rows[i], spec.height), (us, cols[i], spec.width)):
                need = (near[:, None] + np.arange(-r, r + 1)).ravel()
                assert np.isin(need[(need >= 0) & (need < size)], index).all()
    want = dense_peaks(dense, params)
    got = local_peaks_stack(windows, params)
    assert_same_peaks(got, want)
    assert len(got) == len(maps)
    return got


def full_axis_peak_windows(layers, n_maps, spec, params):
    """peak_windows with every bump's factors on the whole grid axes and a
    direct per-row check of each step: the slow oracle for the floor
    boxes. A map whose floor share is below 2^-1000 keeps the full grid."""
    s2 = 2.0 * spec.sigma_px**2
    lower = np.zeros(n_maps)
    n_bumps = np.zeros(n_maps, dtype=int)
    bumps = []
    for maps, centers, amplitudes in layers:
        c, a = np.asarray(centers, dtype=float), np.asarray(amplitudes, dtype=float)
        f_v = np.exp(-((np.arange(spec.height)[None, :] - c[:, 1:2]) ** 2) / s2)
        f_u = np.exp(-((np.arange(spec.width)[None, :] - c[:, 0:1]) ** 2) / s2)
        lower[maps] = np.maximum(lower[maps], a * (f_v.max(axis=1) * f_u.max(axis=1)))
        n_bumps[maps] += 1
        bumps.append((np.asarray(maps), a, f_v, f_u))

    def unimodal(f):
        top = int(f.argmax())
        return all(x <= y for x, y in zip(f[:top], f[1 : top + 1])) and all(
            x >= y for x, y in zip(f[top:], f[top + 1 :])
        )

    single = {}
    for maps, a, f_v, f_u in bumps:
        for i, m in enumerate(maps.tolist()):
            if n_bumps[m] == 1 and unimodal(f_v[i]) and unimodal(f_u[i]):
                v = int((a[i] * (f_v[i] * f_u[i].max())).argmax())
                row = a[i] * (f_v[i, v] * f_u[i])
                u = int(row.argmax())
                single[m] = (u, v, row[u])
    keys = sorted(single)
    single = (
        np.array(keys, dtype=np.intp),
        np.array([single[m][0] for m in keys], dtype=np.intp),
        np.array([single[m][1] for m in keys], dtype=np.intp),
        np.array([single[m][2] for m in keys], dtype=float),
    )

    r = params.window // 2
    rest = [m for m in range(n_maps) if m not in single[0]]
    share = {m: params.min_frac * lower[m] / max(n_bumps[m], 1) * (1.0 - 1e-9) for m in rest}
    keep = {m: (np.zeros(spec.height, dtype=bool), np.zeros(spec.width, dtype=bool)) for m in rest}
    for maps, a, f_v, f_u in bumps:
        for i, m in enumerate(maps.tolist()):
            if m not in keep:
                continue
            best = (f_v[i] * (a[i] * f_u[i].max()), f_u[i] * (a[i] * f_v[i].max()))
            for mask, values in zip(keep[m], best):
                for k in np.flatnonzero(values >= share[m]):
                    mask[max(k - r, 0) : k + r + 1] = True
    for m in rest:
        if share[m] < 2.0**-1000:
            keep[m][0][:] = keep[m][1][:] = True

    def padded(masks):
        width = max(int(mask.sum()) for mask in masks)
        out = []
        for mask in masks:
            extra = [k for k in range(len(mask)) if not mask[k]][: width - int(mask.sum())]
            out.append(sorted(np.flatnonzero(mask).tolist() + extra))
        return np.array(out, dtype=np.intp)

    groups = []
    for k in sorted({int(n_bumps[m]) for m in rest}):
        idx = [m for m in rest if n_bumps[m] == k]
        groups.append((
            np.array(idx, dtype=np.intp),
            padded([keep[m][0] for m in idx]),
            padded([keep[m][1] for m in idx]),
        ))
    return single, groups


def assert_same_arrays(got, want):
    """Two sequences of arrays, equal bit for bit and in dtype and shape."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_full_axis(maps, spec, params):
    """peak_windows on the maps equals the full-axis oracle exactly."""
    layers = bump_layers(maps)
    single, groups = peak_windows(layers, len(maps), spec, params)
    want_single, want_groups = full_axis_peak_windows(layers, len(maps), spec, params)
    assert_same_arrays(single, want_single)
    assert len(groups) == len(want_groups)
    for got, want in zip(groups, want_groups):
        assert_same_arrays(got, want)


coordinate = st.one_of(
    st.floats(-12.0, 76.0, allow_nan=False),
    st.integers(-4, 132).map(lambda k: k / 2.0),  # half-cells make plateaus
)
bump = st.tuples(coordinate, coordinate, st.sampled_from([1.0, 0.5, 0.25, 1.7]))
single_coordinate = st.one_of(
    coordinate,
    st.sampled_from([0.0, 16.0, 23.0, 39.0, 63.0]),  # grid edges of the specs below
    st.floats(-60.0, -12.0) | st.floats(76.0, 130.0),  # far off the grid
)
amplitude = st.sampled_from([1.0, 0.5, 0.25, 1.7, 1e-300])
single_bump = st.tuples(single_coordinate, single_coordinate, amplitude)
bump_maps = st.lists(
    st.lists(bump, min_size=1, max_size=3) | st.tuples(single_bump).map(list),
    min_size=1,
    max_size=4,
)


class TestPeakWindows:
    @given(
        bump_maps,
        st.sampled_from([SPEC64, HeatmapSpec(width=17, height=24, sigma_px=1.3),
                         HeatmapSpec(width=40, height=40, sigma_px=3.0)]),
        st.sampled_from([3, 5]),
        st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.9]),
        st.integers(1, 5),
    )
    @settings(max_examples=300)
    def test_windowed_peaks_match_dense(self, maps, spec, window, min_frac, max_peaks):
        params = PeakParams(window=window, min_frac=min_frac, max_peaks=max_peaks)
        dense = render_bumps(maps, spec)
        if np.any(dense.reshape(len(maps), -1).max(axis=1) <= 0):
            with pytest.raises(EmptyHeatmap):
                local_peaks_stack(windowed(maps, spec, params), params)
            return
        counts = np.diff(assert_windows_match_dense(maps, spec, params).starts)
        assert all(n == 1 for n, bumps in zip(counts.tolist(), maps) if len(bumps) == 1)

    def test_tails_of_two_bumps_cross_the_floor_together(self):
        # Between the bumps, cells beyond both bumps' own floor radii
        # (4.29 cells for the main bump, 3.59 for the half-amplitude one)
        # still reach the floor through the sum of the two tails.
        params = PeakParams()
        maps = [[(30.0, 30.0, 1.0), (38.3, 30.0, 0.5)]]
        dense = render_bumps(maps, SPEC64)[0]
        floor = params.min_frac * dense.max()
        main_alone = gaussian_values((30.0, 30.0), SPEC64)
        ghost_alone = gaussian_values((38.3, 30.0), SPEC64, 0.5)
        joint = (dense >= floor) & (main_alone < floor) & (ghost_alone < floor)
        assert joint.any()
        assert len(assert_windows_match_dense(maps, SPEC64, params)) == 1

    def test_plateau_edge_and_off_grid_centres(self):
        maps = [
            [(10.5, 20.5, 1.0)],  # four-cell plateau
            [(0.0, 63.0, 1.0), (63.0, 0.0, 0.5)],  # opposite corners
            [(-3.2, 30.0, 1.0)],  # off the left edge
            [(70.0, 70.0, 1.0), (5.0, 5.0, 0.5)],  # ghost outweighs an off-grid bump
            [(30.0, 30.0, 1.0), (32.0, 30.0, 1.0)],  # merged, flat-topped pair
        ]
        for params in (PeakParams(), PeakParams(window=5, min_frac=0.01, max_peaks=2)):
            peaks = assert_windows_match_dense(maps, SPEC64, params)
            assert (peaks.u[0], peaks.v[0]) == (10, 20)

    def test_max_peaks_truncation(self):
        maps = [[(10.0, 10.0, 1.0), (30.0, 30.0, 0.5), (50.0, 50.0, 0.25)]]
        for max_peaks, expected in ((1, 1), (2, 2), (5, 3)):
            params = PeakParams(min_frac=0.1, max_peaks=max_peaks)
            peaks = assert_windows_match_dense(maps, SPEC64, params)
            assert np.diff(peaks.starts).tolist() == [expected]

    def test_far_off_grid_centre_is_empty(self):
        maps = [[(-1000.0, 30.0, 1.0)]]
        assert not render_bumps(maps, SPEC64).any()
        with pytest.raises(EmptyHeatmap):
            dense_peaks(render_bumps(maps, SPEC64))
        with pytest.raises(EmptyHeatmap):
            local_peaks_stack(windowed(maps, SPEC64, PeakParams()))

    def test_lone_bump_is_a_one_peak_entry(self):
        # One bump gets its peak from its two factors and no window: the
        # rows peak at v = 41 (nearest 40.6), the columns at u = 20.
        layer = (np.zeros(1, dtype=int), np.array([[20.3, 40.6]]), np.ones(1))
        (maps, us, vs, values), groups = peak_windows([layer], 1, SPEC64, PeakParams())
        assert groups == []
        assert (maps.tolist(), us.tolist(), vs.tolist()) == ([0], [20], [41])
        assert values[0] == gaussian_values((20.3, 40.6), SPEC64)[41, 20]

    def test_window_is_small_for_two_bumps(self):
        # Each bump of a two-bump map keeps the cells where it reaches
        # 0.1 / 2 of the map's lower bound: within sqrt(0.4^2 + 8 ln 20) =
        # 4.91 rows of v = 40.6 (36-45) and 4.90 columns of u = 20.3
        # (16-25) for the unit bump, and 4.32 cells of (50, 10) (rows
        # 6-14, columns 46-54) for the half-amplitude one. The window adds
        # one ring of neighbors.
        layers = [
            (np.zeros(1, dtype=int), np.array([[20.3, 40.6]]), np.ones(1)),
            (np.zeros(1, dtype=int), np.array([[50.0, 10.0]]), np.array([0.5])),
        ]
        (maps, _, _, _), [(_, rows, cols)] = peak_windows(layers, 1, SPEC64, PeakParams())
        assert maps.size == 0
        assert rows.tolist() == [list(range(5, 16)) + list(range(35, 47))]
        assert cols.tolist() == [list(range(15, 27)) + list(range(45, 56))]

    def test_mixed_stack_splits_by_bump_count(self):
        maps = [
            [(20.3, 40.6, 1.0)],
            [(10.0, 10.0, 1.0), (40.0, 40.0, 0.5)],
            [(63.0, 31.5, 1.7)],  # right edge, half-cell plateau
            [(10.0, 10.0, 1.0), (30.0, 30.0, 0.5), (50.0, 50.0, 0.25)],
            [(-20.0, 80.0, 0.25)],  # far off the grid, still positive
        ]
        for params in (PeakParams(), PeakParams(window=5, min_frac=0.01)):
            peaks = assert_windows_match_dense(maps, SPEC64, params)
            assert np.diff(peaks.starts).tolist() == [1, 2, 1, 3, 1]
            windows = windowed(maps, SPEC64, params)
            assert windows.single[0].tolist() == [0, 2, 4]
            assert [group[0].tolist() for group in windows.groups] == [[1], [3]]

    def test_unimodal_rows(self):
        below_two = np.nextafter(2.0, 0.0)
        above_one = np.nextafter(1.0, 2.0)
        rows = {
            "strict": ([1.0, 2.0, 3.0, 2.0, 1.0], True),
            "plateau at the top": ([1.0, 3.0, 3.0, 3.0, 2.0], True),
            "flat zeros": ([0.0, 0.0, 0.0, 0.0, 0.0], True),
            "one-ulp dip before the argmax": ([1.0, 2.0, below_two, 3.0, 1.0], False),
            "rise after the argmax": ([1.0, 3.0, 1.0, above_one, 0.5], False),
        }
        got = heatmap._unimodal(np.array([row for row, _ in rows.values()]))
        assert dict(zip(rows, got.tolist())) == {name: want for name, (_, want) in rows.items()}

    def test_one_bump_map_failing_the_check_goes_through_a_window(self, monkeypatch):
        unimodal = heatmap._unimodal

        def reject_first(f):
            return unimodal(f) & (np.arange(len(f)) != 0)

        monkeypatch.setattr(heatmap, "_unimodal", reject_first)
        maps = [[(20.3, 40.6, 1.0)], [(31.5, 0.0, 0.5)], [(10.0, 10.0, 1.0), (40.0, 40.0, 0.5)]]
        for params in (PeakParams(), PeakParams(window=5, min_frac=0.01)):
            peaks = assert_windows_match_dense(maps, SPEC64, params)
            assert np.diff(peaks.starts).tolist() == [1, 1, 2]
            windows = windowed(maps, SPEC64, params)
            assert windows.single[0].tolist() == [1]
            assert [group[0].tolist() for group in windows.groups] == [[0], [2]]


NON_FINITE_BUMPS = {
    "NaN center": ([[np.nan, 30.0]], [1.0]),
    "infinite center": ([[30.0, -np.inf]], [1.0]),
    "NaN amplitude": ([[30.0, 30.0]], [np.nan]),
    "infinite amplitude": ([[30.0, 30.0]], [np.inf]),
}


# Named bump maps for the oracle, each on its grid, with its peak floor.
FLOOR_BOX_CASES = {
    "min_frac 0": (SPEC64, 0.0, [[(20.3, 40.6, 1.0)], [(10.0, 10.0, 1.0), (40.0, 40.0, 0.5)]]),
    "5x3 grid, narrower than the box": (
        HeatmapSpec(width=5, height=3, sigma_px=2.0),
        0.1,
        [[(2.2, 1.0, 1.0)], [(0.0, 2.0, 1.0), (4.0, 0.0, 0.5)], [(9.0, -4.0, 1.0)]],
    ),
    "17x24 grid, sigma 1.3": (
        HeatmapSpec(width=17, height=24, sigma_px=1.3),
        0.1,
        [[(8.4, 12.6, 1.0)], [(1.0, 2.0, 1.0), (15.0, 22.0, 0.5)], [(16.0, 23.0, 1.7)]],
    ),
    "sigma 10 on a 40x40 grid": (
        HeatmapSpec(width=40, height=40, sigma_px=10.0),
        0.1,
        [[(20.3, 19.7, 1.0)], [(5.0, 5.0, 1.0), (35.0, 30.0, 0.5)], [(-8.0, 44.0, 1.0)]],
    ),
    "centers exactly at .5": (
        SPEC64,
        0.1,
        [[(10.5, 20.5, 1.0)], [(0.5, 63.5, 1.0)], [(30.5, 30.5, 1.0), (33.5, 30.5, 1.0)]],
    ),
    "far off-grid centers": (
        SPEC64,
        0.1,
        [
            [(-1000.0, 30.0, 1.0)],
            [(1000.0, 30.0, 1.0)],
            [(200.0, -200.0, 1.0)],
            [(95.0, 30.0, 1.0)],
            [(-40.0, -40.0, 1.0), (1000.0, 1000.0, 0.5)],
            [(70.0, 70.0, 1.0), (5.0, 5.0, 0.5)],
        ],
    ),
    "amplitude 1e-300": (
        SPEC64,
        0.1,
        [
            [(20.3, 40.6, 1e-300)],
            [(-12.0, 30.0, 1e-300)],
            [(10.0, 10.0, 1e-300), (40.0, 40.0, 1e-300)],
            [(-12.0, -12.0, 1e-300), (80.0, 30.0, 1e-300)],
        ],
    ),
    # A few subnormal ulps: rounding ties the cells next to the argmax, and
    # at a floor of 0.9 the box would be too narrow to hold them all
    # without its 1/4 cap.
    "subnormal amplitudes, floor 0.9": (
        HeatmapSpec(width=40, height=40, sigma_px=10.0),
        0.9,
        [[(20.5, 20.5, 5e-324)], [(20.0, 20.0, 1e-323)], [(20.3, 20.7, 1.5e-323)]],
    ),
}
subnormal_bump = st.tuples(coordinate, coordinate, st.sampled_from([5e-324, 1e-323, 1.5e-323]))


class TestFloorBox:
    @pytest.mark.parametrize("case", NON_FINITE_BUMPS)
    def test_non_finite_bumps_raise(self, case):
        centers, amplitudes = (np.array(x, dtype=float) for x in NON_FINITE_BUMPS[case])
        with pytest.raises(InvariantViolation):
            gaussian_values_stack(centers, SPEC64, amplitudes)
        # A bad bump raises on its own and as the second bump of a map.
        good = (np.zeros(1, dtype=int), np.array([[20.0, 20.0]]), np.ones(1))
        bad = (np.zeros(1, dtype=int), centers, amplitudes)
        for layers in ([bad], [good, bad]):
            with pytest.raises(InvariantViolation):
                peak_windows(layers, 1, SPEC64)

    @pytest.mark.parametrize("window", [3, 5, 7])
    @pytest.mark.parametrize("case", FLOOR_BOX_CASES)
    def test_named_cases_match_the_full_axis_oracle(self, case, window):
        spec, min_frac, maps = FLOOR_BOX_CASES[case]
        assert_matches_full_axis(maps, spec, PeakParams(window=window, min_frac=min_frac))

    @given(
        bump_maps
        | st.lists(
            st.lists(single_bump | subnormal_bump, min_size=1, max_size=3), min_size=1, max_size=4
        ),
        st.sampled_from([
            SPEC64,
            HeatmapSpec(width=17, height=24, sigma_px=1.3),
            HeatmapSpec(width=40, height=40, sigma_px=3.0),
            HeatmapSpec(width=40, height=40, sigma_px=10.0),
            HeatmapSpec(width=5, height=3, sigma_px=2.0),
        ]),
        st.sampled_from([3, 5, 7]),
        st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.9]),
    )
    @settings(max_examples=400)
    def test_windows_match_the_full_axis_oracle(self, maps, spec, window, min_frac):
        assert_matches_full_axis(maps, spec, PeakParams(window=window, min_frac=min_frac))

    def test_default_box_is_11_cells(self):
        # sqrt(0.25 + 8 ln(2 / 0.1)) = 4.92 cells of reach for a bump of a
        # two-bump map on the default grid and floor, 4.32 for a lone bump.
        s2 = 2.0 * SPEC64.sigma_px**2
        assert [heatmap._box_width(64, n, s2, 0.1) for n in (1, 2, 3)] == [11, 11, 13]
        assert heatmap._box_width(64, 2, s2, 0.0) == 64
        assert heatmap._box_width(5, 2, s2, 0.1) == 5


def value_lists(*lists):
    """Peaks holding the given value lists, every peak at cell (0, 0)."""
    starts = np.cumsum([0] + [len(values) for values in lists])
    values = np.array([x for values in lists for x in values], dtype=float)
    cells = np.zeros(len(values), dtype=int)
    return Peaks(cells, cells, values, starts)


def peak_softmax_entropy(values):
    return float(peak_entropies(value_lists(values))[0])


def reference_entropy(values):
    """Softmax entropy of one value list, the direct way."""
    v = np.asarray(values, dtype=float)
    if v.size == 1:
        return -0.0
    z = np.exp(v - v.max())
    p = z / z.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def margin(hm):
    return float(peak_margins(dense_peaks([hm]))[0])


def bsb_view(maps):
    """The BSB margin of one view's keypoint maps, from the frame score."""
    return -score_bsb(0, [maps]).value


class TestBsb:
    def test_margin_arithmetic(self):
        hm = two_bumps((10.0, 10.0), (40.0, 40.0), 0.5)
        assert margin(hm) == pytest.approx(0.5, abs=1e-12)

    def test_single_peak_margin_is_one(self):
        assert margin(Heatmap(gaussian_values((20.0, 20.0), SPEC64))) == 1.0

    def test_two_keypoint_mean(self):
        maps = [
            two_bumps((10.0, 10.0), (40.0, 40.0), 0.6),  # margin 0.4
            two_bumps((10.0, 10.0), (40.0, 40.0), 0.8),  # margin 0.2
        ]
        assert bsb_view(maps) == pytest.approx(0.3, abs=1e-12)

    def test_rescale_invariance(self):
        maps = [two_bumps((10.0, 10.0), (40.0, 40.0), 0.6)]
        scaled = [Heatmap(maps[0].values * 12.0)]
        assert bsb_view(maps) == pytest.approx(bsb_view(scaled), abs=1e-12)

    def test_empty_keypoint_list_rejected(self):
        with pytest.raises(DimensionMismatch):
            bsb_view([])

    @given(
        st.lists(
            st.lists(st.sampled_from([1.0, 0.5, 0.25]) | st.floats(1e-6, 900.0), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=100)
    def test_margins_match_the_one_list_formula(self, lists):
        lists = [sorted(values, reverse=True) for values in lists]
        got = peak_margins(value_lists(*lists))
        want = np.array([1.0 if len(v) < 2 else 1.0 - v[1] / v[0] for v in lists])
        assert got.tobytes() == want.tobytes()


class TestMpe:
    def test_single_peak_zero(self):
        assert mpe_view([Heatmap(gaussian_values((20.0, 20.0), SPEC64))]) == 0.0

    def test_maps_must_share_one_grid(self):
        with pytest.raises(DimensionMismatch):
            mpe_view([Heatmap(np.ones((4, 4))), Heatmap(np.ones((5, 4)))])
        with pytest.raises(DimensionMismatch):
            mpe_view([])

    @pytest.mark.parametrize("value", [0.7, 1e-300, 3e300, np.inf, np.nan])
    def test_single_value_entropy_is_the_general_formula(self, value):
        # The one-value shortcut returns what softmax-then-entropy gives.
        v = np.array([value])
        with np.errstate(invalid="ignore"):
            z = np.exp(v - v.max())
            p = z / z.sum()
        p = p[p > 0]
        want = float(-(p * np.log(p)).sum())
        got = peak_softmax_entropy([value])
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_two_equal_peaks_ln2(self):
        hm = two_bumps((20.0, 30.0), (40.0, 30.0), 1.0)
        assert mpe_view([hm]) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_softmax_entropy_two_to_one(self):
        # softmax(2, 1) = (0.7311, 0.2689); entropy frozen from a direct
        # high-precision evaluation of -sum(p ln p).
        assert peak_softmax_entropy([2.0, 1.0]) == pytest.approx(
            0.5822031088882179, abs=1e-12
        )
        hm = two_bumps((20.0, 30.0), (40.0, 30.0), 0.5)
        scaled = Heatmap(hm.values * 2.0)  # raw peak values 2.0 and 1.0
        assert mpe_view([scaled]) == pytest.approx(0.5822031088882179, abs=1e-9)

    def test_keypoint_mean(self):
        maps = [
            two_bumps((20.0, 30.0), (40.0, 30.0), 1.0),  # ln 2
            Heatmap(gaussian_values((20.0, 20.0), SPEC64)),  # 0
        ]
        assert mpe_view(maps) == pytest.approx(np.log(2.0) / 2.0, abs=1e-12)

    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=5), st.floats(-50.0, 50.0))
    @settings(max_examples=80)
    def test_softmax_shift_invariance(self, values, shift):
        a = peak_softmax_entropy(values)
        b = peak_softmax_entropy([v + shift for v in values])
        assert a == pytest.approx(b, abs=1e-9)

    @given(
        st.lists(
            st.lists(
                st.sampled_from([1.0, 0.5, 0.25, 1e-3]) | st.floats(1e-6, 900.0),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200)
    def test_entropies_match_the_one_list_formula(self, lists):
        # Peak lists as local_peaks_stack gives them, value descending,
        # with ties, and with values far enough apart that exp underflows.
        lists = [sorted(values, reverse=True) for values in lists]
        got = peak_entropies(value_lists(*lists))
        want = np.array([reference_entropy(values) for values in lists])
        assert got.tobytes() == want.tobytes()

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionMismatch):
            peak_entropies(value_lists([1.0], []))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_keypoint_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        maps = [
            Heatmap(r.random((16, 16)) + 0.01)
            for _ in range(4)
        ]
        perm = list(r.permutation(4))
        assert mpe_view(maps) == pytest.approx(
            mpe_view([maps[i] for i in perm]), abs=1e-12
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=40)
    def test_bounded_by_log_max_peaks(self, seed, max_peaks):
        r = np.random.default_rng(seed)
        hm = Heatmap(r.random((24, 24)) + 1e-6)
        params = PeakParams(max_peaks=max_peaks)
        val = mpe_view([hm], params)
        assert 0.0 <= val <= np.log(max(max_peaks, 2)) + 1e-12
