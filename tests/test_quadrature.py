import numpy as np
import pytest
from scipy.integrate import quad

from aalab.quadrature import (MAX_SEGMENTS, SubdivisionOverflow, gauss_nodes,
                              quadrature_layouts, quadrature_nodes)


def test_layout_segments_sorted_clipped_and_merged():
    # one node per segment: its midpoint, weighted by the segment's length
    pts, wts = quadrature_nodes(0.0, 1.0, [0.5, -3.0, 0.25, 2.0, 0.25], nodes=1)
    assert list(wts) == [0.25, 0.25, 0.5]
    assert list(pts) == [0.125, 0.375, 0.75]


def test_segment_overflow():
    with pytest.raises(SubdivisionOverflow):
        quadrature_nodes(0.0, 1.0, np.linspace(0.05, 0.95, 5000))


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        quadrature_nodes(1.0, 1.0)


def test_polynomial_exactness():
    # GL with n nodes integrates degree 2n-1 exactly per segment
    pts, wts = quadrature_nodes(0.0, 2.0, [0.3], nodes=16)
    val = wts @ (7 * pts ** 5 - pts ** 2)
    exact = 7 * 2.0 ** 6 / 6 - 2.0 ** 3 / 3
    assert abs(val - exact) < 1e-13


def test_kinked_integrand_with_breakpoint():
    pts, wts = quadrature_nodes(0.25, 1.25, [0.5, 1.0], nodes=32)
    val = wts @ np.abs(np.sin(2 * np.pi * pts))
    assert abs(val - 2 / np.pi) < 1e-13


def test_against_adaptive_oracle():
    fn = lambda x: np.exp(-x) * np.cos(3 * x)
    oracle, _ = quad(fn, 0.0, 2.0, epsabs=1e-13)
    pts, wts = quadrature_nodes(0.0, 2.0, nodes=32)
    assert abs(wts @ fn(pts) - oracle) < 1e-12


def test_weights_sum_to_length():
    _, w = quadrature_nodes(1.0, 4.0, [1.5, 2.5], nodes=24)
    assert abs(np.sum(w) - 3.0) < 1e-13


# ---------------------------------------------------------------------------
# the batched layout builder against the per-interval rule it replaced
# ---------------------------------------------------------------------------

def old_layout(lo, hi, breakpoints, nodes):
    """One interval's layout by the per-interval rule: clip to the open
    interval, sort, merge a point within 1e-14 of the length of its
    predecessor, re-append hi when it was merged away."""
    lo, hi = float(lo), float(hi)
    pts = np.asarray(breakpoints, dtype=float)
    pts = pts[(pts > lo) & (pts < hi)]
    pts = np.concatenate([[lo], np.sort(pts), [hi]])
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-14 * (hi - lo)])]
    if pts[-1] != hi:
        pts = np.concatenate([pts, [hi]])
    x, w = gauss_nodes(nodes)
    mids = 0.5 * (pts[1:] + pts[:-1])
    halfs = 0.5 * (pts[1:] - pts[:-1])
    return (mids[:, None] + halfs[:, None] * x).ravel(), (halfs[:, None] * w).ravel()


def layout_cases():
    tol = 1e-14
    return [
        (0.0, 1.0, []),                                        # no breakpoint
        (-2.5, -1.5, [-3.0, 7.0, -2.5, -1.5]),                 # all outside or on the ends
        (0.0, 1.0, [0.5, -3.0, 0.25, 2.0, 0.25, 0.9, 0.1]),    # unsorted, duplicated, outside
        (0.3, 1.3, [0.3 + 0.4 * tol, 0.8]),                    # within tolerance of lo
        (0.3, 1.3, [0.7, 1.3 - 0.4 * tol]),                    # within tolerance of hi
        (1.0, 4.0, [2.0, 2.0 + 2.0 * tol, 2.0 + 4.0 * tol]),   # a chain of near neighbours
        (1.0, 4.0, [2.0 + 4.0 * tol, 2.0, 3.5, 2.0 + 2.0 * tol]),  # the same, unsorted
        (-1.0, 1.0, [0.0, tol * 2.0]),                         # exactly the tolerance apart
        (0.0, 1.0, [0.5, 0.5 + 5.0 * tol]),                    # a few tolerances apart
        (5.0, 5.5, np.linspace(4.0, 6.0, 41)),                 # a shorter interval
        (-40.0, 60.0, np.linspace(-50.0, 70.0, 999)),          # a longer one
        (0.1, 1.1, np.random.default_rng(2).uniform(0.0, 1.2, 60)),
    ]


@pytest.mark.parametrize("nodes", [16, 32])
def test_layouts_equal_the_per_interval_rule(nodes):
    cases = layout_cases()
    lo, hi, bps = zip(*cases)
    points, weights, sizes = quadrature_layouts(lo, hi, bps, nodes)
    assert sizes.shape == (len(cases),)
    col = 0
    for (a, b, p), size in zip(cases, sizes):
        want_pts, want_wts = old_layout(a, b, p, nodes)
        assert size == want_pts.size
        assert np.array_equal(points[col:col + size], want_pts)
        assert np.array_equal(weights[col:col + size], want_wts)
        single = quadrature_nodes(a, b, p, nodes)
        assert np.array_equal(single[0], want_pts) and np.array_equal(single[1], want_wts)
        col += size
    assert col == points.size == weights.size


def test_layouts_keep_the_sliver_at_hi():
    # a breakpoint within tolerance of hi merges hi away; hi comes back and
    # leaves a sliver segment, as the per-interval rule always had it
    hi = 1.0
    pts, wts = quadrature_nodes(0.0, hi, [0.5, hi - 4e-15], nodes=1)
    assert list(pts[:2]) == [0.25, 0.5 * (0.5 + hi - 4e-15)]
    assert pts[2] == 0.5 * (hi + hi - 4e-15) and 0.0 < wts[2] < 1e-14
    _, _, sizes = quadrature_layouts([0.0, 2.0], [hi, 3.0], [[0.5, hi - 4e-15], []], 16)
    assert list(sizes) == [48, 16]


def test_layouts_of_no_intervals_are_empty():
    points, weights, sizes = quadrature_layouts([], [], [], 16)
    assert points.size == weights.size == sizes.size == 0


def test_layouts_overflow_names_the_offending_interval():
    crowded = np.linspace(2.05, 2.95, MAX_SEGMENTS)  # MAX_SEGMENTS + 1 segments
    fits = np.linspace(0.05, 0.95, MAX_SEGMENTS - 1)  # exactly MAX_SEGMENTS
    quadrature_layouts([0.0, 4.0], [1.0, 5.0], [fits, fits + 4.0], 16)
    # the first interval over the cap is named, as a per-interval loop would
    with pytest.raises(SubdivisionOverflow, match=r"1025 segments on \[2.0, 3.0\]"):
        quadrature_layouts([0.0, 2.0, 4.0, 6.0], [1.0, 3.0, 5.0, 7.0],
                           [fits, crowded, fits + 4.0, crowded + 4.0], 16)


def test_layouts_reject_an_empty_interval():
    with pytest.raises(ValueError, match=r"\[3.0, 3.0\]"):
        quadrature_layouts([0.0, 3.0], [1.0, 3.0], [[], []], 16)
