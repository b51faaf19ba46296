"""Piecewise Gauss-Legendre quadrature with breakpoint-aware subdivision.

Window integrals in this package routinely meet integrands that are smooth
except at a known, finite set of points (spike-support boundaries, zero
crossings of an absolute value, sample nodes of an interpolant).  Splitting
the interval at those points and applying a fixed Gauss-Legendre rule per
smooth piece keeps the composite error near round-off without adaptivity.
"""

import functools

import numpy as np

# Hard cap on subdivision points per integration interval.  Exceeding it
# means the caller handed in a pathological breakpoint set.
MAX_SEGMENTS = 1024


class SubdivisionOverflow(RuntimeError):
    """Raised when an interval collects more breakpoints than MAX_SEGMENTS."""


@functools.lru_cache(maxsize=32)
def gauss_nodes(n):
    """Return cached Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    return x, w


def _subdivide(lo, hi, breakpoints):
    """Segment endpoints of many intervals at once, by one rule.

    Interval ``j`` is ``[lo[j], hi[j]]`` with the breakpoints
    ``breakpoints[j]``.  Breakpoints outside the open interval are dropped;
    a point at most 1e-14 times the interval length above its predecessor in
    the sorted list (lo included, dropped points too) is dropped, and every
    interval ends at its own hi.
    Returns the kept endpoints, interval by interval and ascending within
    each, the index of the interval each belongs to, and each interval's
    segment count.
    """
    n = lo.size
    bad = np.flatnonzero(hi <= lo)
    if bad.size:
        raise ValueError(f"empty integration interval [{lo[bad[0]]}, {hi[bad[0]]}]")
    pts = [np.asarray(b, dtype=float).ravel() for b in breakpoints]
    owner = np.repeat(np.arange(n), [b.size for b in pts])
    pts = np.concatenate(pts) if pts else np.empty(0)
    inside = (pts > lo[owner]) & (pts < hi[owner])
    ends = np.concatenate([lo, pts[inside], hi])
    owner = np.concatenate([np.arange(n), owner[inside], np.arange(n)])
    order = np.lexsort((ends, owner))
    ends, owner = ends[order], owner[order]
    keep = np.ones(ends.size, dtype=bool)
    first = owner[1:] != owner[:-1]
    keep[1:] = first | (ends[1:] - ends[:-1] > 1e-14 * (hi - lo)[owner[1:]])
    # hi ends its interval even when it lies within the tolerance of the
    # last breakpoint (a sliver segment)
    keep[:-1] |= first
    keep[-1:] = True
    ends, owner = ends[keep], owner[keep]
    segments = np.bincount(owner, minlength=n) - 1
    bad = np.flatnonzero(segments > MAX_SEGMENTS)
    if bad.size:
        j = bad[0]
        raise SubdivisionOverflow(f"{segments[j]} segments on [{lo[j]}, {hi[j]}] "
                                  f"exceed the cap of {MAX_SEGMENTS}")
    return ends, owner, segments


def quadrature_layouts(lo, hi, breakpoints, nodes=32):
    """Gauss-Legendre layouts of many subdivided intervals in one pass.

    ``lo`` and ``hi`` hold the interval ends and ``breakpoints[j]`` the
    breakpoints of interval ``j``.  Returns (points, weights, sizes): the
    layouts flattened one after another, and each interval's node count.
    Every layout is the one ``quadrature_nodes`` gives for its interval,
    bit for bit.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ends, owner, segments = _subdivide(lo, hi, breakpoints)
    same = owner[1:] == owner[:-1]
    left, right = ends[:-1][same], ends[1:][same]
    x, w = gauss_nodes(nodes)
    mids = 0.5 * (right + left)
    halfs = 0.5 * (right - left)
    points = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return points, weights, len(x) * segments


def quadrature_nodes(lo, hi, breakpoints=(), nodes=32):
    """Flattened Gauss-Legendre nodes/weights for the subdivided interval.

    Returns (points, weights) as 1-D arrays; ``sum(w * f(points))``
    approximates the integral of f over [lo, hi].
    """
    points, weights, _ = quadrature_layouts([float(lo)], [float(hi)], [breakpoints], nodes)
    return points, weights

