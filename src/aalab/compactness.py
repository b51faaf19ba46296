"""Compactness, energy, and minimality diagnostics for solved trajectories.

Relative compactness of a range is probed with greedy farthest-point covers:
the number of diameter-eps balls needed to cover a sampled range, watched as
the sampling densifies.  Stable counts are the operational verdict; no claim
is made of computing a noncompactness measure exactly, which no finite
sample could do.

The energy functional E(x) = 1/2 integral |x|^2 drives the contraction and
minimality diagnostics: differences of solutions dissipate energy when the
reaction term g has g(r) - r nonincreasing, and the parallelogram identity
turns the energy of a difference into a computable minimality gap.
"""

from dataclasses import dataclass

import numpy as np

from .signals import StepanovConfig
from .util import ordered_map


# ---------------------------------------------------------------------------
# Point clouds and covers
# ---------------------------------------------------------------------------

class PointCloud:
    """A finite set of states sharing one basis (or plain scalars).

    ``points`` is an (n, d) array of grid values (d = 1 for scalars); the
    metric is the sup norm by default, or L2 with the basis quadrature
    weights.
    """

    def __init__(self, points, metric="sup", weights=None):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.shape[0] == 0:
            raise ValueError("point cloud must be nonempty")
        if metric not in ("sup", "L2"):
            raise ValueError(f"unknown metric {metric!r}")
        self.points = points
        self.metric = metric
        self.weights = weights

    @classmethod
    def from_trajectory(cls, traj, metric="sup", stride=1):
        vals = traj.coeffs[::stride] @ traj.basis.eigenfunctions
        w = traj.basis.weights if metric == "L2" else None
        return cls(vals, metric=metric, weights=w)

    def __len__(self):
        return self.points.shape[0]

    def distances_to(self, index):
        """Distances from every point to the point at ``index``."""
        diff = self.points - self.points[index]
        if self.metric == "sup":
            return np.max(np.abs(diff), axis=1)
        w = self.weights if self.weights is not None else np.ones(diff.shape[1])
        return np.sqrt((diff * diff) @ w)

    def diameter(self):
        worst = 0.0
        for i in range(len(self)):
            worst = max(worst, float(np.max(self.distances_to(i))))
        return worst


@dataclass
class CoverReport:
    """Greedy cover counts over an epsilon ladder (balls of diameter eps)."""

    epsilons: np.ndarray
    counts: np.ndarray
    centers: list


def greedy_cover(cloud, eps):
    """Farthest-point cover with balls of diameter eps (radius eps/2).

    Starts from index 0 and repeatedly promotes the point farthest from the
    chosen centers (ties resolved to the lowest index) until every point
    sits within eps/2 of a center.  Deterministic by construction.

    Returns (center indices, cover radius actually achieved).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    centers = [0]
    nearest = cloud.distances_to(0)
    while True:
        worst = float(np.max(nearest))
        if worst <= eps / 2.0:
            return centers, worst
        candidate = int(np.argmax(nearest))  # argmax returns the lowest tied index
        centers.append(candidate)
        nearest = np.minimum(nearest, cloud.distances_to(candidate))


def cover_ladder(cloud, epsilons, threads=1):
    """CoverReport over a ladder of ball diameters."""
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    results = ordered_map(lambda e: greedy_cover(cloud, e), epsilons, threads)
    counts = np.array([len(c) for c, _ in results], dtype=int)
    centers = [c for c, _ in results]
    return CoverReport(epsilons=epsilons, counts=counts, centers=centers)


def optimal_interval_cover(points, eps):
    """Minimal number of length-eps intervals covering scalar points.

    Left-to-right sweep; optimal on the line, used as the reference the
    greedy cover is compared against.
    """
    pts = np.sort(np.asarray(points, dtype=float).ravel())
    count = 0
    i = 0
    while i < len(pts):
        count += 1
        right = pts[i] + eps
        i = int(np.searchsorted(pts, right, side="right"))
    return count


@dataclass
class CompactnessReport:
    """Cover counts per sampling density; stability across densities is the
    operational stand-in for a relatively compact range."""

    epsilons: np.ndarray
    strides: np.ndarray
    counts: np.ndarray  # shape (len(strides), len(epsilons))
    stable: bool

    @property
    def verdict(self):
        return "compactness-consistent" if self.stable else "inconclusive"


def range_compactness_report(traj, epsilons, strides=(4, 2, 1), metric="sup",
                             threads=1):
    """Cover the sampled range at several densities and compare counts.

    ``strides`` are subsampling strides in decreasing order (doubling
    density); the verdict is consistent when counts agree between the final
    two densities at every eps.
    """
    strides = np.asarray(sorted(set(int(s) for s in strides), reverse=True))
    table = []
    for stride in strides:
        cloud = PointCloud.from_trajectory(traj, metric=metric, stride=int(stride))
        table.append(cover_ladder(cloud, epsilons, threads=threads).counts)
    counts = np.stack(table)
    stable = bool(np.all(counts[-1] == counts[-2])) if len(strides) > 1 else True
    eps_sorted = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    return CompactnessReport(epsilons=eps_sorted, strides=strides,
                             counts=counts, stable=stable)


# ---------------------------------------------------------------------------
# Uniform windowed bound over a compact cloud
# ---------------------------------------------------------------------------

def uniform_stepanov_bound(rhs, cloud, p, cfg=None, threads=1):
    """k_p: the worst windowed L^p norm of t -> f(t, x) over the cloud.

    ``rhs(values)`` must return a Signal for a fixed state given by its grid
    values.  Finite whenever the forcing is Stepanov-bounded, however large
    the cloud: this is the constant the uniform-continuity envelope uses.
    """
    cfg = cfg if cfg is not None else StepanovConfig()

    def norm_for(point):
        sig = rhs(point)
        from .signals import stepanov_norm
        return stepanov_norm(sig, cfg)

    vals = ordered_map(norm_for, list(cloud.points), threads)
    return float(np.max(vals))


def evolution_rhs_signal(nonlinearity, forcing):
    """Factory of Signals t -> sup-norm of G(x) + H(t) for a frozen state x."""
    from .signals import FunctionSignal

    def make(values):
        g_vals = nonlinearity.fn(np.asarray(values, dtype=float))

        def fn(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            if forcing is None or forcing.is_zero:
                return np.full(t.shape, float(np.max(np.abs(g_vals))))
            h = forcing.grid_values(t)
            return np.max(np.abs(h + g_vals[None, :]), axis=-1)

        bp = (lambda lo, hi: forcing.breakpoints(lo, hi)) if forcing is not None else None
        return FunctionSignal(fn, name="rhs-sup", breakpoint_fn=bp)

    return make


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def energy(f):
    """E(x) = 1/2 integral |x|^2 by the trapezoid rule on the field grid."""
    v = f.values
    return 0.5 * float((v * v) @ f.basis.weights)


@dataclass
class EnergyTrace:
    """E(u(t) - v(t)) along shared stamps, with its worst forward jump."""

    stamps: np.ndarray
    values: np.ndarray
    max_forward_jump: float
    tolerance: float
    passed: bool

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"


def energy_monotonicity_check(u, v, tolerance=1e-8):
    """Verify E(u - v) never increases by more than the drift tolerance.

    Requires matching stamps and bases.  Meaningful when the reaction term
    has g(r) - r nonincreasing; with g = 0 the trace follows the per-mode
    closed form exactly.
    """
    if len(u.stamps) != len(v.stamps) or np.max(np.abs(u.stamps - v.stamps)) > 1e-12:
        raise ValueError("trajectories must share stamps")
    if not u.basis.compatible(v.basis):
        raise ValueError("trajectories must share a basis")
    diff = u.coeffs - v.coeffs
    vals = 0.5 * np.sum(diff * diff, axis=1)  # Parseval: grid trapezoid = sum c_k^2
    jumps = np.diff(vals)
    worst = float(np.max(jumps)) if jumps.size else 0.0
    return EnergyTrace(stamps=u.stamps.copy(), values=vals,
                       max_forward_jump=worst, tolerance=tolerance,
                       passed=worst <= tolerance)


def constant_energy_offset_check(u, v, nonlinearity, tolerance=1e-8):
    """When E(u - v) is constant, recover the constant offset field w0.

    Returns (w0, max deviation of (u - v)(t) from w0, worst residual of
    G(u(t)) - G(v(t)) + lambda1 w0).  Raises if the energy trace is not
    constant within the tolerance: the caller should not have invoked it.
    """
    trace = energy_monotonicity_check(u, v, tolerance=np.inf)
    spread = float(np.max(trace.values) - np.min(trace.values))
    if spread > tolerance:
        raise ValueError(
            f"energy of the difference varies by {spread:.3g} > {tolerance:g}; "
            "offset extraction needs a constant trace"
        )
    diff = u.coeffs - v.coeffs
    w0_coeffs = np.mean(diff, axis=0)
    E = u.basis.eigenfunctions
    deviation = float(np.max(np.abs((diff - w0_coeffs) @ E)))
    w0_values = w0_coeffs @ E
    lam1 = u.basis.lambda1
    uu = u.coeffs @ E
    vv = v.coeffs @ E
    residual = float(np.max(np.abs(
        nonlinearity.fn(uu) - nonlinearity.fn(vv) + lam1 * w0_values[None, :])))
    from .spectral import Field
    return Field(u.basis, coeffs=w0_coeffs), deviation, residual


# ---------------------------------------------------------------------------
# Subvariant functionals and minimal solutions
# ---------------------------------------------------------------------------

def _functional(ident):
    if ident == "sup-norm":
        return lambda traj: np.max(np.abs(traj.coeffs @ traj.basis.eigenfunctions), axis=1)
    if ident == "energy-sup":
        return lambda traj: 0.5 * np.sum(traj.coeffs ** 2, axis=1)
    if callable(ident):
        return ident
    raise KeyError(f"unknown functional id {ident!r}")


def subvariant_eval(traj, functional="sup-norm"):
    """sup over stamps of Phi(x(t)).

    Translation invariant by construction: shifting all stamps leaves the
    value unchanged, and two trajectories agreeing on an overlap window give
    the same value over that window.
    """
    return float(np.max(_functional(functional)(traj)))


@dataclass
class SubvariantReport:
    """Functional values per candidate, the argmin, and the minimality gap."""

    functional: str
    values: np.ndarray
    argmin: int
    tied: bool
    parallelogram_gap: float | None
    indistinguishable: bool

    @property
    def verdict(self):
        if self.parallelogram_gap is None:
            return "single-candidate"
        return "indistinguishable-minimal" if self.indistinguishable else "distinct"


def minimal_solution_select(candidates, functional="sup-norm", gap_tolerance=1e-6):
    """Pick the subvariant minimizer among candidate trajectories.

    Ties go to the lowest index and are reported.  For the two best
    candidates the parallelogram gap

        c = inf_t 4 [ E(u)/2 + E(v)/2 - E((u + v)/2) ] = inf_t E(u - v)

    is computed on shared stamps; c below tolerance means the two are
    operationally one minimal solution.
    """
    if not candidates:
        raise ValueError("need at least one candidate trajectory")
    values = np.array([subvariant_eval(c, functional) for c in candidates])
    argmin = int(np.argmin(values))
    tied = bool(np.sum(np.isclose(values, values[argmin], rtol=0, atol=1e-12)) > 1)
    gap = None
    indist = False
    if len(candidates) >= 2:
        order = np.argsort(values, kind="stable")
        u, v = candidates[order[0]], candidates[order[1]]
        n = min(len(u.stamps), len(v.stamps))
        eu = 0.5 * np.sum(u.coeffs[:n] ** 2, axis=1)
        ev = 0.5 * np.sum(v.coeffs[:n] ** 2, axis=1)
        mid = 0.5 * (u.coeffs[:n] + v.coeffs[:n])
        em = 0.5 * np.sum(mid ** 2, axis=1)
        gap = float(np.min(4.0 * (0.5 * eu + 0.5 * ev - em)))
        indist = gap <= gap_tolerance
    return SubvariantReport(
        functional=functional if isinstance(functional, str) else "custom",
        values=values, argmin=argmin, tied=tied,
        parallelogram_gap=gap, indistinguishable=indist)
