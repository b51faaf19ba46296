"""Independent references for the benchmark's output checks.

Nothing here calls the aalab step kernel, its quadrature or its scans: the
references are written from the definitions (sine modes, trapezoid sums,
brute-force maxima) so a defect in the measured code cannot hide itself.
"""

import numpy as np


def sine_matrix(modes, grid, length=1.0):
    """sqrt(2/L) sin(k pi x / L) sampled on grid + 1 nodes: shape (modes, grid + 1)."""
    k = np.arange(1, modes + 1)
    x = np.linspace(0.0, length, grid + 1)
    E = np.sqrt(2.0 / length) * np.sin(np.outer(k * np.pi / length, x))
    E[:, [0, -1]] = 0.0
    return E


def grid_sup(coeffs, E, block=2048):
    """Row-wise max |coeffs @ E|, in blocks so long paths need little memory."""
    return np.concatenate([np.max(np.abs(coeffs[i:i + block] @ E), axis=1)
                           for i in range(0, len(coeffs), block)])


def trapezoid_weights(grid, length=1.0):
    w = np.full(grid + 1, length / grid)
    w[[0, -1]] *= 0.5
    return w


def if_rk4_march(coeffs0, horizon, dt, forcing_values=None, profile=None,
                 modes=16, grid=64, out_grid=256):
    """Integrating-factor (Lawson) RK4 for c' = -lambda c + P(-v^3) + h(t) phi.

    A different scheme from the solver's exponential Picard step, on the
    first ``modes`` sine modes with a pseudo-spectral cube on ``grid``
    intervals (no aliasing into the kept modes while grid >= 3 modes).
    ``forcing_values(ts)`` returns the scalar forcing at an array of times;
    ``profile`` holds its spatial mode coefficients.  Returns the coefficient
    path (steps + 1, modes) and its sup norm on an ``out_grid`` grid.
    """
    E = sine_matrix(modes, grid)
    P = E * trapezoid_weights(grid)[None, :]
    lam = (np.arange(1, modes + 1) * np.pi) ** 2
    half = np.exp(-0.5 * lam * dt)
    n = int(round(horizon / dt))
    if forcing_values is None:
        h = np.zeros(2 * n + 1)
        phi = np.zeros(modes)
    else:
        h = forcing_values(0.5 * dt * np.arange(2 * n + 1))
        phi = np.asarray(profile, dtype=float)[:modes]

    def rhs(c, i):  # i indexes half steps
        v = c @ E
        return P @ (-(v * v * v)) + h[i] * phi

    path = np.empty((n + 1, modes))
    c = np.array(coeffs0, dtype=float)[:modes]
    path[0] = c
    for j in range(n):
        k1 = rhs(c, 2 * j)
        k2 = rhs(half * (c + 0.5 * dt * k1), 2 * j + 1)
        k3 = rhs(half * c + 0.5 * dt * k2, 2 * j + 1)
        k4 = rhs(half * half * c + dt * half * k3, 2 * j + 2)
        c = half * half * c + dt / 6.0 * (half * half * k1 + 2.0 * half * (k2 + k3) + k4)
        path[j + 1] = c
    sup = np.max(np.abs(path @ sine_matrix(modes, out_grid)), axis=1)
    return path, sup


def heat_flow_sup(values0, stamps, length=1.0, block=512):
    """sup over the grid nodes of T(t)|u0|, the heat flow of |u0|.

    |u0| is expanded on all sine modes its grid resolves (exact at the nodes),
    so the flow needs no solver.  For a damping g (g(r) r <= 0) comparison
    gives |u(t)| <= T(t)|u0| pointwise, hence sup|u(t)| <= this envelope,
    which decays like exp(-lambda_1 t).
    """
    grid = len(values0) - 1
    S = sine_matrix(grid - 1, grid, length)
    a = S @ (np.abs(values0) * trapezoid_weights(grid, length))
    lam = (np.arange(1, grid) * np.pi / length) ** 2
    return np.concatenate([np.max((np.exp(-np.outer(stamps[i:i + block], lam)) * a) @ S, axis=1)
                           for i in range(0, len(stamps), block)])


def bump_integral(samples=200001):
    """Area of exp(1 - 1/(1 - 4 s^2)) on (-1/2, 1/2) by the trapezoid rule,
    which converges faster than any power for this flat-ended bump."""
    s = np.linspace(-0.5, 0.5, samples)[1:-1]
    vals = np.exp(1.0 - 1.0 / (1.0 - 4.0 * s * s))
    return float(np.sum(vals) * (1.0 / (samples - 1)))


def window_l1_distance(f, tau, t, samples=200001):
    """integral_t^{t+1} |f(s + tau) - f(s)| ds by a fine trapezoid sum."""
    s = np.linspace(t, t + 1.0, samples)
    d = np.abs(np.asarray(f(s + tau), dtype=float) - np.asarray(f(s), dtype=float))
    return float((np.sum(d) - 0.5 * (d[0] + d[-1])) / (samples - 1))


def nearest_center_distance(points, centers):
    """Sup-norm distance from every row of ``points`` to its nearest center row."""
    best = np.full(points.shape[0], np.inf)
    for c in centers:
        best = np.minimum(best, np.max(np.abs(points - c), axis=1))
    return best


def brute_uc_modulus(values, width):
    """max over index pairs |i - j| <= width of the max-abs row gap."""
    worst = 0.0
    for lag in range(1, min(width, values.shape[0] - 1) + 1):
        worst = max(worst, float(np.max(np.abs(values[lag:] - values[:-lag]))))
    return worst
