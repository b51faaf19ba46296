import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from aalab import spectral as sp


@pytest.fixture(scope="module")
def basis():
    return sp.SpectralBasis(length=1.0, modes=8, grid=64)


def test_dirichlet_spectrum():
    b1 = sp.SpectralBasis(1.0, 1, 16)
    assert b1.eigenvalues[0] == pytest.approx(np.pi ** 2, rel=1e-14)
    b3 = sp.SpectralBasis(1.0, 3, 16)
    assert b3.eigenvalues[2] == pytest.approx(9 * np.pi ** 2, rel=1e-14)
    b_long = sp.SpectralBasis(2.0, 1, 16)
    assert b_long.eigenvalues[0] == pytest.approx(np.pi ** 2 / 4, rel=1e-14)


def test_resolution_guard():
    with pytest.raises(ValueError):
        sp.SpectralBasis(1.0, 8, 16)


def test_projection_orthonormal_mode(basis):
    f = sp.field_from_function(basis, lambda x: np.sqrt(2.0) * np.sin(np.pi * x))
    c = f.coeffs
    assert c[0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(c[1:])) < 1e-13


def test_projection_matches_quadrature_oracle(basis):
    fn = lambda x: np.sin(np.pi * x) + 0.5 * np.sin(2 * np.pi * x)
    f = sp.field_from_function(basis, fn)
    c = f.coeffs
    for k in (1, 2, 3):
        oracle, _ = quad(lambda x: fn(x) * np.sqrt(2.0) * np.sin(k * np.pi * x),
                         0.0, 1.0, epsabs=1e-13)
        assert c[k - 1] == pytest.approx(oracle, abs=1e-10)


def test_zero_field(basis):
    f = sp.Field(basis, values=np.zeros(basis.grid + 1))
    assert np.all(f.coeffs == 0.0)
    assert f.sup_norm() == 0.0


def test_round_trip_band_limited(basis):
    rng = np.random.default_rng(11)
    c = rng.standard_normal(basis.modes)
    back = sp.Field(basis, values=sp.Field(basis, coeffs=c).values).coeffs
    assert np.max(np.abs(back - c)) < 1e-10 * np.max(np.abs(c))


def test_semigroup_identity_and_mode_decay(basis):
    f = sp.mode_field(basis, 1)
    assert np.allclose(sp.apply_semigroup(f, 0.0).coeffs, f.coeffs)
    g = sp.apply_semigroup(f, 0.1)
    assert g.coeffs[0] == pytest.approx(np.exp(-np.pi ** 2 * 0.1), rel=1e-14)


def test_semigroup_law_per_mode(basis):
    rng = np.random.default_rng(5)
    f = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
    lhs = sp.apply_semigroup(sp.apply_semigroup(f, 0.1), 0.2).coeffs
    rhs = sp.apply_semigroup(f, 0.3).coeffs
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-13


def test_semigroup_rejects_negative_time(basis):
    with pytest.raises(ValueError):
        sp.apply_semigroup(sp.mode_field(basis, 1), -0.1)


def test_sup_norm_known_maxima():
    b = sp.SpectralBasis(1.0, 2, 16)
    f1 = sp.field_from_function(b, lambda x: np.sin(np.pi * x))
    assert f1.sup_norm() == pytest.approx(1.0, abs=1e-15)  # node at midpoint
    f2 = sp.field_from_function(b, lambda x: np.sin(2 * np.pi * x))
    assert f2.sup_norm() == pytest.approx(1.0, abs=1e-15)  # nodes at quarters


def test_boundary_zeros_preserved(basis):
    rng = np.random.default_rng(2)
    f = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
    for t in (0.0, 0.05, 1.0):
        v = sp.apply_semigroup(f, t).values
        assert v[0] == 0.0 and v[-1] == 0.0


def test_decay_bound_single_mode(basis):
    f = sp.mode_field(basis, 1)
    report = sp.decay_bound_check(f, np.linspace(0.0, 2.0, 21))
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.within_bound


def test_decay_bound_random_fields():
    b = sp.SpectralBasis(1.0, 16, 128)
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 2.0, 41)
    worst = 0.0
    for _ in range(50):
        f = sp.Field(b, coeffs=rng.standard_normal(16))
        worst = max(worst, sp.decay_bound_check(f, times).max_ratio)
    assert worst <= 1.0 + 1e-10


@pytest.mark.parametrize("modes, grid", [(16, 128), (64, 256)])
def test_decay_bound_fails_on_a_flat_topped_field(modes, grid):
    """The envelope with prefactor 1 does not hold in the sup norm: a
    flat-topped field settles onto its first mode, whose sup is above the
    field's (4/pi of it for the constant 1)."""
    b = sp.SpectralBasis(1.0, modes, grid)
    f = sp.field_from_function(b, lambda x: np.minimum(1.0, 20.0 * x * (1.0 - x)))
    report = sp.decay_bound_check(f, np.linspace(0.0, 2.0, 41))
    assert report.max_ratio == pytest.approx(1.2675, abs=1e-4)
    assert not report.within_bound


def test_decay_bound_needs_nonzero(basis):
    with pytest.raises(ValueError):
        sp.decay_bound_check(sp.Field(basis, coeffs=np.zeros(basis.modes)),
                             [0.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.01, 3.0), seed=st.integers(0, 1000))
def test_sup_contraction_property(t, seed):
    b = sp.SpectralBasis(1.0, 8, 64)
    rng = np.random.default_rng(seed)
    f = sp.Field(b, coeffs=rng.standard_normal(8))
    assert sp.apply_semigroup(f, t).sup_norm() <= f.sup_norm() + 1e-12


def test_compactness_surrogate_tail_mass(basis):
    rng = np.random.default_rng(9)
    half = basis.modes // 2
    lam_half = basis.eigenvalues[half - 1]
    for _ in range(10):
        f = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
        total = float(np.sum(f.coeffs ** 2))
        for t in (0.1, 0.5, 1.0):
            g = sp.apply_semigroup(f, t)
            tail = sp.spectral_tail_mass(g, half + 1)
            assert tail <= np.exp(-2 * lam_half * t) * total + 1e-300


def test_field_serialization_round_trip(tmp_path, basis):
    rng = np.random.default_rng(4)
    f = sp.Field(basis, coeffs=rng.standard_normal(basis.modes))
    path = tmp_path / "field.csv"
    sp.save_field_csv(f, str(path))
    assert path.read_text().startswith(f"# basis L={basis.length!r} K={basis.modes} N={basis.grid}\n")
    data = np.loadtxt(str(path), comments="#", delimiter=",", skiprows=2)
    assert np.array_equal(data[:, 0], basis.xi)
    assert np.max(np.abs(data[:, 1] - f.values)) < 1e-13


def test_field_arithmetic(basis):
    f = sp.mode_field(basis, 1, 2.0)
    g = sp.mode_field(basis, 2, 1.0)
    h = 0.5 * (f + g) - g
    assert h.coeffs[0] == pytest.approx(1.0)
    assert h.coeffs[1] == pytest.approx(-0.5)
    other = sp.SpectralBasis(1.0, 4, 32)
    with pytest.raises(ValueError):
        _ = f + sp.mode_field(other, 1)
