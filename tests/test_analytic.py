"""Closed-form degenerate-regime results and eigenfunction evaluation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tprabi import (
    ModelParams,
    Regime,
    SpectralCollapseError,
    SubspaceLabel,
    classify_regime,
    critical_coupling,
    degenerate_spectrum,
    fock_to_position,
    general_solution,
    hermite_gauss,
    plane_wave,
)
from tprabi.analytic import degenerate_energies, kummer_1f1
from tprabi.cli import _closed_form_and_numeric

Q14P = SubspaceLabel(0.25, 1)
Q34P = SubspaceLabel(0.75, 1)


def regime_at(omega: float, g2: float):
    return classify_regime(ModelParams(0.0, omega, g2))


class TestClassifyRegime:
    def test_harmonic_point(self):
        data = regime_at(0.45, 0.1)
        assert data.regime is Regime.HARMONIC
        assert data.Omega == pytest.approx(math.sqrt(0.2025 - 0.04), abs=1e-15)
        assert data.alpha == pytest.approx(math.sqrt(0.25 / 0.65), abs=1e-15)

    def test_free_particle_point(self):
        data = regime_at(0.45, 0.225)
        assert data.regime is Regime.FREE_PARTICLE
        assert data.Omega == 0.0
        assert data.alpha is None

    def test_inverted_point(self):
        data = regime_at(0.5, 0.3)
        assert data.regime is Regime.INVERTED
        assert data.Omega is None and data.alpha is None
        assert data.alpha_minus == pytest.approx(-0.1, abs=1e-15)

    def test_rejects_zero_omega(self):
        with pytest.raises(ValueError):
            classify_regime(ModelParams(0.0, 0.0, 0.1))

    @given(st.floats(0.01, 10.0))
    def test_critical_point_is_free_particle(self, omega):
        # alpha_minus = omega - 2*(omega/2) vanishes exactly in floats
        data = classify_regime(ModelParams(0.0, omega, critical_coupling(omega)))
        assert data.regime is Regime.FREE_PARTICLE

    @given(st.floats(0.01, 5.0), st.floats(0.0, 5.0))
    def test_trichotomy(self, omega, g2):
        data = regime_at(omega, g2)
        if data.alpha_minus > 0:
            assert data.regime is Regime.HARMONIC
        elif data.alpha_minus == 0:
            assert data.regime is Regime.FREE_PARTICLE
        else:
            assert data.regime is Regime.INVERTED


class TestCriticalCoupling:
    @pytest.mark.parametrize("omega,gc", [(0.45, 0.225), (0.5, 0.25), (1.0, 0.5)])
    def test_values(self, omega, gc):
        assert critical_coupling(omega) == gc

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            critical_coupling(0.0)


class TestDegenerateSpectrum:
    def test_bare_oscillator_even_sector(self):
        values = degenerate_spectrum(ModelParams(0.0, 1.0, 0.0), Q14P, 3)
        assert np.allclose(values, [0.5, 2.5, 4.5], atol=1e-15)

    def test_coupled_point(self):
        values = degenerate_spectrum(ModelParams(0.0, 0.45, 0.2), Q14P, 1)
        assert values[0] == pytest.approx(0.1030776, abs=1e-7)

    def test_rejected_at_collapse(self):
        for label in (Q14P, Q34P):
            with pytest.raises(SpectralCollapseError):
                degenerate_spectrum(ModelParams(0.0, 0.45, 0.225), label, 5)

    def test_requires_degenerate_qubit(self):
        with pytest.raises(ValueError):
            degenerate_spectrum(ModelParams(0.5, 0.45, 0.1), Q14P, 5)

    @given(st.floats(0.1, 3.0), st.floats(0.0, 0.45))
    def test_equidistance(self, omega, rel):
        g2 = rel * critical_coupling(omega)
        values = degenerate_spectrum(ModelParams(0.0, omega, g2), Q34P, 8)
        Omega = regime_at(omega, g2).Omega
        assert np.max(np.abs(np.diff(values) - 2 * Omega)) < 1e-12

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            degenerate_energies(1.0, 1.0, 0.25, 0)

    @given(st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    def test_swap_symmetry(self, a_plus, a_minus):
        # the Fourier-like rotation p <-> q swaps the alphas, Omega unchanged
        forward = degenerate_energies(a_plus, a_minus, 0.25, 6)
        swapped = degenerate_energies(a_minus, a_plus, 0.25, 6)
        assert np.allclose(forward, swapped, rtol=1e-12)


class TestHermiteGauss:
    def test_gaussian_peak(self):
        data = regime_at(1.0, 0.0)
        assert hermite_gauss(0, data, [0.0])[0] == pytest.approx(
            math.pi**-0.25, abs=1e-15
        )

    def test_odd_levels_vanish_at_origin(self):
        data = regime_at(0.5, 0.1)
        for n in (1, 3, 5):
            assert hermite_gauss(n, data, [0.0])[0] == 0.0

    @pytest.mark.parametrize("n", range(11))
    def test_unit_norm(self, n):
        data = regime_at(0.5, 0.1)
        beta = (data.alpha_minus / data.alpha_plus) ** 0.25
        x = np.linspace(-12 / beta, 12 / beta, 4001)
        norm = np.trapezoid(hermite_gauss(n, data, x) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", range(9))
    def test_oscillation_theorem(self, n):
        data = regime_at(0.7, 0.2)
        x = np.linspace(-8.0, 8.0, 20001)
        psi = hermite_gauss(n, data, x)
        signs = np.sign(psi[np.abs(psi) > 1e-12])
        assert int(np.sum(signs[1:] != signs[:-1])) == n

    def test_rejected_outside_harmonic(self):
        with pytest.raises(SpectralCollapseError):
            hermite_gauss(0, regime_at(0.5, 0.25), [0.0])

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="level must be >= 0, got -1"):
            hermite_gauss(-1, regime_at(0.5, 0.1), [0.0])

    def test_high_level_stays_finite(self):
        data = regime_at(1.0, 0.0)
        psi = hermite_gauss(200, data, np.linspace(-25, 25, 101))
        assert np.all(np.isfinite(psi)) and np.max(np.abs(psi)) < 1.0


class TestPlaneWave:
    def test_zero_energy_is_constant(self):
        wave = plane_wave(0.0, 1, np.linspace(-3, 3, 7))
        assert np.allclose(wave, (2 * np.pi) ** -0.5, atol=1e-15)

    @given(st.floats(0.0, 30.0))
    def test_constant_modulus(self, lam):
        wave = plane_wave(lam, -1, np.linspace(-5, 5, 11))
        assert np.allclose(np.abs(wave), (2 * np.pi) ** -0.5, atol=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plane_wave(-1.0, 1, [0.0])
        with pytest.raises(ValueError):
            plane_wave(1.0, 2, [0.0])

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_counterpropagating_overlap_envelope(self, lam):
        # |integral of psi+* psi- over [-L, L]| <= 1/(2 pi sqrt(lambda))
        bound = 1 / (2 * np.pi * math.sqrt(lam))
        for window in (3.0, 11.0, 29.0):
            x = np.linspace(-window, window, 40001)
            overlap = np.trapezoid(
                np.conj(plane_wave(lam, 1, x)) * plane_wave(lam, -1, x), x
            )
            assert abs(overlap) <= bound * (1 + 1e-6)

    def test_distinct_energies_decorrelate_with_window(self):
        # normalized overlap envelope 1/(L*delta) falls as the window grows
        delta = math.sqrt(2.0) - math.sqrt(0.8)
        windows = [(math.pi / 2 + j * math.pi) / delta for j in (0, 3, 9)]
        normalized = []
        for window in windows:
            x = np.linspace(-window, window, 40001)
            overlap = np.trapezoid(
                np.conj(plane_wave(0.8, 1, x)) * plane_wave(2.0, 1, x), x
            )
            normalized.append(abs(overlap) / (window / np.pi))
        assert normalized[0] > normalized[1] > normalized[2]


class TestKummer:
    def test_empty_sum(self):
        assert kummer_1f1(2.3, 0.7, 0.0) == 1.0

    def test_exponential_identity_at_one(self):
        assert kummer_1f1(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-14)

    @given(st.floats(-5.0, 5.0))
    def test_exponential_identity(self, z):
        assert kummer_1f1(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_terminating_series(self):
        assert kummer_1f1(-1.0, 0.5, 0.3) == pytest.approx(0.4, abs=1e-15)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            kummer_1f1(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            kummer_1f1(1.0, -2.0, 0.1)
        with pytest.raises(ValueError, match="arguments must be finite"):
            kummer_1f1(1.0, 0.5, math.nan)
        with pytest.raises(ValueError):
            kummer_1f1(1.0, 0.5, 51.0)

    @pytest.mark.parametrize("n", range(5))
    def test_even_hermite_connection(self, n):
        # 1F1(-n; 1/2; x^2) is proportional to H_2n(x)
        x = np.linspace(3.1, 4.5, 20)
        hermite = np.polynomial.hermite.Hermite.basis(2 * n)(x)
        series = np.array([kummer_1f1(-n, 0.5, xi**2) for xi in x])
        ratio = series / hermite
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10 * abs(ratio[0])

    @pytest.mark.parametrize("n", range(5))
    def test_odd_hermite_connection(self, n):
        # x * 1F1(-n; 3/2; x^2) is proportional to H_{2n+1}(x)
        x = np.linspace(3.5, 4.5, 20)
        hermite = np.polynomial.hermite.Hermite.basis(2 * n + 1)(x)
        series = x * np.array([kummer_1f1(-n, 1.5, xi**2) for xi in x])
        ratio = series / hermite
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10 * abs(ratio[0])

    def test_tiny_a_sums_past_its_tiny_first_terms(self):
        # a z / b falls below 1e-14 of the total while (a + k) z / ((b + k)(k + 1))
        # still exceeds 1: the series used to stop there at 1.0000000000000075
        a, b, z = 2.220446049250313e-16, 0.5, 17.0
        assert kummer_1f1(a, b, z) == pytest.approx(float(mpmath.hyp1f1(a, b, z)), rel=1e-12)

    @given(
        st.floats(-4.0, 4.0),
        st.sampled_from([0.5, 1.5, 2.0, 3.7]),
        st.floats(-20.0, 20.0),
    )
    def test_against_reference_implementation(self, a, b, z):
        ours = kummer_1f1(a, b, z)
        # mpmath, not scipy.special.hyp1f1: scipy returns inf for tiny
        # negative z, e.g. hyp1f1(0.03125, 0.5, -4.8e-276)
        reference = float(mpmath.hyp1f1(a, b, z))
        assert ours == pytest.approx(reference, rel=1e-9, abs=1e-12)


class TestGeneralSolution:
    def test_pure_gaussian_branch(self):
        data = regime_at(0.5, 0.1)
        x = np.linspace(-2, 2, 9)
        psi = general_solution(-0.25, data, 1.0, 0.0, x)
        assert np.allclose(psi, np.exp(-data.alpha * x**2 / 4), atol=1e-14)

    def test_odd_branch_vanishes_at_origin(self):
        data = regime_at(0.5, 0.1)
        assert general_solution(1.25, data, 0.0, 1.0, [0.0])[0] == 0.0

    def test_rejected_outside_harmonic(self):
        with pytest.raises(SpectralCollapseError):
            general_solution(0.5, regime_at(0.5, 0.4), 1.0, 0.0, [0.0])

    @pytest.mark.parametrize(
        "nu,c1,c2",
        [(-0.25, 1.0, 0.0), (0.75, 1.0, 0.0), (1.75, 1.0, 0.0), (0.25, 0.0, 1.0), (1.25, 0.0, 1.0)],
    )
    def test_satisfies_eigenvalue_ode(self, nu, c1, c2):
        # terminating-series solutions obey -(a+/2) psi'' + (a-/2) x^2 psi
        # = lambda psi; the closed form's width convention differs from the
        # raw quadrature variable by sqrt(2), so evaluate on a rescaled grid
        data = regime_at(0.5, 0.1)
        h = 1e-3
        u = np.linspace(0.1, 2.5, 25)
        stencil = np.concatenate([u - h, u, u + h])
        psi = general_solution(nu, data, c1, c2, math.sqrt(2.0) * stencil)
        psi_minus, psi_0, psi_plus = psi[:25], psi[25:50], psi[50:]
        second = (psi_plus - 2 * psi_0 + psi_minus) / h**2
        applied = -0.5 * data.alpha_plus * second + 0.5 * data.alpha_minus * u**2 * psi_0
        lam = float(np.dot(applied, psi_0) / np.dot(psi_0, psi_0))
        assert np.max(np.abs(applied - lam * psi_0)) < 1e-6
        assert lam == pytest.approx(data.Omega * (2 * nu + 1), abs=1e-4)


class TestFockToPosition:
    def test_ground_fock_state(self):
        x = np.linspace(-3, 3, 13)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.allclose(
            fock_to_position(e0, x), np.pi**-0.25 * np.exp(-(x**2) / 2), atol=1e-14
        )

    def test_first_excited_vanishes_at_origin(self):
        e1 = np.zeros(8)
        e1[1] = 1.0
        assert fock_to_position(e1, [0.0])[0] == 0.0

    def test_subspace_ladder_spreading(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        x = np.linspace(-2, 2, 9)
        even = fock_to_position(e0, x, Q14P)
        odd = fock_to_position(e0, x, SubspaceLabel(0.75, 1))
        assert np.allclose(even, fock_to_position(np.eye(8)[0], x), atol=1e-14)
        assert np.allclose(odd, fock_to_position(np.eye(8)[1], x), atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            fock_to_position(np.array([0.5, 0.5]), [0.0])
        with pytest.raises(ValueError):
            fock_to_position(np.array([1.0]), [])
        with pytest.raises(ValueError, match="coefficients must be a non-empty vector"):
            fock_to_position(np.array([]), [0.0])
        with pytest.raises(ValueError, match="coefficients must be finite"):
            fock_to_position(np.array([1.0, np.nan]), [0.0])

    def test_numeric_ground_state_matches_analytic_mode(self):
        x = np.linspace(-10, 10, 2001)
        exact, numeric = _closed_form_and_numeric(ModelParams(0.0, 0.5, 0.1), Q14P, 2048, 0, x)
        err = np.sqrt(np.trapezoid((numeric - exact) ** 2, x))
        assert err < 1e-6

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    @pytest.mark.parametrize("label", [Q14P, Q34P], ids=["q14+", "q34+"])
    def test_numeric_modes_at_g_c_match_box_modes(self, label, omega):
        # at g_c, H = omega p^2 on a ladder cut at Fock level ~2 * cutoff: each level is
        # the box mode of the sector's parity, cos or sin(sqrt(E / omega) x) / sqrt(L)
        x = np.linspace(-10.0, 10.0, 401)
        params = ModelParams(0.0, omega, critical_coupling(omega))
        for level in (0, 1, 7, 20):
            exact, numeric = _closed_form_and_numeric(params, label, 2048, level, x)
            assert np.isrealobj(exact)
            assert np.max(np.abs(numeric - exact)) < 1e-4
