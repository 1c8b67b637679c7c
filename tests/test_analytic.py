import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad

from decolab import analytic, fock, generators, integrate
from decolab.analytic import FreeParticlePair
from decolab.exceptions import ConfigError, ValidityWarning
from decolab.generators import PLANCK, KernelSpec, ModelParams


class TestKernelIntegral:
    def test_delta_kernel_is_half_t(self):
        k = KernelSpec(kind="delta")
        assert analytic.g_kernel(3.0, k) == pytest.approx(1.5)
        assert analytic.g_kernel(0.0, k) == 0.0

    def test_exponential_limits(self):
        k = KernelSpec(kind="exponential", tau=0.5)
        # short times: quadratic, g ~ t^2/(4 tau)
        t = 1e-4
        assert analytic.g_kernel(t, k) == pytest.approx(t**2 / (4 * 0.5), rel=1e-3)
        # long times: t/2 minus the constant offset tau/2
        assert analytic.g_kernel(50.0, k) == pytest.approx(25.0 - 0.25, rel=1e-12)

    def test_matches_double_quadrature(self):
        # independent oracle: g(t) = ∫0^t ∫0^t f(u - v) du dv / 2 symmetrized
        tau = 0.7
        k = KernelSpec(kind="exponential", tau=tau)
        f = lambda u: math.exp(-abs(u) / tau) / (2 * tau)
        for t in (0.3, 1.0, 4.0):
            val, _ = dblquad(lambda v, u: f(u - v), 0, t, 0, lambda u: u,
                             epsabs=1e-12)
            assert analytic.g_kernel(t, k) == pytest.approx(val, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            analytic.g_kernel(-1.0, KernelSpec(kind="delta"))


class TestFreeParticle:
    params = ModelParams(omega=1.0, kappa=1e3, beta_bar=1.0, ap_hw=1e-25)

    def test_equal_momenta_give_unity(self):
        pair = FreeParticlePair(p_a=1e-24, p_b=1e-24, mass=1e-20)
        assert analytic.free_particle_coherence(pair, 1.0, self.params) == 1.0

    def test_opposite_momenta_give_pure_phase(self):
        pair = FreeParticlePair(p_a=1e-24, p_b=-1e-24, mass=1e-20)
        val = analytic.free_particle_coherence(pair, 1.0, self.params)
        assert abs(val) == pytest.approx(1.0)

    def test_no_noise_keeps_modulus(self):
        clean = ModelParams(omega=1.0, kappa=0.0, beta_bar=1.0, ap_hw=1e-25)
        pair = FreeParticlePair(p_a=2e-24, p_b=1e-24, mass=1e-20)
        val = analytic.free_particle_coherence(pair, 5.0, clean)
        assert abs(val) == pytest.approx(1.0, abs=1e-12)

    def test_modulus_non_increasing(self):
        pair = FreeParticlePair(p_a=3e-24, p_b=1e-24, mass=1e-20)
        t = np.linspace(0.0, 10.0, 50)
        mod = np.abs(analytic.free_particle_coherence(pair, t, self.params))
        assert mod[0] == pytest.approx(1.0)
        assert np.all(np.diff(mod) <= 1e-15)

    def test_mass_must_be_positive(self):
        with pytest.raises(ValueError):
            FreeParticlePair(p_a=1.0, p_b=0.0, mass=0.0)


class TestK2Elements:
    def test_table_against_operator(self):
        k2 = np.asarray(generators._k2_op(12))
        for (m, n), _ in analytic._K2_TABLE.items():
            assert analytic.k2_matrix_element(m, n, 0.0) == pytest.approx(k2[m, n])

    def test_selection_rule_zeros(self):
        assert analytic.k2_matrix_element(0, 1, 1.3) == 0.0
        assert analytic.k2_matrix_element(0, 6, 1.3) == 0.0

    def test_phase_twist_matches_heisenberg_picture(self):
        tau, bb, ap = 2.3, 0.8, 1e-3
        h = generators.h_rwa(14, bb, ap)
        k2t = generators.heisenberg_k2(h, tau)
        for (m, n) in [(0, 0), (0, 2), (1, 3), (1, 5), (2, 0)]:
            assert analytic.k2_matrix_element(m, n, tau, bb, ap) == pytest.approx(
                k2t[m, n], abs=1e-12)

    def test_untabulated_element_raises(self):
        with pytest.raises(ConfigError, match=r"element \(2,2\) not tabulated"):
            analytic.k2_matrix_element(2, 2, 0.0)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            analytic.k2_matrix_element(-1, 1, 0.0)


class TestCorrelator:
    @staticmethod
    def brute_force(tau, t_prime, bb, ap):
        dim = 12
        h = generators.h_rwa(dim, bb, ap)
        k2a = generators.heisenberg_k2(h, tau)
        k2b = generators.heisenberg_k2(h, t_prime)
        rho = fock.density(fock.superposition01(dim))
        inner = k2b @ rho - rho @ k2b
        outer = k2a @ inner - inner @ k2a
        return outer[0, 1]

    def test_equal_times_value(self):
        assert analytic.c_correlator(1.7, 1.7) == 1.875  # 15/8, exactly dyadic

    def test_against_operator_algebra(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            tau, tp = rng.uniform(0, 5, size=2)
            bb, ap = 0.6, 2e-3
            assert analytic.c_correlator(tau, tp, bb, ap) == pytest.approx(
                self.brute_force(tau, tp, bb, ap), abs=1e-12)

    def test_depends_only_on_time_difference(self):
        assert analytic.c_correlator(3.0, 1.0) == pytest.approx(
            analytic.c_correlator(5.5, 3.5), abs=1e-14)


class TestPerturbativeCurves:
    def test_initial_values_and_slopes(self):
        tau_g = 100.0
        c0 = analytic.gup_coherence01(0.0, 0.0, tau_g)
        assert c0 == 0.5
        p00, p11 = analytic.gup_populations(0.0, 0.0, tau_g)
        assert (p00, p11) == (1.0, 1.0)
        # linear coefficients 30/8, 6/8, 45/8 in t/tau_G
        t = 1.0
        assert abs(analytic.gup_coherence01(t, 0.0, tau_g)) == pytest.approx(
            0.5 * (1 - 3.75 / tau_g))
        p00, p11 = analytic.gup_populations(t, 0.0, tau_g)
        assert p00 == pytest.approx(1 - 0.75 / tau_g)
        assert p11 == pytest.approx(1 - 5.625 / tau_g)

    def test_breuer_coefficients_share_three_eighths(self):
        tau_d = 100.0
        coh, p00, p11 = analytic.breuer_observables(1.0, 0.0, tau_d)
        assert abs(coh) == pytest.approx(0.5 * (1 - 0.375 / tau_d))
        assert p00 == pytest.approx(1 - 0.125 / tau_d)
        assert p11 == pytest.approx(1 - 0.375 / tau_d)

    def test_damping_factors(self):
        gamma, t = 0.02, 5.0
        _, p11 = analytic.gup_populations(t, gamma, math.inf)
        assert p11 == pytest.approx(math.exp(-gamma * t))
        coh = analytic.gup_coherence01(t, gamma, math.inf)
        assert abs(coh) == pytest.approx(0.5 * math.exp(-0.5 * gamma * t))

    def test_validity_warning_past_window(self):
        with pytest.warns(ValidityWarning):
            analytic.gup_populations(25.0, 0.0, 100.0)
        with pytest.warns(ValidityWarning):
            analytic.breuer_observables(25.0, 0.0, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic.gup_populations(19.0, 0.0, 100.0)

    def test_short_time_against_master_equation(self):
        tau_g = 1e4
        p = ModelParams.from_dimensionless(omega_tau_g=tau_g, beta_bar=0.0)
        m = generators.model("gup-markov", p, 16)
        rhs = lambda r, t: generators.gup_markov_rhs(r, m)
        res = integrate.evolve(fock.density(fock.superposition01(16)), rhs,
                               100.0, 0.05, sample_every=400)
        coh = np.abs(analytic.gup_coherence01(res.times_omega, 0.0, tau_g))
        res_vac = integrate.evolve(fock.density(fock.fock_state(0, 16)), rhs,
                                   100.0, 0.05, sample_every=400)
        p00 = 1.0 - 0.75 * res_vac.times_omega / tau_g
        # the linear formulas are first order in t/tau_G; the residual is the
        # O((t/tau)^2) curvature, not integrator error
        assert np.max(np.abs(res.expect("abs_rho_01") - coh)) < 1e-3
        assert np.max(np.abs(res_vac.expect("rho_00") - p00)) < 1e-4


class TestDampingSeries:
    def test_known_matrix_elements(self):
        gamma, t = 0.05, 4.0
        rho0 = fock.density(fock.superposition01(10))
        # beta_bar = 0: plain damped oscillator results
        c01 = analytic.damping_series_element(0, 1, t, gamma, 0.0, 0.0, rho0)
        assert c01 == pytest.approx(
            0.5 * np.exp(1j * t) * math.exp(-0.5 * gamma * t), abs=1e-12)
        p11 = analytic.damping_series_element(1, 1, t, gamma, 0.0, 0.0, rho0)
        assert p11 == pytest.approx(0.5 * math.exp(-gamma * t), abs=1e-12)
        p00 = analytic.damping_series_element(0, 0, t, gamma, 0.0, 0.0, rho0)
        assert p00 == pytest.approx(1.0 - 0.5 * math.exp(-gamma * t), abs=1e-12)

    def test_matches_lindblad_integration(self):
        gamma, bb, ap = 0.1, 0.5, 1e-2
        psi = (fock.fock_state(0, 12) + fock.fock_state(2, 12)
               + fock.fock_state(4, 12)) / math.sqrt(3)
        rho0 = fock.density(psi)
        h = generators.h_rwa(12, bb, ap)

        def rhs(r, t):
            out = -1j * (h @ r - r @ h)
            return out + generators.damping_rhs(r, gamma)

        res = integrate.evolve(
            rho0, lambda x, t: integrate.real_form(rhs(integrate.hermitian(x), t)),
            6.0, 0.005, sample_every=10**9)
        for n1, n2 in [(0, 0), (2, 4), (1, 3), (2, 2)]:
            pred = analytic.damping_series_element(n1, n2, 6.0, gamma, bb, ap, rho0)
            assert pred == pytest.approx(res.states[-1][n1, n2], abs=1e-8)

    def test_truncation_guard(self):
        rho0 = fock.density(fock.fock_state(5, 8))
        with pytest.raises(ConfigError, match="series truncation at n_max=2"):
            analytic.damping_series_element(0, 0, 1.0, 0.1, 0.0, 0.0, rho0,
                                            n_max=2)

    def test_no_support_raises(self):
        rho0 = fock.density(fock.fock_state(0, 4))
        with pytest.raises(ValueError):
            analytic.damping_series_element(4, 4, 1.0, 0.1, 0.0, 0.0, rho0)


class TestGroundStateDeformation:
    def test_variance_formula(self):
        assert analytic.ground_state_variance(0.0, 0.0) == 0.5
        eps = 0.1
        vmin = analytic.ground_state_variance(0.0, eps)
        vmax = analytic.ground_state_variance(math.pi / 2, eps)
        assert vmin == pytest.approx(0.5 - eps / 4)
        assert vmax == pytest.approx(0.5 + eps / 4)
        assert vmax / vmin == pytest.approx((2 + eps) / (2 - eps))

    def test_epsilon_range_guard(self):
        with pytest.raises(ValueError):
            analytic.ground_state_variance(0.0, 2.0)

    def test_exact_ground_state_matches_first_order(self):
        bb, ap = 1.0, 1e-4
        eps = 6.0 * bb * ap
        vx, vp = analytic.deformed_ground_variances(bb, ap)
        assert sorted([vx, vp]) == pytest.approx(
            sorted([0.5 - eps / 4, 0.5 + eps / 4]), abs=1e-6)


class TestEnergyLevels:
    def test_harmonic_limit(self):
        assert analytic.energy_level(3) == 3.5

    def test_anharmonic_shift(self):
        n, bb, ap = 2, 0.7, 1e-3
        expected = 2.5 + 0.375 * ap * bb * (4 + 2 + 0.5)
        assert analytic.energy_level(n, bb, ap) == pytest.approx(expected)

    def test_vectorized(self):
        out = analytic.energy_level(np.arange(4))
        assert np.allclose(out, [0.5, 1.5, 2.5, 3.5])
