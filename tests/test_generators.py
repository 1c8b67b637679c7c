import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from decolab import fock, generators
from decolab.generators import PLANCK, KernelSpec, ModelParams
from decolab.integrate import hermitian, real_form


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def exactly_hermitian(rho):
    """(rho + rho†)/2, whose (b, a) entry is the conjugate of its (a, b) entry
    bit for bit."""
    return 0.5 * (rho + rho.conj().T)


def dense_damping(rho, gamma):
    """gamma (a rho a† - {N, rho}/2) from the dense ladder products."""
    dim = rho.shape[0]
    a = fock.ladder(dim)
    n = np.arange(dim, dtype=float)
    anti = 0.5 * (n[:, None] + n[None, :]) * rho
    return gamma * (a @ rho @ a.conj().T - anti)


class TestConstantsAndParams:
    def test_planck_combination(self):
        # a_P hbar omega for the 16.2 ug / 5.96 GHz device
        omega = 2 * math.pi * 5.96e9
        assert PLANCK.ap_hw(1.62e-8, omega) == pytest.approx(1.5e-33, rel=1e-2)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(kind="boxcar", tau=1.0)
        with pytest.raises(ValueError):
            KernelSpec(kind="exponential", tau=0.0)

    def test_from_dimensionless_round_trip(self):
        p = ModelParams.from_dimensionless(omega_tau_g=125e3, omega_tau_d=2e4,
                                           gamma_dimless=1e-3, beta_bar=1.0)
        assert p.gamma_dimless == pytest.approx(1e-3)
        assert generators.model("gup-markov", p, 3).c == pytest.approx(1 / 125e3)
        assert generators.model("breuer", p, 3).c == pytest.approx(0.5 / 2e4)

    @pytest.mark.parametrize("name", generators.MODELS)
    def test_description_carries_its_model_name(self, name):
        p = ModelParams.from_dimensionless(
            omega_tau_g=500.0, kernel=KernelSpec(kind="exponential", tau=2.0))
        assert generators.model(name, p, 6).name == name

    @pytest.mark.parametrize("ap_hw", [0.0, 1e-200, 1e200])
    def test_finite_omega_tau_g_needs_a_coupling(self, ap_hw):
        with pytest.raises(ValueError, match="ap_hw"):
            ModelParams.from_dimensionless(omega_tau_g=100.0, ap_hw=ap_hw)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, gamma=-0.1)
        with pytest.raises(ValueError):
            ModelParams(omega=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega=math.inf)


class TestHamiltonians:
    def test_rwa_levels_formula(self):
        lv = generators.energy_level(np.arange(6), beta_bar=0.7, ap_hw=1e-3)
        n = np.arange(6)
        expected = n + 0.5 + (3 / 8) * 1e-3 * 0.7 * (n**2 + n + 0.5)
        assert np.allclose(lv, expected)

    def test_h_full_structure(self):
        dim, bb, ap = 10, 0.5, 2e-3
        h = generators.h_full(dim, bb, ap)
        n = fock.number_op(dim)
        k2 = np.asarray(fock.kinetic(dim)) @ np.asarray(fock.kinetic(dim))
        expected = n + 0.5 * np.eye(dim) + 4 * ap * bb * k2
        assert np.allclose(h, expected)

    def test_full_hamiltonian_diagonal(self):
        # diagonal of the deformed term is 4 ap bb <n|K^2|n>; the RWA levels
        # carry the conventional (3/8) coefficient instead (see energy_level)
        dim, bb, ap = 8, 1.0, 1e-4
        h = generators.h_full(dim, bb, ap)
        n = np.arange(dim)
        k2_diag = (3 / 8) * (n**2 + n + 0.5)
        # top two rows are corrupted by the basis cut, exclude them
        assert np.allclose(np.diag(h).real[:-2],
                           (n + 0.5 + 4 * ap * bb * k2_diag)[:-2])


class TestSelectionRules:
    def test_k2_couples_even_steps_up_to_four(self):
        k2 = np.asarray(generators._k2_op(14))
        for m in range(10):
            for n in range(10):
                if (m - n) % 2 or abs(m - n) > 4:
                    assert k2[m, n] == 0
        assert k2[0, 2] != 0 and k2[0, 4] != 0

    def test_low_matrix_elements(self):
        k2 = np.asarray(generators._k2_op(12))
        assert k2[0, 0] == pytest.approx(3 / 16)
        assert k2[1, 1] == pytest.approx(15 / 16)
        assert k2[0, 2] == pytest.approx(-3 * math.sqrt(2) / 8)
        assert k2[1, 5] == pytest.approx(math.sqrt(30) / 8)


class TestRhs:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_gup_dissipator_traceless_and_hermitian(self, seed):
        rho = exactly_hermitian(random_density(9, seed))
        p = ModelParams.from_dimensionless(omega_tau_g=100.0, beta_bar=1.0)
        desc = generators.model("gup-markov", p, 9)
        c = desc.c
        p_nm = dataclasses.replace(p, kernel=KernelSpec(kind="exponential", tau=0.3))
        desc_nm = generators.model("gup-nonmarkov", p_nm, 9)
        # the real form of the output: tr rho' = tr X', and rho' = hermitian(X')
        # is Hermitian by construction
        for out in (generators.gup_markov_rhs(real_form(rho), desc),
                    generators.gup_nonmarkov_rhs(real_form(rho), 2.0, desc_nm)):
            assert abs(np.trace(out)) < 1e-12
        # reference: the dense commutator with the RWA Hamiltonian
        comm = lambda a, b: a @ b - b @ a
        for dim in (8, 16, 24):
            rho = exactly_hermitian(random_density(dim, seed))
            h = generators.h_rwa(dim, p.beta_bar, p.ap_hw)
            k2 = generators._k2_op(dim)
            ref = (-1j * comm(h, rho)
                   - c * comm(k2, comm(k2, rho)))
            out = hermitian(generators.gup_markov_rhs(
                real_form(rho), generators.model("gup-markov", p, dim)))
            assert np.max(np.abs(out - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))
            # the memory-kernel form: -i[H_RWA, rho] - 2/(omega tau_G) [K², [M, rho]]
            desc = generators.model("gup-nonmarkov", p_nm, dim)
            m = generators.memory_operator(2.0, desc)
            ref = (-1j * comm(h, rho)
                   - 2.0 * c * comm(k2, comm(m, rho)))
            out = hermitian(generators.gup_nonmarkov_rhs(real_form(rho), 2.0, desc))
            assert np.max(np.abs(out - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_breuer_dissipator_traceless_and_hermitian(self, seed):
        rho = exactly_hermitian(random_density(9, seed))
        p = ModelParams.from_dimensionless(omega_tau_d=50.0)
        desc = generators.model("breuer", p, 9)
        c = desc.c
        assert abs(np.trace(generators.breuer_rhs(real_form(rho), desc))) < 1e-12
        # reference: the dense commutators with N and K
        comm = lambda a, b: a @ b - b @ a
        for dim in (8, 16, 40):
            rho = exactly_hermitian(random_density(dim, seed))
            n = np.diag(np.arange(dim, dtype=float))
            k = generators._k_op(dim)
            ref = (-1j * comm(n, rho)
                   - c * comm(k, comm(k, rho)))
            out = hermitian(generators.breuer_rhs(
                real_form(rho), generators.model("breuer", p, dim)))
            assert np.max(np.abs(out - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))

    def test_damping_traceless_and_decay_direction(self):
        rho = fock.density(fock.fock_state(3, 8))
        out = generators.damping_rhs(rho, 0.2)
        assert abs(np.trace(out)) < 1e-14
        assert out[3, 3].real == pytest.approx(-0.2 * 3)
        assert out[2, 2].real == pytest.approx(0.2 * 3)

    @pytest.mark.parametrize("dim", [3, 12, 17, 34, 40])
    @pytest.mark.parametrize("gamma", [0.03, 0.2])
    def test_damping_keeps_the_bytes_of_the_dense_products(self, dim, gamma):
        rng = np.random.default_rng(dim)
        rho = random_density(dim, dim)
        # a stage-like input rho + h k, Hermitian only up to its last bits
        stage = rho + 0.025 * (rng.normal(size=(dim, dim))
                               + 1j * rng.normal(size=(dim, dim)))
        # Fock states hold exact zeros, so the sign of each zero counts
        fock_states = [fock.density(fock.fock_state(k, dim)) for k in (0, 1, dim - 1)]
        for r in [rho, stage, fock.density(fock.superposition01(dim))] + fock_states:
            want = dense_damping(r, gamma)
            assert generators.damping_rhs(r, gamma).tobytes() == want.tobytes()

    def test_breuer_free_phase(self):
        # coherence rotates at the level splitting
        rho = fock.density(fock.superposition01(6))
        p = ModelParams.from_dimensionless()
        out = hermitian(generators.breuer_rhs(real_form(rho),
                                              generators.model("breuer", p, 6)))
        assert out[0, 1] == pytest.approx(1j * rho[0, 1])


class TestHeisenbergPicture:
    def test_reduces_to_schrodinger_at_zero_time(self):
        h = generators.h_rwa(10, 1.0, 1e-3)
        assert np.allclose(generators.heisenberg_k2(h, 0.0),
                           generators._k2_op(10))

    def test_phase_twist_matches_expm(self):
        from scipy.linalg import expm
        dim, s = 9, 1.7
        h = generators.h_rwa(dim, 0.8, 2e-3)
        u = expm(1j * np.asarray(h) * s)
        expected = u @ np.asarray(generators._k2_op(dim)) @ u.conj().T
        assert np.allclose(generators.heisenberg_k2(h, s), expected, atol=1e-12)


class TestMemoryKernel:
    def test_memory_operator_is_hermitian(self):
        p = ModelParams.from_dimensionless(
            omega_tau_g=1e3, beta_bar=1.0,
            kernel=KernelSpec(kind="exponential", tau=0.5))
        m = generators.memory_operator(10.0, generators.model("gup-nonmarkov", p, 8))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_memory_saturates_to_half_k2_diagonal(self):
        # once t >> tau the diagonal of M approaches K^2/2 (full integral)
        p = ModelParams.from_dimensionless(
            omega_tau_g=1e3, beta_bar=0.0,
            kernel=KernelSpec(kind="exponential", tau=0.05))
        m = generators.memory_operator(5.0, generators.model("gup-nonmarkov", p, 8))
        k2 = np.asarray(generators._k2_op(8))
        # the memory window spans 8 tau, leaving an e^-8 tail
        assert np.allclose(np.diag(m), 0.5 * np.diag(k2), rtol=1e-3)

    @pytest.mark.parametrize("dim", [8, 24])
    def test_closed_form_matches_defining_integral(self, dim):
        # M(t) = ∫ f(t-t') K²ᴵ(t'-t) dt' over the window [max(0, t-8τ), t]
        tau = 0.7
        p = ModelParams.from_dimensionless(
            omega_tau_g=1e3, beta_bar=0.9, ap_hw=0.05,
            kernel=KernelSpec(kind="exponential", tau=tau))
        h = generators.h_rwa(dim, p.beta_bar, p.ap_hw)
        rows, cols = np.nonzero(generators._k2_op(dim))
        desc = generators.model("gup-nonmarkov", p, dim)
        for t in (0.3, 2.0, 12.0):   # 8τ = 5.6
            lo = max(0.0, t - 8 * tau)

            def integrand(tp, a, b, part):
                # the kernel density exp(-|u|/tau)/(2 tau); omega = 1, so tau is omega tau
                f = math.exp(-abs(t - tp) / tau) / (2.0 * tau)
                return part(f * generators.heisenberg_k2(h, tp - t)[a, b])

            m = generators.memory_operator(t, desc)
            for a, b in zip(rows, cols):
                want = (quad(integrand, lo, t, args=(a, b, np.real), epsabs=1e-14)[0]
                        + 1j * quad(integrand, lo, t, args=(a, b, np.imag),
                                    epsabs=1e-14)[0])
                assert abs(m[a, b] - want) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 2.0, 12.0])   # 8τ = 5.6
    def test_memory_operator_bytes_of_the_closed_form(self, t):
        p = ModelParams.from_dimensionless(
            omega_tau_g=1e3, beta_bar=0.9, ap_hw=0.05,
            kernel=KernelSpec(kind="exponential", tau=0.7))
        desc = generators.model("gup-nonmarkov", p, 12)
        z, s = 1.0 - desc.tau * desc.rates, min(t, 8 * desc.tau)
        want = desc.op * (-np.expm1(-z * (s / desc.tau)) / (2.0 * z))
        assert generators.memory_operator(t, desc).tobytes() == want.tobytes()

    def test_nonmarkov_rhs_approaches_markov_for_short_memory(self):
        p = ModelParams.from_dimensionless(
            omega_tau_g=200.0, beta_bar=1.0,
            kernel=KernelSpec(kind="exponential", tau=1e-3))
        x = real_form(fock.density(fock.superposition01(8)))
        slow = generators.gup_nonmarkov_rhs(x, 1.0, generators.model("gup-nonmarkov", p, 8))
        fast = generators.gup_markov_rhs(x, generators.model("gup-markov", p, 8))
        assert np.max(np.abs(slow - fast)) < 2e-3 * np.max(np.abs(fast))

    def test_nonmarkov_dissipator_traceless(self):
        p = ModelParams.from_dimensionless(
            omega_tau_g=100.0, beta_bar=1.0,
            kernel=KernelSpec(kind="exponential", tau=0.3))
        x = real_form(exactly_hermitian(random_density(8, 3)))
        out = generators.gup_nonmarkov_rhs(x, 2.0, generators.model("gup-nonmarkov", p, 8))
        assert abs(np.trace(out)) < 1e-12
