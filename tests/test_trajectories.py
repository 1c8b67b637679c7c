import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from decolab import fock, generators, integrate, trajectories
from decolab.exceptions import ConfigError
from decolab.generators import KernelSpec, ModelParams


def gup(p, dim):
    return generators.model("gup-markov", p, dim)


class TestNoiseSampling:
    def test_white_variance(self):
        kappa, dt = 0.3, 0.01
        path = trajectories.sample_noise("white", kappa, 0.0, dt, 200000, seed=7)
        assert np.var(path.increments) == pytest.approx(kappa * dt, rel=0.02)
        assert np.mean(path.increments) == pytest.approx(0.0, abs=1e-4)

    def test_ou_stationary_variance_and_autocorrelation(self):
        kappa, tau, dt = 0.5, 2.0, 0.1
        path = trajectories.sample_noise("ornstein-uhlenbeck", kappa, tau, dt,
                                         400000, seed=11)
        x = path.increments / dt
        assert np.var(x) == pytest.approx(kappa / (2 * tau), rel=0.02)
        # lag-1 autocorrelation of the AR(1) chain is exp(-dt/tau)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 == pytest.approx(math.exp(-dt / tau), rel=0.01)

    @pytest.mark.parametrize("n_steps", [0, 1, 120, 4000])
    def test_ou_path_bytes_equal_an_array_loop(self, n_steps):
        kappa, tau, dt = 0.3, 2.0, 0.025
        decay = math.exp(-dt / tau)
        stat_sd = math.sqrt(kappa / (2.0 * tau))
        for seed in range(5):
            path = trajectories.sample_noise("ornstein-uhlenbeck", kappa, tau, dt,
                                             n_steps, seed=seed, stream=seed)
            rng = trajectories._rng(seed, seed)
            val = rng.normal(0.0, stat_sd)
            kicks = rng.normal(0.0, stat_sd * math.sqrt(1.0 - decay ** 2), size=n_steps)
            x = np.empty(n_steps)
            for k in range(n_steps):
                x[k] = val
                val = val * decay + kicks[k]
            want = x * dt
            assert path.increments.dtype == want.dtype
            assert np.array_equal(path.increments, want)

    def test_unresolved_ou_rejected(self):
        with pytest.raises(ConfigError, match="need tau >= 5 dt"):
            trajectories.sample_noise("ornstein-uhlenbeck", 0.1, 0.04, 0.01,
                                      100, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            trajectories.sample_noise("pink", 0.1, 0.0, 0.01, 100, seed=0)

    def test_streams_are_independent_and_reproducible(self):
        a = trajectories.sample_noise("white", 0.1, 0.0, 0.01, 50, seed=3, stream=0)
        b = trajectories.sample_noise("white", 0.1, 0.0, 0.01, 50, seed=3, stream=1)
        a2 = trajectories.sample_noise("white", 0.1, 0.0, 0.01, 50, seed=3, stream=0)
        assert np.array_equal(a.increments, a2.increments)
        assert not np.array_equal(a.increments, b.increments)


class TestSingleTrajectory:
    def test_norm_preserved(self):
        m = gup(ModelParams.from_dimensionless(omega_tau_g=200.0, beta_bar=1.0), 10)
        noise = trajectories.sample_noise("white", m.kappa, 0.0, 0.05, 400, seed=5)
        psi0 = fock.superposition01(10)
        _, kets = trajectories.evolve_trajectory(psi0, m, noise, sample_every=50)
        norms = np.linalg.norm(kets, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_zero_noise_matches_unitary(self):
        p = ModelParams.from_dimensionless(beta_bar=1.0)
        noise = trajectories.sample_noise("white", 0.0, 0.0, 0.05, 200, seed=0)
        psi0 = fock.superposition01(8)
        times, kets = trajectories.evolve_trajectory(psi0, gup(p, 8), noise,
                                                     sample_every=200)
        lv = generators.energy_level(np.arange(8), 1.0, p.ap_hw)
        expected = np.exp(-1j * lv * times[-1]) * psi0
        assert np.max(np.abs(kets[-1] - expected)) < 1e-10

    def test_split_step_at_fixed_increment(self):
        p = ModelParams.from_dimensionless(omega_tau_g=200.0, beta_bar=1.0)
        dim, dt = 8, 0.05
        xi = 1.3 * math.sqrt(gup(p, dim).kappa * dt)   # a 1.3-sigma increment
        rng = np.random.default_rng(4)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        noise = trajectories.NoisePath(dt=dt, increments=np.array([xi]))
        _, kets = trajectories.evolve_trajectory(psi0, gup(p, dim), noise)
        half = np.exp(-0.5j * dt * generators.energy_level(np.arange(dim), 1.0, p.ap_hw))
        kick = expm(-1j * 4.0 * p.ap_hw * xi * fock.kinetic(dim) @ fock.kinetic(dim))
        expected = half * (kick @ (half * psi0))
        assert np.max(np.abs(kets[-1] - expected)) < 1e-12

    @pytest.mark.parametrize("name", ["gup-markov", "breuer"])
    def test_mean_step_is_strang_split_of_master_equation(self, name):
        # Averaged over the white increment (60-node Gauss-Hermite rule), one
        # step must be exp(L_H dt/2) exp(L_D dt) exp(L_H dt/2) exactly.
        dim, dt = 8, 0.05
        k = fock.kinetic(dim)
        if name == "breuer":
            p = ModelParams.from_dimensionless(omega_tau_d=50.0)
            op, c = k, 0.5 / 50.0
            levels = np.arange(dim) + 0.5
        else:
            p = ModelParams.from_dimensionless(omega_tau_g=200.0, beta_bar=1.0)
            op, c = k @ k, 1.0 / 200.0
            levels = generators.energy_level(np.arange(dim), 1.0, p.ap_hw)
        m = generators.model(name, p, dim)
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        xis = math.sqrt(2.0 * m.kappa * dt) * nodes
        rng = np.random.default_rng(8)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        mean = np.zeros((dim, dim), dtype=complex)
        for xi, w in zip(xis, weights):
            noise = trajectories.NoisePath(dt=dt, increments=np.array([xi]))
            u = np.column_stack([
                trajectories.evolve_trajectory(fock.fock_state(j, dim), m,
                                               noise)[1][-1]
                for j in range(dim)])
            mean += (w / math.sqrt(math.pi)) * (u @ rho @ u.conj().T)

        op2, eye = op @ op, np.eye(dim)
        l_d = -c * (np.kron(op2, eye) - 2.0 * np.kron(op, op.T) + np.kron(eye, op2.T))
        half = np.diag(np.exp(-0.5j * dt * levels))
        inner = half @ rho @ half.conj().T
        inner = (expm(l_d * dt) @ inner.ravel()).reshape(dim, dim)
        expected = half @ inner @ half.conj().T
        assert np.max(np.abs(mean - expected)) < 1e-10

    def test_damping_not_supported(self):
        p = ModelParams.from_dimensionless(gamma_dimless=0.01)
        noise = trajectories.sample_noise("white", 0.0, 0.0, 0.05, 10, seed=0)
        with pytest.raises(ConfigError, match="trajectory mode requires gamma = 0"):
            trajectories.evolve_trajectory(fock.fock_state(0, 4), gup(p, 4), noise)

    def test_sample_every_below_one_rejected(self):
        m = gup(ModelParams.from_dimensionless(omega_tau_g=200.0), 4)
        noise = trajectories.sample_noise("white", m.kappa, 0.0, 0.05, 10, seed=0)
        with pytest.raises(ValueError, match="sample_every"):
            trajectories.evolve_trajectory(fock.fock_state(0, 4), m, noise,
                                           sample_every=0)


def parent_ensemble(psi0, p, kind, n_traj, seed, dt, n_steps, sample_every):
    """(mean, stderr) of the split-step ensemble written out with the complex
    K², the coupling 4 ap_hw and the noise kind as an argument."""
    dim = psi0.shape[0]
    tau = p.kernel.tau * p.omega if p.kernel.kind == "exponential" else 0.0
    inc = np.stack([trajectories.sample_noise(kind, p.kappa * p.omega, tau, dt,
                                              n_steps, seed, stream=j).increments
                    for j in range(n_traj)])
    levels = generators.energy_level(np.arange(dim), p.beta_bar, p.ap_hw)
    half = np.exp(-0.5j * dt * levels)
    lam, v = np.linalg.eigh(generators._k2_op(dim))
    prop = (v.T * np.exp(-1j * dt * levels)) @ v.conj()
    phase_rates = -4j * p.ap_hw * lam
    psis = np.broadcast_to(np.asarray(psi0, dtype=complex), (n_traj, dim)).copy()
    samples = [psis.copy()]
    phi = (psis * half)[:, None, :] @ v.conj()
    for k in range(n_steps):
        phase = np.exp(inc[:, k, None, None] * phase_rates)
        phi = (phase * phi) @ prop
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            phi /= np.linalg.norm(phi, axis=2, keepdims=True)
            samples.append(((phi @ v.T) * half.conj())[:, 0, :])
    kets = np.array(samples)
    rhos = np.einsum("tbi,tbj->tbij", kets, kets.conj())
    sum_rho = np.zeros(rhos.shape[0:1] + rhos.shape[2:], dtype=complex)
    sum_sq = np.zeros(sum_rho.shape)
    for j in range(n_traj):
        r = rhos[:, j]
        sum_rho += r
        sum_sq += np.real(r) ** 2 + np.imag(r) ** 2
    var = (sum_sq / n_traj - (sum_rho.real / n_traj) ** 2
           - (sum_rho.imag / n_traj) ** 2)
    return sum_rho / n_traj, np.sqrt(np.maximum(var, 0.0) / n_traj)


class TestModelNoise:
    @pytest.mark.parametrize("name", ["gup-markov", "gup-nonmarkov", "breuer",
                                      "damping-only"])
    def test_rate_is_half_the_squared_coupling_times_the_noise(self, name):
        p = ModelParams.from_dimensionless(
            omega_tau_g=200.0, omega_tau_d=50.0, beta_bar=1.0, ap_hw=1e-3,
            kernel=KernelSpec(kind="exponential", tau=2.0))
        m = generators.model(name, p, 8)
        assert m.c == pytest.approx(0.5 * m.g ** 2 * m.kappa, rel=1e-15, abs=0.0)
        assert m.c > 0 or name == "damping-only"
        assert m.noise == ("ornstein-uhlenbeck" if name.startswith("gup")
                           else "white")

    @pytest.mark.parametrize("kind,kernel", [
        ("white", KernelSpec()),
        ("ornstein-uhlenbeck", KernelSpec(kind="exponential", tau=2.0))])
    def test_ensemble_keeps_the_bytes_of_the_k2_split_step(self, kind, kernel):
        p = ModelParams.from_dimensionless(omega_tau_g=200.0, beta_bar=1.0,
                                           ap_hw=1e-3, kernel=kernel)
        psi0 = fock.superposition01(8)
        ens = trajectories.ensemble_average(psi0, gup(p, 8), 100, seed=3, dt=0.05,
                                            n_steps=60, sample_every=20)
        mean, stderr = parent_ensemble(psi0, p, kind, 100, 3, 0.05, 60, 20)
        assert np.array_equal(ens.mean_states, mean)
        assert np.array_equal(ens.stderr, stderr)


class TestEnsemble:
    p = ModelParams.from_dimensionless(omega_tau_g=200.0, beta_bar=1.0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            trajectories.ensemble_average(fock.fock_state(0, 6), gup(self.p, 6), 50,
                                          seed=1, dt=0.05, n_steps=10)

    def test_sample_every_below_one_rejected(self):
        with pytest.raises(ValueError, match="sample_every"):
            trajectories.ensemble_average(fock.fock_state(0, 6), gup(self.p, 6), 100,
                                          seed=1, dt=0.05, n_steps=10,
                                          sample_every=0)

    def test_gamma_not_supported(self):
        p = ModelParams.from_dimensionless(omega_tau_g=200.0, gamma_dimless=0.01)
        with pytest.raises(ConfigError, match="ensemble mode requires gamma = 0"):
            trajectories.ensemble_average(fock.fock_state(0, 6), gup(p, 6), 100,
                                          seed=1, dt=0.05, n_steps=10)

    @pytest.mark.parametrize("sample_every", [20, 1])
    def test_chunking_is_bit_identical(self, sample_every):
        psi0 = fock.superposition01(8)
        a = trajectories.ensemble_average(psi0, gup(self.p, 8), 100, seed=9, dt=0.05,
                                          n_steps=40, sample_every=sample_every,
                                          chunk_size=7)
        b = trajectories.ensemble_average(psi0, gup(self.p, 8), 100, seed=9, dt=0.05,
                                          n_steps=40, sample_every=sample_every,
                                          chunk_size=100)
        assert np.array_equal(a.mean_states, b.mean_states)
        assert np.array_equal(a.stderr, b.stderr)
        # chunk_size 99 leaves a last chunk of a single trajectory, and
        # chunk_size 1 makes every chunk one
        for chunk_size in (99, 1):
            c = trajectories.ensemble_average(psi0, gup(self.p, 8), 100, seed=9,
                                              dt=0.05, n_steps=40,
                                              sample_every=sample_every,
                                              chunk_size=chunk_size)
            assert np.array_equal(c.mean_states, b.mean_states)
            assert np.array_equal(c.stderr, b.stderr)

    def test_memory_holds_no_per_sample_chunk_stack(self):
        # 101 samples of a 100-trajectory chunk at dim 16: a (samples, chunk,
        # dim, dim) density stack would be 41 MB; the sums are 0.6 MB and the
        # noise increments 80 KB
        m = gup(self.p, 16)
        psi0 = fock.superposition01(16)
        tracemalloc.start()
        try:
            ens = trajectories.ensemble_average(psi0, m, 100, seed=1, dt=0.025,
                                                n_steps=100, sample_every=1,
                                                chunk_size=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.mean_states.shape == (101, 16, 16)
        assert peak < 4e6

    def test_mean_tracks_master_equation(self):
        psi0 = fock.superposition01(10)
        ens = trajectories.ensemble_average(psi0, gup(self.p, 10), 400, seed=2, dt=0.05,
                                            n_steps=400, sample_every=100)
        ref = integrate.evolve(
            fock.density(psi0),
            lambda r, t: generators.gup_markov_rhs(r, gup(self.p, 10)),
            20.0, 0.05, sample_every=100)
        assert np.allclose(ens.times_omega, ref.times_omega)
        dists = [fock.trace_distance(ens.mean_states[i], ref.states[i])
                 for i in range(len(ens.times_omega))]
        assert max(dists) < 3.0 / math.sqrt(400)

    def test_csv_has_stderr_columns(self, tmp_path):
        psi0 = fock.superposition01(6)
        ens = trajectories.ensemble_average(psi0, gup(self.p, 6), 100, seed=4, dt=0.05,
                                            n_steps=20, sample_every=10)
        path = tmp_path / "ens.csv"
        ens.to_csv(path, ["rho_00", "abs_rho_01"])
        header = path.read_text().splitlines()[0]
        assert header == ("t_omega,t_seconds,rho_00,stderr_rho_00,"
                          "abs_rho_01,stderr_abs_rho_01")

    def test_breuer_mean_tracks_exact_propagator(self):
        # the metric-fluctuation model unravelled by its own description, at
        # a criterion-5 budget of 3/sqrt(N) in trace distance
        n_traj = 400
        m = generators.model("breuer", ModelParams.from_dimensionless(omega_tau_d=50.0), 12)
        psi0 = fock.superposition01(12)
        ens = trajectories.ensemble_average(psi0, m, n_traj, seed=5, dt=0.05,
                                            n_steps=200, sample_every=50)
        ref = integrate.propagate_blocks(fock.density(psi0), m, 10.0, 0.05,
                                         sample_every=50)
        assert np.allclose(ens.times_omega, ref.times_omega)
        dists = [fock.trace_distance(ens.mean_states[i], ref.states[i])
                 for i in range(len(ens.times_omega))]
        assert max(dists) < 3.0 / math.sqrt(n_traj)
