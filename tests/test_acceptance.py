"""End-to-end acceptance checks.

Each test evaluates one numbered criterion at its stated tolerance and prints
a single ``CRITERION n: PASS/FAIL`` line with the measured numbers (run with
``pytest -s`` to see the lines for passing criteria as well).
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, solve_ivp
from scipy.linalg import expm

from decolab import analytic, estimate, fock, generators, integrate, trajectories
from decolab.analytic import FreeParticlePair
from decolab.generators import PLANCK, KernelSpec, ModelParams


def report(n: int, ok: bool, details: str) -> None:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


def test_criterion_01_matrix_element_table():
    start = time.time()
    rng = np.random.default_rng(1)
    bb, ap = 0.8, 2e-3
    h = generators.h_rwa(12, bb, ap)
    worst = 0.0
    for tau in rng.uniform(0.0, 10.0, size=50):
        dense = generators.heisenberg_k2(h, tau)
        for (m, n) in list(analytic._K2_TABLE) + [(2, 0), (4, 0), (3, 1), (5, 1)]:
            got = analytic.k2_matrix_element(m, n, tau, bb, ap)
            worst = max(worst, abs(got - dense[m, n]))
    elapsed = time.time() - start
    report(1, worst < 1e-10 and elapsed < 1.0,
           f"max |table - dense| = {worst:.3e} over 50 tau, {elapsed:.2f} s")


def test_criterion_02_coherence_correlator():
    start = time.time()
    rng = np.random.default_rng(2)
    bb, ap = 0.5, 1e-3
    dim = 12
    h = generators.h_rwa(dim, bb, ap)
    rho = fock.density(fock.superposition01(dim))
    worst = 0.0
    for tau, tp in rng.uniform(0.0, 6.0, size=(20, 2)):
        k2a = generators.heisenberg_k2(h, tau)
        k2b = generators.heisenberg_k2(h, tp)
        inner = k2b @ rho - rho @ k2b
        brute = (k2a @ inner - inner @ k2a)[0, 1]
        worst = max(worst, abs(analytic.c_correlator(tau, tp, bb, ap) - brute))
    equal_time = analytic.c_correlator(3.3, 3.3, bb, ap)
    elapsed = time.time() - start
    report(2, worst < 1e-10 and equal_time == 1.875 and elapsed < 1.0,
           f"max dev = {worst:.3e}, C(tau,tau) = {equal_time}, {elapsed:.2f} s")


def secular_generators(dim: int):
    """Rotating-wave (secular) generators of the deformation master equation,
    in units of 1/tau_G, built from the K² matrix elements at cutoff ``dim``.

    Populations follow the rate equation dp/dt = W p with
    W_mn = 2|K²_mn|² (m != n) and W_mm = -sum_k W_km.  The 0-1 coherence lives
    in the resonant block x_m = rho_{m,m+1}: diagonal -(K⁴_mm + K⁴_{m+1,m+1})
    plus the feed 2 K²_mk K²_{k+1,m+1} (k = m included).
    """
    k2 = np.real(fock.kinetic(dim) @ fock.kinetic(dim))
    k4 = np.diag(k2 @ k2)
    w = 2.0 * k2 ** 2
    w -= np.diag(w.sum(axis=0))
    b = 2.0 * k2[:-1, :-1] * k2[1:, 1:]
    b -= np.diag(k4[:-1] + k4[1:])
    return w, b


def test_criterion_03_long_time_overlay():
    start = time.time()
    tau_g = 125e3
    p = ModelParams.from_dimensionless(omega_tau_g=tau_g, beta_bar=1.0)
    m = generators.model("gup-markov", p, 24)
    rhs = lambda r, t: generators.gup_markov_rhs(r, m)
    # The reference is the secular solution at a larger cutoff, so the overlay
    # also bounds the truncation error of the dim-24 run.  At this ap_hw the
    # gaps E_{m+1} - E_m differ by less than 1e-30, so the whole
    # rho_{m,m+1} block is resonant with rho_01.
    w, b = secular_generators(40)
    rates = (-w[0, 0], -b[0, 0], -w[1, 1])
    rates_ok = np.allclose(rates, (6 / 8, 30 / 8, 45 / 8), rtol=1e-12, atol=0)
    devs, gaps, tangent_dev = {}, {}, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # (generator, diagonal index, amplitude) of each secular reference
        for label, psi, obs, gen, i, amp in (
                ("p00", fock.fock_state(0, 24), "rho_00", w, 0, 1.0),
                ("coh01", fock.superposition01(24), "abs_rho_01", b, 0, 0.5),
                ("p11", fock.fock_state(1, 24), "rho_11", w, 1, 1.0)):
            res = integrate.evolve(fock.density(psi), rhs, 6000.0, 0.05,
                                   sample_every=4000)
            t = res.times_omega
            if label == "p00":
                first, _ = analytic.gup_populations(t, 0.0, tau_g)
            elif label == "p11":
                _, first = analytic.gup_populations(t, 0.0, tau_g)
            else:
                first = np.abs(analytic.gup_coherence01(t, 0.0, tau_g))
            numeric = res.expect(obs)
            ref = amp * np.array([expm(gen * ti / tau_g)[i, i] for ti in t])
            tangent = amp * (1.0 + gen[i, i] * t / tau_g)
            devs[label] = float(np.max(np.abs(numeric - ref)))
            gaps[label] = float(np.max(np.abs(numeric - first)))
            tangent_dev = max(tangent_dev, float(np.max(np.abs(first - tangent))))
    elapsed = time.time() - start
    ok = (rates_ok and tangent_dev < 1e-12
          and all(d <= 2e-3 for d in devs.values()) and elapsed < 120.0)
    report(3, ok, ", ".join(f"{k} dev = {devs[k]:.3e} (first order "
                            f"{gaps[k]:.3e})" for k in devs)
           + ", tol 2e-3 vs secular; leading rates "
           + "/".join(f"{r:.6g}" for r in rates)
           + f", tangent dev {tangent_dev:.1e}, {elapsed:.0f} s")


def test_criterion_04_short_time_slopes():
    h = 0.005

    def measured(rhs, psi, obs, rate, scale):
        res = integrate.evolve(fock.density(psi), rhs, 2 * h, h, sample_every=1)
        y = res.expect(obs)
        slope = (4 * y[1] - 3 * y[0] - y[2]) / (2 * h)
        return -slope / (rate * scale)

    cases = []
    p = ModelParams.from_dimensionless(omega_tau_g=1e4, beta_bar=1.0)
    mg = generators.model("gup-markov", p, 16)
    rhs = lambda r, t: generators.gup_markov_rhs(r, mg)
    for psi, obs, coef, scale in (
            (fock.fock_state(0, 16), "rho_00", 6 / 8, 1.0),
            (fock.fock_state(1, 16), "rho_11", 45 / 8, 1.0),
            (fock.superposition01(16), "abs_rho_01", 30 / 8, 0.5)):
        cases.append(("gup", coef, measured(rhs, psi, obs, 1e-4, scale)))
    pb = ModelParams.from_dimensionless(omega_tau_d=1e5)
    mb = generators.model("breuer", pb, 16)
    rhs_b = lambda r, t: generators.breuer_rhs(r, mb)
    for psi, obs, coef, scale in (
            (fock.fock_state(0, 16), "rho_00", 1 / 8, 1.0),
            (fock.fock_state(1, 16), "rho_11", 3 / 8, 1.0),
            (fock.superposition01(16), "abs_rho_01", 3 / 8, 0.5)):
        cases.append(("breuer", coef, measured(rhs_b, psi, obs, 1e-5, scale)))
    rel = [abs(got / coef - 1.0) for _, coef, got in cases]
    report(4, max(rel) < 1e-3,
           "coefficients " + ", ".join(f"{got:.5f}/{coef:.5f}" for _, coef, got
                                       in cases)
           + f", worst rel err = {max(rel):.2e}")


def test_criterion_05_trajectory_validation():
    start = time.time()
    p = ModelParams.from_dimensionless(omega_tau_g=500.0, beta_bar=1.0)
    m = generators.model("gup-markov", p, 16)
    psi0 = fock.superposition01(16)
    n_traj = 2000
    ens = trajectories.ensemble_average(psi0, m, n_traj, seed=20, dt=0.025,
                                        n_steps=2000, sample_every=200)
    ref = integrate.evolve(
        fock.density(psi0), lambda r, t: generators.gup_markov_rhs(r, m),
        50.0, 0.025, sample_every=200)
    dists = [fock.trace_distance(ens.mean_states[i], ref.states[i])
             for i in range(1, len(ens.times_omega))]
    budget = 3.0 / math.sqrt(n_traj)

    a = trajectories.ensemble_average(psi0, m, 100, seed=20, dt=0.025,
                                      n_steps=200, sample_every=100,
                                      chunk_size=32)
    b = trajectories.ensemble_average(psi0, m, 100, seed=20, dt=0.025,
                                      n_steps=200, sample_every=100,
                                      chunk_size=100)
    deterministic = np.array_equal(a.mean_states, b.mean_states)
    elapsed = time.time() - start
    ok = max(dists) <= budget and deterministic and elapsed < 600.0
    report(5, ok, f"max trace distance = {max(dists):.4f} over "
           f"{len(dists)} checkpoints, budget {budget:.4f}, "
           f"deterministic = {deterministic}, {elapsed:.0f} s")


def test_criterion_06_rate_solver_anchors():
    t1, st1 = 85.8e-6, 1.5e-6
    t2, st2 = 147.3e-6, 2.6e-6
    g = estimate.solve_rates_gup(t1, t2, st1, st2)
    b = estimate.solve_rates_breuer(t1, t2, st1, st2)
    anchors = [  # (got value, got sigma, ref value, ref sigma) in seconds
        (g.gamma_inv, g.gamma_inv_sigma, 169.9e-6, 47.5e-6),
        (g.tau, g.tau_sigma, 975.2e-6, 237.4e-6),
        (b.gamma_inv, b.gamma_inv_sigma, 102.8e-6, 6.9e-6),
        (b.tau, b.tau_sigma, 195.0e-6, 47.5e-6),
    ]
    value_devs = [abs(v - ref) for v, _, ref, _ in anchors]
    sigma_rels = [abs(s / sref - 1.0) for _, s, _, sref in anchors]
    ok = max(value_devs) < 0.1e-6 and max(sigma_rels) < 0.15
    report(6, ok,
           f"gup 1/gamma = {g.gamma_inv * 1e6:.2f}({g.gamma_inv_sigma * 1e6:.1f}) us, "
           f"tau_G = {g.tau * 1e6:.2f}({g.tau_sigma * 1e6:.1f}) us; "
           f"breuer 1/gamma = {b.gamma_inv * 1e6:.2f}({b.gamma_inv_sigma * 1e6:.1f}) us, "
           f"tau_D = {b.tau * 1e6:.2f}({b.tau_sigma * 1e6:.1f}) us; "
           f"worst sigma rel dev = {max(sigma_rels):.2%}")


def test_criterion_07_bound_anchors():
    omega = 2.0 * math.pi * 5.96e9
    g = estimate.solve_rates_gup(85.8e-6, 147.3e-6)
    b = estimate.solve_rates_breuer(85.8e-6, 147.3e-6)
    kappa, _ = estimate.kappa_from_tau_g(g.tau, 1.5e-33, omega)
    tau_c, _ = estimate.tau_c_from_tau_d(b.tau, omega)
    beta, _ = estimate.beta_from_epsilon(0.020, 1.5e-33)
    feas = estimate.planck_feasibility()
    rels = [abs(kappa / 4.0e46 - 1.0), abs(tau_c / 3.7e-18 - 1.0),
            abs(beta / 2.2e30 - 1.0)]
    factors = [feas["mass_frequency_product"] / 1e113,
               feas["omega_sq_over_gamma"] / 1e43]
    ok = max(rels) < 0.05 and all(0.5 < f < 2.0 for f in factors)
    report(7, ok, f"kappa = {kappa:.3e} s, tau_c = {tau_c:.3e} s, "
           f"beta_bar = {beta:.3e} (worst rel dev {max(rels):.2%}); "
           f"feasibility {feas['mass_frequency_product']:.2e} kg^2/s^3, "
           f"{feas['omega_sq_over_gamma']:.2e} 1/s")


def test_criterion_08_free_particle():
    # unit scheme chosen so all energies are O(hbar): m = 1 kg, omega = 1,
    # ap_hw = 1 (so a_P = 1/hbar), kappa = 0.01 s
    hbar = PLANCK.hbar
    pair = FreeParticlePair(p_a=math.sqrt(4.0 * hbar), p_b=math.sqrt(2.0 * hbar),
                            mass=1.0)
    t_eval = np.linspace(0.2, 2.0, 7)
    worst = 0.0
    for kernel in (KernelSpec(kind="delta"),
                   KernelSpec(kind="exponential", tau=0.5)):
        params = ModelParams(omega=1.0, kappa=0.01, beta_bar=0.7, ap_hw=1.0,
                             kernel=kernel)
        a_p = params.ap_hw / (hbar * params.omega)
        phase_rate = (pair.delta_e(1) + 4 * a_p * pair.delta_e(2)
                      * params.beta_bar) / hbar
        d = 16.0 * a_p ** 2 * params.kappa / hbar ** 2 * pair.delta_e(2) ** 2

        def rhs(t, y):
            f_int = (0.5 if kernel.kind == "delta"
                     else 0.5 * (1.0 - math.exp(-t / kernel.tau)))
            z = y[0] + 1j * y[1]
            dz = (-1j * phase_rate - d * f_int) * z
            return [dz.real, dz.imag]

        sol = solve_ivp(rhs, (0.0, 2.0), [1.0, 0.0], method="DOP853",
                        t_eval=t_eval, rtol=1e-12, atol=1e-14)
        numeric = sol.y[0] + 1j * sol.y[1]
        closed = analytic.free_particle_coherence(pair, t_eval, params)
        worst = max(worst, float(np.max(np.abs(closed - numeric))))

    # exponential g(t) against a nested double quadrature
    tau = 0.7
    kern = KernelSpec(kind="exponential", tau=tau)
    f = lambda u: math.exp(-abs(u) / tau) / (2 * tau)
    worst_g = 0.0
    for t in (0.5, 1.5, 4.0):
        quad, _ = dblquad(lambda v, u: f(u - v), 0, t, 0, lambda u: u,
                          epsabs=1e-12)
        worst_g = max(worst_g, abs(analytic.g_kernel(t, kern) - quad))
    ok = worst < 1e-10 and worst_g < 1e-8
    report(8, ok, f"max |closed - ODE| = {worst:.3e} over both kernels, "
           f"max |g - quadrature| = {worst_g:.3e}")


def test_criterion_09_ground_state_deformation():
    eps = 1e-3
    vx, vp = analytic.deformed_ground_variances(beta_bar=1.0, ap_hw=eps / 6.0)
    expected = sorted([0.5 - eps / 4, 0.5 + eps / 4])
    dev = max(abs(a - b) for a, b in zip(sorted([vx, vp]), expected))

    # round trip: deformed Gaussian on a grid -> fitted ellipticity
    eps_in = 0.020
    grid = np.linspace(-4.0, 4.0, 121)
    xx, pp = np.meshgrid(grid, grid, indexing="ij")
    v1, v2 = 0.5 - eps_in / 4, 0.5 + eps_in / 4

    class Grid:
        x = grid
        p = grid
        values = np.exp(-0.5 * (xx ** 2 / v1 + pp ** 2 / v2)) / (
            2 * np.pi * math.sqrt(v1 * v2))

    eps_out, _ = estimate.ellipticity_from_wigner(Grid())
    ok = dev < 1e-6 and abs(eps_out - eps_in) < 1e-4
    report(9, ok, f"variance dev = {dev:.2e} at eps = {eps}, "
           f"round trip eps = {eps_out:.6f} vs {eps_in}")


def test_criterion_10_fit_coverage():
    n_trials = 500
    noise = 0.02
    results = {}
    truth_exp = {"A": 1.0, "T1": 85.8e-6, "C": 0.0}
    truth_ram = {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4, "C": 0.0}
    for model, truth, key, t_max in (("exp", truth_exp, "T1", 400e-6),
                                     ("ramsey", truth_ram, "T2", 300e-6)):
        hits = 0
        for seed in range(n_trials):
            ds = estimate.synthesize_dataset(model, truth, 80, noise, seed, t_max)
            fit = (estimate.fit_exp_decay(ds) if model == "exp"
                   else estimate.fit_ramsey(ds))
            if abs(fit.params[key] - truth[key]) <= 3.0 * fit.sigmas[key]:
                hits += 1
        results[key] = hits / n_trials

    worst_rel = 0.0
    for model, truth, t_max in (("exp", truth_exp, 400e-6),
                                ("ramsey", truth_ram, 300e-6)):
        ds = estimate.synthesize_dataset(model, truth, 80, 0.0, 0, t_max)
        fit = (estimate.fit_exp_decay(ds) if model == "exp"
               else estimate.fit_ramsey(ds))
        for k, v in truth.items():
            # absolute error for parameters whose truth is zero (unit scale)
            worst_rel = max(worst_rel, abs(fit.params[k] - v) / (abs(v) or 1.0))

    ok = all(c >= 0.95 for c in results.values()) and worst_rel < 1e-6
    report(10, ok, f"3-sigma coverage T1 = {results['T1']:.1%}, "
           f"T2 = {results['T2']:.1%} over {n_trials} trials; "
           f"zero-noise worst rel err = {worst_rel:.2e}")
