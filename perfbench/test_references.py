"""Tests of the benchmark's independent references and of its tracer.

Run with ``PYTHONPATH=src python -m pytest -q perfbench`` from the root of the
repository.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import references as ref

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

STATES = ("vacuum", "superposition01", "fock(1)")
# (i, j, amplitude) of the observable each state decays in: p00, |rho01|, p11
OBSERVED = {"vacuum": (0, 0, 1.0), "superposition01": (0, 1, 0.5),
            "fock(1)": (1, 1, 1.0)}


def test_kinetic_matches_ladder_algebra():
    dim = 10
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    ad = a.T
    k = (2.0 * ad @ a + np.eye(dim) - ad @ ad - a @ a) / 4.0
    assert np.allclose(ref.kinetic(dim), k, rtol=0, atol=1e-15)


@pytest.mark.parametrize("model, kw, rates", [
    ("gup-markov", {"omega_tau_g": 1.0}, (6 / 8, 30 / 8, 45 / 8)),
    ("breuer", {"omega_tau_d": 1.0}, (1 / 8, 3 / 8, 3 / 8)),
])
def test_liouvillian_short_time_slopes_are_the_leading_rates(model, kw, rates):
    dim = 16
    lv = ref.liouvillian(model, dim, **kw)
    h = 1e-7
    for state, rate in zip(STATES, rates):
        i, j, amp = OBSERVED[state]
        rho0 = ref.initial_density(state, dim)
        exact = (lv @ rho0.ravel()).reshape(dim, dim)[i, j]
        # the magnitude's slope; the phase of rho01 rotates at unit rate
        slope = np.real(np.conj(rho0[i, j]) * exact) / abs(rho0[i, j])
        assert slope / amp == pytest.approx(-rate, rel=1e-12)
        # the same slope from the propagated states
        states = ref.markov_states(lv, rho0, [0.0, h])
        fd = (abs(states[1, i, j]) - abs(states[0, i, j])) / h
        assert fd / amp == pytest.approx(-rate, rel=1e-4)


def test_markov_reference_conserves_trace_and_positivity():
    dim = 16
    lv = ref.liouvillian("gup-markov", dim, omega_tau_g=50.0, beta_bar=1.0,
                         ap_hw=1.5e-33)
    times = np.linspace(0.0, 20.0, 5)
    for state in STATES:
        states = ref.markov_states(lv, ref.initial_density(state, dim), times)
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] > -1e-12


@pytest.mark.parametrize("window", [math.inf, 3.0])
def test_memory_integral_closed_form_matches_quadrature(window):
    dim, tau = 8, 0.7
    e = ref.levels(dim, beta_bar=0.9, ap_hw=0.05)
    d_e = e[:, None] - e[None, :]
    k2 = ref.kinetic_squared(dim)
    for t in (0.3, 2.0, 6.0):
        m = ref.memory_operator(t, k2, d_e, tau, window)
        for a, b in ((0, 0), (0, 2), (1, 5), (4, 0), (6, 6)):
            f = lambda u, part: part(k2[a, b] * math.exp(-u / tau) / (2 * tau)
                                     * np.exp(-1j * d_e[a, b] * u))
            upper = min(t, window)
            re = quad(f, 0.0, upper, args=(np.real,), epsabs=1e-14)[0]
            im = quad(f, 0.0, upper, args=(np.imag,), epsabs=1e-14)[0]
            assert abs(m[a, b] - (re + 1j * im)) < 1e-12


def test_short_memory_reference_approaches_markov():
    dim = 12
    rho0 = ref.initial_density("fock(1)", dim)
    times = [0.0, 5.0]
    markov = ref.markov_states(
        ref.liouvillian("gup-markov", dim, omega_tau_g=50.0), rho0, times)
    memory = ref.memory_states(rho0, times, omega_tau_g=50.0,
                               omega_tau_kernel=1e-5)
    # the kernel's frequency shift and start-up transient are O(Δ tau)
    assert np.max(np.abs(memory - markov)) < 1e-5


def test_memory_tolerance_covers_rk4_error_with_the_program_window():
    """The program at dt = 0.1 sits within the benchmark's tolerance of the
    reference that applies the program's own 8-tau window."""
    from decolab import integrate
    from decolab.generators import KernelSpec, ModelParams
    from workloads import MemoryEvolution as mem

    params = ModelParams.from_dimensionless(
        omega_tau_g=mem.OMEGA_TAU_G,
        kernel=KernelSpec("exponential", mem.OMEGA_TAU_KERNEL))
    times = np.arange(0.0, 20.0 + 1e-9, 10.0)
    rho0 = ref.initial_density("fock(1)", mem.DIM)
    got = integrate.evolve_nonmarkov(rho0, params, 20.0, mem.DT,
                                     sample_every=100).states
    want = ref.memory_states(rho0, times, omega_tau_g=mem.OMEGA_TAU_G,
                             omega_tau_kernel=mem.OMEGA_TAU_KERNEL,
                             window=8 * mem.OMEGA_TAU_KERNEL)
    gap = np.max(np.abs(np.diagonal(got - want, axis1=1, axis2=2)))
    assert gap < mem.POP_TOL / 2


def _hermite_functions(dim, x):
    psi = np.zeros((dim, len(x)))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(2, dim):
        psi[n] = (math.sqrt(2.0 / n) * x * psi[n - 1]
                  - math.sqrt((n - 1) / n) * psi[n - 2])
    return psi


@pytest.mark.parametrize("state", ["vacuum", "fock(1)", "fock(3)", "superposition01"])
def test_wigner_closed_forms_match_the_defining_integral(state):
    """W(x, p) = (1/pi) ∫ psi*(x + y) psi(x - y) exp(2 i p y) dy."""
    rho = ref.initial_density(state, 6)
    psi_n = np.real(np.linalg.eigh(rho)[1][:, -1])
    for x0, p0 in ((0.0, 0.0), (0.7, -0.4), (-1.3, 1.1), (2.0, 0.5)):
        def integrand(y, part):
            pts = np.array([x0 + y, x0 - y])
            h = _hermite_functions(6, pts)
            wave = psi_n @ h
            return part(wave[0] * wave[1] * np.exp(2j * p0 * y)) / math.pi
        re = quad(integrand, -12, 12, args=(np.real,), epsabs=1e-13)[0]
        got = ref.wigner(state, np.array([x0]), np.array([p0]))[0, 0]
        assert got == pytest.approx(re, abs=1e-10)
    axis = np.linspace(-6.0, 6.0, 241)
    w = ref.wigner(state, axis, axis)
    assert np.sum(w) * (axis[1] - axis[0]) ** 2 == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(w)) <= 1.0 / math.pi + 1e-15


def test_bounds_inversion_round_trip_and_paper_values():
    gamma, tau_g = 1.0 / 170e-6, 975e-6
    t1 = 1.0 / (gamma + (45 / 8) / tau_g)
    t2 = 1.0 / (gamma / 2 + (30 / 8) / tau_g)
    g, _, tau, _ = ref.decay_rates(45 / 8, 30 / 8, t1, t2, 0.0, 0.0)
    assert g == pytest.approx(gamma, rel=1e-12)
    assert tau == pytest.approx(tau_g, rel=1e-12)

    # sigma = sum of |partial derivative| x input sigma
    st1, st2 = 1.5e-6, 2.6e-6
    _, sg, _, st = ref.decay_rates(45 / 8, 30 / 8, t1, t2, st1, st2)
    step = 1e-12
    partials = []
    for d1, d2 in ((step, 0.0), (0.0, step)):
        up = ref.decay_rates(45 / 8, 30 / 8, t1 + d1, t2 + d2, 0, 0)
        dn = ref.decay_rates(45 / 8, 30 / 8, t1 - d1, t2 - d2, 0, 0)
        partials.append([(u - d) / (2 * step) for u, d in zip(up, dn)])
    assert sg == pytest.approx(abs(partials[0][0]) * st1 + abs(partials[1][0]) * st2,
                               rel=1e-5)
    assert st == pytest.approx(abs(partials[0][2]) * st1 + abs(partials[1][2]) * st2,
                               rel=1e-5)

    b = ref.bounds(85.8e-6, 1.5e-6, 147.3e-6, 2.6e-6, 2 * math.pi * 5.96e9,
                   1.5e-33, 2.9e-19, 0.020, 0.005)
    assert b["gup.gamma_inv"][0] == pytest.approx(169.9e-6, abs=0.1e-6)
    assert b["gup.tau_g"][0] == pytest.approx(975.2e-6, abs=0.1e-6)
    assert b["breuer.gamma_inv"][0] == pytest.approx(102.8e-6, abs=0.1e-6)
    assert b["breuer.tau_d"][0] == pytest.approx(195.0e-6, abs=0.1e-6)
    assert b["gup.kappa"][0] == pytest.approx(4.0e46, rel=0.05)
    assert b["breuer.tau_c"][0] == pytest.approx(3.7e-18, rel=0.05)
    assert b["deformation.beta_bar"][0] == pytest.approx(2.2e30, rel=0.05)


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    import decolab
    from decolab import fock
    from tracer import Tracer

    original = fock.density
    tracer = Tracer()
    tracer.install(decolab)
    try:
        assert fock.density is not original
        decolab.cli.main(["bounds", "--t1-us", "85.8", "--t2-us", "147.3",
                          "--json-out", str(tmp_path / "b.json")])
    finally:
        tracer.uninstall()
    assert fock.density is original
    stats = tracer.stats()
    assert stats["cli.main"]["calls"] == 1
    assert stats["cli.cmd_bounds"]["calls"] == 1
    assert stats["estimate.bounds_report"]["calls"] == 1
    assert stats["estimate.solve_rates_gup"]["calls"] == 1
    main = stats["cli.main"]
    assert 0.0 <= main["self_s"] <= main["total_s"]
