import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from decolab import fock, generators, integrate
from decolab.exceptions import ConfigError, PositivityError
from decolab.generators import KernelSpec, ModelParams


class TestObservableParser:
    @pytest.mark.parametrize("name,element,value", [
        ("rho_00", (0, 0), 0.25),
        ("rho_11", (1, 1), 0.75),
        ("re_rho_01", (0, 1), 0.1),
        ("im_rho_01", (0, 1), -0.2),
        ("abs_rho_01", (0, 1), math.hypot(0.1, -0.2)),
    ])
    def test_parse_and_evaluate(self, name, element, value):
        rho = np.array([[0.25, 0.1 - 0.2j], [0.1 + 0.2j, 0.75]], dtype=complex)
        f = integrate.observable(name)
        assert f(rho) == pytest.approx(value)
        # a stack of states gives each state's value, bit for bit
        stack = np.stack([rho, rho.T, 3.0 * rho])
        assert np.array_equal(f(stack), [f(s) for s in stack])

    def test_long_indices_need_underscore(self):
        rho = np.zeros((12, 12), dtype=complex)
        rho[10, 10] = 1.0
        assert integrate.observable("rho_10_10")(rho) == pytest.approx(1.0)

    def test_rejects_garbage_and_bare_offdiagonal(self):
        with pytest.raises(ValueError):
            integrate.observable("sigma_x")
        with pytest.raises(ValueError):
            integrate.observable("rho_01")  # needs re_/im_/abs_ prefix


class TestEvolve:
    def test_null_generator_is_identity(self):
        rho0 = fock.density(fock.superposition01(5))
        res = integrate.evolve(rho0, lambda r, t: np.zeros_like(r), 5.0, 0.05)
        assert np.allclose(res.states[-1], rho0, atol=1e-14)
        assert res.times_omega[0] == 0.0
        assert np.all(np.diff(res.times_omega) > 0)

    def test_damping_matches_exponential(self):
        gamma = 0.1
        rho0 = fock.density(fock.fock_state(1, 6))
        res = integrate.evolve(
            rho0, lambda r, t: generators.damping_rhs(r, gamma),
            50.0, 0.01, sample_every=1000)
        expected = np.exp(-gamma * res.times_omega)
        assert np.max(np.abs(res.expect("rho_11") - expected)) < 1e-8

    def test_trace_drift_is_recorded_and_small(self):
        m = generators.model("gup-markov", ModelParams.from_dimensionless(
            omega_tau_g=100.0, beta_bar=1.0), 10)
        rho0 = fock.density(fock.superposition01(10))
        res = integrate.evolve(
            rho0, lambda r, t: generators.gup_markov_rhs(r, m),
            10.0, 0.01, sample_every=100)
        assert np.max(res.trace_drift) < 1e-12
        assert np.array_equal(res.states, res.states.conj().swapaxes(1, 2))
        assert np.min(res.min_eigenvalue) > -1e-10

    def test_positivity_failure_raises_with_step(self):
        m = generators.model("gup-markov", ModelParams.from_dimensionless(
            omega_tau_g=50.0, beta_bar=0.0), 8)

        def antidissipator(r, t):
            return -generators.gup_markov_rhs(r, m)  # wrong-sign double commutator

        rho0 = fock.density(fock.superposition01(8))
        with pytest.raises(PositivityError, match="lost positivity") as err:
            integrate.evolve(rho0, antidissipator, 50.0, 0.01, sample_every=5)
        assert float(re.search(r"min eig (\S+)\)", str(err.value))[1]) < -1e-6

    def test_csv_columns(self, tmp_path):
        rho0 = fock.density(fock.superposition01(4))
        res = integrate.evolve(rho0, lambda r, t: np.zeros_like(r), 1.0, 0.1,
                               omega=2.0)
        path = tmp_path / "out.csv"
        res.to_csv(path, ["rho_00", "abs_rho_01"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_omega,t_seconds,rho_00,abs_rho_01"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(float(last[0]) / 2.0)

    def test_bad_dt_rejected(self):
        rho0 = fock.density(fock.fock_state(0, 4))
        with pytest.raises(ValueError):
            integrate.evolve(rho0, lambda r, t: r, 1.0, 0.0)

    def test_sample_every_below_one_rejected(self):
        rho0 = fock.density(fock.fock_state(0, 4))
        with pytest.raises(ValueError, match="sample_every"):
            integrate.evolve(rho0, lambda r, t: 0 * r, 1.0, 0.1, sample_every=0)


def dense_liouvillian(form, gamma, dim):
    """The whole Liouvillian on row-major vec(rho), from the dense terms:
    X rho Y is X ⊗ Yᵀ."""
    rates, op, c = form.rates, form.op, form.c
    eye, a = np.eye(dim), fock.ladder(dim)
    n = np.diag(np.arange(dim, dtype=float))
    op2 = op @ op
    return (np.diag(rates.ravel())
            - c * (np.kron(op2, eye) - 2.0 * np.kron(op, op.T) + np.kron(eye, op2.T))
            + gamma * (np.kron(a, a.conj()) - 0.5 * (np.kron(n, eye) + np.kron(eye, n))))


def constant_form(model, gamma, dim):
    """(params, form) of a constant model at visible anharmonicity."""
    p = ModelParams.from_dimensionless(
        omega_tau_g=50.0 if model == "gup-markov" else math.inf,
        omega_tau_d=30.0, gamma_dimless=gamma, beta_bar=1.0, ap_hw=1e-2)
    return p, generators.model(model, p, dim)


def random_density(dim, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestPropagateBlocks:
    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("model", ["gup-markov", "breuer", "damping-only"])
    def test_matches_expm_of_the_whole_liouvillian(self, model, gamma, dim):
        p, form = constant_form(model, gamma, dim)
        rho0 = random_density(dim)
        # 13 steps sampled every 4: intervals of 0.4 and a last one of 0.1
        res = integrate.propagate_blocks(rho0, form, 1.3, 0.1, sample_every=4)
        assert res.propagator == "exact-blocks"
        lv = dense_liouvillian(form, p.gamma_dimless, dim)
        want = [expm(lv * t) @ rho0.ravel() for t in res.times_omega]
        assert np.max(np.abs(res.states.reshape(len(want), -1) - want)) < 1e-12
        assert np.max(res.trace_drift) < 1e-12
        # every sample, the state evolved from rho0 included, is Hermitian
        # bit for bit
        assert np.array_equal(res.states, res.states.conj().swapaxes(1, 2))

    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("model", ["gup-markov", "breuer"])
    def test_blocks_partition_vec_rho_and_do_not_couple(self, model, gamma, dim):
        # the whole generator on row-major vec(X), one column per basis matrix
        _, form = constant_form(model, gamma, dim)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        lv = np.column_stack([rhs(e.reshape(dim, dim), form).ravel()
                              for e in np.eye(dim * dim)])
        blocks = integrate.parity_blocks(dim, damped=bool(gamma))
        assert len(blocks) == (2 if gamma else 3)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(dim * dim))
        for i, rows in enumerate(blocks):
            for j, cols in enumerate(blocks):
                if i != j:
                    assert np.all(lv[np.ix_(rows, cols)] == 0)

    @pytest.mark.parametrize("dim", [3, 8, 9])
    @pytest.mark.parametrize("model", ["gup-markov", "breuer"])
    def test_complex_half_is_the_real_mixed_block(self, model, dim):
        # on (X_U, X_Uᵀ) the real mixed block is [[P, -Q], [Q, P]], bit for bit
        _, form = constant_form(model, 0.0, dim)
        mixed = integrate.parity_blocks(dim, damped=False)[1]
        u, ut = integrate._complex_half(mixed, dim)
        assert np.array_equal(np.sort(np.concatenate([u, ut])), mixed)
        assert len(u) == (dim + 1) // 2 * (dim // 2)
        real = integrate._block_generator(np.concatenate([u, ut]), form)
        half = integrate._block_generator(u, form, ut)
        p, q, h = half.real, half.imag, len(u)
        assert np.array_equal(real[:h, :h], p) and np.array_equal(real[h:, h:], p)
        assert np.array_equal(real[h:, :h], q) and np.array_equal(real[:h, h:], -q)

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("model", ["gup-markov", "breuer", "damping-only"])
    def test_only_the_undamped_mixed_block_is_complex(self, monkeypatch, model, gamma):
        dim = 9
        _, form = constant_form(model, gamma, dim)
        kinds = []

        def recorded(a, overwrite_a=False):
            kinds.append((a.dtype.kind, a.shape[0]))
            return expm(a)

        monkeypatch.setattr(integrate, "expm", recorded)
        integrate.propagate_blocks(fock.density(fock.superposition01(dim)), form,
                                   1.3, 0.1, sample_every=4)
        complex_half = [k for k in kinds if k[0] == "c"]
        # two sample intervals: one expm each, of order 5 · 4
        assert complex_half == ([] if gamma else [("c", 20)] * 2)
        assert len(kinds) == 2 * (2 if gamma else 3)

    @pytest.mark.parametrize("t_end,dt,sample_every", [
        (0.0, 0.1, 3), (1.3, 0.1, 4), (1.2, 0.1, 4), (0.35, 0.1, 100),
        (2.0, 0.3, 1)])
    def test_sample_times_equal_rk4(self, t_end, dt, sample_every):
        p, form = constant_form("gup-markov", 0.0, 4)
        rho0 = fock.density(fock.superposition01(4))
        exact = integrate.propagate_blocks(rho0, form, t_end, dt,
                                           sample_every=sample_every)
        rk4 = integrate.evolve(rho0, lambda r, t: generators.gup_markov_rhs(r, form),
                               t_end, dt, sample_every=sample_every)
        assert np.array_equal(exact.times_omega, rk4.times_omega)
        assert exact.states.shape == rk4.states.shape

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("model", ["gup-markov", "breuer"])
    @pytest.mark.parametrize("state,blocks", [
        ("vacuum", (1, 1)), ("fock(1)", (1, 1)), ("superposition01", (3, 2))])
    def test_empty_blocks_get_no_expm_and_keep_the_bytes(self, monkeypatch, model,
                                                         gamma, state, blocks):
        dim = 8
        _, form = constant_form(model, gamma, dim)
        psi = {"vacuum": fock.fock_state(0, dim), "fock(1)": fock.fock_state(1, dim),
               "superposition01": fock.superposition01(dim)}[state]
        rho0 = fock.density(psi)
        calls = []

        def counted(a, overwrite_a=False):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(integrate, "expm", counted)
        # 13 steps sampled every 4: two distinct intervals, 0.4 and 0.1
        res = integrate.propagate_blocks(rho0, form, 1.3, 0.1, sample_every=4)
        assert len(calls) == 2 * blocks[1 if gamma else 0]
        want = every_block_propagate(rho0, form, 1.3, 0.1, 4)
        assert res.states.tobytes() == want.states.tobytes()
        for name in ("trace_drift", "min_eigenvalue"):
            assert getattr(res, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    @pytest.mark.parametrize("t_end,intervals", [(2.0, 1), (2.1, 2)])
    def test_holds_four_block_arrays_and_one_per_earlier_interval(self, gamma,
                                                                  t_end, intervals):
        # expm's b, b², Y and its product buffer, b being the generator scaled
        # in place, and the propagator of an earlier interval.  The largest
        # block is the complex half of order 8 · 8 without damping, and either
        # real block of order 128 with it.  At the peak the run also holds its
        # real sample rows, half the bytes of its complex output states
        dim = 16
        _, form = constant_form("gup-markov", gamma, dim)
        block = 128 * 128 * 8 if gamma else 64 * 64 * 16
        rho0 = fock.density(fock.superposition01(dim))
        tracemalloc.start()
        try:
            res = integrate.propagate_blocks(rho0, form, t_end, 0.1, sample_every=2)
            outputs, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(set(np.diff(res.times_omega).round(9))) == intervals
        assert peak - outputs <= (3 + intervals) * block


def every_block_propagate(rho0, form, t_end, dt, sample_every):
    """``propagate_blocks`` on the real form X without its skip of empty
    blocks: every block of the generator on vec(X), built column by column
    from the right-hand side at each basis matrix, gets its ``expm``.
    Without damping, the mixed block is built on its (even, odd) columns
    only, as P + iQ with Q each column read at the transposed elements, and
    steps z = X_mn + i X_nm."""
    steps = integrate._sample_grid(integrate._step_count(t_end, dt), sample_every)
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    dim = rho0.shape[0]
    x0 = rho0.real + rho0.imag
    flat = np.empty((len(steps), dim * dim))
    flat[0] = x0.ravel()
    m, n = np.divmod(np.arange(dim * dim), dim)
    for idx in integrate.parity_blocks(dim, damped=bool(form.gamma)):
        mixed = not form.gamma and (m[idx[0]] + n[idx[0]]) % 2
        cols = idx[m[idx] % 2 == 0] if mixed else idx
        mirror = n[cols] * dim + m[cols]
        lv = np.zeros((len(cols), len(cols)), dtype=complex if mixed else float)
        for j, k in enumerate(cols):
            e = np.zeros(dim * dim)
            e[k] = 1.0
            column = generators._lindblad_rhs(e.reshape(dim, dim), form,
                                              (form.op, None), form.c).ravel()
            lv[:, j] = column[cols] + 1j * column[mirror] if mixed else column[cols]
        props = {g: expm(lv * (g * dt)) for g in set(gaps)}
        z = flat[0, cols] + 1j * flat[0, mirror] if mixed else flat[0, cols]
        for i, g in enumerate(gaps, 1):
            z = props[g] @ z
            flat[i, cols] = z.real
            if mixed:
                flat[i, mirror] = z.imag
    samples = integrate._Samples(x0, dt, form.params.omega)
    for step, vec in zip(steps[1:], flat[1:]):
        x = vec.reshape(dim, dim)
        trace = np.trace(x)
        samples.record(step, integrate.hermitian(x / trace), abs(float(trace) - 1.0))
    return samples.result("exact-blocks")


def benchmark_blocks(t=200.0):
    """The parity blocks of the undamped gup-markov run at dim 24 that the
    benchmark's master-equation workload propagates (omega tau_G at the
    middle of its range), times one 200 omega t sample interval: the real
    (even, even) block, the complex half of the mixed one and the real
    (odd, odd) block, each of order 144."""
    dim = 24
    form = generators.model("gup-markov", ModelParams.from_dimensionless(
        omega_tau_g=125e3, beta_bar=1.0), dim)
    even, mixed, odd = integrate.parity_blocks(dim, damped=False)
    u, ut = integrate._complex_half(mixed, dim)
    return [integrate._block_generator(idx, form, mirror) * t
            for idx, mirror in ((even, None), (u, ut), (odd, None))]


class TestExpm:
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["even", "mixed-complex", "odd"])
    def test_matches_scipy_on_the_benchmark_blocks(self, which):
        a = benchmark_blocks()[which]
        assert a.shape == (144, 144)
        want = expm(a)
        assert np.max(np.abs(integrate.expm(a) - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 8.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy_on_small_random_matrices(self, kind, n, norm):
        rng = np.random.default_rng(n)
        for _ in range(4):
            a = rng.normal(size=(n, n))
            if kind == "complex":
                a = a + 1j * rng.normal(size=(n, n))
            a *= norm / np.abs(a).sum(axis=0).max()
            want = expm(a)
            got = integrate.expm(a)
            assert got.dtype == want.dtype
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("phase", [1.0, 1j, 1.0 + 1j])
    def test_diagonal_input_stays_diagonal(self, phase):
        d = phase * np.array([-30.0, -2.5, 0.0, 0.7, 3.0])
        got = integrate.expm(np.diag(d))
        assert np.array_equal(got, np.diag(np.diagonal(got)))
        # to a few roundoffs of the largest entry: 2^7 squarings of
        # exp(d / 2^7) hold each entry to an absolute, not a relative, error
        assert np.max(np.abs(np.diagonal(got) - np.exp(d))) <= 4e-15 * np.exp(3.0)
        assert np.array_equal(integrate.expm(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent_input_gives_its_finite_series(self):
        n = 6
        a = np.triu(np.random.default_rng(3).normal(size=(n, n)) * 3.0, 1)
        want = sum(np.linalg.matrix_power(a, k) / math.factorial(k) for k in range(n))
        got = integrate.expm(a)
        # products of strictly upper triangular matrices keep their zeros
        assert np.array_equal(np.tril(got, -1), np.zeros((n, n)))
        assert np.array_equal(np.diagonal(got), np.ones(n))
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # an integer input is exponentiated as a float one
        shift = np.eye(3, k=1, dtype=int)
        assert np.array_equal(integrate.expm(shift),
                              [[1.0, 1.0, 0.5], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_input_gives_a_non_finite_result(self, bad, dtype):
        a = np.eye(3, dtype=dtype)
        a[0, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate.expm(a)
        assert got.shape == (3, 3) and got.dtype == dtype
        assert not np.all(np.isfinite(got))

    def test_holds_at_most_five_blocks_on_the_complex_block(self):
        # scipy's Pade form peaks at 8 blocks here, with LAPACK's solve on top
        a = benchmark_blocks()[1]
        tracemalloc.start()
        try:
            integrate.expm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * a.nbytes


def reference_rk4(rho0, rhs, n_steps, dt, sample_every):
    """Sampled states of RK4 with out-of-place stage sums and the correction
    0.5 (rho + rho†) / tr after every step."""
    rho = np.array(rho0, dtype=complex)
    states = [rho]
    for step in range(n_steps):
        t = step * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.real(np.trace(rho))
        if (step + 1) % sample_every == 0 or step + 1 == n_steps:
            states.append(rho)
    return np.array(states)


def complex_rhs(form, p):
    """R * rho - c [A, [A, rho]] plus damping, with A complex: two complex
    products, X = A rho and Y = A (X - X†), give Y + Y†."""
    rates, op, c = form.rates, form.op, form.c
    a = np.asarray(op, dtype=complex)

    def rhs(rho, t):
        out = rates * rho
        x = a @ rho
        y = a @ (x - x.conj().T)
        out -= c * (y + y.conj().T)
        return out + generators.damping_rhs(rho, p.gamma_dimless) if p.gamma else out

    return rhs


def complex_nonmarkov_rhs(p, dim):
    """The memory-kernel right-hand side with the memory operator built
    afresh at every call, in the two complex products of ``complex_rhs``:
    X = M rho and Y = K² (X - X†) give [K², [M, rho]] = Y + Y†."""
    desc = generators.model("gup-nonmarkov", p, dim)
    rates, k2 = desc.rates, generators._k2_op(dim)

    def rhs(rho, t):
        out = rates * rho
        x = generators.memory_operator(t, desc) @ rho
        y = k2 @ (x - x.conj().T)
        out -= 2.0 * desc.c * (y + y.conj().T)
        return out + generators.damping_rhs(rho, p.gamma_dimless) if p.gamma else out

    return rhs


def four_product_nonmarkov_rhs(p, dim):
    """The memory-kernel right-hand side as the four products of the dense
    commutators, K² (M rho - rho M) - (M rho - rho M) K²."""
    desc = generators.model("gup-nonmarkov", p, dim)
    rates, k2 = desc.rates, generators._k2_op(dim)
    comm = lambda a, b: a @ b - b @ a

    def rhs(rho, t):
        out = rates * rho
        m = generators.memory_operator(t, desc)
        out -= 2.0 * desc.c * comm(k2, comm(m, rho))
        return out + generators.damping_rhs(rho, p.gamma_dimless) if p.gamma else out

    return rhs


def real_reference_rk4(rho0, rhs, n_steps, dt, sample_every):
    """Sampled states of RK4 on the real form X = Re rho + Im rho, in
    ``evolve``'s operation order: stages h k + X at the times (step + j/2) dt,
    the sum (((2 k2 + k1) + 2 k3) + k4) dt/6 + X and X / tr X after every
    step, each sample read back as (X + Xᵀ)/2 + i (X - Xᵀ)/2."""
    x = rho0.real + rho0.imag
    states = [np.asarray(rho0, dtype=complex)]
    for step in range(n_steps):
        k1 = rhs(x, step * dt)
        k2 = rhs(0.5 * dt * k1 + x, (step + 0.5) * dt)
        k3 = rhs(0.5 * dt * k2 + x, (step + 0.5) * dt)
        k4 = rhs(dt * k3 + x, (step + 1) * dt)
        x = (((2.0 * k2 + k1) + 2.0 * k3) + k4) * (dt / 6.0) + x
        x = x / np.trace(x)
        if (step + 1) % sample_every == 0 or step + 1 == n_steps:
            states.append(0.5 * (x + x.T) + 1j * (0.5 * (x - x.T)))
    return np.array(states)


def real_rhs(form, p):
    """-Δ∘Xᵀ - c [A, [A, X]] plus damping on the real form, from the dense
    commutators: with C = A X - X A, -c (A C - C A) - Δ∘Xᵀ."""
    delta = form.levels[:, None] - form.levels[None, :]
    a, c = np.asarray(form.op), form.c

    def rhs(x, t):
        cx = a @ x - x @ a
        out = (a @ cx - cx @ a) * -c - x.T * delta
        return out + generators.damping_rhs(x, p.gamma_dimless) if p.gamma else out

    return rhs


def real_nonmarkov_rhs(p, dim):
    """The memory-kernel right-hand side on the real form, with the memory
    operator M = Mᵣ + i Mᵢ built afresh at every call:
    -Δ∘Xᵀ - 2c [K², [Mᵣ, X] + [Mᵢ, Xᵀ]] plus damping."""
    desc = generators.model("gup-nonmarkov", p, dim)
    delta = desc.levels[:, None] - desc.levels[None, :]
    k2 = np.asarray(desc.op)

    def rhs(x, t):
        m = generators.memory_operator(t, desc)
        mr, mi = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
        cx = mr @ x - x @ mr + mi @ x.T - x.T @ mi
        out = (k2 @ cx - cx @ k2) * -(2.0 * desc.c) - x.T * delta
        return out + generators.damping_rhs(x, p.gamma_dimless) if p.gamma else out

    return rhs


def rk4_form(model, gamma, dim):
    """(params, form) of a constant model that RK4 at dt = 0.05 resolves."""
    if model == "breuer":
        p = ModelParams.from_dimensionless(omega_tau_d=50.0, gamma_dimless=gamma)
        return p, generators.model(model, p, dim)
    p = ModelParams.from_dimensionless(omega_tau_g=5e4, beta_bar=1.0, ap_hw=1e-3,
                                       gamma_dimless=gamma)
    return p, generators.model(model, p, dim)


def memory_params(gamma):
    return ModelParams.from_dimensionless(
        omega_tau_g=500.0, beta_bar=1.0, ap_hw=1e-3, gamma_dimless=gamma,
        kernel=KernelSpec(kind="exponential", tau=2.0))


def gap(a, b):
    """max |a - b| over the largest |b|, at least 1."""
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


#: float64's machine epsilon, 2⁻⁵²
EPS = np.finfo(float).eps


class TestRk4Bytes:
    """``evolve`` steps the real form with real products and in-place sums.
    Its states are bitwise those of the same arithmetic written out in the
    test, and within 32 roundoffs, over 400 steps, of complex RK4 with complex
    products, re-Hermitization and out-of-place sums."""

    @pytest.mark.parametrize("model,dim,gamma", [
        ("breuer", 40, 0.0), ("gup-markov", 24, 0.0),
        ("breuer", 24, 0.03), ("gup-markov", 12, 0.03)])
    def test_constant_generators_keep_their_bytes(self, model, dim, gamma):
        p, form = rk4_form(model, gamma, dim)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        rho0 = fock.density(fock.superposition01(dim))
        res = integrate.evolve(rho0, lambda x, t: rhs(x, form), 20.0, 0.05)
        ref = real_reference_rk4(rho0, real_rhs(form, p), 400, 0.05, 100)
        assert np.array_equal(res.states, ref)
        old = reference_rk4(rho0, complex_rhs(form, p), 400, 0.05, 100)
        assert gap(res.states, old) <= 32 * EPS

    @pytest.mark.parametrize("gamma", [0.0, 0.03])
    def test_memory_kernel_keeps_its_bytes(self, gamma):
        p = memory_params(gamma)
        rho0 = fock.density(fock.superposition01(12))
        res = integrate.evolve_nonmarkov(rho0, p, 40.0, 0.1, sample_every=50)
        ref = real_reference_rk4(rho0, real_nonmarkov_rhs(p, 12), 400, 0.1, 50)
        assert np.array_equal(res.states, ref)
        for old in (complex_nonmarkov_rhs(p, 12), four_product_nonmarkov_rhs(p, 12)):
            assert gap(res.states, reference_rk4(rho0, old, 400, 0.1, 50)) <= 32 * EPS

    @pytest.mark.parametrize("dim", [12, 24])
    @pytest.mark.parametrize("gamma", [0.0, 0.03])
    def test_rhs_of_the_description_equal_the_complex_references(self, dim, gamma):
        rho = random_density(dim, 5)
        x = integrate.real_form(rho)
        for model, rhs in (("gup-markov", generators.gup_markov_rhs),
                           ("breuer", generators.breuer_rhs)):
            p, form = rk4_form(model, gamma, dim)
            got = rhs(x, form)
            assert np.array_equal(got, real_rhs(form, p)(x, 0.0))
            assert gap(integrate.hermitian(got), complex_rhs(form, p)(rho, 0.0)) <= 4 * EPS
        p = memory_params(gamma)
        desc = generators.model("gup-nonmarkov", p, dim)
        for t in (0.05, 3.0, 40.0):  # 8 tau = 16
            got = generators.gup_nonmarkov_rhs(x, t, desc)
            assert np.array_equal(got, real_nonmarkov_rhs(p, dim)(x, t))
            want = complex_nonmarkov_rhs(p, dim)(rho, t)
            assert gap(integrate.hermitian(got), want) <= 4 * EPS

    @pytest.mark.parametrize("model,dim,gamma", [("breuer", 34, 0.0),
                                                 ("gup-markov", 33, 0.03)])
    def test_other_dims_differ_by_rounding_only(self, model, dim, gamma):
        p, form = rk4_form(model, gamma, dim)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        rho0 = fock.density(fock.superposition01(dim))
        res = integrate.evolve(rho0, lambda x, t: rhs(x, form), 20.0, 0.05)
        ref = reference_rk4(rho0, complex_rhs(form, p), 400, 0.05, 100)
        assert gap(res.states, ref) <= 32 * EPS

    def test_rhs_may_return_a_shared_read_only_real_array(self):
        k = np.full((4, 4), 1e-3)
        k.setflags(write=False)
        rho0 = fock.density(fock.fock_state(0, 4))
        res = integrate.evolve(rho0, lambda x, t: k, 1.0, 0.1, sample_every=5)
        assert np.all(k == 1e-3)
        ref = real_reference_rk4(rho0, lambda x, t: k, 10, 0.1, 5)
        assert np.array_equal(res.states, ref)

    def test_memory_operator_once_per_stage_time(self, monkeypatch):
        built = []
        memory_operator = generators.memory_operator

        def counted(t, model):
            built.append(t)
            return memory_operator(t, model)

        monkeypatch.setattr(generators, "memory_operator", counted)
        generators._memory_operator_at.cache_clear()
        p = ModelParams.from_dimensionless(
            omega_tau_g=500.0, kernel=KernelSpec(kind="exponential", tau=2.0))
        integrate.evolve_nonmarkov(fock.density(fock.superposition01(6)), p, 2.0, 0.1)
        # 20 steps: the two midpoint stages share a time, and each step's end
        # is bitwise the next one's start, so 2 per step and the first start
        assert len(built) == 41 and len(set(built)) == len(built)
        assert built == sorted({step * 0.1 for step in range(21)}
                               | {(step + 0.5) * 0.1 for step in range(20)})
        desc = generators.model("gup-nonmarkov", p, 6)
        mr, mi = generators._memory_operator_at(built[-1], desc)
        assert not mr.flags.writeable and not mi.flags.writeable
        m = memory_operator(built[-1], desc)
        assert np.array_equal(mr, m.real) and np.array_equal(mi, m.imag)


class TestRealForm:
    def test_real_states_round_trip_bitwise(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(12, 12))
        for rho in (fock.density(fock.superposition01(12)),
                    fock.density(fock.fock_state(3, 12)), (m + m.T) / 24.0):
            back = integrate.hermitian(integrate.real_form(rho))
            assert back.dtype == complex and np.array_equal(back, rho)

    @pytest.mark.parametrize("dim", [4, 12, 40])
    def test_complex_states_round_trip_to_a_roundoff(self, dim):
        # fl(fl(R + I) + fl(R - I)) / 2 need not be R: the real form holds the
        # rounded sums, so a complex rho comes back within eps (|R| + |I|)
        rho = random_density(dim, dim)
        rho = 0.5 * (rho + rho.conj().T)
        rho[np.diag_indices(dim)] = rho.diagonal().real
        back = integrate.hermitian(integrate.real_form(rho))
        assert np.array_equal(back, back.conj().T)
        assert np.array_equal(back.diagonal(), rho.diagonal())
        bound = EPS * (np.abs(rho.real) + np.abs(rho.imag))
        assert np.all(np.abs(back.real - rho.real) <= bound)
        assert np.all(np.abs(back.imag - rho.imag) <= bound)

    @pytest.mark.parametrize("model,dim,gamma", [("breuer", 40, 0.0),
                                                 ("gup-markov", 24, 0.03),
                                                 ("breuer", 24, 0.03),
                                                 ("damping-only", 24, 0.03)])
    def test_model_rhs_commutes_with_the_real_form(self, model, dim, gamma):
        p, form = rk4_form(model, gamma, dim)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        rho = random_density(dim, 7)
        rho = 0.5 * (rho + rho.conj().T)
        got = rhs(integrate.real_form(rho), form)
        want = integrate.real_form(complex_rhs(form, p)(rho, 0.0))
        assert gap(got, want) <= 4 * EPS

    @pytest.mark.parametrize("model,gamma", [("breuer", 0.0), ("gup-markov", 0.0),
                                             ("gup-markov", 0.03)])
    def test_evolve_matches_the_exact_blocks(self, model, gamma):
        # breuer at the benchmark's omega tau_D: at rk4_form's 50, RK4's own
        # error in the populations is 9e-10 at this step
        if model == "breuer":
            p = ModelParams.from_dimensionless(omega_tau_d=8900.0)
            form = generators.model(model, p, 24)
        else:
            p, form = rk4_form(model, gamma, 24)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        rho0 = fock.density(fock.superposition01(24))
        res = integrate.evolve(rho0, lambda x, t: rhs(x, form), 20.0, 0.05)
        exact = integrate.propagate_blocks(rho0, form, 20.0, 0.05)
        assert np.array_equal(res.times_omega, exact.times_omega)
        for states in (res.states, exact.states):
            assert np.array_equal(states, states.conj().swapaxes(1, 2))
        assert np.max(res.trace_drift) < 1e-12
        pops = np.diagonal(res.states - exact.states, axis1=1, axis2=2)
        assert np.max(np.abs(pops)) < 1e-10

    def test_complex_rhs_is_refused(self):
        rho0 = fock.density(fock.superposition01(4))
        with pytest.raises(TypeError, match="real form"):
            integrate.evolve(rho0, lambda x, t: 1j * x, 1.0, 0.1)


class TestInputContract:
    def test_non_hermitian_state_is_refused(self):
        rho0 = np.array(fock.density(fock.superposition01(4)))
        rho0[0, 1] += 1e-3j
        with pytest.raises(ValueError, match="Hermitian"):
            integrate.evolve(rho0, lambda x, t: 0 * x, 1.0, 0.1)
        # the exact blocks refuse the same state with the same error
        _, form = constant_form("gup-markov", 0.0, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            integrate.propagate_blocks(rho0, form, 1.0, 0.1)

    def test_complex_rhs_is_refused_on_the_lawson_step(self):
        rho0 = fock.density(fock.superposition01(4))
        with pytest.raises(TypeError, match="real form"):
            integrate.evolve(rho0, lambda x, t: 1j * x, 1.0, 0.1,
                             phases=np.zeros((4, 4)))

    @pytest.mark.parametrize("phases,error", [
        (np.zeros((4, 4), dtype=complex), TypeError),
        (np.zeros((3, 3)), ValueError),
        (np.zeros(4), ValueError)])
    def test_malformed_phases_are_refused(self, phases, error):
        rho0 = fock.density(fock.superposition01(4))
        with pytest.raises(error, match="phases"):
            integrate.evolve(rho0, lambda x, t: 0 * x, 1.0, 0.1, phases=phases)


class TestLawson:
    @pytest.mark.parametrize("dim", [4, 12])
    def test_phases_alone_rotate_exactly(self, dim):
        # no stepped part: one step per sample interval, of 100 dt, and each
        # rho_ab picks up exactly exp(-i Δ_ab t)
        levels = generators.energy_level(np.arange(dim), 1.0, 1e-2)
        delta = levels[:, None] - levels[None, :]
        rho0 = random_density(dim, 2)
        rho0 = 0.5 * (rho0 + rho0.conj().T)
        res = integrate.evolve(rho0, lambda x, t: np.zeros_like(x), 20.0, 0.05,
                               phases=delta, reach=0.0)
        assert res.step == 5.0
        want = rho0 * np.exp(-1j * delta * res.times_omega[:, None, None])
        assert np.max(np.abs(res.states - want)) < 1e-13
        # without a reach the step stays dt
        assert integrate.evolve(rho0, lambda x, t: np.zeros_like(x), 20.0, 0.05,
                                phases=delta).step == 0.05

    @pytest.mark.parametrize("t_end,dt,every,reach,stride", [
        (200.0, 0.05, 4000, 4.057, 2),      # the rule's largest divisor
        (200.0, 0.05, 4000, 4.19, 2),
        (200.0, 0.05, 4000, 4.25, 1),       # 2 dt reach > 0.42
        (200.0, 0.05, 4000, 1.3, 5),        # 6 does not divide 4000
        (200.0, 0.05, 4000, 0.0, 4000),
        (0.5, 0.05, 3, 1.0, 1),             # intervals 3, 3, 3 and 1
        (200.0, 0.05, 4000, math.inf, 1),
        (200.0, 0.05, 4000, math.nan, 1)])
    def test_step_is_the_largest_divisor_within_the_limit(self, t_end, dt, every,
                                                          reach, stride):
        assert integrate.LAWSON_STEP_LIMIT == 0.42
        rho0 = fock.density(fock.superposition01(3))
        res = integrate.evolve(rho0, lambda x, t: np.zeros_like(x), t_end, dt,
                               sample_every=every, phases=np.zeros((3, 3)),
                               reach=reach)
        assert res.step == stride * dt
        plain = integrate.evolve(rho0, lambda x, t: np.zeros_like(x), t_end, dt,
                                 sample_every=every)
        assert plain.step == dt
        assert np.array_equal(res.times_omega, plain.times_omega)

    @pytest.mark.parametrize("model,gamma", [("breuer", 0.0), ("gup-markov", 0.0),
                                             ("damping-only", 0.03)])
    def test_rhs_without_phases_is_the_rest(self, model, gamma):
        p, form = rk4_form(model, gamma, 12)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        x = integrate.real_form(random_density(12, 4))
        rest = rhs(x, form, phases=False)
        if form.c:
            assert np.array_equal(rhs(x, form), rest - x.T * form.delta)
        else:
            assert np.array_equal(rest, generators.damping_rhs(x, gamma))

    @pytest.mark.parametrize("model,dim,spread", [
        ("breuer", 12, 4.0), ("breuer", 40, 4.0), ("gup-markov", 24, 8.0)])
    def test_phase_spread_at_harmonic_levels(self, model, dim, spread):
        p = ModelParams.from_dimensionless(omega_tau_g=1e4, omega_tau_d=1e4)
        assert generators.model(model, p, dim).phase_spread == spread

    def test_phase_spread_bounds_the_coupled_phase_differences(self):
        dim = 16
        p, form = rk4_form("gup-markov", 0.03, dim)
        delta = form.delta.ravel()
        lv = dense_liouvillian(form, 0.03, dim)
        rows, cols = np.nonzero(lv)
        coupled = np.max(np.abs(delta[rows] - delta[cols]))
        assert 8.0 < coupled <= form.phase_spread <= 1.01 * coupled


class TestNonMarkov:
    def test_requires_exponential_kernel(self):
        p = ModelParams.from_dimensionless(omega_tau_g=100.0)
        rho0 = fock.density(fock.fock_state(0, 6))
        with pytest.raises(ConfigError, match="requires an exponential kernel"):
            integrate.evolve_nonmarkov(rho0, p, 1.0, 0.01)

    def test_step_size_guard(self):
        p = ModelParams.from_dimensionless(
            omega_tau_g=100.0, kernel=KernelSpec(kind="exponential", tau=0.05))
        rho0 = fock.density(fock.fock_state(0, 6))
        with pytest.raises(ConfigError, match="exceeds tau/10"):
            integrate.evolve_nonmarkov(rho0, p, 1.0, 0.02)

    def test_step_past_the_phases_is_refused_naming_a_dt_that_completes(self):
        # plain RK4 steps the phases up to dt max |Δ| = 3.9 > √8 at dim 40: the
        # library's call is refused as the command line's is, before any step
        p = ModelParams.from_dimensionless(
            omega_tau_g=1e6, kernel=KernelSpec(kind="exponential", tau=2.0))
        rho0 = fock.density(fock.superposition01(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="take dt <= ") as info:
                integrate.evolve_nonmarkov(rho0, p, 40.0, 0.1)
            dt = float(str(info.value).rsplit("take dt <= ", 1)[1])
            assert 0.07 < dt < 0.1
            res = integrate.evolve_nonmarkov(rho0, p, 40.0, dt, sample_every=100)
        assert res.times_omega[-1] == pytest.approx(40.0, abs=dt)
        assert np.min(res.min_eigenvalue) > -1e-12

    def test_solve_refuses_a_delta_kernel_by_the_memory_integral(self):
        # a delta kernel has no tau/10 to cap the step: the memory integral
        # refuses it, and the phase check names a dt above 0
        p = ModelParams.from_dimensionless(omega_tau_g=1e6)
        for dim, match in ((12, "memory integral needs an exponential kernel"),
                           (40, r"take dt <= 0\.0722$")):
            m = generators.model("gup-nonmarkov", p, dim)
            with pytest.raises(ConfigError, match=match):
                integrate.solve(fock.density(fock.superposition01(dim)), m, 4.0, 0.1)

    def test_no_noise_keeps_purity(self):
        p = ModelParams.from_dimensionless(
            beta_bar=1.0, kernel=KernelSpec(kind="exponential", tau=0.5))
        rho0 = fock.density(fock.superposition01(8))
        res = integrate.evolve_nonmarkov(rho0, p, 10.0, 0.02, sample_every=100)
        purity = np.real(np.trace(res.states[-1] @ res.states[-1]))
        assert purity == pytest.approx(1.0, abs=1e-8)

    def test_short_memory_reproduces_markov_decay(self):
        # tau = 1e-3 surrogate for the delta kernel
        tau = 1e-3
        p = ModelParams.from_dimensionless(
            omega_tau_g=50.0, beta_bar=1.0,
            kernel=KernelSpec(kind="exponential", tau=tau))
        rho0 = fock.density(fock.fock_state(0, 8))
        res_nm = integrate.evolve_nonmarkov(rho0, p, 1.0, tau / 10,
                                            sample_every=5000)
        m = generators.model("gup-markov", p, 8)
        res_m = integrate.evolve(
            rho0, lambda r, t: generators.gup_markov_rhs(r, m),
            1.0, 0.005, sample_every=100)
        p00_nm = res_nm.expect("rho_00")[-1]
        p00_m = res_m.expect("rho_00")[-1]
        decay_m = 1.0 - p00_m
        assert abs(p00_nm - p00_m) < 0.01 * decay_m

    def test_memory_suppresses_decoherence_monotonically(self):
        rho0 = fock.density(fock.superposition01(8))
        decays = []
        for tau in (0.5, 2.0, 8.0):
            p = ModelParams.from_dimensionless(
                omega_tau_g=300.0, beta_bar=1.0,
                kernel=KernelSpec(kind="exponential", tau=tau))
            res = integrate.evolve_nonmarkov(rho0, p, 10.0, min(tau / 20, 0.05),
                                             sample_every=10**9)
            decays.append(0.5 - abs(res.states[-1][0, 1]))
        assert decays[0] > decays[1] > decays[2] > 0
