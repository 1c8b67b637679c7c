import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from decolab import estimate, fock
from decolab.estimate import TimeSeriesDataset
from decolab.exceptions import ConfigError, FitFailureError, ModelInconsistencyError


class TestDataset:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeSeriesDataset(t=np.array([0.0, 1.0]), y=np.array([1.0]))
        with pytest.raises(ConfigError):
            TimeSeriesDataset(t=np.array([1.0, 1.0]), y=np.array([1.0, 0.5]))
        with pytest.raises(ConfigError):
            TimeSeriesDataset(t=np.array([0.0, 1.0]), y=np.array([1.0, np.nan]))
        with pytest.raises(ConfigError):
            TimeSeriesDataset(t=np.array([0.0, 1.0]), y=np.array([1.0, 0.5]),
                              sigma=np.array([0.1, 0.0]))

    def test_csv_round_trip(self, tmp_path):
        ds = TimeSeriesDataset(t=np.array([1e-6, 2e-6, 3e-6]),
                               y=np.array([1.0, 0.5, 0.25]),
                               sigma=np.array([0.1, 0.1, 0.1]))
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == "t_us,y,sigma"
        back = TimeSeriesDataset.from_csv(path)
        assert np.allclose(back.t, ds.t)
        assert np.allclose(back.y, ds.y)
        assert np.allclose(back.sigma, ds.sigma)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ConfigError):
            TimeSeriesDataset.from_csv(path)


class TestFits:
    def test_exp_zero_noise_recovery(self):
        truth = {"A": 0.8, "T1": 85.8e-6, "C": 0.1}
        ds = estimate.synthesize_dataset("exp", truth, 60, 0.0, 0, 400e-6)
        fit = estimate.fit_exp_decay(ds)
        for k, v in truth.items():
            assert fit.params[k] == pytest.approx(v, rel=1e-6)

    def test_ramsey_zero_noise_recovery(self):
        truth = {"A": 0.45, "T2": 147.3e-6, "f": 8.0e4, "phi": 0.3, "C": 0.5}
        ds = estimate.synthesize_dataset("ramsey", truth, 120, 0.0, 0, 300e-6)
        fit = estimate.fit_ramsey(ds)
        for k, v in truth.items():
            assert fit.params[k] == pytest.approx(v, rel=1e-6, abs=1e-9)

    def test_ramsey_canonical_phase_and_sign(self):
        truth = {"A": 0.45, "T2": 150e-6, "f": 6.0e4, "phi": 2.9, "C": 0.0}
        ds = estimate.synthesize_dataset("ramsey", truth, 120, 0.0, 0, 300e-6)
        fit = estimate.fit_ramsey(ds)
        assert fit.params["A"] > 0
        assert -math.pi <= fit.params["phi"] < math.pi
        assert fit.params["phi"] == pytest.approx(2.9, abs=1e-6)

    def test_ramsey_without_oscillation_raises(self):
        # a single spike has a flat magnitude spectrum: no peak to seed f0
        t = np.linspace(1e-6, 16e-6, 16)
        y = np.zeros(16)
        y[0] = 1.0
        with pytest.raises(FitFailureError, match="no spectral peak above the noise floor"):
            estimate.fit_ramsey(TimeSeriesDataset(t=t, y=y))

    def test_ramsey_of_a_constant_trace_raises(self):
        # the detrended spectrum is all zero: its peak is not above the floor
        t = np.linspace(5e-6, 400e-6, 80)
        with pytest.raises(FitFailureError, match="no spectral peak above the noise floor"):
            estimate.fit_ramsey(TimeSeriesDataset(t=t, y=np.full(80, 0.5)))

    def test_noisy_fit_sigma_scales_with_noise(self):
        truth = {"A": 1.0, "T1": 100e-6, "C": 0.0}
        s1 = estimate.fit_exp_decay(
            estimate.synthesize_dataset("exp", truth, 80, 0.01, 5, 400e-6))
        s2 = estimate.fit_exp_decay(
            estimate.synthesize_dataset("exp", truth, 80, 0.02, 5, 400e-6))
        assert s2.sigmas["T1"] == pytest.approx(2 * s1.sigmas["T1"], rel=0.05)

    @staticmethod
    def least_squares_lm(fun, jac, x0):
        """The fits' earlier solver call, kept as the reference."""
        return least_squares(fun, x0, jac=jac, method="lm", xtol=1e-10,
                             ftol=1e-12, max_nfev=200 * len(x0))

    @pytest.mark.parametrize("model", ["exp", "ramsey"])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_results_equal_least_squares_lm(self, monkeypatch, model, noise, seed):
        truth = {"exp": {"A": 1.0, "T1": 85.8e-6, "C": 0.05},
                 "ramsey": {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4,
                            "C": 0.0}}[model]
        fit = {"exp": estimate.fit_exp_decay, "ramsey": estimate.fit_ramsey}[model]
        ds = estimate.synthesize_dataset(model, truth, 80, noise, seed,
                                         {"exp": 400e-6, "ramsey": 300e-6}[model])
        got = fit(ds)
        monkeypatch.setattr(estimate, "_levenberg_marquardt", self.least_squares_lm)
        assert got == fit(ds)

    @staticmethod
    def four_start_ramsey(monkeypatch, ds):
        """The one-start fit, and the earlier fit as the reference: LM from
        phi0 in {0, pi/2, pi, 3pi/2} at A0 = sqrt(2) std(y), C0 = mean(y) and
        the same (T2, f) start, keeping the lowest cost.  Returns the fit, the
        reference's canonical params and residual norm, and the evaluation
        counts of the reference's best start and of all four starts."""
        seen = {}

        def capture(fun, jac, x0):
            seen.update(fun=fun, jac=jac, x0=x0)
            return lm(fun, jac, x0)

        lm = estimate._levenberg_marquardt
        monkeypatch.setattr(estimate, "_levenberg_marquardt", capture)
        fit = estimate.fit_ramsey(ds)
        a0, c0 = math.sqrt(2.0) * np.std(ds.y), np.mean(ds.y)
        runs = [lm(seen["fun"], seen["jac"], np.array([a0, *seen["x0"][1:3], phi0, c0]))
                for phi0 in (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)]
        best = min((r for r in runs if r.success), key=lambda r: r.cost)
        a, t2, f, phi, c = best.x
        if a < 0:
            a, phi = -a, phi + np.pi
        params = {"A": a, "T2": t2, "f": f, "phi": (phi + np.pi) % (2 * np.pi) - np.pi,
                  "C": c}
        return (fit, params, math.sqrt(2.0 * best.cost), best.nfev,
                sum(r.nfev for r in runs))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_ramsey_reaches_the_four_start_minimum(self, monkeypatch, seed):
        truth = {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4, "C": 0.0}
        ds = estimate.synthesize_dataset("ramsey", truth, 80, 0.02, seed, 300e-6)
        fit, _, norm, best_nfev, nfev = self.four_start_ramsey(monkeypatch, ds)
        assert fit.residual_norm == pytest.approx(norm, rel=1e-9)
        assert fit.n_eval <= best_nfev < nfev

    @pytest.mark.parametrize("truth", [
        {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4, "C": 0.0},
        {"A": 0.6, "T2": 110e-6, "f": 4.5e4, "phi": 3.1, "C": 0.3},
        {"A": 0.8, "T2": 190e-6, "f": 7.5e4, "phi": -3.1, "C": -0.2},
    ], ids=["paper", "phi-near-pi", "phi-near-minus-pi"])
    def test_ramsey_noise_free_matches_the_four_start_fit(self, monkeypatch, truth):
        ds = estimate.synthesize_dataset("ramsey", truth, 80, 0.0, 0, 300e-6)
        fit, params, _, best_nfev, nfev = self.four_start_ramsey(monkeypatch, ds)
        for k, v in params.items():
            assert fit.params[k] == pytest.approx(v, rel=1e-9, abs=1e-12)
            assert fit.params[k] == pytest.approx(truth[k], rel=1e-9, abs=1e-12)
        assert fit.n_eval <= best_nfev < nfev

    def test_too_few_points_rejected(self):
        ds = TimeSeriesDataset(t=np.array([1e-6, 2e-6, 3e-6, 4e-6]),
                               y=np.array([1.0, 0.8, 0.6, 0.5]))
        with pytest.raises(ConfigError):
            estimate.fit_exp_decay(ds)
        with pytest.raises(ConfigError):
            estimate.fit_ramsey(ds)


class TestRateSolvers:
    def test_gup_hand_solved_example(self):
        # u = 1/T1 = 0.02, v = 1/T2 = 0.015 (1/us):
        # tau_G = (15/8)/(2v - u) = 187.5 us; gamma = u - (45/8)/tau_G = -0.01 -> pick
        # numbers with positive gamma instead: T1 = 50, T2 = 80 us
        t1, t2 = 50e-6, 80e-6
        u, v = 1 / t1, 1 / t2
        sol = estimate.solve_rates_gup(t1, t2)
        assert sol.tau == pytest.approx((15.0 / 8.0) / (2 * v - u))
        assert sol.gamma == pytest.approx(u - (45.0 / 8.0) / sol.tau)
        # consistency against the forward map
        assert 1 / t1 == pytest.approx(sol.gamma + (45.0 / 8.0) / sol.tau, rel=1e-12)
        assert 1 / t2 == pytest.approx(sol.gamma / 2 + (30.0 / 8.0) / sol.tau, rel=1e-12)

    def test_breuer_forward_map_inverse(self):
        t1, t2 = 102.75e-6, 150e-6
        sol = estimate.solve_rates_breuer(t1, t2)
        assert 1 / t1 == pytest.approx(sol.gamma + (3.0 / 8.0) / sol.tau, rel=1e-12)
        assert 1 / t2 == pytest.approx(sol.gamma / 2 + (3.0 / 8.0) / sol.tau, rel=1e-12)

    def test_gup_vs_breuer_tau_ratio(self):
        # same data: tau_G / tau_D = (15/8)/(3/8) = 5 exactly
        g = estimate.solve_rates_gup(50e-6, 80e-6)
        b = estimate.solve_rates_breuer(50e-6, 80e-6)
        assert g.tau / b.tau == pytest.approx(5.0, rel=1e-12)

    def test_t2_twice_t1_gives_infinite_tau(self):
        sol = estimate.solve_rates_gup(100e-6, 200e-6)
        assert math.isinf(sol.tau)
        assert sol.gamma == pytest.approx(1e4)

    def test_inconsistent_times_raise(self):
        with pytest.raises(ModelInconsistencyError):
            estimate.solve_rates_gup(100e-6, 250e-6)

    def test_sigma_linear_in_inputs(self):
        a = estimate.solve_rates_gup(50e-6, 80e-6, 1e-6, 2e-6)
        b = estimate.solve_rates_gup(50e-6, 80e-6, 2e-6, 4e-6)
        assert b.tau_sigma == pytest.approx(2 * a.tau_sigma, rel=1e-12)
        assert b.gamma_sigma == pytest.approx(2 * a.gamma_sigma, rel=1e-12)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ConfigError):
            estimate.solve_rates_gup(0.0, 1e-4)


class TestParameterMaps:
    def test_kappa_formula_and_scaling(self):
        kappa, sk = estimate.kappa_from_tau_g(1e-4, 1.5e-33, 2 * math.pi * 5.96e9,
                                              1e-5)
        assert kappa == pytest.approx(
            1 / (8 * (1.5e-33) ** 2 * (2 * math.pi * 5.96e9) ** 2 * 1e-4))
        assert sk / kappa == pytest.approx(0.1)
        kappa2, _ = estimate.kappa_from_tau_g(2e-4, 1.5e-33, 2 * math.pi * 5.96e9)
        assert kappa2 == pytest.approx(kappa / 2)

    def test_tau_c_formula(self):
        tau_c, st = estimate.tau_c_from_tau_d(1.95e-4, 2 * math.pi * 5.96e9, 1e-5)
        assert tau_c == pytest.approx(1 / (1.95e-4 * (2 * math.pi * 5.96e9) ** 2))
        assert st / tau_c == pytest.approx(1e-5 / 1.95e-4)

    def test_beta_and_lk(self):
        beta, sb = estimate.beta_from_epsilon(0.02, 1.5e-33, 0.005)
        assert beta == pytest.approx(0.02 / (6 * 1.5e-33))
        assert sb == pytest.approx(0.005 / (6 * 1.5e-33))
        lk, slk = estimate.lk_from_epsilon(0.02, 2.9e-19, 0.005)
        assert lk == pytest.approx(2.9e-19 * math.sqrt(0.02))
        assert slk == pytest.approx(0.5 * lk * 0.25)
        assert estimate.LK_REFERENCE[0] == pytest.approx(5.9e-20)

    def test_guards(self):
        with pytest.raises(ConfigError):
            estimate.kappa_from_tau_g(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            estimate.beta_from_epsilon(-0.1, 1.0)
        with pytest.raises(ConfigError):
            estimate.lk_from_epsilon(0.1, 0.0)


class TestWignerEllipticity:
    def test_vacuum_is_round(self):
        rho = fock.density(fock.fock_state(0, 12))
        grid = np.linspace(-4.0, 4.0, 81)
        w = fock.wigner(rho, grid, grid)
        eps, _ = estimate.ellipticity_from_wigner(w)
        assert eps == pytest.approx(0.0, abs=1e-6)

    # theta 0.4: the squeezed axes are rotated off x and p, so the fitted
    # inverse covariance has c != 0
    @pytest.mark.parametrize("theta", [0.0, 0.4])
    def test_squeezed_gaussian_round_trip(self, theta):
        # synthetic Gaussian with variance ratio matching epsilon = 0.1
        eps = 0.1
        vx, vp = 0.5 - eps / 4, 0.5 + eps / 4
        grid = np.linspace(-4.0, 4.0, 101)
        xx, pp = np.meshgrid(grid, grid, indexing="ij")
        u = math.cos(theta) * xx + math.sin(theta) * pp
        v = -math.sin(theta) * xx + math.cos(theta) * pp
        vals = np.exp(-0.5 * (u**2 / vx + v**2 / vp)) / (
            2 * np.pi * math.sqrt(vx * vp))

        class G:
            x = grid
            p = grid
            values = vals

        got, _ = estimate.ellipticity_from_wigner(G())
        assert got == pytest.approx(eps, abs=1e-4)

    def test_closed_form_equals_the_eigenvalue_ratio(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.normal(size=(2, 2))
            s_inv = m @ m.T + 1e-3 * np.eye(2)
            a, b, c = s_inv[0, 0], s_inv[1, 1], s_inv[0, 1]
            v_min, v_max = np.linalg.eigvalsh(np.linalg.inv(s_inv))
            r = v_max / v_min
            eps = estimate._ellipticity(a, b, c)
            assert eps == pytest.approx(2 * (r - 1) / (r + 1), rel=1e-9, abs=1e-15)

    # (|0> + e^{i pi/4}|1>)/sqrt(2) has Cov(x, p) != 0, which the vxp term carries
    @pytest.mark.parametrize("psi", [
        fock.superposition01(20), fock.fock_state(1, 20), fock.fock_state(3, 20),
        (fock.fock_state(0, 20) + np.exp(1j * np.pi / 4) * fock.fock_state(1, 20))
        / math.sqrt(2.0)], ids=["superposition01", "fock1", "fock3", "phase-pi/4"])
    def test_moments_give_the_operator_variance_ratio(self, psi):
        rho = fock.density(psi)
        x, p = fock.quadrature(0.0, 20), fock.quadrature(np.pi / 2, 20)

        def mean(op):
            return float(np.real(np.trace(rho @ op)))

        vxx, vpp = mean(x @ x) - mean(x) ** 2, mean(p @ p) - mean(p) ** 2
        cov = mean((x @ p + p @ x) / 2) - mean(x) * mean(p)
        v_min, v_max = np.linalg.eigvalsh([[vxx, cov], [cov, vpp]])
        r = v_max / v_min
        axis = np.linspace(-4.0, 4.0, 81)
        eps, sigma = estimate.ellipticity_from_wigner(fock.wigner(rho, axis, axis))
        assert eps == pytest.approx(2 * (r - 1) / (r + 1), abs=1e-5)
        assert sigma == 0.0

    # 1e300: the cell area overflows, so the mass is inf; 1e156: the mass is
    # finite but x² overflows, so the second moments are 0 * inf = nan
    @pytest.mark.parametrize("halfwidth,points,match", [
        (1e300, 81, "mass"), (1e156, 201, "covariance is not finite")])
    def test_non_finite_mass_or_moments_raise(self, halfwidth, points, match):
        rho = fock.density(fock.fock_state(0, 6))
        axis = np.linspace(-halfwidth, halfwidth, points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = fock.wigner(rho, axis, axis)
            with pytest.raises(FitFailureError, match=match):
                estimate.ellipticity_from_wigner(grid)


class TestFeasibilityAndReport:
    def test_feasibility_orders_of_magnitude(self):
        f = estimate.planck_feasibility()
        assert f["mass_frequency_product"] == pytest.approx(1.0076e113, rel=1e-3)
        assert f["omega_sq_over_gamma"] == pytest.approx(1.8549e43, rel=1e-3)

    def test_report_structure(self):
        data = estimate.bounds_report(
            t1=85.8e-6, sigma_t1=1.5e-6, t2=147.3e-6, sigma_t2=2.6e-6,
            omega=2 * math.pi * 5.96e9, ap_hw=1.5e-33, x0=2.9e-19,
            epsilon=0.02, sigma_epsilon=0.005)
        for section in ("inputs", "gup", "breuer", "deformation", "feasibility"):
            assert section in data
        for entry in (data["gup"]["tau_g"], data["breuer"]["tau_c"],
                      data["deformation"]["l_k"]):
            assert set(entry) == {"value", "sigma", "unit"}
        assert data["gup"]["kappa"]["unit"] == "s"

    def test_report_nulls_when_unconstrained(self):
        data = estimate.bounds_report(
            t1=100e-6, sigma_t1=0.0, t2=200e-6, sigma_t2=0.0,
            omega=1e10, ap_hw=1.5e-33, x0=2.9e-19)
        assert data["gup"]["tau_g"] is None
        assert data["gup"]["kappa"] is None
        assert data["deformation"] is None
