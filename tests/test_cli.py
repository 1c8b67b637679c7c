import contextlib
import io
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from decolab import analytic, cli, estimate, fock, generators, integrate, trajectories
from decolab.cli import MODELS, RunConfig, main
from decolab.exceptions import (ConfigError, DecolabError, FitFailureError,
                                ModelInconsistencyError, PositivityError)

#: the stderr prefix each exit code other than 0 starts with
PREFIX = {2: "config error:", 3: "numeric failure:", 4: "model inconsistency:"}


def write_config(tmp_path, name="run.cfg", **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path = tmp_path / name
    path.write_text("# generated by the test suite\n" + "\n".join(lines) + "\n")
    return str(path)


class TestConfigFile:
    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="gup-markov", banana="1")
        assert main(["simulate", "--config", cfg]) == 2
        assert "banana" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/run.cfg"]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "{tmp}"],
        ["simulate", "--config", "{tmp}/csv-dir.cfg"],
        ["simulate", "--config", "{tmp}/csv-under-file.cfg"],
        ["bounds", "--t1-us", "85.8", "--t2-us", "147.3", "--json-out", "{tmp}"],
        ["fit", "--data", "{tmp}/t1.csv", "--fit-model", "exp", "--json-out", "{tmp}"],
    ], ids=["config-is-dir", "csv-out-is-dir", "csv-out-under-file",
            "bounds-json-out-is-dir", "fit-json-out-is-dir"])
    def test_unreadable_or_unwritable_path_is_exit_2(self, tmp_path, capsys, argv):
        run = {"model": "damping-only", "dim": 4, "t_end": 0.5}
        write_config(tmp_path, "csv-dir.cfg", csv_out=tmp_path, **run)
        write_config(tmp_path, "csv-under-file.cfg",
                     csv_out=tmp_path / "csv-dir.cfg" / "out.csv", **run)
        estimate.synthesize_dataset("exp", {"A": 0.9, "T1": 85.8e-6, "C": 0.05},
                                    40, 0.01, 3, 400e-6).to_csv(tmp_path / "t1.csv")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_bad_value_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dim="three")
        assert main(["simulate", "--config", cfg]) == 2

    def test_unknown_model_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="lindblad")
        assert main(["simulate", "--config", cfg]) == 2

    @pytest.mark.parametrize("bad", [{"sample_every": 0}, {"n_traj": 50},
                                     {"chunk_size": 0}])
    def test_ensemble_counts_out_of_range_are_exit_2(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, model="gup-markov", omega_tau_g=500.0,
                           dim=6, t_end=0.5, dt=0.05, **bad)
        assert main(["ensemble", "--config", cfg]) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"t_end": "nan"}, {"dt": "nan"},
                                     {"omega_tau_g": -5.0}, {"omega_tau_d": 0.0},
                                     {"gamma_dimless": "inf"}, {"beta_bar": "nan"},
                                     {"grid_halfwidth": "nan"}, {"grid_points": 2}])
    def test_non_finite_or_out_of_range_values_are_exit_2(self, tmp_path, capsys,
                                                           bad):
        kv = {"model": "gup-markov", "dim": 6, "t_end": 0.5, "dt": 0.05, **bad}
        assert main(["simulate", "--config", write_config(tmp_path, **kv)]) == 2
        assert next(iter(bad)) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    @pytest.mark.parametrize("name", ["rho_01", "rho_99", "foo"])
    def test_bad_observable_is_exit_2(self, tmp_path, capsys, command, name):
        cfg = write_config(tmp_path, model="gup-markov", omega_tau_g=500.0,
                           dim=6, t_end=0.5, dt=0.05, observables=f"rho_00,{name}",
                           csv_out=str(tmp_path / "out.csv"))
        assert main([command, "--config", cfg]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_model_parameter_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(omega_tau_g=-5.0).model_params()
        with pytest.raises(ConfigError):   # no deformation coupling to carry the noise
            RunConfig(omega_tau_g=100.0, ap_hw=0.0).model_params()

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# full line comment\nmodel = damping-only  # trailing\n\n")
        cfg = RunConfig.from_file(path)
        assert cfg.model == "damping-only"

    def test_profile_fills_device_scales(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path, profile="hbar-16ug"))
        assert cfg.f_hz == pytest.approx(5.96e9)
        assert cfg.ap_hw == pytest.approx(1.5e-33)


def lawson_reference(rho0, dissipator, delta, n_steps, stride, dt, every):
    """Integrating-factor RK4 on the real form X, in ``evolve``'s operation
    order, at h = stride dt: E X = cos(h Δ/2)∘X - sin(h Δ/2)∘Xᵀ rotates the
    phases -Δ∘Xᵀ exactly, N = ``dissipator`` is stepped, and X / tr X after
    every step; samples after every ``every`` steps of dt and the last."""
    h = stride * dt
    cos, sin = np.cos(0.5 * h * delta), np.sin(0.5 * h * delta)
    rot = lambda x: cos * x - sin * x.T
    x = rho0.real + rho0.imag
    times, states = [0.0], [np.asarray(rho0, dtype=complex)]
    for step in range(stride, n_steps + 1, stride):
        xa = rot(x)
        k1 = rot(dissipator(x))
        n2 = dissipator(0.5 * h * k1 + xa)
        n3 = dissipator(0.5 * h * n2 + xa)
        n4 = dissipator(rot(h * n3 + xa))
        x = rot(((k1 + 2.0 * n2) + 2.0 * n3) * (h / 6.0) + xa) + (h / 6.0) * n4
        x = x / np.trace(x)
        if step % every == 0 or step == n_steps:
            times.append(step * dt)
            states.append(0.5 * (x + x.T) + 1j * (0.5 * (x - x.T)))
    return integrate.EvolutionResult(np.array(times), np.array(states))


class TestSimulate:
    def test_damping_only_matches_closed_form(self, tmp_path):
        out = tmp_path / "sim.json"
        csv = tmp_path / "sim.csv"
        cfg = write_config(
            tmp_path, model="damping-only", initial_state="fock(1)", dim=8,
            t_end=20.0, dt=0.01, sample_every=200, gamma_dimless=0.05,
            json_out=str(out), csv_out=str(csv))
        assert main(["simulate", "--config", cfg]) == 0
        data = json.loads(out.read_text())
        assert data["max_abs_deviation_from_analytic"]["rho_11"] < 1e-10
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "t_omega,t_seconds,rho_00,abs_rho_01,rho_11"
        t, _, _, _, p11 = map(float, rows[-1].split(","))
        assert p11 == pytest.approx(math.exp(-0.05 * t), abs=1e-10)

    def test_json_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "sim.json"
        cfg = write_config(tmp_path, model="gup-markov", omega_tau_g=1e4,
                           t_end=1.0, json_out=str(out))
        assert main(["simulate", "--config", cfg]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["omega_tau_g"] == pytest.approx(1e4)
        assert data["config"]["dim"] == 20  # default materialized
        assert data["config"]["omega_tau_d"] is None  # inf -> null

    def test_reproducible_bytes(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            csv = tmp_path / name
            cfg = write_config(
                tmp_path, name=name + ".cfg", model="gup-markov",
                omega_tau_g=500.0, initial_state="superposition01", dim=10,
                t_end=5.0, dt=0.05, sample_every=20, csv_out=str(csv),
                json_out=str(tmp_path / (name + ".json")))
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model,dim,gamma,propagator", [
        ("gup-markov", 8, 0.0, "exact-blocks"),    # real blocks of order 32
        ("breuer", 32, 0.03, "exact-blocks"),      # 512 <= 512
        ("damping-only", 33, 0.03, "lawson"),      # 545 > 512
        ("breuer", 32, 0.0, "exact-blocks"),       # 512 <= 512
        ("gup-markov", 33, 0.0, "split4"),         # 544 > 512
    ])
    def test_each_path_reports_its_name_and_edge_population(
            self, tmp_path, model, dim, gamma, propagator):
        top = [f"rho_{n}_{n}" for n in range(dim - 4, dim)]
        cfg = write_config(
            tmp_path, model=model, dim=dim, initial_state="fock(1)",
            gamma_dimless=gamma, omega_tau_g=5e4, omega_tau_d=30.0, t_end=1.0,
            dt=0.05, sample_every=5, observables=",".join(top),
            csv_out=str(tmp_path / "s.csv"), json_out=str(tmp_path / "s.json"))
        assert main(["simulate", "--config", cfg]) == 0
        diag = json.loads((tmp_path / "s.json").read_text())["diagnostics"]
        assert diag["propagator"] == propagator
        # the step taken, off the exact blocks: of the sample interval's
        # divisors, 1 and 5 steps, 5 is past Lawson's rule here and within
        # the split step's (h <= 0.28 at c = 2e-5, ν = 8)
        step = {"exact-blocks": None, "lawson": 0.05, "split4": 0.25}[propagator]
        assert diag.get("step") == step
        edge = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)[:, 2:]
        assert diag["edge_population"] == pytest.approx(np.max(edge.sum(axis=1)),
                                                        rel=1e-10, abs=1e-15)

    def test_damped_run_past_rk4s_step_limit_takes_the_exact_blocks(self, tmp_path,
                                                                    capsys):
        # RK4's check asks for dt <= 0.0106 here; the real blocks have order
        # 288, within the limit, and take no step
        cfg = write_config(
            tmp_path, model="gup-markov", dim=24, omega_tau_g=500.0, ap_hw=1.5e-33,
            beta_bar=1.0, gamma_dimless=0.03, initial_state="superposition01",
            t_end=20.0, dt=0.05, json_out=str(tmp_path / "s.json"))
        assert main(["simulate", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        diag = json.loads((tmp_path / "s.json").read_text())["diagnostics"]
        assert diag["propagator"] == "exact-blocks" and "step" not in diag
        assert diag["max_herm_drift"] == 0.0 and diag["min_eigenvalue"] > -1e-12

    def test_rk4_above_the_block_limit_keeps_its_bytes(self, tmp_path):
        # dim 33 with damping has a parity block of order 545; Lawson's step
        # on the real form X, with the exact rotation of -Δ∘Xᵀ, the
        # four-product double commutator -c [K², [K², X]] and the damping
        # gamma (a X aᵀ - ((m + n)/2)∘X) written out here, is the reference,
        # byte for byte
        dim, dt, t_end, every, gamma = 33, 0.01, 0.1, 4, 0.03
        cfg = write_config(
            tmp_path, model="gup-markov", dim=dim, initial_state="superposition01",
            omega_tau_g=5e4, beta_bar=1.0, ap_hw=1e-3, gamma_dimless=gamma,
            t_end=t_end, dt=dt,
            sample_every=every, observables="rho_00,abs_rho_01,re_rho_02,im_rho_13",
            csv_out=str(tmp_path / "cli.csv"), json_out=str(tmp_path / "s.json"))
        assert main(["simulate", "--config", cfg]) == 0
        run = RunConfig.from_file(cfg)
        m = generators.model("gup-markov", run.model_params(), dim)
        # samples after steps 4, 8 and 10: the step divides 2 intervals
        reach = m.phase_spread + integrate._check_step(m, run.dt)
        stride = max(k for k in (1, 2) if k * dt * reach <= integrate.LAWSON_STEP_LIMIT)
        assert stride == 2
        diag = json.loads((tmp_path / "s.json").read_text())["diagnostics"]
        assert diag["propagator"] == "lawson" and diag["step"] == stride * dt
        delta, k2, c = m.levels[:, None] - m.levels[None, :], m.op, m.c
        comm = lambda a, b: a @ b - b @ a
        n = np.arange(dim, dtype=float)
        root, half = np.sqrt(n[1:]), 0.5 * (n[:, None] + n[None, :])

        def damping(x):
            out = np.zeros_like(x)
            out[:-1, :-1] = (root[:, None] * x[1:, 1:]) * root
            out -= half * x
            return out * gamma

        ref = lawson_reference(fock.density(fock.superposition01(dim)),
                               lambda x: comm(k2, comm(k2, x)) * -c + damping(x),
                               delta, 10, stride, dt, every)
        ref.to_csv(tmp_path / "ref.csv", ["rho_00", "abs_rho_01", "re_rho_02",
                                          "im_rho_13"])
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("limit,scales,gamma", [
        (integrate.EXACT_BLOCK_LIMIT, {"omega_tau_g": 1e-150}, 0.0),
        # damping's rates gamma (m + n)/2 reach 3 gamma = inf at dim 4 (at
        # gamma = 1e300 the run completes: test_stiff_damped_exact_blocks_...)
        (integrate.EXACT_BLOCK_LIMIT, {"omega_tau_g": 1e-150}, 1e308),
        # RK4's step check exits 2 on so large a c or gamma, and the phases
        # are rotated exactly, so there the levels themselves overflow
        # (0.375 ap_hw beta_bar = 3.75e399), under damping within the limit
        (0, {"beta_bar": 1e300, "initial_state": "superposition01"}, 0.0),
        (0, {"beta_bar": 1e300, "initial_state": "superposition01"}, 10.0),
    ], ids=["exact-blocks", "exact-blocks-damped", "rk4", "rk4-damped"])
    def test_overflowing_generator_is_exit_3(self, tmp_path, capsys, monkeypatch,
                                             limit, scales, gamma):
        monkeypatch.setattr(integrate, "EXACT_BLOCK_LIMIT", limit)
        cfg = write_config(tmp_path, model="gup-markov", dim=4, ap_hw=1e100,
                           gamma_dimless=gamma, json_out=str(tmp_path / "s.json"),
                           **scales)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "Traceback" not in err

    def test_overflowing_squarings_name_the_matrix_exponential(self, tmp_path, capsys):
        # c = 1e150 without damping: the block is finite, but the squarings of
        # its exponential overflow, which the message names rather than a state,
        # and names alone: numpy's overflow warnings are not printed before it
        cfg = write_config(tmp_path, model="gup-markov", dim=4, ap_hw=1e100,
                           omega_tau_g=1e-150, json_out=str(tmp_path / "s.json"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", cfg]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: matrix exponential overflowed: exp(L t) "
                              "of a parity block over omega*t=")
        assert "is not finite, with ‖L t‖₁ = 1.56e+151" in err

    def test_stiff_damped_exact_blocks_end_at_the_rate_equations_steady_state(
            self, tmp_path):
        # c = 1e150 moves |0> to |2> at 2 c |K²_20|², gamma = 1e300 moves |2>
        # to |1> at 2 gamma and |1> to |0> at gamma: within the first sample
        # interval, a thousand squarings of expm, the populations settle at
        # rho_22 = c |K²_20|² / gamma and rho_11 = 2 rho_22
        kv = {"model": "gup-markov", "dim": 4, "ap_hw": 1e100, "omega_tau_g": 1e-150,
              "gamma_dimless": 1e300, "observables": "rho_00,rho_11,rho_22",
              "csv_out": str(tmp_path / "s.csv"), "json_out": str(tmp_path / "s.json")}
        cfg = write_config(tmp_path, **kv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg]) == 0
        run = RunConfig.from_file(cfg)
        m = generators.model("gup-markov", run.model_params(), run.dim)
        rho22 = m.c * m.op[2, 0] ** 2 / m.gamma
        assert rho22 == pytest.approx(2.8125e-151, rel=1e-12)
        rows = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)
        for p00, p11, p22 in rows[1:, 2:]:
            assert p00 == 1.0
            assert p11 == pytest.approx(2.0 * rho22, rel=1e-12)
            assert p22 == pytest.approx(rho22, rel=1e-12)
        diag = json.loads((tmp_path / "s.json").read_text())["diagnostics"]
        assert diag["propagator"] == "exact-blocks"

    @pytest.mark.parametrize("model,extra,dt,code", [
        # dt c (a_max - a_min)² = 62.8: RK4 blew up at omega*t = 1
        ("gup-markov", {}, 0.05, 2),
        ("gup-nonmarkov", {"kernel": "exponential", "omega_tau_kernel": 2.0}, 0.05, 2),
        # dt gamma (dim - 1) = 117: RK4 lost positivity at omega*t = 0.5
        ("damping-only", {"dim": 40, "gamma_dimless": 60.0, "initial_state": "fock(1)"},
         0.05, 2),
        # 0.63 and 1.0: inside the limit of 2.78
        ("gup-markov", {"omega_tau_g": 5e4, "ap_hw": 1e-3}, 0.05, 0),
        ("gup-nonmarkov", {"kernel": "exponential", "omega_tau_kernel": 2.0,
                           "ap_hw": 1.5e-33, "dim": 12}, 0.1, 0),
    ])
    def test_rk4_step_past_its_stability_limit_is_exit_2(self, tmp_path, capsys,
                                                         model, extra, dt, code):
        kv = {"model": model, "dim": 34, "ap_hw": 0.01, "omega_tau_g": 500.0,
              "beta_bar": 1.0, "initial_state": "superposition01", "t_end": 1.0,
              "dt": dt, "sample_every": 10, "json_out": str(tmp_path / "s.json"),
              **extra}
        assert main(["simulate", "--config", write_config(tmp_path, **kv)]) == code
        err = capsys.readouterr().err
        assert ((f"dt={dt:g}" in err and "2.78" in err) if code else err == "")

    def test_rk4_stability_region_has_its_axis_limits(self):
        # RK4 is stable down to -2.785 on the real axis and to ±√8 on the
        # imaginary one; the rectangle's corner lies outside where both edges
        # are within them
        assert integrate._rk4_stable(2.78, 0.0) and not integrate._rk4_stable(2.79, 0.0)
        assert integrate._rk4_stable(0.0, 2.82) and not integrate._rk4_stable(0.0, 2.84)
        assert not integrate._rk4_stable(2.0, 2.0)

    @pytest.mark.parametrize("tau_k,lo,hi", [
        (2.0, 0.07, 0.1),
        # the region allows dt 0.0722, past the memory kernel's tau/10 = 0.05
        (0.5, 0.049, 0.05),
    ])
    def test_plain_rk4_step_past_the_phases_is_exit_2_naming_a_dt_that_completes(
            self, tmp_path, capsys, tau_k, lo, hi):
        # dt s = 0.13 passes the real-axis check, but plain RK4 also steps the
        # phases, up to dt max |Δ| = 3.9 > √8: the run blew up at omega*t = 10
        kv = {"model": "gup-nonmarkov", "dim": 40, "initial_state": "superposition01",
              "omega_tau_g": 1e6, "kernel": "exponential", "omega_tau_kernel": tau_k,
              "t_end": 200.0, "json_out": str(tmp_path / "s.json")}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config",
                         write_config(tmp_path, dt=0.1, **kv)]) == 2
            err = capsys.readouterr().err
            assert "dt=0.1 " in err and "max |Δ| = 3.9" in err
            dt = float(err.rsplit("take dt <= ", 1)[1])
            assert lo < dt < hi
            assert main(["simulate", "--config", write_config(tmp_path, dt=dt, **kv)]) == 0
        assert capsys.readouterr().err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert json.loads((tmp_path / "s.json").read_text())["diagnostics"]["step"] == dt


class TestLawsonSweep:
    """The constant models' stepped paths, each at its step rule, against the
    exact blocks: the split step without damping (h⁴ c ν⁴ <=
    ``SPLIT_ERROR_LIMIT``, h ν <= ``SPLIT_PHASE_LIMIT`` and
    ``SPLIT_GROWTH_LIMIT``), sampled every omega t 2, and Lawson's step with
    it (``LAWSON_STEP_LIMIT``), sampled at omega t 40.  Populations within
    max(1e-10, plain RK4's own error at dt) and |rho_01| no further off than
    plain RK4's, on the same grid, to omega t = 40 at dt = 0.05."""

    SCALES = {("gup-markov", "weak"): {"omega_tau_g": 1.25e5},
              ("gup-markov", "strong"): {"omega_tau_g": 5e4},
              ("breuer", "weak"): {"omega_tau_d": 1e4},
              ("breuer", "strong"): {"omega_tau_d": 100.0},
              ("damping-only", "none"): {}}

    @pytest.mark.parametrize("dim", [12, 24, 40])
    @pytest.mark.parametrize("gamma", [0.0, 0.03])
    @pytest.mark.parametrize("model,coupling", list(SCALES))
    def test_step_rule_is_no_worse_than_rk4(self, monkeypatch, model, coupling,
                                            gamma, dim):
        self.check(monkeypatch, model, dim, gamma, self.SCALES[model, coupling])

    @pytest.mark.parametrize("omega_tau_d", [200.0, 300.0, 500.0, 1000.0])
    def test_split_step_between_the_breuer_couplings(self, monkeypatch, omega_tau_d):
        # Lawson's step took h = 2 dt here and ended 1.4e-10 to 1.3e-9 off
        # the exact state at omega t 200
        self.check(monkeypatch, "breuer", 12, 0.0, {"omega_tau_d": omega_tau_d})

    def test_split_step_at_a_moderate_coupling_between_the_samples(self, monkeypatch):
        # h = 0.1 by the rule: |1> peaks 2.5e-11 off, RK4 5.1e-11; at a fixed
        # h = 0.2 it peaked 4.1e-10 off
        got = self.check(monkeypatch, "breuer", 34, 0.0, {"omega_tau_d": 50.0},
                         t_end=20.0, dt=0.02, every=100)
        assert got.step == pytest.approx(0.1)

    def test_split_step_from_high_up_the_ladder(self, monkeypatch):
        # the strongest coupling of the benchmark's breuer op, at dim 40, where
        # the rule takes h = 0.4: fock(10) ends 1.7e-10 off in populations,
        # RK4 2.8e-10
        got = self.check(monkeypatch, "breuer", 40, 0.0, {"omega_tau_d": 7071.0},
                         states=(fock.fock_state(10, 40),))
        assert got.step == pytest.approx(0.4)

    @staticmethod
    def check(monkeypatch, model, dim, gamma, scales, *, t_end=40.0, dt=0.05,
              every=None, states=None):
        """Assert the standard above from each of ``states`` (default
        superposition01 and |1>), every ``every`` steps (default omega t 2
        without damping, omega t 40 with it); returns the last run."""
        monkeypatch.setattr(integrate, "EXACT_BLOCK_LIMIT", 0)
        # the two states share the blocks of fock(1): one expm each
        cache = {}

        def cached_expm(a, overwrite_a=False):
            key = a.tobytes()
            if key not in cache:
                cache[key] = expm(a)
            return cache[key]

        monkeypatch.setattr(integrate, "expm", cached_expm)
        every = every or (800 if gamma else 40)
        cfg = RunConfig(model=model, dim=dim, gamma_dimless=gamma, beta_bar=1.0,
                        ap_hw=1e-3, t_end=t_end, dt=dt, sample_every=every, **scales)
        cfg.validate()
        m = generators.model(model, cfg.model_params(), dim)
        rhs = generators.breuer_rhs if model == "breuer" else generators.gup_markov_rhs
        for psi in states or (fock.superposition01(dim), fock.fock_state(1, dim)):
            rho0 = fock.density(psi)
            exact = integrate.propagate_blocks(rho0, m, t_end, dt,
                                               sample_every=every).states
            rk4 = integrate.evolve(rho0, lambda x, t: rhs(x, m), t_end, dt,
                                   sample_every=every).states
            got = integrate.solve(rho0, m, cfg.t_end, cfg.dt,
                                  sample_every=cfg.sample_every)
            assert got.propagator == ("lawson" if gamma else "split4")
            assert got.step >= dt

            def pop(states):
                return np.max(np.abs(np.diagonal(states - exact, axis1=1, axis2=2)))

            def coh(states):
                return np.max(np.abs(np.abs(states[:, 0, 1]) - np.abs(exact[:, 0, 1])))

            assert pop(got.states) <= max(1e-10, pop(rk4))
            assert coh(got.states) <= coh(rk4)
        return got


class TestEnsemble:
    def test_zero_noise_matches_simulate(self, tmp_path):
        sim_csv = tmp_path / "sim.csv"
        cfg_sim = write_config(tmp_path, name="sim.cfg", model="damping-only",
                               initial_state="superposition01", dim=8, t_end=5.0,
                               dt=0.05, sample_every=25, beta_bar=1.0,
                               csv_out=str(sim_csv), json_out=str(tmp_path / "s.json"))
        assert main(["simulate", "--config", cfg_sim]) == 0
        # `ensemble` rejects a model without noise, so unravel it directly
        m = generators.model("damping-only", RunConfig.from_file(cfg_sim).model_params(), 8)
        ens = trajectories.ensemble_average(fock.superposition01(8), m, 100, 0,
                                            dt=0.05, n_steps=100, sample_every=25)
        sim = np.loadtxt(sim_csv, delimiter=",", skiprows=1)
        assert np.allclose(sim[:, 3], np.abs(ens.mean_states[:, 0, 1]), atol=1e-6)
        # no noise: identical trajectories up to the cancellation error of the
        # running-variance accumulator
        assert np.max(ens.stderr) < 1e-6

    @pytest.mark.parametrize("model", ["damping-only", "gup-markov"])
    def test_model_without_deformation_noise_is_exit_2(self, tmp_path, capsys,
                                                       model):
        # omega_tau_g is left at inf, so gup-markov has no noise either
        cfg = write_config(tmp_path, model=model, omega_tau_d=50.0, dim=12,
                           initial_state="superposition01", t_end=5.0,
                           n_traj=100)
        assert main(["ensemble", "--config", cfg]) == 2
        assert model in capsys.readouterr().err

    @pytest.mark.parametrize("model,noise_kind,kernel", [
        ("gup-nonmarkov", "white", "exponential"),
        ("gup-markov", "white", "exponential"),
        ("gup-markov", "ornstein-uhlenbeck", "delta"),
        ("breuer", "ornstein-uhlenbeck", "delta"),
    ])
    def test_noise_kind_other_than_the_models_is_exit_2(self, tmp_path, capsys,
                                                        model, noise_kind, kernel):
        cfg = write_config(tmp_path, model=model, omega_tau_g=500.0,
                           omega_tau_d=50.0, kernel=kernel, omega_tau_kernel=2.0,
                           noise_kind=noise_kind, dim=8, t_end=0.5, dt=0.05)
        assert main(["ensemble", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "noise_kind" in err and model in err

    def test_breuer_ensemble_tracks_simulate(self, tmp_path):
        common = dict(model="breuer", omega_tau_d=50.0, dim=12,
                      initial_state="superposition01", t_end=10.0, dt=0.05,
                      sample_every=50, observables="rho_00,rho_11,re_rho_01")
        for command in ("simulate", "ensemble"):
            cfg = write_config(tmp_path, name=f"{command}.cfg", n_traj=400,
                               csv_out=str(tmp_path / f"{command}.csv"),
                               json_out=str(tmp_path / f"{command}.json"), **common)
            assert main([command, "--config", cfg]) == 0
        sim = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
        ens = np.loadtxt(tmp_path / "ensemble.csv", delimiter=",", skiprows=1)
        # ensemble columns interleave stderr: value i sits at 2 + 2i
        for i in range(3):
            assert np.all(np.abs(ens[:, 2 + 2 * i] - sim[:, 2 + i])
                          <= 6.0 * ens[:, 3 + 2 * i] + 1e-12)

    def test_json_stderr_is_the_largest_of_each_csv_column(self, tmp_path):
        names = ["rho_00", "abs_rho_01", "im_rho_01", "rho_11"]
        cfg = write_config(tmp_path, model="gup-markov", omega_tau_g=500.0,
                           beta_bar=1.0, dim=8, initial_state="superposition01",
                           t_end=1.0, dt=0.05, sample_every=5, n_traj=100,
                           observables=",".join(names),
                           csv_out=str(tmp_path / "e.csv"),
                           json_out=str(tmp_path / "e.json"))
        assert main(["ensemble", "--config", cfg]) == 0
        data = json.loads((tmp_path / "e.json").read_text())
        header = (tmp_path / "e.csv").read_text().splitlines()[0].split(",")
        rows = np.loadtxt(tmp_path / "e.csv", delimiter=",", skiprows=1)
        assert sorted(data["stderr"]) == sorted(names)
        for name in names:
            column = rows[:, header.index("stderr_" + name)]
            assert float(f"{data['stderr'][name]:.12g}") == np.max(column) > 0
        assert max(data["stderr"].values()) <= data["max_stderr"]


class TestOutOfMemory:
    @staticmethod
    def run_without_memory(tmp_path, capsys, monkeypatch, command, target, **cfg):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(*target, no_memory)
        path = write_config(tmp_path, model="gup-markov", omega_tau_g=500.0, **cfg)
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: out of memory" in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("command,target,size", [
        ("simulate", (fock, "density"), "21 samples"),
        ("wigner", (fock, "density"), "grid_points=81"),
        ("ensemble", (trajectories, "ensemble_average"), "chunk_size=256")],
        ids=["simulate", "wigner", "ensemble"])
    def test_memory_error_is_exit_2_naming_the_sizes(self, tmp_path, capsys, monkeypatch,
                                                     command, target, size):
        err = self.run_without_memory(tmp_path, capsys, monkeypatch, command, target,
                                      dim=9, t_end=1.0, dt=0.05, sample_every=1)
        assert "dim=9" in err and size in err

    def test_analytic_names_its_samples_and_no_dim(self, tmp_path, capsys, monkeypatch):
        err = self.run_without_memory(tmp_path, capsys, monkeypatch, "analytic",
                                      (cli, "_closed_forms"), t_end=1.0, dt=0.05,
                                      sample_every=2)
        assert "11 samples" in err and "dim=" not in err


class TestFitAndBounds:
    def test_fit_round_trip(self, tmp_path):
        truth = {"A": 0.9, "T1": 85.8e-6, "C": 0.05}
        ds = estimate.synthesize_dataset("exp", truth, 80, 0.01, 3, 400e-6)
        data = tmp_path / "t1.csv"
        ds.to_csv(data)
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--fit-model", "exp",
                     "--json-out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert fit["converged"]
        assert fit["params"]["T1"] == pytest.approx(
            truth["T1"], abs=3 * fit["sigmas"]["T1"])

    def test_fit_flat_data_is_exit_3(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        rows = ["t_us,y"] + [f"{i + 1},{1.0 if i == 0 else 0.0}" for i in range(16)]
        data.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--data", str(data), "--fit-model", "ramsey"]) == 3

    def test_fit_constant_ramsey_trace_is_exit_3(self, tmp_path, capsys):
        data = tmp_path / "constant.csv"
        data.write_text("t_us,y\n" + "".join(f"{5 * (i + 1)},0.5\n" for i in range(80)))
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--fit-model", "ramsey",
                     "--json-out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert not out.exists()

    @pytest.mark.parametrize("body, match", [
        ("", "no data rows"),
        ("1.0,0.5\n2.0,abc\n", "could not convert"),
        ("1.0,0.5\n2.0,0.4,0.1\n", "data row 2 has 3 values"),
        ("".join(f"{i},0.5\n" for i in range(1, 8)) + "nan,0.5\n", "t must be finite"),
    ], ids=["header-only", "non-numeric", "ragged", "nan-time"])
    def test_malformed_data_csv_is_exit_2(self, tmp_path, capsys, body, match):
        data = tmp_path / "bad.csv"
        data.write_text("t_us,y\n" + body)
        assert main(["fit", "--data", str(data), "--fit-model", "exp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and match in err

    def test_nan_sigma_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "nan-sigma.csv"
        rows = [f"{i + 1},{0.9 ** i!r},{'nan' if i == 5 else '0.01'}" for i in range(20)]
        data.write_text("t_us,y,sigma\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--data", str(data), "--fit-model", "exp"]) == 2
        assert "sigma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["exp", "ramsey"])
    def test_data_near_the_float_limit_is_exit_3(self, tmp_path, capsys, model):
        data = tmp_path / "huge.csv"
        rows = [f"{i + 1},{1e308 if i % 2 == 0 else -1e308!r}" for i in range(30)]
        data.write_text("t_us,y\n" + "\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["fit", "--data", str(data), "--fit-model", model,
                         "--json-out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("numeric failure:")
        assert not out.exists()  # no parameters, NaN or otherwise

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_fit_bytes_survive_an_erroring_call_between(self, tmp_path, capsys):
        truth = {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4, "C": 0.0}
        data = tmp_path / "ramsey.csv"
        estimate.synthesize_dataset("ramsey", truth, 80, 0.02, 4, 300e-6).to_csv(data)
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        argv = ["fit", "--data", str(data), "--fit-model", "ramsey", "--json-out"]
        assert main(argv + [str(outs[0])]) == 0
        assert main(["bounds", "--t1-us", "85.8", "--t2-us", "x"]) == 2
        assert main(argv + [str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bounds_anchor_values(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--t1-us", "85.8", "--st1-us", "1.5",
                     "--t2-us", "147.3", "--st2-us", "2.6",
                     "--epsilon", "0.020", "--sigma-epsilon", "0.005",
                     "--profile", "hbar-16ug", "--json-out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["gup"]["tau_g"]["value"] == pytest.approx(975.18e-6, rel=1e-3)
        assert data["breuer"]["tau_c"]["value"] == pytest.approx(3.656e-18, rel=1e-2)
        assert data["gup"]["kappa"]["value"] == pytest.approx(4.06e46, rel=1e-2)
        assert data["deformation"]["beta_bar"]["value"] == pytest.approx(
            2.22e30, rel=1e-2)

    def test_inconsistent_times_exit_4(self, capsys):
        assert main(["bounds", "--t1-us", "100", "--t2-us", "250"]) == 4

    @pytest.mark.parametrize("flags", [
        ["--t1-us", "nan"],
        ["--t1-us", "inf"],
        ["--st1-us", "-1"],
        ["--st2-us", "nan"],
        ["--epsilon", "nan"],
        ["--epsilon", "0.02", "--sigma-epsilon", "inf"],
        ["--epsilon", "0.02", "--x0", "nan"],
        ["--f-hz", "nan"],
        ["--f-hz", "0"],
        ["--ap-hw", "0"],
        ["--epsilon", "0.02", "--x0", "0"],
        ["--x0", "-1"],
    ], ids=" ".join)
    def test_non_finite_or_negative_input_is_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "bounds.json"
        argv = {"--t1-us": "85.8", "--t2-us": "147.3"}
        argv.update(zip(flags[::2], flags[1::2]))
        assert main(["bounds", *[x for kv in argv.items() for x in kv],
                     "--json-out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_bounds_prints_json_without_outfile(self, capsys):
        assert main(["bounds", "--t1-us", "85.8", "--t2-us", "147.3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "gup" in data and "breuer" in data


class TestWigner:
    def test_vacuum_grid_and_ellipticity(self, tmp_path):
        out = tmp_path / "w.json"
        csv = tmp_path / "w.csv"
        cfg = write_config(tmp_path, model="damping-only", t_end=0.0, dim=12,
                           json_out=str(out), csv_out=str(csv))
        assert main(["wigner", "--config", cfg]) == 0
        data = json.loads(out.read_text())
        assert data["captured_mass"] == pytest.approx(1.0, abs=1e-6)
        assert abs(data["ellipticity"]["value"]) < 1e-6
        assert csv.read_text().splitlines()[0] == "x,p,w"

    def test_superposition_ellipticity_is_the_variance_ratio(self, tmp_path):
        # Var x = 1/2, Var p = 1, Cov = 0 for (|0> + |1>)/sqrt(2): r = 2, epsilon = 2/3
        out = tmp_path / "w.json"
        cfg = write_config(tmp_path, model="damping-only", t_end=0.0, dim=20,
                           initial_state="superposition01", grid_halfwidth=4.0,
                           grid_points=81, json_out=str(out))
        assert main(["wigner", "--config", cfg]) == 0
        eps = json.loads(out.read_text())["ellipticity"]
        assert eps["value"] == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert eps["sigma"] == 0.0

    def test_overflowing_grid_reports_null_ellipticity(self, tmp_path):
        out = tmp_path / "w.json"
        cfg = write_config(tmp_path, model="damping-only", t_end=0.0, dim=6,
                           grid_halfwidth=1e300, json_out=str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["wigner", "--config", cfg]) == 0
        assert json.loads(out.read_text())["ellipticity"] == {"value": None,
                                                              "sigma": None}

    @pytest.mark.parametrize("model,dim,gamma,step", [
        ("damping-only", 32, 0.03, None),      # exact blocks: order 512
        ("damping-only", 33, 0.03, 0.05),      # Lawson's step: order 545
        ("breuer", 32, 0.0, None),             # exact blocks: order 512
        ("breuer", 33, 0.0, 0.4),              # split step (order 544), at 8 dt
        ("gup-nonmarkov", 8, 0.0, 0.05)])      # plain RK4
    def test_evolved_grid_reports_the_step(self, tmp_path, model, dim, gamma, step):
        out = tmp_path / "w.json"
        cfg = write_config(tmp_path, model=model, dim=dim, gamma_dimless=gamma,
                           omega_tau_d=1e4, omega_tau_g=500.0, kernel="exponential",
                           omega_tau_kernel=2.0, t_end=2.0, dt=0.05,
                           sample_every=40, grid_points=11, json_out=str(out))
        assert main(["wigner", "--config", cfg]) == 0
        data = json.loads(out.read_text())
        assert data.get("diagnostics") == (None if step is None else {"step": step})

    def test_each_model_evolves_under_its_own_generator(self, tmp_path):
        common = dict(dim=12, initial_state="fock(1)", t_end=20.0, dt=0.05,
                      omega_tau_g=500.0, beta_bar=1.0, kernel="exponential",
                      omega_tau_kernel=2.0, grid_halfwidth=3.0, grid_points=11)
        grids = {}
        for model in ("gup-nonmarkov", "damping-only"):
            csv = tmp_path / f"{model}.csv"
            cfg = write_config(tmp_path, name=f"{model}.cfg", model=model,
                               csv_out=str(csv), **common)
            assert main(["wigner", "--config", cfg]) == 0
            grids[model] = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 2]
        cfg = RunConfig(model="gup-nonmarkov", **common)
        cfg.validate()
        rho = integrate.evolve_nonmarkov(
            fock.density(fock.fock_state(1, 12)), cfg.model_params(), 20.0,
            0.05).states[-1]
        axis = np.linspace(-3.0, 3.0, 11)
        want = fock.wigner(rho, axis, axis).values.ravel()
        assert np.array_equal(grids["gup-nonmarkov"],
                              np.array([float(f"{w:.12g}") for w in want]))
        assert np.max(np.abs(grids["gup-nonmarkov"] - grids["damping-only"])) > 1e-4


class TestAnalyticCommand:
    def test_curve_csv(self, tmp_path):
        csv = tmp_path / "a.csv"
        cfg = write_config(tmp_path, model="breuer", omega_tau_d=1000.0,
                           t_end=100.0, dt=0.05, sample_every=200,
                           csv_out=str(csv), json_out=str(tmp_path / "a.json"))
        assert main(["analytic", "--config", cfg]) == 0
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "t_omega,p00,abs_coh01,p11"
        t, p00, coh, p11 = map(float, rows[-1].split(","))
        assert p00 == pytest.approx(1 - 0.125 * t / 1000.0)
        assert coh == pytest.approx(0.5 * (1 - 0.375 * t / 1000.0))

    def test_samples_are_simulates(self, tmp_path):
        # t_end 10 is not a whole number of 3-wide sample strides: both end
        # on the last step, at omega*t 9.99
        times = {}
        for command in ("analytic", "simulate"):
            csv = tmp_path / f"{command}.csv"
            cfg = write_config(tmp_path, name=f"{command}.cfg", model="damping-only",
                               gamma_dimless=0.01, dim=6, t_end=10.0, dt=0.03,
                               sample_every=100, csv_out=str(csv))
            assert main([command, "--config", cfg]) == 0
            times[command] = [row.split(",")[0] for row in csv.read_text().splitlines()]
        assert times["analytic"] == times["simulate"]
        assert times["analytic"][1:] == ["0", "3", "6", "9", "9.99"]

    @pytest.mark.parametrize("model", MODELS)
    def test_csv_bytes_per_model(self, tmp_path, model):
        csv = tmp_path / "a.csv"
        cfg = write_config(tmp_path, model=model, omega_tau_g=2000.0,
                           omega_tau_d=1000.0, gamma_dimless=1e-3,
                           kernel="exponential", omega_tau_kernel=0.5,
                           t_end=400.0, dt=0.05, sample_every=400,
                           csv_out=str(csv))
        assert main(["analytic", "--config", cfg]) == 0
        t = np.arange(0.0, 400.0 + 0.025, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if model in ("gup-markov", "gup-nonmarkov"):
                p00, p11 = analytic.gup_populations(t, 1e-3, 2000.0)
                coh = np.abs(analytic.gup_coherence01(t, 1e-3, 2000.0))
            elif model == "breuer":
                c, p00, p11 = analytic.breuer_observables(t, 1e-3, 1000.0)
                coh = np.abs(c)
            else:
                p00, p11 = np.ones_like(t), np.exp(-1e-3 * t)
                coh = 0.5 * np.exp(-0.5e-3 * t)
        rows = ["t_omega,p00,abs_coh01,p11"] + [
            f"{t[i]:.12g},{p00[i]:.12g},{coh[i]:.12g},{p11[i]:.12g}"
            for i in range(len(t))]
        assert csv.read_text() == "\n".join(rows) + "\n"


# A valid config with up to three fields replaced by out-of-range, non-finite
# or malformed values.  Every bound is set by cost alone.  `dim` stays at 3-8
# because a huge dim allocates dim x dim operators before any step runs,
# which no config check answers yet.
_VALID = st.fixed_dictionaries({
    "model": st.sampled_from(MODELS),
    "dim": st.integers(3, 8),
    "initial_state": st.sampled_from(["vacuum", "superposition01", "fock(2)"]),
    "t_end": st.floats(0.0, 2.0),
    "dt": st.floats(1e-3, 0.5),
    "sample_every": st.integers(1, 200),
    "seed": st.integers(0, 3),
    "n_traj": st.just(100),
    "noise_kind": st.sampled_from(["white", "ornstein-uhlenbeck"]),
    "omega_tau_g": st.just(math.inf) | st.floats(1e-2, 1e6),
    "omega_tau_d": st.just(math.inf) | st.floats(1e-2, 1e6),
    "gamma_dimless": st.just(0.0) | st.floats(0.0, 1.0),
    "beta_bar": st.floats(-3.0, 3.0),
    "ap_hw": st.floats(1e-35, 1e-2),
    "kernel": st.sampled_from(["delta", "exponential"]),
    "omega_tau_kernel": st.floats(1e-3, 10.0),
    "f_hz": st.just(0.0) | st.floats(1.0, 1e10),
    "grid_halfwidth": st.floats(0.1, 8.0),
    "grid_points": st.integers(3, 21),
    "observables": st.lists(st.sampled_from(
        ["rho_00", "abs_rho_01", "re_rho_12", "im_rho_2_0", "rho_11"]),
        max_size=3).map(",".join),
})
_NON_FINITE = [math.nan, math.inf, -math.inf]
_INVALID = {
    "initial_state": st.sampled_from(["fock(9)", "cat"]),
    "t_end": st.sampled_from(_NON_FINITE + [-1.0]),
    "dt": st.sampled_from(_NON_FINITE + [0.0, -0.01]),
    "sample_every": st.sampled_from([0, -1]),
    "seed": st.just(-1),
    "noise_kind": st.just("pink"),
    "omega_tau_g": st.sampled_from([math.nan, -math.inf, -1.0, 0.0, 1e-310]),
    "omega_tau_d": st.sampled_from([math.nan, -math.inf, -1.0, 0.0]),
    "gamma_dimless": st.sampled_from(_NON_FINITE + [-1.0]),
    "beta_bar": st.sampled_from(_NON_FINITE),
    "ap_hw": st.sampled_from(_NON_FINITE + [-1.0, 0.0, 1e-200, 1e200]),
    "kernel": st.just("gaussian"),
    "omega_tau_kernel": st.sampled_from(_NON_FINITE + [-1.0, 0.0]),
    "f_hz": st.sampled_from(_NON_FINITE + [-1.0, 1e308]),
    "grid_halfwidth": st.sampled_from(_NON_FINITE + [-1.0, 0.0, 1e-300, 1e300]),
    "grid_points": st.sampled_from([0, 1, 2]),
    "observables": st.sampled_from(["rho_01", "rho_99", "foo", "rho_00,abs_rho_77"]),
}


@st.composite
def _configs(draw):
    values = draw(_VALID)
    for key in draw(st.sets(st.sampled_from(sorted(_INVALID)), max_size=3)):
        values[key] = draw(_INVALID[key])
    return values


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["simulate", "wigner", "analytic", "ensemble"]),
       values=_configs(), out_is_dir=st.sampled_from([None, "csv_out", "json_out"]))
def test_every_config_ends_in_a_contract_exit_code(command, values, out_is_dir):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values = dict(values, csv_out=f"{tmp}/out.csv", json_out=f"{tmp}/out.json")
        if out_is_dir:
            values[out_is_dir] = tmp
        with open(f"{tmp}/run.cfg", "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", f"{tmp}/run.cfg"])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith(PREFIX[code])


@pytest.mark.parametrize("command, kv, match", [
    ("simulate", {"model": "gup-nonmarkov", "kernel": "exponential",
                  "omega_tau_kernel": 0.05, "dt": 0.02}, "exceeds tau/10"),
    ("ensemble", {"model": "gup-nonmarkov", "kernel": "exponential",
                  "omega_tau_kernel": 0.1, "noise_kind": "ornstein-uhlenbeck"},
     "need tau >= 5 dt"),
    ("ensemble", {"model": "gup-markov", "gamma_dimless": 0.01},
     "ensemble mode requires gamma = 0"),
], ids=["nonmarkov-dt-past-tau-over-10", "ou-tau-under-5-dt", "ensemble-gamma"])
def test_library_config_errors_print_the_config_prefix(tmp_path, capsys, command, kv,
                                                       match):
    kv = {"omega_tau_g": 100.0, "dim": 6, "t_end": 0.5, "dt": 0.05, **kv}
    assert main([command, "--config", write_config(tmp_path, **kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and match in err


def _error_classes(base=DecolabError):
    for cls in base.__subclasses__():
        if cls.__module__ == DecolabError.__module__:
            yield cls
            yield from _error_classes(cls)


#: the exit code main documents for each error class
EXIT_CODE = {ConfigError: 2, PositivityError: 3, FitFailureError: 3,
             ModelInconsistencyError: 4}


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_has_an_exit_code(monkeypatch, capsys, cls):
    def raise_it(args):
        raise cls("injected")
    monkeypatch.setattr(cli, "cmd_bounds", raise_it)
    assert cls in EXIT_CODE, f"{cls.__name__} has no documented exit code"
    code = main(["bounds", "--t1-us", "85.8", "--t2-us", "147.3"])
    assert code == EXIT_CODE[cls]
    assert capsys.readouterr().err == f"{PREFIX[code]} injected\n"
