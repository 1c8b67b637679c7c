#!/usr/bin/env python3
"""Long-time master-equation vs perturbative-formula overlay.

Runs the Markovian deformation model at beta_bar=1, omega*tau_G=125e3,
gamma=0 for the three canonical initial states out to omega*t = 6e3 (the
window of acceptance criterion 3) and writes one CSV per state with the
numeric and first-order closed-form curves side by side.  Past
t/tau_decay ~ 0.2 the printed gaps are the closed forms' second-order
remainder, not integration error.
"""

import argparse
import pathlib
import sys
import warnings

import numpy as np

from decolab import analytic, fock, generators, integrate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="fig1_out")
    parser.add_argument("--omega-tau-g", type=float, default=125e3)
    parser.add_argument("--t-end", type=float, default=6e3)
    parser.add_argument("--dt", type=float, default=0.05)
    parser.add_argument("--dim", type=int, default=24)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = generators.ModelParams.from_dimensionless(
        omega_tau_g=args.omega_tau_g, beta_bar=1.0)
    model = generators.model("gup-markov", params, args.dim)
    rhs = lambda x, t: generators.gup_markov_rhs(x, model)
    tau = args.omega_tau_g

    cases = [
        ("p00", fock.fock_state(0, args.dim), "rho_00",
         lambda t: analytic.gup_populations(t, 0.0, tau)[0]),
        ("coh01", fock.superposition01(args.dim), "abs_rho_01",
         lambda t: np.abs(analytic.gup_coherence01(t, 0.0, tau))),
        ("p11", fock.fock_state(1, args.dim), "rho_11",
         lambda t: analytic.gup_populations(t, 0.0, tau)[1]),
    ]
    for name, psi, obs, reference in cases:
        res = integrate.evolve(fock.density(psi), rhs, args.t_end, args.dt,
                               sample_every=max(1, int(round(50.0 / args.dt))))
        numeric = res.expect(obs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ana = reference(res.times_omega)
        path = out / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write("t_omega,numeric,analytic\n")
            for t, a, b in zip(res.times_omega, numeric, ana):
                fh.write(f"{t:.12g},{a:.12g},{b:.12g}\n")
        print(f"{name}: max |numeric - analytic| = "
              f"{np.max(np.abs(numeric - ana)):.3e}  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
