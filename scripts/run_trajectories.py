#!/usr/bin/env python3
"""Stochastic-trajectory check of the Markovian master equation.

Averages white-noise trajectories of the deformation model and reports the
trace distance to the deterministic master-equation state at a set of
checkpoints; the distance should scale like 1/sqrt(n_traj).
"""

import argparse
import sys

import numpy as np

from decolab import fock, generators, integrate, trajectories


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-traj", type=int, default=500)
    parser.add_argument("--omega-tau-g", type=float, default=500.0)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--t-end", type=float, default=50.0)
    parser.add_argument("--dt", type=float, default=0.025)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv-out", default="")
    args = parser.parse_args()

    params = generators.ModelParams.from_dimensionless(
        omega_tau_g=args.omega_tau_g, beta_bar=1.0)
    psi0 = fock.superposition01(args.dim)
    n_steps = int(round(args.t_end / args.dt))
    sample_every = max(1, n_steps // 10)

    model = generators.model("gup-markov", params, args.dim)
    ens = trajectories.ensemble_average(
        psi0, model, args.n_traj, args.seed, dt=args.dt, n_steps=n_steps,
        sample_every=sample_every)
    ref = integrate.evolve(
        fock.density(psi0),
        lambda x, t: generators.gup_markov_rhs(x, model),
        args.t_end, args.dt, sample_every=sample_every)

    print(f"n_traj={args.n_traj}, budget 3/sqrt(n) = {3 / np.sqrt(args.n_traj):.4f}")
    for i, t in enumerate(ens.times_omega):
        d = fock.trace_distance(ens.mean_states[i], ref.states[i])
        print(f"  omega*t = {t:8.2f}   trace distance = {d:.5f}")
    if args.csv_out:
        ens.to_csv(args.csv_out, ["rho_00", "abs_rho_01", "rho_11"])
        print(f"ensemble curves -> {args.csv_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
