#!/usr/bin/env python3
"""Sweep mechanism utility over matrix sizes on synthetic SPD data.

Reproduces the desk-scale privacy-utility comparison: for each k the dataset
is n draws from the bounded-spectrum generator, the summary is the closed-form
Fréchet mean, and each mechanism privatizes it over `trials` repetitions.
Writes one merged CSV and an SVG with a mean line and a +-2 std band per
mechanism.

Example:
    python scripts/synthetic_utility_sweep.py --ks 2,5,10,20,30 \
        --eps 0.1 --burn-in 10000 --out-prefix sweep
"""

import argparse

from spdprivacy.harness import ExperimentSpec, emit_csv, run_synthetic
from spdprivacy.plotting import emit_plot


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ks", default="2,5,10,15,20,25,30")
    parser.add_argument(
        "--mechanisms",
        default="tangent_classical,tangent_analytic,riemannian_laplace",
    )
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=1e-6)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--r", type=float, default=0.25)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--burn-in", type=int, default=10000, dest="burn_in")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-prefix", default="synthetic_sweep", dest="out_prefix")
    return parser.parse_args()


def main():
    args = parse_args()
    records = []
    for mechanism in args.mechanisms.split(","):
        for k in (int(tok) for tok in args.ks.split(",")):
            spec = ExperimentSpec(
                kind="synthetic",
                mechanism=mechanism,
                epsilon_grid=(args.eps,),
                delta_grid=(args.delta,),
                n=args.n,
                r=args.r,
                k=k,
                trials=args.trials,
                seed=args.seed,
                burn_in=args.burn_in,
            )
            chunk = run_synthetic(spec)
            mean = sum(rec.utility for rec in chunk) / len(chunk)
            print(f"{mechanism:20s} k={k:3d} mean utility {mean:.4g}")
            records.extend(chunk)
    emit_csv(records, f"{args.out_prefix}.csv")
    emit_plot(records, f"{args.out_prefix}.svg")
    print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.svg")


if __name__ == "__main__":
    main()
