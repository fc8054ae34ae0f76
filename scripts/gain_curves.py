#!/usr/bin/env python3
"""Heralded gain curves: output size vs measured input size.

Sweeps three nominal gains over small input sizes, once ideally and once
through the saturating detection model, optionally with Poissonian counts,
and writes CSV plus an SVG overview into --outdir.
"""

import argparse
import math
from pathlib import Path

from nla_weaksim.cli import ConfigError, check_values
from nla_weaksim.experiment import CountingModel, HeraldingModel, gain_sweep
from nla_weaksim.io import csv_text, svg_text

GAINS = [math.sqrt(4.5), 3.0, 6.0]
INPUTS = [10 ** (-5 + 2 * i / 12) for i in range(13)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=Path)
    ap.add_argument("--epsilon", default=0.35, type=float)
    ap.add_argument("--shots", default=10**9, type=int,
                    help="0 turns counting noise off")
    ap.add_argument("--seed", default=20260814, type=int)
    ap.add_argument("--rate-scale", default=100.0, type=float)
    args = ap.parse_args()
    try:
        # the options shared with `nla-weaksim gain-sweep`, in its domains
        check_values("gain-sweep", vars(args))
    except ConfigError as exc:
        ap.error(str(exc))

    args.outdir.mkdir(parents=True, exist_ok=True)
    herald = HeraldingModel(args.epsilon) if args.epsilon else None
    counting = None
    if args.shots:
        counting = CountingModel(shots=args.shots, seed=args.seed,
                                 rate_scale=args.rate_scale)
    sweep = gain_sweep(GAINS, INPUTS, herald=herald, counting=counting)

    csv_path = args.outdir / "gain_curves.csv"
    csv_path.write_text(csv_text(sweep), encoding="utf-8")
    svg_path = args.outdir / "gain_curves.svg"
    svg_path.write_text(
        svg_text(
            sweep,
            x_column="input_measured",
            y_columns=["output_ideal", "output_model"],
            sampled_column="output_sampled",
            logx=True,
            logy=True,
            title="heralded output size vs measured input size",
        ),
        encoding="utf-8",
    )
    ci = {c: i for i, c in enumerate(sweep.columns)}
    # the largest input closes each gain's block of rows
    for top in sweep.rows[len(INPUTS) - 1::len(INPUTS)]:
        print(
            f"g2={top[ci['nominal_g2']]:.3f}  phi={top[ci['phi']]:.4f}  "
            f"herald={top[ci['herald_probability']]:.4f}  "
            f"largest output={top[ci['output_model']]:.3e}"
        )
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
