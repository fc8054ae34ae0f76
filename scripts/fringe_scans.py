#!/usr/bin/env python3
"""Fringe visibility of the heralded state at several nominal gains.

The input carries both polarizations with intensity ratio g2:1 so the
amplified state interferes at full contrast; each fitted visibility is
compared against the classical amplifier bound 1/sqrt(g2).
"""

import argparse
from pathlib import Path

from nla_weaksim.cli import ConfigError, check_values
from nla_weaksim.experiment import CountingModel, visibility_experiment

GAINS = [2.0, 3.0, 4.0, 5.0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=Path)
    ap.add_argument("--alpha", default=0.0015, type=float)
    ap.add_argument("--points", default=16, type=int)
    ap.add_argument("--shots", default=10**7, type=int,
                    help="0 turns counting noise off")
    ap.add_argument("--seed", default=20260814, type=int)
    ap.add_argument("--rate-scale", default=1e4, type=float)
    args = ap.parse_args()
    try:
        # the options shared with `nla-weaksim visibility`, in its domains
        check_values("visibility", vars(args))
    except ConfigError as exc:
        ap.error(str(exc))

    counting = None
    if args.shots > 0:
        counting = CountingModel(shots=args.shots, seed=args.seed,
                                 rate_scale=args.rate_scale)
    args.outdir.mkdir(parents=True, exist_ok=True)
    lines = ["nominal_g2,visibility,uncertainty,classical_bound,exceeds_bound"]
    scans = visibility_experiment(
        GAINS, input_mag=args.alpha, phase_points=args.points,
        counting=counting,
    )
    for scan in scans:
        g2 = scan.nominal_g2
        ok = scan.fit.visibility - scan.fit.uncertainty > scan.classical_bound
        lines.append(
            f"{g2:g},{scan.fit.visibility:.6f},{scan.fit.uncertainty:.6f},"
            f"{scan.classical_bound:.6f},{ok}"
        )
        print(
            f"g2={g2:g}  V={scan.fit.visibility:.4f} "
            f"+- {scan.fit.uncertainty:.4f}  bound={scan.classical_bound:.4f}  "
            f"{'above' if ok else 'NOT above'} the classical bound"
        )
    out = args.outdir / "fringe_scans.csv"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
