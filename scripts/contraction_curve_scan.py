#!/usr/bin/env python3
"""Scan the norm-contraction ratio across exponents for the reference model.

For the constant-coefficient model at q = 2 and several time gaps, sweep p
and record max_phi ||P phi||_p / ||phi||_q over capped exponential ramps.
Three landmarks show up in the table:

  * the certified curve p_cert = (q-1) exp(gap / (2 kappa)) + 1 from the
    fitted range-norm certificate (ratios below 1 are guaranteed there);
  * the model's true threshold p_true = (q-1) exp(2 gap) + 1 (two-point
    Gaussian smoothing computation), beyond which ratios exceed 1;
  * the gap between them: the certified curve is conservative for this
    model by a factor 2 in the exponent.

Writes contraction_scan.csv into the chosen output directory.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from oulab import inequalities as ineq
from oulab import measures as meas
from oulab.evolution import fit_decay
from oulab.models import make_diagonal_constant
from oulab.reporting import write_csv


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out/contraction-scan")
    ap.add_argument("--gaps", default="0.35,0.693,1.0")
    args = ap.parse_args()

    model = make_diagonal_constant(8, -1.0, 1.0)
    pairs = [(s, t) for s in np.linspace(-2, 2, 5) for t in np.linspace(-1.5, 3, 5)
             if t > s + 0.05]
    kappa = ineq.log_sobolev_constant(fit_decay(model, pairs, mode="cameron-martin"))
    system = meas.gaussian_system(model, tol_tail=1e-12)
    family = ineq.capped_exponential_family(8)

    q = 2.0
    rows = []
    for gap in (float(g) for g in args.gaps.split(",")):
        p_cert = ineq.exponent_curve(q, gap, kappa)
        p_true = (q - 1.0) * math.exp(2.0 * gap) + 1.0
        p_grid = sorted({round(v, 4) for v in
                         [0.5 * (1 + p_cert), p_cert, 0.5 * (p_cert + p_true),
                          0.98 * p_true, 1.1 * p_true, 1.5 * p_true]})
        probe_rows = ineq.sharpness_probe(model, -gap, 0.0, q, p_grid, family, system=system)
        print(f"\ngap {gap:.4f}: certified p {p_cert:.3f}, true threshold {p_true:.3f}")
        for p in p_grid:
            best = max(r.ratio for r in probe_rows if r.p == p)
            marker = "VIOLATES" if best > 1.0 else ""
            print(f"  p = {p:7.3f}  max ratio = {best:.6f} {marker}")
            rows.append((gap, q, p, p_cert, p_true, best, best > 1.0))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "contraction_scan.csv",
              ["gap", "q", "p", "p_certified", "p_true", "max_ratio", "violates"], rows)
    print(f"\nwrote {outdir / 'contraction_scan.csv'}")


if __name__ == "__main__":
    main()
