#!/usr/bin/env python3
"""Emit critical-value diagrams of the Hopf normal form over a parameter grid.

Covers the standard picture: omega = 1, sigma = 1, nu in {-1/2, +1/2},
D in {1, -2} (both regimes, both unfolding directions).  Each combination
produces <out>/nu<+->_D<+->_curve.csv and ..._diagram.json in the formats
documented in hopfdiag.spectrum.

Exit codes as for the hopfdiag CLI: 0 success, 2 bad input (nothing is
written), 3 I/O failure.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hopfdiag import cli, spectrum
from hopfdiag.hopf import HopfParams


def run(args) -> int:
    diagrams = {}                   # all four are built before the first write
    for nu in (0.5, -0.5):
        for big_d in (1.0, -2.0):
            params = HopfParams(omega=1.0, sigma=1, nu=nu, D=big_d)
            tag = f"nu{'p' if nu > 0 else 'm'}_D{'p1' if big_d > 0 else 'm2'}"
            diagrams[tag] = spectrum.assemble_hopf_diagram(params, args.samples)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for tag, diagram in diagrams.items():
        spectrum.write_curve_csv(diagram, out / f"{tag}_curve.csv")
        spectrum.write_diagram_json(diagram, out / f"{tag}_diagram.json")
        n_pts = sum(len(seg.points) for seg in diagram.segments)
        print(f"{tag}: regime={diagram.regime.value} "
              f"segments={len(diagram.segments)} points={n_pts}")
    print(f"wrote datasets to {out}")
    return 0


def main() -> int:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--out-dir", default="out/normal_form",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--samples", type=int, default=801,
                        help="curve samples per diagram, "
                             f">= {spectrum.MIN_DIAGRAM_SAMPLES} "
                             "(default: %(default)s)")
    return cli.guarded_main(parser, run)


if __name__ == "__main__":
    raise SystemExit(main())
