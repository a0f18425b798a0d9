#!/usr/bin/env python3
"""Emit the deformed spin-oscillator datasets.

Three artifacts:
 - a linearization scan over gamma (type transition at gamma = 1/2),
 - the undeformed (gamma = 0) bifurcation data: critical values per J plus
   a sampled image cloud and its rasterization,
 - the post-bifurcation configuration gamma = 4/5: the loop of hyperbolic /
   elliptic critical values over a J window, plus cloud and raster.

Exit codes as for the hopfdiag CLI: 0 success, 2 bad input (nothing is
written), 3 I/O failure.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from hopfdiag import cli, models, spectrum
from hopfdiag.models import PolyG


def configuration(gamma: float, j_window: tuple[float, float], j_steps: int,
                  samples: int, seed: int):
    """Critical rows over the J window, the sampled cloud and its raster."""
    g = PolyG(gamma)
    js = np.linspace(j_window[0], j_window[1], j_steps)
    rows = [p for pts in models.jc_critical_values(g, js) for p in pts]
    cloud = models.jc_spectrum_sample(g, samples, j_window[1], seed)
    return rows, cloud, spectrum.rasterize(cloud, 200, 200)


def write_configuration(out: pathlib.Path, tag: str, rows, cloud, grid):
    spectrum.write_jc_critical_csv(rows, out / f"{tag}_critical.csv")
    spectrum.write_cloud_csv(cloud, out / f"{tag}_cloud.csv")
    spectrum.write_raster_csv(grid, out / f"{tag}_raster.csv")
    n_hyp = sum(r.kind is models.CriticalKind.TRANSVERSALLY_HYPERBOLIC
                for r in rows)
    print(f"{tag}: {len(rows)} critical rows ({n_hyp} hyperbolic), "
          f"{cloud.count} cloud points")


def run(args) -> int:
    if not (args.j_steps >= 1 and args.samples >= 1 and args.seed >= 0):
        raise ValueError("need --j-steps >= 1, --samples >= 1 and --seed >= 0")
    scan = [(gamma, *models.jc_linearization(PolyG(float(gamma))))
            for gamma in np.linspace(0.0, 1.0, 201)]
    # both configurations have the same sizes: one that can be built
    # before the first write shows that the second fits as well
    undeformed = configuration(0.0, (-1.0, 2.5), args.j_steps, args.samples,
                               args.seed)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spectrum.write_linearization_csv(scan, out / "linearization_scan.csv")
    print(f"linearization scan: {len(scan)} rows")
    write_configuration(out, "undeformed", *undeformed)
    del undeformed
    write_configuration(out, "deformed", *configuration(
        0.8, (-1.0, 3.2), args.j_steps, args.samples, args.seed + 1))
    print(f"wrote datasets to {out}")
    return 0


def main() -> int:
    parser = cli._Parser(description=__doc__)
    parser.add_argument("--out-dir", default="out/spin_oscillator",
                        help="output directory (default: %(default)s)")
    parser.add_argument("--j-steps", type=int, default=401,
                        help="J grid size, >= 1 (default: %(default)s)")
    parser.add_argument("--samples", type=int, default=200_000,
                        help="cloud sample count, >= 1 (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed, >= 0 (default: %(default)s)")
    return cli.guarded_main(parser, run)


if __name__ == "__main__":
    raise SystemExit(main())
