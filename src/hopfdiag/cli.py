"""Command-line surface.

Subcommands
-----------
classify      region / eigenvalue report for (a, b) or family parameters
hopf-curve    critical-value curve CSV + diagram JSON for given normal-form
              parameters (writes <out>_curve.csv and <out>_diagram.json)
jc-scan       spin-oscillator linearization scan over a gamma range (CSV)
jc-spectrum   reduced critical values per J plus a sampled image cloud
              (writes <out>_critical.csv and <out>_cloud.csv)
verify        run the acceptance suite; --json for a machine-readable report

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O failure.
Flags override the environment (HOPFDIAG_SEED, HOPFDIAG_SAMPLES), which
overrides built-in defaults; all defaults are shown in --help.  Outputs are
deterministic functions of flags + seed, printed as shortest round-trip
decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance, hopf, models, spectrum, symplin

MIN_CURVE_SAMPLES = spectrum.MIN_DIAGRAM_SAMPLES


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(2)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt(c.real)}{sign}{_fmt(abs(c.imag))}j"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfdiag",
        description="Equilibrium classification and critical-value diagrams "
                    "for the Hamiltonian Hopf bifurcation and the deformed "
                    "coupled spin-oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a biquadratic spectrum",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--a", type=float, help="constant coefficient of the quartic")
    p.add_argument("--b", type=float, help="quadratic coefficient of the quartic")
    p.add_argument("--params", type=float, nargs=4,
                   metavar=("OMEGA_T", "ALPHA_T", "GAMMA", "DELTA"),
                   help="family parameters; (a, b) computed from them")

    p = sub.add_parser("hopf-curve", help="emit the critical-value curve",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--sigma", type=int, required=True, choices=(-1, 1))
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help=f"total curve samples, >= {MIN_CURVE_SAMPLES} "
                        "(env HOPFDIAG_SAMPLES, default 400)")
    p.add_argument("--out", required=True,
                   help="output prefix: writes <out>_curve.csv, <out>_diagram.json")

    p = sub.add_parser("jc-scan", help="linearization scan over gamma",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid size, >= 2")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("jc-spectrum",
                       help="reduced critical values and sampled image",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--j-min", type=float, required=True)
    p.add_argument("--j-max", type=float, required=True)
    p.add_argument("--j-steps", type=int, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="cloud sample count (env HOPFDIAG_SAMPLES, default 10000)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (env HOPFDIAG_SEED, default 0)")
    p.add_argument("--out", required=True,
                   help="output prefix: writes <out>_critical.csv, <out>_cloud.csv")

    p = sub.add_parser("verify", help="run the acceptance suite",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def cmd_classify(args) -> int:
    if args.params is not None:
        if args.a is not None or args.b is not None:
            print("classify: give either --a/--b or --params, not both",
                  file=sys.stderr)
            return 2
        q = symplin.quartic_coeffs(*args.params)
    elif args.a is not None and args.b is not None:
        q = symplin.QuarticCoeffs(a=args.a, b=args.b)
    else:
        print("classify: need --a and --b, or --params", file=sys.stderr)
        return 2
    eig = symplin.eigen_closed(q)
    print(f"(a, b) = ({_fmt(q.a)}, {_fmt(q.b)})")
    print(f"type = {symplin.classify(q)}")
    print("eigenvalues = " + ", ".join(_fmt_complex(e) for e in eig))
    return 0


def cmd_hopf_curve(args) -> int:
    samples = args.samples
    if samples is None:
        samples = _env_int("HOPFDIAG_SAMPLES") or 400
    try:
        params = hopf.HopfParams(omega=args.omega, sigma=args.sigma,
                                 nu=args.nu, D=args.D)
        if samples < MIN_CURVE_SAMPLES:
            raise ValueError(f"samples must be >= {MIN_CURVE_SAMPLES}")
        diagram = spectrum.assemble_hopf_diagram(params, samples)
    except ValueError as exc:
        print(f"hopf-curve: {exc}", file=sys.stderr)
        return 2
    try:
        spectrum.write_curve_csv(diagram, f"{args.out}_curve.csv")
        spectrum.write_diagram_json(diagram, f"{args.out}_diagram.json")
    except OSError as exc:
        print(f"hopf-curve: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_jc_scan(args) -> int:
    if args.steps < 2:
        print("jc-scan: steps must be >= 2", file=sys.stderr)
        return 2
    lines = ["gamma,a,b,type,eig1,eig2,eig3,eig4"]
    for gamma in np.linspace(args.gamma_min, args.gamma_max, args.steps):
        q, typ = models.jc_linearization(models.PolyG(float(gamma)))
        eig = symplin.eigen_closed(q)
        lines.append(",".join([_fmt(gamma), _fmt(q.a), _fmt(q.b), str(typ)]
                              + [_fmt_complex(e) for e in eig]))
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"jc-scan: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_jc_spectrum(args) -> int:
    samples = args.samples
    if samples is None:
        samples = _env_int("HOPFDIAG_SAMPLES") or 10000
    seed = args.seed
    if seed is None:
        seed = _env_int("HOPFDIAG_SEED") or 0
    if args.j_steps < 1 or samples < 1 or args.j_min < -1.0 \
            or args.j_max < args.j_min or args.j_max <= -1.0:
        print("jc-spectrum: invalid ranges", file=sys.stderr)
        return 2
    g = models.PolyG(args.gamma)
    rows: list[models.CriticalValuePoint] = []
    try:
        for j in np.linspace(args.j_min, args.j_max, args.j_steps):
            rows.extend(models.jc_reduced_critical_values(g, float(j)))
    except ValueError as exc:
        print(f"jc-spectrum: {exc}", file=sys.stderr)
        return 2
    cloud = models.jc_spectrum_sample(g, samples, args.j_max, seed)
    try:
        spectrum.write_jc_critical_csv(rows, f"{args.out}_critical.csv")
        spectrum.write_cloud_csv(cloud, f"{args.out}_cloud.csv")
    except OSError as exc:
        print(f"jc-spectrum: {exc}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    if args.json:
        print(json.dumps([{"number": r.number, "name": r.name,
                           "passed": r.passed, "detail": r.detail,
                           "seconds": r.seconds} for r in results], indent=1))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{r.number:2d}] {mark}  {r.name}  ({r.seconds:.2f}s)  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "classify": cmd_classify,
        "hopf-curve": cmd_hopf_curve,
        "jc-scan": cmd_jc_scan,
        "jc-spectrum": cmd_jc_spectrum,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
