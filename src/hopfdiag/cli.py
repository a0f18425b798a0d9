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
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import hopf, models, spectrum, symplin


def _flag_or_env(value: int | None, name: str, default: int) -> int:
    """The flag's ``value`` if given, else the integer in the environment
    variable ``name`` if set, else ``default``."""
    if value is not None:
        return value
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):    # argparse's writer drops an OSError
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@functools.cache     # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hopfdiag",
        description="Equilibrium classification and critical-value diagrams "
                    "for the Hamiltonian Hopf bifurcation and the deformed "
                    "coupled spin-oscillator.")
    add = parser.add_subparsers(dest="command", required=True).add_parser

    p = add("classify", help="classify a biquadratic spectrum")
    p.add_argument("--a", type=float, help="constant coefficient of the quartic")
    p.add_argument("--b", type=float, help="quadratic coefficient of the quartic")
    p.add_argument("--params", type=float, nargs=4,
                   metavar=("OMEGA_T", "ALPHA_T", "GAMMA", "DELTA"),
                   help="family parameters; (a, b) computed from them")

    p = add("hopf-curve", help="emit the critical-value curve")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--sigma", type=int, required=True, choices=(-1, 1))
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="total curve samples, "
                        f">= {spectrum.MIN_DIAGRAM_SAMPLES} "
                        "(env HOPFDIAG_SAMPLES, default 400)")
    p.add_argument("--out", required=True,
                   help="output prefix: writes <out>_curve.csv, <out>_diagram.json")

    p = add("jc-scan", help="linearization scan over gamma")
    p.add_argument("--gamma-min", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid size, >= 2")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("jc-spectrum", help="reduced critical values and sampled image")
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

    p = add("verify", help="run the acceptance suite")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def cmd_classify(args) -> int:
    if args.params is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --a/--b or --params, not both")
        q = symplin.quartic_coeffs(*args.params)
    elif args.a is not None and args.b is not None:
        q = symplin.QuarticCoeffs(a=args.a, b=args.b)
    else:
        raise ValueError("need --a and --b, or --params")
    eig = symplin.eigen_closed(q)
    print(f"(a, b) = ({q.a!r}, {q.b!r})")
    print(f"type = {symplin.classify(q)}")
    print("eigenvalues = " + ", ".join(map(spectrum.fmt_complex, eig)))
    return 0


def cmd_hopf_curve(args) -> int:
    samples = _flag_or_env(args.samples, "HOPFDIAG_SAMPLES", 400)
    params = hopf.HopfParams(omega=args.omega, sigma=args.sigma,
                             nu=args.nu, D=args.D)
    diagram = spectrum.assemble_hopf_diagram(params, samples)
    spectrum.write_curve_csv(diagram, f"{args.out}_curve.csv")
    spectrum.write_diagram_json(diagram, f"{args.out}_diagram.json")
    return 0


def cmd_jc_scan(args) -> int:
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    if not math.isfinite(args.gamma_max - args.gamma_min):
        raise ValueError("gamma range must be finite")
    rows = []
    for gamma in np.linspace(args.gamma_min, args.gamma_max, args.steps):
        q, typ = models.jc_linearization(models.PolyG(gamma))
        rows.append((gamma, q, typ, symplin.eigen_closed(q)))
    spectrum.write_jc_scan_csv(rows, args.out)
    return 0


def cmd_jc_spectrum(args) -> int:
    samples = _flag_or_env(args.samples, "HOPFDIAG_SAMPLES", 10000)
    seed = _flag_or_env(args.seed, "HOPFDIAG_SEED", 0)
    if not (args.j_steps >= 1 and samples >= 1 and seed >= 0
            and args.j_max > -1.0
            and -1.0 <= args.j_min <= args.j_max < math.inf):
        raise ValueError("need --j-steps >= 1, --samples >= 1, --seed >= 0"
                         " and -1 <= --j-min <= --j-max < inf with"
                         " --j-max > -1")
    g = models.PolyG(args.gamma)
    js = np.linspace(args.j_min, args.j_max, args.j_steps)
    rows = [p for pts in models.jc_critical_values(g, js) for p in pts]
    cloud = models.jc_spectrum_sample(g, samples, args.j_max, seed)
    spectrum.write_jc_critical_csv(rows, f"{args.out}_critical.csv")
    spectrum.write_cloud_csv(cloud, f"{args.out}_cloud.csv")
    return 0


def cmd_verify(args) -> int:
    from . import acceptance    # acceptance drives the CLI: import it late

    results = acceptance.run_all()
    if args.json:
        print(json.dumps(list(map(dataclasses.asdict, results)), indent=1))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{r.number:2d}] {mark}  {r.name}  ({r.seconds:.2f}s)  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    return guarded_main(_build_parser(), lambda args: {
        "classify": cmd_classify, "hopf-curve": cmd_hopf_curve,
        "jc-scan": cmd_jc_scan, "jc-spectrum": cmd_jc_spectrum,
        "verify": cmd_verify}[args.command](args), argv)


def guarded_main(parser: _Parser, run, argv=None) -> int:
    """Exit code of ``run(args)``, ``argv`` parsed by ``parser``, once stdout
    is flushed; a failure, ``--help`` included, is one stderr line naming
    the subcommand (else the parser) and exit 2 for bad input, 3 for I/O.
    ``verify`` takes no input, so its other errors are bugs and propagate."""
    prog = parser.prog
    try:
        args = parser.parse_args(argv)      # --help writes stdout
        prog = getattr(args, "command", prog)
        code = run(args)
        sys.stdout.flush()          # a closed or full stdout fails here
        return code
    except (ValueError, MemoryError, OSError) as exc:
        if prog == "verify" and not isinstance(exc, OSError):
            raise
        print(f"{prog}: {exc}", file=sys.stderr)
        if not isinstance(exc, OSError):
            return 2
        try:
            sys.stdout.flush()
        except OSError:             # else the flush at exit fails again
            sys.stdout = None
        return 3


if __name__ == "__main__":
    sys.exit(main())
