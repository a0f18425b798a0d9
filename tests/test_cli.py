import cmath
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hopfdiag import acceptance, cli, spectrum


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:   # argparse errors surface as SystemExit(2)
        return exc.code


class TestParserBuiltOnce:
    """``main`` parses with one parser per process; a parse leaves nothing
    behind for the next one."""

    JC = ["jc-spectrum", "--gamma", "0.8", "--j-min", "0", "--j-max", "1",
          "--j-steps", "3"]
    HOPF = ["hopf-curve", "--omega", "1", "--sigma", "1", "--nu", "0.5",
            "--D", "-2"]
    CALLS = [JC + ["--samples", "7", "--seed", "5", "--out", "a"],
             ["classify", "--a", "2", "--b", "1"],
             JC + ["--out", "b"],
             HOPF + ["--samples", "20", "--out", "c"],
             ["classify", "--params", "1", "0", "1", "2"],
             HOPF + ["--out", "d"],
             ["verify", "--json"],
             ["verify"]]

    def test_successive_calls_parse_independently(self, monkeypatch):
        seen = []
        for name in ("cmd_classify", "cmd_hopf_curve", "cmd_jc_spectrum",
                     "cmd_verify"):
            monkeypatch.setattr(cli, name,
                                lambda args: seen.append(vars(args)) or 0)
        for argv in self.CALLS:
            assert cli.main(argv) == 0
            fresh = cli._build_parser.__wrapped__().parse_args(argv)
            assert seen[-1] == vars(fresh)
        assert cli._build_parser() is cli._build_parser()
        assert (seen[0]["samples"], seen[0]["seed"]) == (7, 5)
        assert (seen[2]["samples"], seen[2]["seed"]) == (None, None)
        assert (seen[3]["samples"], seen[5]["samples"]) == (20, None)
        assert (seen[6]["json"], seen[7]["json"]) == (True, False)

    @pytest.mark.parametrize("argv", [
        ["hopf-curve", "--omega", "1"], ["jc-scan", "--steps", "x"],
        ["no-such-command"], [], ["classify", "--a"]])
    def test_usage_error_still_exits_2(self, capsys, argv):
        assert run_cli(self.CALLS[1]) == 0
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("usage: hopfdiag")
        assert run_cli(self.CALLS[1]) == 0


class TestClassify:
    def test_focus_focus(self, capsys):
        assert run_cli(["classify", "--a", "2", "--b", "1"]) == 0
        out = capsys.readouterr().out
        assert "FocusFocus" in out
        assert "(a, b) = (2.0, 1.0)" in out

    def test_family_params(self, capsys):
        assert run_cli(["classify", "--params", "1", "0", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "(a, b) = (1.0, 6.0)" in out
        assert "EllipticElliptic" in out

    def test_parabola_boundary(self, capsys):
        assert run_cli(["classify", "--a", "0.0625", "--b", "0.5"]) == 0
        assert "Boundary(ParabolaPlus)" in capsys.readouterr().out

    def test_eigenvalues_printed(self, capsys):
        run_cli(["classify", "--a", "1", "--b", "3"])
        out = capsys.readouterr().out
        assert "eigenvalues = " in out
        assert out.count("j") >= 4

    def test_malformed_input(self, capsys):
        assert run_cli(["classify"]) == 2
        assert run_cli(["classify", "--a", "1"]) == 2
        assert run_cli(["classify", "--a", "x", "--b", "1"]) == 2
        assert run_cli(["classify", "--a", "1", "--b", "1",
                        "--params", "1", "0", "1", "2"]) == 2


class TestBadInput:
    """Every bad input prints one line on stderr and exits 2."""

    HOPF = ["hopf-curve", "--sigma", "1", "--nu", "0.5", "--D", "-2"]
    JC = ["jc-spectrum", "--gamma", "0.8", "--j-min", "0", "--j-max", "1",
          "--j-steps", "3"]

    def one_line_exit_2(self, capsys, args, prefix):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix + ": ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("args", [
        ["--a", "nan", "--b", "1"], ["--a", "1", "--b", "nan"],
        ["--a", "inf", "--b", "1"], ["--params", "nan", "0", "1", "2"],
        ["--params", "1e200", "0", "0", "0"]])
    def test_classify_non_finite(self, capsys, args):
        err = self.one_line_exit_2(capsys, ["classify"] + args, "classify")
        assert "finite" in err

    @pytest.mark.parametrize("flag, value", [("--omega", "nan"),
                                             ("--nu", "inf"), ("--D", "nan")])
    def test_hopf_curve_non_finite(self, tmp_path, capsys, flag, value):
        args = self.HOPF + ["--omega", "1", "--out", str(tmp_path / "x")]
        args[args.index(flag) + 1] = value
        self.one_line_exit_2(capsys, args, "hopf-curve")
        assert not (tmp_path / "x_curve.csv").exists()

    @pytest.mark.parametrize("args", [
        ["classify", "--a=1e308", "--b=-1e308"],
        ["hopf-curve", "--omega=1", "--sigma=1", "--nu=1e308", "--D=-2"],
        ["hopf-curve", "--omega=1e308", "--sigma=1", "--nu=0.5", "--D=-2"],
        # no curve for nu <= 0, but the diagram's anchor H overflows
        ["hopf-curve", "--omega=1", "--sigma=1", "--nu=-1e200", "--D=1"],
        ["jc-scan", "--gamma-min=-1e308", "--gamma-max=1e308", "--steps=3"],
        ["jc-spectrum", "--gamma=0.8", "--j-min=0", "--j-max=inf",
         "--j-steps=3"],
        ["jc-spectrum", "--gamma=0.8", "--j-min=-1", "--j-max=9e307",
         "--j-steps=1"],
        # arrays of 10^15 floats exceed the address space: the allocation
        # fails at once and touches no memory
        ["hopf-curve", "--omega=1", "--sigma=1", "--nu=0.5", "--D=-2",
         "--samples=1000000000000000"],
        ["jc-scan", "--gamma-min=0", "--gamma-max=1",
         "--steps=1000000000000000"],
        ["jc-spectrum", "--gamma=0.8", "--j-min=0", "--j-max=1",
         "--j-steps=3", "--samples=1000000000000000"]])
    def test_finite_input_that_overflows(self, tmp_path, capsys, args):
        if args[0] != "classify":
            args = args + ["--out", str(tmp_path / "x")]
        self.one_line_exit_2(capsys, args, args[0])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["HOPFDIAG_SAMPLES", "HOPFDIAG_SEED"])
    def test_env_not_an_integer(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        err = self.one_line_exit_2(
            capsys, self.JC + ["--out", str(tmp_path / "x")], "jc-spectrum")
        assert name in err and "'abc'" in err
        if name == "HOPFDIAG_SAMPLES":
            err = self.one_line_exit_2(
                capsys, self.HOPF + ["--omega", "1", "--out",
                                     str(tmp_path / "y")], "hopf-curve")
            assert name in err

    @pytest.mark.parametrize("flags, env", [(["--seed", "-1"], None),
                                            ([], "-3")], ids=["flag", "env"])
    def test_negative_seed_before_the_solve(self, tmp_path, capsys,
                                            monkeypatch, flags, env):
        if env is not None:
            monkeypatch.setenv("HOPFDIAG_SEED", env)
        # the seed is checked before the J grid is solved, not by numpy after
        monkeypatch.setattr(cli.models, "jc_critical_values", None)
        err = self.one_line_exit_2(
            capsys, self.JC + flags + ["--out", str(tmp_path / "x")],
            "jc-spectrum")
        assert "--seed" in err
        assert list(tmp_path.iterdir()) == []

    def test_env_zero_samples_is_not_the_default(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setenv("HOPFDIAG_SAMPLES", "0")
        self.one_line_exit_2(capsys, self.HOPF + ["--omega", "1", "--out",
                                                  str(tmp_path / "x")],
                             "hopf-curve")
        self.one_line_exit_2(capsys, self.JC + ["--out", str(tmp_path / "y")],
                             "jc-spectrum")
        assert list(tmp_path.iterdir()) == []

    def test_verify_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken():
            raise ValueError("bug")
        monkeypatch.setattr(acceptance, "run_all", broken)
        with pytest.raises(ValueError, match="bug"):
            cli.main(["verify"])

    def test_verify_memory_error_is_not_a_usage_error(self, monkeypatch):
        def broken():
            raise MemoryError("bug")
        monkeypatch.setattr(acceptance, "run_all", broken)
        with pytest.raises(MemoryError, match="bug"):
            cli.main(["verify"])


class TestHopfCurve:
    def test_reference_outputs(self, tmp_path, capsys):
        out = tmp_path / "ref"
        assert run_cli(["hopf-curve", "--omega", "1", "--sigma", "1",
                        "--nu", "0.5", "--D", "-2", "--samples", "400",
                        "--out", str(out)]) == 0
        rows = spectrum.read_curve_csv(tmp_path / "ref_curve.csv")
        anchor = [r for r in rows if r.s == 0.0]
        assert len(anchor) == 1
        assert (anchor[0].J, anchor[0].H) == (0.0, 0.015625)
        assert anchor[0].kind.value == "H"
        diagram = spectrum.read_diagram_json(tmp_path / "ref_diagram.json")
        assert diagram.regime.value == "subcritical"

    def test_negative_nu(self, tmp_path):
        out = tmp_path / "neg"
        assert run_cli(["hopf-curve", "--omega", "1", "--sigma", "1",
                        "--nu", "-0.5", "--D", "-2", "--out", str(out)]) == 0
        diagram = spectrum.read_diagram_json(tmp_path / "neg_diagram.json")
        assert diagram.segments == ()
        assert diagram.regime.value == "subcritical"
        assert diagram.equilibrium == (0.0, 0.0)

    def test_too_few_samples(self, tmp_path):
        assert run_cli(["hopf-curve", "--omega", "1", "--sigma", "1",
                        "--nu", "0.5", "--D", "-2", "--samples", "8",
                        "--out", str(tmp_path / "x")]) == 2

    def test_bad_sigma(self, tmp_path):
        assert run_cli(["hopf-curve", "--omega", "1", "--sigma", "2",
                        "--nu", "0.5", "--D", "-2",
                        "--out", str(tmp_path / "x")]) == 2

    def test_io_failure(self, tmp_path, capsys):
        # every writing command reports a failed write on one line, exit 3
        missing = tmp_path / "no" / "such" / "dir" / "out"
        for args in (["hopf-curve", "--omega", "1", "--sigma", "1",
                      "--nu", "0.5", "--D", "-2"],
                     ["jc-scan", "--gamma-min", "0", "--gamma-max", "1",
                      "--steps", "3"],
                     ["jc-spectrum", "--gamma", "0.8", "--j-min", "0",
                      "--j-max", "1", "--j-steps", "3", "--samples", "10"]):
            assert run_cli(args + ["--out", str(missing)]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"{args[0]}: ") and err.count("\n") == 1
            assert str(missing) in err


class TestJCScan:
    def test_transition_at_half(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["jc-scan", "--gamma-min", "0", "--gamma-max", "1",
                        "--steps", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("gamma,a,b,type")
        rows = {}
        for line in lines[1:]:
            parts = line.split(",")
            rows[float(parts[0])] = parts[3]
        assert rows[0.5].startswith("Boundary")
        assert rows[0.4] == "FocusFocus"
        assert rows[0.6] == "EllipticElliptic"

    def test_all_elliptic_range(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["jc-scan", "--gamma-min", "0.6", "--gamma-max", "1",
                        "--steps", "9", "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            assert line.split(",")[3] == "EllipticElliptic"

    def test_steps_validation(self, tmp_path):
        assert run_cli(["jc-scan", "--gamma-min", "0", "--gamma-max", "1",
                        "--steps", "1", "--out", str(tmp_path / "s.csv")]) == 2


class TestJCSpectrum:
    def test_undeformed_slice(self, tmp_path):
        out = tmp_path / "jc"
        assert run_cli(["jc-spectrum", "--gamma", "0", "--j-min", "0",
                        "--j-max", "0", "--j-steps", "1", "--samples", "100",
                        "--seed", "0", "--out", str(out)]) == 0
        rows = spectrum.read_jc_critical_csv(tmp_path / "jc_critical.csv")
        assert len(rows) == 2
        assert all(r.kind == "E" for r in rows)
        assert sorted(r.H for r in rows) == pytest.approx(
            [-0.438691, 0.438691], abs=1e-5)

    def test_deformed_has_hyperbolic_rows(self, tmp_path):
        out = tmp_path / "jc"
        assert run_cli(["jc-spectrum", "--gamma", "0.8", "--j-min", "0.9",
                        "--j-max", "2.2", "--j-steps", "7", "--samples", "50",
                        "--seed", "1", "--out", str(out)]) == 0
        rows = spectrum.read_jc_critical_csv(tmp_path / "jc_critical.csv")
        assert any(r.kind == "H" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert run_cli(["jc-spectrum", "--gamma", "0.5", "--j-min", "-1",
                            "--j-max", "2", "--j-steps", "4", "--samples",
                            "500", "--seed", "7", "--out", str(out)]) == 0
            blobs.append(((tmp_path / f"{tag}_critical.csv").read_bytes(),
                          (tmp_path / f"{tag}_cloud.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_invalid_ranges(self, tmp_path):
        base = ["jc-spectrum", "--gamma", "0.5", "--out", str(tmp_path / "x")]
        assert run_cli(base + ["--j-min", "-2", "--j-max", "1",
                               "--j-steps", "3"]) == 2
        assert run_cli(base + ["--j-min", "0", "--j-max", "1",
                               "--j-steps", "0"]) == 2
        assert run_cli(base + ["--j-min", "1", "--j-max", "0",
                               "--j-steps", "3"]) == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf", "1e200"])
    def test_unusable_gamma(self, tmp_path, capsys, gamma):
        assert run_cli(["jc-spectrum", "--gamma", gamma, "--j-min", "0",
                        "--j-max", "1", "--j-steps", "3",
                        "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("jc-spectrum: ") and err.count("\n") == 1
        assert not (tmp_path / "x_critical.csv").exists()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out_env = tmp_path / "env"
        monkeypatch.setenv("HOPFDIAG_SEED", "123")
        assert run_cli(["jc-spectrum", "--gamma", "0", "--j-min", "0",
                        "--j-max", "1", "--j-steps", "2", "--samples", "50",
                        "--out", str(out_env)]) == 0
        monkeypatch.delenv("HOPFDIAG_SEED")
        out_flag = tmp_path / "flag"
        assert run_cli(["jc-spectrum", "--gamma", "0", "--j-min", "0",
                        "--j-max", "1", "--j-steps", "2", "--samples", "50",
                        "--seed", "123", "--out", str(out_flag)]) == 0
        assert (tmp_path / "env_cloud.csv").read_bytes() == \
            (tmp_path / "flag_cloud.csv").read_bytes()


class TestVerify:
    def test_exit_codes_and_report(self, capsys, monkeypatch):
        fake = [acceptance.CriterionResult(1, "alpha", True, "ok", 0.01),
                acceptance.CriterionResult(2, "beta", True, "ok", 0.02)]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "alpha" in out

        fake[1] = acceptance.CriterionResult(2, "beta", False, "broken", 0.02)
        assert run_cli(["verify"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_report(self, capsys, monkeypatch):
        fake = [acceptance.CriterionResult(1, "alpha", True, "ok", 0.01)]
        monkeypatch.setattr(acceptance, "run_all", lambda: fake)
        assert run_cli(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"number": 1, "name": "alpha", "passed": True,
                            "detail": "ok", "seconds": 0.01}]

    def test_broken_closed_form_fails_under_python_O(self):
        # python -O strips assert statements; the criteria's checks still run
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = ("import sys; from hopfdiag import cli, hopf; "
                "hopf.curve_h = lambda params, s: 0.0 * s; "
                "sys.exit(cli.main(['verify']))")
        proc = subprocess.run([sys.executable, "-O", "-W",
                               "error::RuntimeWarning", "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "[ 1] FAIL  discriminant identity" in proc.stdout


class TestClosedOrFullStdout:
    """A stdout that takes no output is an I/O error: exit 3 and one line
    on stderr, whether Python buffers stdout or not."""

    SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

    def run(self, argv, stdout, buffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(self.SRC)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-c", "import sys; from hopfdiag.cli import main;"
             " sys.exit(main())", *argv],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)

    def one_line_exit_3(self, proc, command, error):
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"{command}: {error}"]

    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["verify", "--json"],
                                      ["classify", "--a", "1", "--b", "2"]])
    def test_closed_pipe(self, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(argv, write_end, buffered)
        finally:
            os.close(write_end)
        self.one_line_exit_3(proc, argv[0], "[Errno 32] Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    def test_full_device(self, buffered):
        with open("/dev/full", "w") as full:
            proc = self.run(["verify"], full, buffered)
        self.one_line_exit_3(proc, "verify",
                             "[Errno 28] No space left on device")

    @pytest.mark.parametrize("buffered", [True, False],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["jc-spectrum", "--help"]],
                             ids=["main", "subcommand"])
    def test_help(self, argv, buffered):
        # argparse prints the help inside parse_args, before any subcommand
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run(argv, write_end, buffered)
        finally:
            os.close(write_end)
        self.one_line_exit_3(proc, "hopfdiag", "[Errno 32] Broken pipe")
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                proc = self.run(argv, full, buffered)
            self.one_line_exit_3(proc, "hopfdiag",
                                 "[Errno 28] No space left on device")


class TestHelp:
    def test_defaults_shown(self, capsys):
        assert run_cli(["jc-spectrum", "--help"]) == 0
        assert "default" in capsys.readouterr().out

    # each subcommand's whole --help at 80 columns; defaults are in the
    # help strings
    HELP = {
        "classify": """\
usage: hopfdiag classify [-h] [--a A] [--b B]
                         [--params OMEGA_T ALPHA_T GAMMA DELTA]

options:
  -h, --help            show this help message and exit
  --a A                 constant coefficient of the quartic
  --b B                 quadratic coefficient of the quartic
  --params OMEGA_T ALPHA_T GAMMA DELTA
                        family parameters; (a, b) computed from them
""",
        "hopf-curve": """\
usage: hopfdiag hopf-curve [-h] --omega OMEGA --sigma {-1,1} --nu NU --D D
                           [--samples SAMPLES] --out OUT

options:
  -h, --help         show this help message and exit
  --omega OMEGA
  --sigma {-1,1}
  --nu NU
  --D D
  --samples SAMPLES  total curve samples, >= 16 (env HOPFDIAG_SAMPLES, default
                     400)
  --out OUT          output prefix: writes <out>_curve.csv, <out>_diagram.json
""",
        "jc-scan": """\
usage: hopfdiag jc-scan [-h] --gamma-min GAMMA_MIN --gamma-max GAMMA_MAX
                        --steps STEPS --out OUT

options:
  -h, --help            show this help message and exit
  --gamma-min GAMMA_MIN
  --gamma-max GAMMA_MAX
  --steps STEPS         grid size, >= 2
  --out OUT             output CSV path
""",
        "jc-spectrum": """\
usage: hopfdiag jc-spectrum [-h] --gamma GAMMA --j-min J_MIN --j-max J_MAX
                            --j-steps J_STEPS [--samples SAMPLES]
                            [--seed SEED] --out OUT

options:
  -h, --help         show this help message and exit
  --gamma GAMMA
  --j-min J_MIN
  --j-max J_MAX
  --j-steps J_STEPS
  --samples SAMPLES  cloud sample count (env HOPFDIAG_SAMPLES, default 10000)
  --seed SEED        RNG seed (env HOPFDIAG_SEED, default 0)
  --out OUT          output prefix: writes <out>_critical.csv, <out>_cloud.csv
""",
        "verify": """\
usage: hopfdiag verify [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json      machine-readable report
""",
    }

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_subcommand_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli([command, "--help"]) == 0
        assert capsys.readouterr().out == self.HELP[command]

    def test_module_runs_from_a_checkout(self):
        # ``python -m hopfdiag`` with only src/ on the path, not installed
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "hopfdiag", "--help"],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hopfdiag [-h] {classify,")


# --- random argv and environment ---------------------------------------------

NUMBER = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "-1", "0.5", "1e308", "-1e308", "1e-320",
                     "1e154", "nan", "inf", "-inf", "x", ""]))
SMALL = st.floats(-1.0, 3.0).map(repr)     # mostly valid J and gamma
SIZE = st.one_of(st.integers(-2, 50).map(str), st.sampled_from(["2000", "x"]))
ENV = st.fixed_dictionaries({    # always set: an omitted --samples stays small
    "HOPFDIAG_SAMPLES": st.integers(-2, 200).map(str)
    | st.sampled_from(["2000", "abc", "", "1e3"])},
    optional={"HOPFDIAG_SEED": st.one_of(st.integers(-2, 2 ** 70).map(str),
                               st.sampled_from(["abc", ""]))})


def flags(**values):
    """``--name=value`` for every value that is not None."""
    return [f"--{k.replace('_', '-')}={v}" for k, v in values.items()
            if v is not None]


def optional(strategy):
    return st.none() | strategy


ARGV = {
    "classify": st.one_of(
        st.builds(flags, a=optional(NUMBER), b=optional(NUMBER)),
        st.lists(NUMBER.filter(lambda v: not v.startswith("-")),
                 min_size=4, max_size=4).map(lambda p: ["--params", *p])),
    "hopf-curve": st.builds(
        flags, omega=SMALL | NUMBER, sigma=st.sampled_from(["1", "-1", "0"]),
        nu=SMALL | NUMBER, D=SMALL | NUMBER,
        samples=optional(st.integers(-2, 300).map(str) | st.just("2000"))),
    "jc-scan": st.builds(flags, gamma_min=NUMBER, gamma_max=NUMBER,
                         steps=SIZE),
    "jc-spectrum": st.builds(
        flags, gamma=SMALL | NUMBER, j_min=SMALL | NUMBER,
        j_max=SMALL | NUMBER, j_steps=SIZE,
        samples=optional(st.integers(-2, 300).map(str) | st.just("2000")),
        seed=optional(st.integers(-2, 2 ** 70).map(str))),
}


def read_back_finite(command, out):
    """Every file a successful run wrote reads back, all numbers finite."""
    if command == "hopf-curve":
        rows = spectrum.read_curve_csv(f"{out}_curve.csv")
        values = [v for r in rows for v in (r.s, r.J, r.H, r.d, r.det2)]
        d = spectrum.read_diagram_json(f"{out}_diagram.json")
        values += [*d.anchor, *d.equilibrium, *(d.slopes or ())]
        values += [v for p in d.cusps + d.endpoints for v in (p.s, p.J, p.H)]
    elif command == "jc-scan":
        # the scan table is written only: its numbers are read here
        with open(out) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "gamma,a,b,type,eig1,eig2,eig3,eig4"
        fields = [r.split(",") for r in rows]
        assert all(len(f) == 8 for f in fields), "a row has not 8 fields"
        values = [complex(f) for r in fields
                  for i, f in enumerate(r) if i != 3]
    elif command == "jc-spectrum":
        rows = spectrum.read_jc_critical_csv(f"{out}_critical.csv")
        values = [v for r in rows for v in (r.J, r.H, r.z)]
        cloud = spectrum.read_cloud_csv(f"{out}_cloud.csv")
        values += cloud.points.ravel().tolist()
    else:
        return
    assert all(map(cmath.isfinite, values))


@pytest.mark.parametrize("command", ARGV)
@settings(max_examples=40)
@given(data=st.data(), env=ENV, missing_dir=st.booleans())
def test_random_input_exits_cleanly(command, data, env, missing_dir):
    """No traceback: exit 0, 2 (one line, unless argparse's usage) or 3,
    and every CSV written with exit 0 reads back finite."""
    argv = [command] + data.draw(ARGV[command])
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "no", "dir", "x") if missing_dir else \
            os.path.join(tmp, "x")
        if command != "classify":
            argv.append(f"--out={out}")
        err = io.StringIO()
        with mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 2, 3), argv
        if code == 2 and not err.getvalue().startswith("usage:"):
            assert err.getvalue().count("\n") == 1, argv
        if code == 0:
            assert "nan" not in stdout.getvalue()
            assert "inf" not in stdout.getvalue()
            read_back_finite(command, out)
