import json

import pytest

from hopfdiag import acceptance, cli, spectrum


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:   # argparse errors surface as SystemExit(2)
        return exc.code


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
        assert diagram.segments == []
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

    def test_io_failure(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out"
        assert run_cli(["hopf-curve", "--omega", "1", "--sigma", "1",
                        "--nu", "0.5", "--D", "-2",
                        "--out", str(missing)]) == 3


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


class TestHelp:
    def test_defaults_shown(self, capsys):
        assert run_cli(["jc-spectrum", "--help"]) == 0
        assert "default" in capsys.readouterr().out
