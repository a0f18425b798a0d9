"""The documented commands keep their output bytes.

Runs the README's ``classify``, ``hopf-curve``, ``jc-scan`` and
``jc-spectrum`` commands and both sweep scripts (at the sizes of
``test_scripts.py``) in process, and compares the sha256 of every file they
write and of both ``classify`` stdouts with the digests recorded below.  A
change that claims the same bytes must leave them as they are; a change
that means to alter an output updates its digest and says why.  Floats are
printed as shortest round-trip decimals, so the digests hold for a given
numpy and libm; another platform may round a transcendental differently.
"""

import hashlib
import runpy
import sys

from hopfdiag import cli

from test_scripts import SCRIPTS

CLI_FILES = [
    ["hopf-curve", "--omega", "1", "--sigma", "1", "--nu", "0.5", "--D", "-2",
     "--samples", "400", "--out", "ref"],
    ["jc-scan", "--gamma-min", "0", "--gamma-max", "1", "--steps", "101",
     "--out", "scan.csv"],
    ["jc-spectrum", "--gamma", "0.8", "--j-min", "-1", "--j-max", "3",
     "--j-steps", "200", "--samples", "100000", "--seed", "0", "--out", "jc"],
]
CLASSIFY = {
    "classify_ab.txt": ["classify", "--a", "2", "--b", "1"],
    "classify_params.txt": ["classify", "--params", "1", "0", "1", "2"],
}
SWEEPS = {"spin_oscillator_sweep.py": ["--samples", "2000", "--j-steps", "11"],
          "normal_form_sweep.py": ["--samples", "64"]}

SHA256 = {
    "classify_ab.txt":
        "90df17572d635a87f7d0776961d3e76504ea9ba63c948ccc90a8c2ee0a7bc901",
    "classify_params.txt":
        "80bf99ecfd87f429424909d4930afc44e74589755a613fe89a91516fbd038b7d",
    "jc_cloud.csv":
        "956f768243e9278b8bb073ba7591c13937607a1f6c71b90a00a925f118a496d1",
    "jc_critical.csv":
        "5ce1478ac9a2160a8b00ad443f271ffb5cb78729d90bf878ae218a7990f3b72d",
    "normal_form_sweep/num_Dm2_curve.csv":
        "28dc67c6039d00bf123cd8ebf5b501c2a707787ae9a011d85972a1753dbf9bab",
    "normal_form_sweep/num_Dm2_diagram.json":
        "5364e2d01107580d5890effa5e250508bd8412587fba5530b4231322396d3e42",
    "normal_form_sweep/num_Dp1_curve.csv":
        "28dc67c6039d00bf123cd8ebf5b501c2a707787ae9a011d85972a1753dbf9bab",
    "normal_form_sweep/num_Dp1_diagram.json":
        "42372987c4b3e3abb9da86fc21a06551ac15a9c6d61a8ef9d86753d5cf160689",
    "normal_form_sweep/nup_Dm2_curve.csv":
        "cd5803cbe085e632f2a4bb14d87abf1cbb431b65c8c2bae4868ab507393face6",
    "normal_form_sweep/nup_Dm2_diagram.json":
        "1b9a02066b26efeb8d4a6e84bb81b0affeb8a261b5f42e48a5f38453a150c13d",
    "normal_form_sweep/nup_Dp1_curve.csv":
        "28dc67c6039d00bf123cd8ebf5b501c2a707787ae9a011d85972a1753dbf9bab",
    "normal_form_sweep/nup_Dp1_diagram.json":
        "40af8cb48a9b3b6764e490d5c9a919b5832a9082f78f5cb8ae7d1ac28c8a039e",
    "ref_curve.csv":
        "edf66c63cbdbebf4414f09df4b03b1d778b46fd2e034db7bfe84a4ec82b38488",
    "ref_diagram.json":
        "487ee7d57250120f51f1af6a281ca14b2e667efccd7f0bc67cb03d4b15cc1652",
    "scan.csv":
        "13b29b09e14ade3c4bb8a5be848f7d7125326a024c20c60470a468d1729551fa",
    "spin_oscillator_sweep/deformed_cloud.csv":
        "72596c5b70d4a7c66ac1d6a8b3f08d686ff369a372f091532d0eb410302db58f",
    "spin_oscillator_sweep/deformed_critical.csv":
        "bb32469fa780678013fe39b3f659b9d7cbb40f79db3fe1eb1a644f9c1fd741ca",
    "spin_oscillator_sweep/deformed_raster.csv":
        "8a2ab61fa896df30ebb879867fdca53ee911afa90952b2ce0ee7c9deeeba4c9d",
    "spin_oscillator_sweep/linearization_scan.csv":
        "bc5a6ebe4d85e14b1f0941693deb506565c5d66b7fdc25f4cc56ce4d93711917",
    "spin_oscillator_sweep/undeformed_cloud.csv":
        "74f7674ef26391d6cb77c482eaaca1625df5cae0e9d0a0258b93ba44424addf3",
    "spin_oscillator_sweep/undeformed_critical.csv":
        "6d56183a6beaf122781d6de26d0cafadf4479488a7eadd04d29ae30f71f4855a",
    "spin_oscillator_sweep/undeformed_raster.csv":
        "b5ae43de22bec92c237845d58cc0e0800411af3b240aecd03f3dc72c6de41576",
}


def _run_sweep(name, args, out_dir, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "--out-dir", str(out_dir), *args])
    monkeypatch.setattr(sys, "path", sys.path[:])   # the script prepends src
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, f"{name} exited {exc.code}"


def test_documented_commands_keep_their_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for argv in CLI_FILES:
        assert cli.main(argv) == 0
    for name, argv in CLASSIFY.items():
        capsys.readouterr()
        assert cli.main(argv) == 0
        digests[name] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    for name, args in SWEEPS.items():
        _run_sweep(name, args, tmp_path / name.removesuffix(".py"),
                   monkeypatch)
    for path in sorted(tmp_path.rglob("*.*")):
        rel = path.relative_to(tmp_path).as_posix()
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == SHA256
