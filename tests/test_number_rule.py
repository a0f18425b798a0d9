"""One number rule for every record.

Every real field of ``HopfParams``, ``CurveSample``, ``EliassonParams``,
``HtildeCoeffs``, ``PolyG``, ``SpecialPoint``, ``QuarticCoeffs`` and the
anchor and gaps of ``Diagram`` goes through ``symplin.finite_float``: the
record stores a finite Python float (``HopfParams.sigma`` a Python int),
or the constructor raises ``ValueError("<record>.<field> must be a finite
real number, got <value!r>")``, with no RuntimeWarning, OverflowError or
TypeError on the way.  ``SpectrumCloud.seed`` goes through
``symplin.nonneg_int`` and stores a Python int >= 0, and so does the
sample count ``n`` of ``models.jc_spectrum_sample`` (whose ``j_max`` goes
through ``symplin.finite_float``), the grid sizes of ``spectrum.rasterize``
and the sample count of ``spectrum.assemble_hopf_diagram``.
"""

import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hopfdiag import hopf, models, spectrum
from hopfdiag.hopf import CurveSample, EliassonParams, HopfParams, SegmentKind
from hopfdiag.models import PolyG
from hopfdiag.spectrum import SpecialPoint
from hopfdiag.symplin import QuarticCoeffs

REF = HopfParams(omega=1.0, sigma=1, nu=0.5, D=-2.0)


def curve_sample(**fields):
    return CurveSample(**fields, kind=SegmentKind.TRANSVERSALLY_ELLIPTIC)


# constructor and a valid value of each real field, every value exact in
# float32, so each numeric type below stores the same float
RECORDS = {
    "HopfParams": (HopfParams,
                   {"omega": 1.0, "sigma": 1, "nu": 0.5, "D": -2.0}),
    "CurveSample": (curve_sample, {"s": 0.5, "J": 0.25, "H": 0.75,
                                   "d": 1.5, "det2": -2.0}),
    "EliassonParams": (EliassonParams,
                       {"omega_t": 1.0, "alpha_t": 2.0, "delta": 0.5}),
    "HtildeCoeffs": (hopf.HtildeCoeffs, {"omega_t": 1.0, "alpha_t": 2.0,
                                         "gamma": 0.5, "delta": 0.25,
                                         "D": -2.0}),
    "PolyG": (PolyG, {"gamma": 0.75}),
    "SpecialPoint": (SpecialPoint, {"s": 0.5, "J": 0.25, "H": 0.75}),
    "QuarticCoeffs": (QuarticCoeffs, {"a": 1.0, "b": 2.0}),
}
FIELDS = [(record, name) for record, (_, values) in RECORDS.items()
          for name in values]
REFUSED = [True, False, np.True_, math.nan, -math.inf, np.float64(math.nan),
           np.float32(math.inf), 10 ** 400, -10 ** 400, Fraction(10 ** 400),
           "1", "nan", 1j, complex(1.0, 0.0), None, [1.0]]
NUMBER_TYPES = [float, np.float64, np.float32, Fraction, np.longdouble]


def refusal(record: str, name: str) -> str:
    return rf"^{record}\.{re.escape(name)} must be a finite real number, got "


@pytest.fixture
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("no_warnings")
@pytest.mark.parametrize("record, name", FIELDS)
@pytest.mark.parametrize("bad", REFUSED,
                         ids=lambda x: f"{type(x).__name__}-{str(x)[:8]}")
def test_every_field_refuses_what_is_not_a_finite_real(record, name, bad):
    make, values = RECORDS[record]
    with pytest.raises(ValueError, match=refusal(record, name)):
        make(**{**values, name: bad})


@pytest.mark.parametrize("record", RECORDS)
@pytest.mark.parametrize("number", NUMBER_TYPES, ids=lambda t: t.__name__)
def test_every_field_stores_a_python_float(record, number):
    make, values = RECORDS[record]
    got = make(**{name: number(v) for name, v in values.items()})
    for name, v in values.items():
        stored = getattr(got, name)
        assert type(stored) is type(v) and stored == v, name


def test_a_finite_float_field_is_kept_as_the_same_object():
    x = 0.1 + 0.2
    assert curve_sample(s=x, J=x, H=x, d=x, det2=x).J is x


# ---------------------------------------------------------------------------
# the faults each record had before it used the rule, one test each


@pytest.mark.parametrize("make, message", [
    (lambda: PolyG(True), "PolyG.gamma"),
    (lambda: EliassonParams(True, True, True), "EliassonParams.omega_t"),
    (lambda: SpecialPoint(True, 1, 2), "SpecialPoint.s"),
    (lambda: QuarticCoeffs(True, False), "QuarticCoeffs.a"),
], ids=["PolyG", "EliassonParams", "SpecialPoint", "QuarticCoeffs"])
def test_a_bool_is_refused(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} .* got True$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: PolyG(10 ** 400), "PolyG.gamma"),
    (lambda: HopfParams(10 ** 400, 1, 0.5, -2.0), "HopfParams.omega"),
], ids=["PolyG", "HopfParams"])
def test_an_int_beyond_the_float_range_is_a_value_error(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} "):
        make()


def test_a_string_is_a_value_error():
    with pytest.raises(ValueError, match=r"^QuarticCoeffs\.a .* got '1'$"):
        QuarticCoeffs("1", 2.0)


@pytest.mark.usefixtures("no_warnings")
@pytest.mark.parametrize("alpha_t, delta", [(1e200, 1e-200), (1e155, 1.0)])
def test_a_numpy_alpha_t_overflows_gamma_hat_without_a_warning(alpha_t, delta):
    with pytest.raises(ValueError, match=refusal("EliassonParams",
                                                 "gamma_hat") + "inf$"):
        EliassonParams(1.0, np.float64(alpha_t), delta)


def test_a_numpy_gamma_solves_in_double_precision():
    js = np.r_[-1.0, np.linspace(-0.99, 3.2, 60), 1.0]
    single = models.jc_critical_values(PolyG(np.float32(0.8)), js)
    double = models.jc_critical_values(PolyG(float(np.float32(0.8))), js)
    assert single == double
    for row in (row for rows in single for row in rows):
        assert {type(row.J), type(row.H), type(row.z_at)} == {float}


def test_a_numpy_int_sigma_diagram_writes_and_reads_back(tmp_path):
    params = HopfParams(1.0, np.int64(1), 0.5, -2.0)
    assert type(params.sigma) is int and params == REF
    path = tmp_path / "diagram.json"
    diagram = spectrum.assemble_hopf_diagram(params, 48)
    spectrum.write_diagram_json(diagram, path)
    assert spectrum.read_diagram_json(path) == diagram
    assert json.loads(path.read_text())["params"]["sigma"] == 1


# ---------------------------------------------------------------------------
# SpectrumCloud.seed: an int >= 0


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, 1.0, "3", -1, None],
                         ids=repr)
def test_a_seed_that_is_not_an_int_ge_0_is_refused(bad):
    message = (r"^SpectrumCloud\.seed must be an int >= 0, got "
               + re.escape(repr(bad)) + "$")
    with pytest.raises(ValueError, match=message):
        models.SpectrumCloud(points=np.zeros((1, 2)), seed=bad)
    with pytest.raises(ValueError, match=message):
        models.jc_spectrum_sample(PolyG(0.5), 5, 1.0, bad)


def test_a_numpy_int_seed_is_stored_as_int_and_reads_back(tmp_path):
    cloud = models.jc_spectrum_sample(PolyG(0.5), 5, 1.0, np.int64(7))
    assert type(cloud.seed) is int
    assert cloud == models.jc_spectrum_sample(PolyG(0.5), 5, 1.0, 7)
    path = tmp_path / "cloud.csv"
    spectrum.write_cloud_csv(cloud, path)
    assert path.read_text().startswith("# seed=7 count=5\n")
    assert spectrum.read_cloud_csv(path) == cloud


@pytest.mark.usefixtures("no_warnings")
@pytest.mark.parametrize("bad", [2.5, True, "3", np.True_, 5.0, -1, None],
                         ids=repr)
def test_a_sample_count_that_is_not_an_int_ge_0_is_refused(bad):
    # the seed's rule, checked before numpy sees the count
    message = (r"^jc_spectrum_sample\.n must be an int >= 0, got "
               + re.escape(repr(bad)) + "$")
    with pytest.raises(ValueError, match=message):
        models.jc_spectrum_sample(PolyG(0.5), bad, 1.0, 0)


@pytest.mark.usefixtures("no_warnings")
@pytest.mark.parametrize("bad", [True, np.True_, "2", "nan", math.nan,
                                 10 ** 400, None],
                         ids=lambda bad: repr(bad)[:12])
def test_a_j_max_that_is_not_a_finite_real_is_refused(bad):
    message = (r"^jc_spectrum_sample\.j_max must be a finite real number, "
               "got " + re.escape(repr(bad)) + "$")
    with pytest.raises(ValueError, match=message):
        models.jc_spectrum_sample(PolyG(0.5), 5, bad, 0)


@pytest.mark.parametrize("number_type", [np.float64, np.float32, Fraction,
                                         int])
def test_a_j_max_of_any_real_type_samples_as_its_float(number_type):
    cloud = models.jc_spectrum_sample(PolyG(0.5), 5, number_type(2), 0)
    assert cloud == models.jc_spectrum_sample(PolyG(0.5), 5, 2.0, 0)


def test_a_numpy_int_sample_count_samples():
    cloud = models.jc_spectrum_sample(PolyG(0.5), np.int64(5), 1.0, 0)
    assert cloud == models.jc_spectrum_sample(PolyG(0.5), 5, 1.0, 0)
    assert cloud.count == 5


@pytest.mark.usefixtures("no_warnings")
@pytest.mark.parametrize("bad", [2.5, True, "3", np.True_, 3.0, -1, None],
                         ids=repr)
@pytest.mark.parametrize("make, record, name", [
    (lambda cloud, n: spectrum.rasterize(cloud, n, 3), "rasterize", "n_j"),
    (lambda cloud, n: spectrum.rasterize(cloud, 3, n), "rasterize", "n_h"),
    (lambda cloud, n: spectrum.assemble_hopf_diagram(REF, n),
     "assemble_hopf_diagram", "samples")], ids=["n_j", "n_h", "samples"])
def test_a_size_that_is_not_an_int_ge_0_is_refused(make, record, name, bad):
    # the sample count's rule, checked before the size's own bounds
    cloud = models.jc_spectrum_sample(PolyG(0.5), 5, 1.0, 0)
    message = (rf"^{record}\.{name} must be an int >= 0, got "
               + re.escape(repr(bad)) + "$")
    with pytest.raises(ValueError, match=message):
        make(cloud, bad)


def test_a_numpy_int_size_is_taken_as_its_int():
    cloud = models.jc_spectrum_sample(PolyG(0.5), 50, 1.0, 0)
    assert (spectrum.rasterize(cloud, np.int64(4), np.int32(3))
            == spectrum.rasterize(cloud, 4, 3))
    assert (spectrum.assemble_hopf_diagram(REF, np.int64(40))
            == spectrum.assemble_hopf_diagram(REF, 40))


# ---------------------------------------------------------------------------
# Diagram's gaps


def with_gaps(diagram, gaps):
    """``diagram`` built again with ``gaps`` on its first segment."""
    first = dataclasses.replace(diagram.segments[0], gaps=gaps)
    return dataclasses.replace(diagram,
                               segments=(first, *diagram.segments[1:]))


def test_diagram_gaps_store_python_floats():
    diagram = spectrum.assemble_hopf_diagram(REF, 48)
    got = with_gaps(diagram, [(np.float32(0.5), 1)])
    assert got.segments[0].gaps == ((0.5, 1.0),)
    assert {type(x) for x in got.segments[0].gaps[0]} == {float}


def test_diagram_gap_is_a_pair_lo_le_hi():
    diagram = spectrum.assemble_hopf_diagram(REF, 48)
    for gaps, message in [([(1.0, 0.5)], "lo > hi"), ([(1.0,)], "not a pair"),
                          ([(False, True)], refusal("Diagram", "gaps"))]:
        with pytest.raises(ValueError, match=message):
            with_gaps(diagram, gaps)
