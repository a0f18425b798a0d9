import math

import numpy as np
import pytest

from hopfdiag.jets import Jet2


def test_variable_seeds_gradient():
    x, y = Jet2.variables([2.0, 3.0])
    assert x.val == 2.0
    assert np.array_equal(x.grad, [1.0, 0.0])
    assert np.array_equal(y.grad, [0.0, 1.0])


def test_product_rule():
    x, y = Jet2.variables([2.0, 3.0])
    f = x * y + 2.0 * x - y + 5.0
    assert f.val == 2.0 * 3.0 + 4.0 - 3.0 + 5.0
    assert np.array_equal(f.grad, [3.0 + 2.0, 2.0 - 1.0])
    assert np.array_equal(f.symmetrized_hessian(), [[0.0, 1.0], [1.0, 0.0]])


def test_sqrt_jet():
    x, y = Jet2.variables([0.3, -0.2])
    f = (1.0 - 0.25 * (x * x + y * y)).sqrt()
    r2 = 0.3 ** 2 + 0.2 ** 2
    val = math.sqrt(1.0 - r2 / 4.0)
    assert f.val == pytest.approx(val)
    # d/dx sqrt(1 - (x^2+y^2)/4) = -x / (4 sqrt(...))
    assert f.grad[0] == pytest.approx(-0.3 / (4.0 * val))
    assert f.grad[1] == pytest.approx(0.2 / (4.0 * val))
    # second derivative in x: -(1/4)/s - x^2/(16 s^3) with s = sqrt(...)
    want = -(0.25 / val) - (0.3 ** 2) / (16.0 * val ** 3)
    assert f.hess[0, 0] == pytest.approx(want, abs=1e-14)


def test_sqrt_requires_positive_value():
    (x,) = Jet2.variables([0.0])
    with pytest.raises(ValueError):
        (x * x - 1.0).sqrt()


def test_hessian_symmetric_bitwise():
    x, y, z, w = Jet2.variables([0.1, 0.2, 0.3, 0.4])
    f = (x * y + z * w) * (1.0 - 0.25 * (x * x + z * z)).sqrt() + y * z
    assert np.array_equal(f.hess, f.hess.T)
