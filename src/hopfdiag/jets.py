"""Second-order jet arithmetic in n variables.

A Jet2 carries (value, gradient, Hessian) of a smooth function at a fixed
base point; +, -, * and sqrt propagate them exactly (to rounding).  This
gives machine-precision quadratic parts of composed expressions without
symbolic machinery -- used to linearize Hamiltonians through an explicit
canonical chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Jet2:
    val: float
    grad: np.ndarray
    hess: np.ndarray

    @classmethod
    def constant(cls, c: float, n: int) -> "Jet2":
        return cls(float(c), np.zeros(n), np.zeros((n, n)))

    @classmethod
    def variable(cls, i: int, value: float, n: int) -> "Jet2":
        g = np.zeros(n)
        g[i] = 1.0
        return cls(float(value), g, np.zeros((n, n)))

    @classmethod
    def variables(cls, values) -> list["Jet2"]:
        values = list(values)
        n = len(values)
        return [cls.variable(i, v, n) for i, v in enumerate(values)]

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.grad.size)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        outer = np.outer(self.grad, o.grad)
        return Jet2(
            self.val * o.val,
            self.val * o.grad + o.val * self.grad,
            self.val * o.hess + o.val * self.hess + outer + outer.T,
        )

    __rmul__ = __mul__

    def sqrt(self) -> "Jet2":
        if self.val <= 0.0:
            raise ValueError("sqrt of a jet needs a positive value part")
        s = math.sqrt(self.val)
        grad = self.grad / (2.0 * s)
        outer = np.outer(self.grad, self.grad)
        hess = self.hess / (2.0 * s) - outer / (4.0 * self.val * s)
        return Jet2(s, grad, hess)

    def symmetrized_hessian(self) -> np.ndarray:
        return (self.hess + self.hess.T) / 2.0
