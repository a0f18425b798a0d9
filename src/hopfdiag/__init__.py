"""Critical-value structure of the Hamiltonian Hopf bifurcation, equilibrium
classification on R^4, and bifurcation diagrams of the deformed coupled
spin-oscillator, with every closed form cross-checked against brute-force
numerical oracles."""

from . import hopf, models, oracle, spectrum, symplin
from .hopf import (CurveSample, EliassonParams, HopfParams, Regime,
                   SegmentKind)
from .models import (Branch, CriticalKind, CriticalValuePoint, PolyG,
                     SpectrumCloud)
from .spectrum import Diagram
from .symplin import EquilibriumType, QuarticCoeffs

__all__ = [
    "hopf", "models", "oracle", "spectrum", "symplin",
    "CurveSample", "EliassonParams", "HopfParams", "Regime", "SegmentKind",
    "Branch", "CriticalKind", "CriticalValuePoint", "PolyG",
    "SpectrumCloud", "Diagram", "EquilibriumType", "QuarticCoeffs",
]

__version__ = "0.1.0"
