"""Finite-activity Poisson characteristic measures and their quadrature.

The jump field is a compensated Poisson random measure with intensity
nu(dxi) dt.  Only finite total mass is supported: jumps are then a compound
Poisson process and compensation is exact, never truncated.  The workhorse
is the exponential density nu(dxi) = (zeta/varpi) exp(-xi/varpi) on xi > 0
(total mass zeta, mean mark varpi), for which the compensator integrals
used throughout the model have closed forms; a generic Gauss-Laguerre rule
backs everything else.  The rule is numpy's `laggauss` (companion-matrix
nodes, one Newton step): at the default 32 nodes it agrees with
`scipy.special.roots_laguerre` to 1e-14 in the nodes and 4e-13 in the
weights (relative), and it keeps scipy off the Monte Carlo commands'
import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.laguerre import laggauss


@lru_cache(maxsize=None)
def _laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Laguerre rule: integral g(u) e^{-u} du ~ sum w_i g(u_i)."""
    return laggauss(n)


@dataclass(frozen=True)
class ExponentialJumpMeasure:
    """nu(dxi) = (zeta/varpi) e^(-xi/varpi) 1_{xi>0} dxi."""

    zeta: float
    varpi: float
    quadrature_nodes: int = 32

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError("zeta must be a positive real")
        if self.varpi <= 0:
            raise ValueError("varpi must be a positive real")
        if self.quadrature_nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")

    @property
    def total_mass(self) -> float:
        return self.zeta

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes/weights such that integral g dnu ~ sum w_i g(x_i).

        Gauss-Laguerre in the scaled variable u = xi / varpi.
        """
        u, w = _laguerre(self.quadrature_nodes)
        return self.varpi * u, self.zeta * w

    def integral(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        x, w = self.quadrature()
        return float(np.sum(w * np.asarray(g(x), dtype=float)))

    def mark_moment(self, k: int) -> float:
        """integral xi^k nu(dxi) = zeta * k! * varpi^k, exact."""
        return self.zeta * float(math.factorial(k)) * self.varpi ** k

    def one_minus_exp(self, c) -> np.ndarray | float:
        """integral (1 - e^(-c xi)) nu(dxi) = zeta c varpi / (1 + c varpi), c >= 0."""
        c = np.asarray(c, dtype=float)
        out = self.zeta * c * self.varpi / (1.0 + c * self.varpi)
        return out if out.ndim else float(out)

    def xi_exp(self, c) -> np.ndarray | float:
        """integral xi e^(-c xi) nu(dxi) = zeta varpi / (1 + c varpi)^2, c >= 0."""
        c = np.asarray(c, dtype=float)
        out = self.zeta * self.varpi / (1.0 + c * self.varpi) ** 2
        return out if out.ndim else float(out)

    def sample_marks(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(scale=self.varpi, size=n)


@dataclass(frozen=True)
class PointMassMeasure:
    """Mass z concentrated at a single mark (the Poisson-sheet case)."""

    z: float
    location: float = 1.0

    def __post_init__(self):
        if self.z <= 0:
            raise ValueError("point mass z must be a positive real")

    @property
    def total_mass(self) -> float:
        return self.z

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.location]), np.array([self.z])

    def mark_moment(self, k: int) -> float:
        return self.z * self.location ** k

    def one_minus_exp(self, c) -> np.ndarray | float:
        c = np.asarray(c, dtype=float)
        out = self.z * (1.0 - np.exp(-c * self.location))
        return out if out.ndim else float(out)

    def xi_exp(self, c) -> np.ndarray | float:
        c = np.asarray(c, dtype=float)
        out = self.z * self.location * np.exp(-c * self.location)
        return out if out.ndim else float(out)

    def sample_marks(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self.location)


@dataclass(frozen=True)
class ZeroMeasure:
    """No jump component (used for varpi = 0 sweep cells and pure diffusion)."""

    @property
    def total_mass(self) -> float:
        return 0.0

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(0), np.zeros(0)

    def mark_moment(self, k: int) -> float:
        return 0.0

    def one_minus_exp(self, c) -> np.ndarray | float:
        out = np.zeros_like(np.asarray(c, dtype=float))
        return out if out.ndim else 0.0

    def xi_exp(self, c) -> np.ndarray | float:
        out = np.zeros_like(np.asarray(c, dtype=float))
        return out if out.ndim else 0.0

    def sample_marks(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(n)


LevyMeasure = ExponentialJumpMeasure | PointMassMeasure | ZeroMeasure
