"""Correlation kernel of the Gaussian random field.

The Gaussian field carries a spatial covariance measure c on the mark
space: the covariance of two field integrals is the double integral of the
integrands against c(xi1 - xi2).  Every model here uses the d = 0 field, a
Dirac atom of mass c0 at the origin, under which the Gaussian field
collapses to a single Brownian motion of variance c0 per unit time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiracKernel:
    """Atom of mass c0 at the origin: a scalar Brownian driver of variance c0."""

    c0: float = 1.0

    def __post_init__(self):
        if self.c0 <= 0:
            raise ValueError("Dirac kernel weight c0 must be positive")
