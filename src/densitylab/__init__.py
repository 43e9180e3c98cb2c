"""Default-density term structure toolkit.

Simulation of forward default intensities and conditional default
densities driven by a Levy random field (the d = 0 Dirac-kernel Gaussian
field plus compensated Poisson jumps), pricing-kernel PIDE solving, defaultable
zero-coupon bond pricing, and the Monte Carlo experiment harness.
"""

__version__ = "0.1.0"
