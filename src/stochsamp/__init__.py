"""Stochastic generalized sampling: weighted least-squares recovery from
randomly drawn frame samples, Bernstein-type concentration bounds, sample
complexity calculators, and the Fourier-Legendre analytic-function
application.

Each name lives in one module and is imported from it, e.g.
``from stochsamp.sampling import reconstruct``.
"""

__version__ = "0.1.0"
