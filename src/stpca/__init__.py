"""Sparse tensor PCA toolkit: spiked-model sampling, limited brute-force
support recovery, exact low-degree chi-squared computation, and
information-theoretic thresholds.

Each module is its own API: import names from ``stpca.tensor``,
``stpca.model``, ``stpca.recovery``, ``stpca.lowdeg``, ``stpca.infotheory``
and ``stpca.experiments``. The package root loads them and re-exports nothing.
"""

from . import experiments, infotheory, lowdeg, model, recovery, tensor

__version__ = "0.1.0"
