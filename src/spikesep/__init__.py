"""spikesep: eigenvalue separation in spiked random matrix ensembles.

Exact beta=2 determinantal kernels, secular equations, limiting spectral laws,
seeded Monte Carlo samplers, and an experiment harness that renders the
standard density/onset plots as CSV and SVG.  Each ensemble is described once,
by a model in `spikesep.kernels` (ShiftedGUE, SpikedLUE, ShiftedChiral) that
carries its density, separation predictor and Monte Carlo plan.
"""

__version__ = "0.1.0"

from .logspace import SignedLogValue
from .secular import (
    SecularProblem,
    SeparationPrediction,
    chiral_secular_eigenvalues,
    secular_eigenvalues,
)
from .spectra import (
    DensityCurve,
    MarchenkoPasturFixedDiff,
    MarchenkoPasturGamma,
    Semicircle,
)
from .ensembles import SeedStream, sample_spectrum

__all__ = [
    "__version__",
    "SignedLogValue",
    "SecularProblem",
    "SeparationPrediction",
    "secular_eigenvalues",
    "chiral_secular_eigenvalues",
    "Semicircle",
    "MarchenkoPasturFixedDiff",
    "MarchenkoPasturGamma",
    "DensityCurve",
    "SeedStream",
    "sample_spectrum",
]
