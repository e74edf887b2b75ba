"""Harmonic analysis on the bundle of differential p-forms over real
hyperbolic space.

The package splits along the structure of the problem: Lorentz-group
decompositions (liegroup), the exterior-power representation of the
rotation group and its M-branching (extrep), Jacobi special functions
and c-functions (specialfn), tau-spherical functions and Plancherel
densities (spherical), Poisson / Radon / boundary-Fourier transforms
(transforms), and the ball-average limit, inversion, and restriction
verifiers (strichartz).  The cli module exposes each verification as a
seeded command emitting JSON or CSV.
"""

from . import extrep, liegroup, specialfn, spherical, strichartz, transforms
from .extrep import *
from .liegroup import *
from .specialfn import *
from .spherical import *
from .strichartz import *
from .transforms import *

__version__ = "0.1.0"

# each module's __all__ is its public surface, and the package's is theirs
__all__ = ["__version__", *extrep.__all__, *liegroup.__all__, *specialfn.__all__,
           *spherical.__all__, *strichartz.__all__, *transforms.__all__]
