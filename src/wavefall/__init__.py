"""Quantum wave packets falling in a uniform linear potential.

The package evolves one-dimensional packets under H = p^2/2m + m g x three
independent ways (a factored exact propagator, a split-step spectral solver,
and a dense-matrix oracle), computes the classical two-time actions whose
difference shows up as the interference phase, and runs a matter-wave
interferometry protocol that measures that phase directly.  A verification
suite cross-checks all of the routes against each other.

Export rule: each layer module's __all__ is the only list of its public
names, and the package exports their union plus __version__, with no
exception.
"""

from . import action, analytic, checks, config, core, errors, interferometry
from . import oracle, relativistic, splitstep
from .action import *
from .analytic import *
from .checks import *
from .config import *
from .core import *
from .errors import *
from .interferometry import *
from .oracle import *
from .relativistic import *
from .splitstep import *

__version__ = "0.1.0"

_LAYERS = (action, analytic, checks, config, core, errors, interferometry, oracle,
           relativistic, splitstep)
__all__ = ["__version__"] + [n for m in _LAYERS for n in m.__all__]
