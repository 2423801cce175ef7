"""Photon modes of a vacuum spherical cavity bounded by a perfect conductor.

Eigenfrequencies of the electric and magnetic multipole modes, normalized
mode fields carrying one photon of energy each, vector spherical harmonic
algebra, Wigner-matrix rotations, transition-scaling estimates, and the
catalog of bipartite entangled two-photon states.

Each module's ``__all__`` is the one list of its public names; the package
re-exports every one of them.
"""

from .angular import *
from .entangle import *
from .modes import *
from .rotations import *
from .selection_rules import *
from .specfun import *
from .verify import *

__version__ = "0.1.0"
