"""Exact tooling for equivalence-query learning with random counterexamples.

The package computes Littlestone dimension, selects equivalence queries
by maximizing the minimum expected dimension drop against an adversarial
target, certifies the structural facts that make that strategy cheap
(opposite edge weights summing to at least 1, no light cycles, query
rank at least 1/2), runs and measures the resulting learner both exactly
and by seeded simulation, extends it to countable classes under a target
prior via staged prefixes, and builds dimension-sized sample compression
schemes with d + 1 reconstruction functions. All probability and weight
arithmetic is exact rational arithmetic.
"""

from . import compression, concepts, generate, learner, littlestone, querygraph, staged
from .compression import *
from .concepts import *
from .generate import *
from .learner import *
from .littlestone import *
from .querygraph import *
from .staged import *

__version__ = "0.1.0"

# the union of the module lists; thicket.cli stays outside, since it
# imports __version__ from here
__all__ = [
    *compression.__all__,
    *concepts.__all__,
    *generate.__all__,
    *learner.__all__,
    *littlestone.__all__,
    *querygraph.__all__,
    *staged.__all__,
    "__version__",
]
