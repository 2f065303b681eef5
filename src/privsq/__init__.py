"""privsq: private states, entropic identities, and variational
squashed-entanglement upper bounds for finite-dimensional quantum systems.

All entropies are in bits; flat indices are row-major over the listed
system order; randomness flows only through explicit PCG64 seeds.

The package re-exports its six core modules: every name that ``layout``,
``tensor``, ``metric``, ``entropy``, ``private_states`` or ``squashed``
lists in its ``__all__`` is also ``privsq.<name>``, and those lists, in
that order, make up ``privsq.__all__``.  ``stateio``, ``suites`` and
``cli`` are imported by name.
"""

__version__ = "0.1.0"

from . import entropy, layout, metric, private_states, squashed, tensor
from .layout import *
from .tensor import *
from .metric import *
from .entropy import *
from .private_states import *
from .squashed import *

__all__ = ["__version__", *layout.__all__, *tensor.__all__, *metric.__all__,
           *entropy.__all__, *private_states.__all__, *squashed.__all__]
