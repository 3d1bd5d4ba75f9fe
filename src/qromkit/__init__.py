"""Toffoli-optimized table-lookup circuit synthesis, verification, and costing.

Exports every name in its modules' ``__all__``, each listed where it is defined.
"""

from . import baselines, circuit, costs, gatefile, iteration, qrom, simulate, tablefile

# Joined before the star imports, which rebind ``simulate`` to the function.
__all__ = [
    name
    for module in (circuit, gatefile, iteration, qrom, baselines, costs, simulate, tablefile)
    for name in module.__all__
]

from .circuit import *
from .gatefile import *
from .iteration import *
from .qrom import *
from .baselines import *
from .costs import *
from .simulate import *
from .tablefile import *

__version__ = "0.1.0"
