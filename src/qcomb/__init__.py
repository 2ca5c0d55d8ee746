"""Exact q-analogue combinatorics.

q-multinomial coefficients, inversion statistics of multiset permutations,
Sylvester denumerants, and cell decompositions of flag spaces over prime
fields, with brute-force oracles for every identity at desk scale.
"""

from sys import modules as _modules

from .errors import *
from .polycore import *
from .qanalogue import *
from .denumerant import *
from .inversions import *
from .flagcells import *

__version__ = "0.1.0"

# Each module's own `__all__` is what the package exports.  The lists are read
# from sys.modules, because the function `denumerant` shadows its submodule here.
__all__ = [name for module in ("errors", "polycore", "qanalogue", "denumerant", "inversions", "flagcells")
           for name in _modules[f"{__name__}.{module}"].__all__]
