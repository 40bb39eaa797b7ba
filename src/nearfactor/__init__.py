"""Modular (near-)one-factorizations of complete graphs and perfect pairs."""

from .numtheory import *
from .factors import *
from .pairing import *
from .product import *
from .equivalence import *
from .oracle import *
from . import equivalence, factors, numtheory, oracle, pairing, product

__version__ = "0.1.0"

__all__ = [
    *numtheory.__all__,
    *factors.__all__,
    *pairing.__all__,
    *product.__all__,
    *equivalence.__all__,
    *oracle.__all__,
    "__version__",
]
