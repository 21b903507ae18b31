"""Numerics for half-form corrected quantization of toric Kahler manifolds
along Mabuchi geodesic rays."""

import logging

__version__ = "0.1.0"

# the library logs (a budget that stops an integral) but leaves the output
# to the application
logging.getLogger(__name__).addHandler(logging.NullHandler())
