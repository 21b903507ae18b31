"""Numerics for half-form corrected quantization of toric Kahler manifolds
along Mabuchi geodesic rays."""

__version__ = "0.1.0"


def warn(name, msg, *args):
    """Log msg % args as a warning of the logger `name`.  The first warning
    imports logging and gives the package logger its NullHandler: the library
    logs (a budget that stops an integral) but leaves output to the caller."""
    import logging
    package = logging.getLogger(__name__)
    if not any(type(h) is logging.NullHandler for h in package.handlers):
        package.addHandler(logging.NullHandler())
    logging.getLogger(name).warning(msg, *args)
