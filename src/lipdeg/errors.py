"""Error types shared across the package.

Everything derives from LipdegError (a ValueError) so callers can catch
domain failures in one place; the CLI maps LipdegError to exit code 1 and
anything argparse rejects to exit code 2.
"""

from __future__ import annotations

__all__ = [
    "LipdegError",
    "DimensionMismatch",
    "ShapeError",
    "UnsupportedPairing",
    "UnsupportedPresentation",
    "PresetLookupError",
    "DegenerateForm",
    "UndefinedExponent",
    "ResolutionError",
    "BandRangeError",
    "MeanObstruction",
    "NotClosed",
    "ParameterError",
    "WindowError",
    "GeometryError",
    "EmptyData",
    "OutOfMemory",
]


class LipdegError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(LipdegError):
    """Ambient dimensions, grid dimensions or index ranges disagree."""


class ShapeError(LipdegError):
    """An array or index set has the wrong shape or ordering."""


class UnsupportedPairing(LipdegError):
    """Middle-degree pairing asked for outside its domain (2p != n, odd p)."""


class UnsupportedPresentation(LipdegError):
    """Ring presentation outside the supported shape for this operation."""


class PresetLookupError(LipdegError):
    """Unknown preset name."""


class DegenerateForm(LipdegError):
    """A quadratic form that must be nondegenerate has a kernel."""


class UndefinedExponent(LipdegError):
    """Exponent extraction needs |degree| != 1."""


class ResolutionError(LipdegError):
    """Grid resolution invalid (not a power of two, not divisible, ...)."""


class BandRangeError(LipdegError):
    """Dyadic band index outside the partition's range."""


class MeanObstruction(LipdegError):
    """A primitive was requested for a form with a nonzero zero mode."""


class NotClosed(LipdegError):
    """A closed form was required but d(a) != 0 beyond tolerance."""


class ParameterError(LipdegError):
    """Scalar parameter outside its documented domain."""


class WindowError(LipdegError):
    """Cutoff window is empty or inverted."""


class GeometryError(LipdegError):
    """Geometry constants outside their valid range."""


class EmptyData(LipdegError):
    """An operation received no data to work on."""


class OutOfMemory(LipdegError):
    """An allocation failed: the input needs more memory than the process may use."""
