"""Exception types shared across the package, and the config checks that raise ConfigError."""
import math


class Pu6Error(Exception):
    """Base class for all errors raised by this package."""


class ComplexFrequencies(Pu6Error):
    """The characteristic cubic has complex or non-positive roots (non-oscillatory regime)."""


class GammaZero(Pu6Error):
    """An operation requiring gamma != 0 was attempted at gamma = 0."""


class DegenerateFrequencies(Pu6Error):
    """Frequencies are (nearly) degenerate; the requested expansion does not exist."""


class SingularCombination(Pu6Error):
    """A coefficient combination hits a vanishing denominator (degenerate for some mode pair)."""


class SingularModeMatrix(Pu6Error):
    """The mode-matching linear system is singular (signals misclassified degeneracy)."""


class ComplexBranch(Pu6Error):
    """A representation branch requires the square root of a negative radicand."""


class InvalidPermutation(Pu6Error):
    """Index triples do not form the permutation structure a representation requires."""


class ZeroDenominator(Pu6Error):
    """A free choice puts a zero in a denominator of the representation formulas."""


class ZeroKinetic(Pu6Error):
    """A kinetic coefficient a_i = 0 makes the Legendre transform undefined."""


class EquivalenceFailure(Pu6Error):
    """A second-order equation is neither a sixth-order oscillator equation nor trivially zero."""

    def __init__(self, index: int, residual: float, message: str = ""):
        self.index = index
        self.residual = residual
        super().__init__(
            message or f"equation {index}: max residual {residual:.3e} "
            "is neither oscillator-equivalent nor trivially vanishing"
        )


class NonFinite(Pu6Error):
    """The integrated state overflowed (divergent degenerate mode or unstable interaction)."""


class ConfigError(Pu6Error):
    """A run configuration is malformed."""


def config_object(value, name: str) -> dict:
    """``value`` itself when it is a JSON object; ConfigError otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def config_value(value, name: str, kind: type = float, shape: tuple = (), minimum=None):
    """``value`` as a finite number of ``kind`` (float or int), or as nested tuples of ``shape``.

    Booleans are refused, and so is a fraction for an int; with ``minimum``
    every number must be at least that.  Anything else is a ConfigError
    naming ``name``.
    """
    if shape:
        if not (isinstance(value, (list, tuple)) and len(value) == shape[0]):
            raise ConfigError(f"{name} must be a list of {shape[0]}, got {value!r}")
        return tuple(
            config_value(v, f"{name}[{i}]", kind, shape[1:], minimum) for i, v in enumerate(value)
        )
    try:
        out = kind(value)
        exact = not isinstance(value, bool) and (out == value or not isinstance(value, float))
        if exact and math.isfinite(out) and (minimum is None or out >= minimum):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a finite real"
    at_least = "" if minimum is None else f" >= {minimum}"
    raise ConfigError(f"{name} must be {what}{at_least}, got {value!r}")
