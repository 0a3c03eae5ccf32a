"""Field checks shared by the config dataclasses, whose values come from YAML files."""

import dataclasses
import math
import numbers


def is_finite_number(value):
    """True for a real number (not a bool) that is finite as a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int too large for a float
        return False


def check_field_types(cfg, error=ValueError):
    """Raise error for an int field that is not an integer or a float field that is not finite."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if f.type is int and not integer:
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type is float and not is_finite_number(value):
            raise error(f"{f.name} must be a finite number, got {value!r}")
