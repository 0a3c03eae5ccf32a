"""Field checks shared by the config dataclasses, whose values come from YAML files."""

import dataclasses
import math
import numbers


def check_field_types(cfg, error=ValueError):
    """Raise error for an int field that is not an integer or a float field that is not finite."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if f.type is int and not (number and isinstance(value, numbers.Integral)):
            raise error(f"{f.name} must be an integer, got {value!r}")
        if f.type is float and not (number and math.isfinite(value)):
            raise error(f"{f.name} must be a finite number, got {value!r}")
