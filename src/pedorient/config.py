"""Config dataclasses from INI text and checkpoint JSON, and back to JSON.

Both readers pass each value through :func:`coerce`, which reads it as
its field's annotation, so they accept and reject the same values.
"""

import dataclasses
import math
import typing

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def coerce(value, tp):
    """``value`` as the annotated type ``tp``: bool, int, float or a tuple.

    Strings are INI text: booleans as 1/0, true/false, yes/no or on/off,
    tuples as comma or space separated items, and tuples of pairs as
    ``a:b,c:d``.  Other values must already have the JSON form of ``tp``.
    A float must be finite.
    """
    if isinstance(value, str):
        text = value.strip()
        if tp is bool:
            value = _BOOLS.get(text.lower(), text)
        elif tp in (int, float):
            value = tp(text)
        elif typing.get_origin(typing.get_args(tp)[0]) is tuple:
            value = [part.split(":") for part in text.split(",") if part.strip()]
        else:
            value = text.replace(",", " ").split()
    if tp in (bool, int, float):
        if type(value) is not tp and (tp, type(value)) != (float, int):
            raise ValueError(f"expected {tp.__name__}, got {value!r}")
        if tp is float and not math.isfinite(value):
            raise ValueError(f"expected a finite float, got {value!r}")
        return tp(value)
    args = typing.get_args(tp)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"expected a non-empty list, got {value!r}")
    if args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    if len(value) != len(args):
        raise ValueError(f"expected {len(args)} values, got {value!r}")
    return tuple(coerce(v, a) for v, a in zip(value, args))


def from_mapping(cls, values):
    """Build ``cls`` from a mapping that names every field exactly once;
    raise ValueError on a missing or unknown key or a mistyped value."""
    types = typing.get_type_hints(cls)
    keys = values.keys() if isinstance(values, dict) else set()
    if keys != types.keys():
        raise ValueError(f"{cls.__name__}: unknown keys {sorted(keys - types.keys())},"
                         f" missing keys {sorted(types.keys() - keys)}")
    kwargs = {}
    for name, value in values.items():
        try:
            kwargs[name] = coerce(value, types[name])
        except ValueError as e:
            raise ValueError(f"{cls.__name__}.{name}: {e}") from None
    return cls(**kwargs)


def snapshot(cfg) -> dict:
    """JSON-ready dict of a config dataclass, tuples turned into lists."""
    d = dataclasses.asdict(cfg)
    for k, v in d.items():
        if isinstance(v, tuple):
            d[k] = list(list(x) if isinstance(x, tuple) else x for x in v)
    return d
