"""Config serialization: typed dict round-trips, JSON/TOML files, dotted overrides.

This module is the data layer under the declarative API: every frozen config
dataclass in :mod:`repro.config` round-trips losslessly through

* :func:`config_to_dict` / :func:`config_from_dict` — plain-dict form with
  strict unknown-key rejection and typed coercion (JSON/TOML lists become the
  dataclass' tuples, ints widen to floats where the field is a float, nested
  mappings become the nested config dataclass);
* :func:`load_config_file` / :func:`save_config_file` — ``.json`` and
  ``.toml`` files (TOML reading uses :mod:`tomllib` and therefore Python
  ≥ 3.11; JSON works everywhere; TOML files omit ``None``-valued keys, which
  is lossless because every optional field defaults to ``None``);
* :func:`apply_overrides` — dotted-path field overrides
  (``{"serving.batch_wait_ms": "5"}``) with CLI-string coercion, used to merge
  preset → config file → ``--set`` flags in exactly that precedence.

The functions are generic over dataclasses so new config classes get
serialization for free by inheriting :class:`repro.config.SerializableConfig`.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import types
import typing
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "config_to_dict",
    "config_from_dict",
    "coerce_value",
    "parse_cli_value",
    "split_override",
    "apply_overrides",
    "deep_merge",
    "load_config_file",
    "save_config_file",
    "dumps_toml",
    "loads_toml",
    "toml_supported",
]


# -- dict round-trip ---------------------------------------------------------
def config_to_dict(config: Any) -> dict[str, Any]:
    """Recursively convert a config dataclass to plain JSON/TOML-able types."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        raise TypeError(f"expected a config dataclass instance, got {type(config).__name__}")
    return {
        field.name: _value_to_plain(getattr(config, field.name), f"{type(config).__name__}.{field.name}")
        for field in dataclasses.fields(config)
    }


def _value_to_plain(value: Any, where: str) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return config_to_dict(value)
    if isinstance(value, (list, tuple)):
        return [_value_to_plain(item, where) for item in value]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"{where}: unsupported config value type {type(value).__name__}")


def config_from_dict(cls: type, data: Any) -> Any:
    """Build ``cls`` from a plain mapping; strict on unknown keys, typed coercion.

    Keys absent from ``data`` keep the dataclass defaults, unknown keys raise
    ``ValueError`` listing the valid field names, and values of the wrong
    shape raise ``TypeError`` naming the offending field.
    """
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise TypeError(f"{cls.__name__} expects a mapping, got {type(data).__name__}: {data!r}")
    hints = _field_types(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(sorted(hints))}"
        )
    kwargs = {
        name: coerce_value(hints[name], data[name], f"{cls.__name__}.{name}") for name in data
    }
    return cls(**kwargs)


def _field_types(cls: type) -> dict[str, Any]:
    """Field name → resolved type for a dataclass (annotations are strings)."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in dataclasses.fields(cls)}


def coerce_value(tp: Any, value: Any, where: str) -> Any:
    """Coerce ``value`` to type ``tp``, raising ``TypeError`` on mismatch."""
    if dataclasses.is_dataclass(tp):
        if isinstance(value, tp):
            return value
        if isinstance(value, Mapping):
            return config_from_dict(tp, value)
        raise TypeError(f"{where}: expected a {tp.__name__} or mapping, got {type(value).__name__}")

    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = typing.get_args(tp)
        if value is None:
            if type(None) in args:
                return None
            raise TypeError(f"{where}: None is not allowed")
        for arg in args:
            if arg is type(None):
                continue
            try:
                return coerce_value(arg, value, where)
            except TypeError:
                continue
        raise TypeError(
            f"{where}: {value!r} does not match any of {[_type_name(a) for a in args]}"
        )

    if origin is tuple:
        if isinstance(value, str) or not isinstance(value, (list, tuple)):
            raise TypeError(f"{where}: expected a list/tuple, got {type(value).__name__}")
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(coerce_value(args[0], item, where) for item in value)
        if args and len(args) != len(value):
            raise TypeError(f"{where}: expected {len(args)} elements, got {len(value)}")
        if not args:
            return tuple(value)
        return tuple(coerce_value(arg, item, where) for arg, item in zip(args, value))

    if tp is bool:
        if isinstance(value, bool):
            return value
        raise TypeError(f"{where}: expected a bool, got {type(value).__name__}: {value!r}")
    if tp is int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        raise TypeError(f"{where}: expected an int, got {type(value).__name__}: {value!r}")
    if tp is float:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
        raise TypeError(f"{where}: expected a float, got {type(value).__name__}: {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise TypeError(f"{where}: expected a str, got {type(value).__name__}: {value!r}")
    if isinstance(tp, type) and isinstance(value, tp):
        return value
    raise TypeError(f"{where}: cannot coerce {value!r} to {_type_name(tp)}")


def _type_name(tp: Any) -> str:
    return getattr(tp, "__name__", str(tp))


# -- dotted-path overrides ---------------------------------------------------
def split_override(expression: str) -> tuple[str, str]:
    """Split one ``--set`` expression ``"a.b=value"`` into path and raw value."""
    path, sep, raw = expression.partition("=")
    if not sep or not path.strip():
        raise ValueError(f"override must look like 'section.field=value', got {expression!r}")
    return path.strip(), raw.strip()


def parse_cli_value(raw: str, tp: Any, where: str) -> Any:
    """Parse a CLI string into type ``tp`` (JSON-ish literals, comma lists)."""
    text = raw.strip()
    if _accepts_none(tp) and text.lower() in ("none", "null", ""):
        return None
    target = _strip_optional(tp)
    if typing.get_origin(target) is tuple:
        items = [part.strip() for part in text.strip("[]()").split(",") if part.strip()]
        return coerce_value(tp, [_parse_scalar(item) for item in items], where)
    value = _parse_scalar(text)
    if target is str and not isinstance(value, str):
        value = text  # a str field keeps "123" / "true" as typed
    return coerce_value(tp, value, where)


def _parse_scalar(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # bare string, e.g. drop-oldest


def _accepts_none(tp: Any) -> bool:
    return typing.get_origin(tp) in (typing.Union, types.UnionType) and type(None) in typing.get_args(tp)


def _strip_optional(tp: Any) -> Any:
    if _accepts_none(tp):
        remaining = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if len(remaining) == 1:
            return remaining[0]
    return tp


def apply_overrides(config: Any, overrides: Mapping[str, Any]) -> Any:
    """Return a copy of ``config`` with dotted-path field overrides applied.

    String values are parsed CLI-style (``"5"`` → 5, ``"128,96"`` → a tuple,
    ``"none"`` → None for optional fields); non-string values are coerced
    directly.  Unknown paths raise ``ValueError`` listing the valid fields of
    the config they dead-end in.
    """
    for path, value in overrides.items():
        config = _apply_one(config, path, path.split("."), value)
    return config


def _apply_one(config: Any, full_path: str, parts: list[str], value: Any) -> Any:
    name = parts[0]
    hints = _field_types(type(config))
    if name not in hints:
        raise ValueError(
            f"unknown config path {full_path!r}: {type(config).__name__} has no field "
            f"{name!r}; valid fields: {', '.join(sorted(hints))}"
        )
    if len(parts) == 1:
        tp = hints[name]
        where = f"{type(config).__name__}.{name}"
        coerced = parse_cli_value(value, tp, where) if isinstance(value, str) else coerce_value(tp, value, where)
        return dataclasses.replace(config, **{name: coerced})
    child = getattr(config, name)
    if not dataclasses.is_dataclass(child):
        raise ValueError(
            f"config path {full_path!r} descends into {type(config).__name__}.{name}, "
            f"which is not a nested config"
        )
    return dataclasses.replace(config, **{name: _apply_one(child, full_path, parts[1:], value)})


def deep_merge(base: Mapping[str, Any], overlay: Mapping[str, Any]) -> dict[str, Any]:
    """Merge ``overlay`` onto ``base``: nested mappings merge, scalars/lists replace."""
    merged = dict(base)
    for key, value in overlay.items():
        if key in merged and isinstance(merged[key], Mapping) and isinstance(value, Mapping):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


# -- files -------------------------------------------------------------------
def toml_supported() -> bool:
    """Whether TOML files can be *read* on this interpreter (needs tomllib/tomli)."""
    return _toml_loader() is not None


def _toml_loader():
    try:
        import tomllib

        return tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python 3.10
        try:
            import tomli  # type: ignore[import-not-found]

            return tomli
        except ModuleNotFoundError:
            return None


def loads_toml(text: str) -> dict[str, Any]:
    """Parse TOML text (raises ``RuntimeError`` when no TOML reader exists)."""
    loader = _toml_loader()
    if loader is None:  # pragma: no cover - Python 3.10 without tomli
        raise RuntimeError(
            "TOML parsing requires tomllib (Python >= 3.11) or the tomli package"
        )
    return loader.loads(text)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Load a ``.json`` or ``.toml`` config file into a plain dict."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    elif suffix == ".toml":
        loader = _toml_loader()
        if loader is None:  # pragma: no cover - Python 3.10 without tomli
            raise RuntimeError(
                f"reading {path} requires tomllib (Python >= 3.11) or the tomli package; "
                "use a .json config file instead"
            )
        with path.open("rb") as handle:
            data = loader.load(handle)
    else:
        raise ValueError(f"unsupported config file suffix {path.suffix!r} (use .json or .toml)")
    if not isinstance(data, dict):
        raise TypeError(f"{path} must contain a mapping at top level, got {type(data).__name__}")
    return data


def save_config_file(path: str | Path, data: Mapping[str, Any]) -> Path:
    """Write a plain config dict to ``.json`` or ``.toml`` (by suffix)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    elif suffix == ".toml":
        path.write_text(dumps_toml(data), encoding="utf-8")
    else:
        raise ValueError(f"unsupported config file suffix {path.suffix!r} (use .json or .toml)")
    return path


def dumps_toml(data: Mapping[str, Any], _prefix: str = "") -> str:
    """Serialize a nested config dict as TOML.

    Covers exactly the value types config dicts contain: strings, bools,
    ints, floats, flat lists and nested mappings (emitted as ``[tables]``).
    ``None`` values are omitted — TOML has no null; on load the field falls
    back to its dataclass default, which is ``None`` for every optional field.
    """
    scalars: list[str] = []
    tables: list[str] = []
    for key, value in data.items():
        if isinstance(value, Mapping):
            name = f"{_prefix}.{key}" if _prefix else key
            body = dumps_toml(value, name)
            tables.append(f"[{name}]\n{body}" if body else f"[{name}]\n")
        elif value is None:
            continue
        else:
            scalars.append(f"{key} = {_toml_value(value, key)}")
    front = "\n".join(scalars)
    if front:
        front += "\n"
    if tables:
        front += ("\n" if front else "") + "\n".join(tables)
    return front


def _toml_value(value: Any, key: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        text = repr(float(value))
        if "inf" in text or "nan" in text:
            raise ValueError(f"cannot serialize non-finite float for key {key!r}")
        return text
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item, key) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} for key {key!r} as TOML")
