"""Serialize scenarios to/from plain dicts, YAML, and JSON.

A scenario is data: :func:`scenario_to_dict` emits nested primitives
(tuples become lists, fields equal to their defaults are omitted so the
round-trip is canonical), and :func:`scenario_from_dict` rebuilds the
frozen spec tree, aggregating *every* decode problem -- unknown keys,
wrong shapes, missing required fields -- into one
:class:`~repro.scenario.errors.ScenarioValidationError` with precise
paths, exactly like semantic validation.

YAML support is gated on PyYAML: the repo's core never imports it, and
:func:`from_yaml`/:func:`to_yaml` raise a clear error naming the
missing dependency when it is absent.  JSON works everywhere
(:func:`load_scenario` picks the format from the file suffix).
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.scenario.errors import (
    ScenarioValidationError,
    ValidationIssue,
    join_path,
)
from repro.scenario.spec import Scenario

__all__ = [
    "scenario_to_dict",
    "scenario_from_dict",
    "to_yaml",
    "from_yaml",
    "load_scenario",
    "save_scenario",
]


# ---------------------------------------------------------------------------
# dict encoding
# ---------------------------------------------------------------------------


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            default = _field_default(f)
            if field_value == default and not isinstance(default, _NoDefault):
                continue
            out[f.name] = _encode(field_value)
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


class _NoDefault:
    pass


_NO_DEFAULT = _NoDefault()


def _field_default(f: dataclasses.Field) -> Any:
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        return f.default_factory()  # type: ignore[misc]
    return _NO_DEFAULT


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Nested-primitive form of a scenario (defaults omitted)."""
    return _encode(scenario)


# ---------------------------------------------------------------------------
# dict decoding (aggregating errors)
# ---------------------------------------------------------------------------


#: Stands in for a value that could not be decoded (its issue is recorded).
_FAILED = object()


def _has_failed(value: Any) -> bool:
    items = value if isinstance(value, tuple) else (value,)
    return any(item is _FAILED for item in items)


def _validate_parts(path: str, value: Any,
                    issues: List[ValidationIssue]) -> None:
    """Semantic issues of the decoded spec objects in ``value``."""
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            _validate_parts(f"{path}[{i}]", item, issues)
    elif dataclasses.is_dataclass(value):
        value.validate_into(path, issues)


def _decode(cls: type, data: Any, path: str, issues: List[ValidationIssue]):
    """Rebuild dataclass ``cls`` from ``data``, appending issues.

    Returns ``_FAILED`` if ``data`` or a part of it cannot be decoded.
    The parts of a failed node that did decode are validated on their
    own, so one malformed value does not hide the rest's issues.
    """
    if not isinstance(data, dict):
        issues.append(ValidationIssue(
            path or "<root>",
            f"expected a mapping for {cls.__name__}, "
            f"got {type(data).__name__}"))
        return _FAILED
    hints = typing.get_type_hints(cls)
    field_names = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in field_names:
            issues.append(ValidationIssue(
                join_path(path, str(key)),
                f"unknown field for {cls.__name__} "
                f"(known: {sorted(field_names)})"))
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            if isinstance(_field_default(f), _NoDefault):
                issues.append(ValidationIssue(
                    join_path(path, f.name), "required field is missing"))
            continue
        kwargs[f.name] = _decode_value(
            hints[f.name], data[f.name], join_path(path, f.name), issues)
    if not any(_has_failed(value) for value in kwargs.values()):
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            issues.append(ValidationIssue(path or "<root>", str(exc)))
    for name, value in kwargs.items():
        _validate_parts(join_path(path, name), value, issues)
    return _FAILED


def _decode_value(hint: Any, value: Any, path: str,
                  issues: List[ValidationIssue]):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        non_none = [a for a in args if a is not type(None)]
        if value is None:
            return None
        # Optional[Spec] recurses; unions of primitives pass through and
        # are checked semantically by Scenario.validate().
        if len(non_none) == 1:
            return _decode_value(non_none[0], value, path, issues)
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            issues.append(ValidationIssue(
                path, f"expected a list, got {type(value).__name__}"))
            return ()
        element_hint = args[0] if args else Any
        return tuple(
            _decode_value(element_hint, item, f"{path}[{i}]", issues)
            for i, item in enumerate(value)
        )
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _decode(hint, value, path, issues)
    return value


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Decode and semantically validate; aggregate every problem."""
    issues: List[ValidationIssue] = []
    scenario = _decode(Scenario, data, "", issues)
    if scenario is not _FAILED:
        # Report semantic problems alongside any decode problems -- one
        # failure should not mask the rest of the spec's issues.
        issues.extend(scenario.validate())
    if issues:
        raise ScenarioValidationError(issues)
    return scenario


# ---------------------------------------------------------------------------
# YAML / JSON files
# ---------------------------------------------------------------------------


def _yaml():
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-specific
        raise ImportError(
            "scenario YAML support needs the optional 'pyyaml' package "
            "(pip install pyyaml, or use JSON specs instead)"
        ) from exc
    return yaml


def to_yaml(scenario: Scenario) -> str:
    return _yaml().safe_dump(
        scenario_to_dict(scenario), sort_keys=False, default_flow_style=False)


def from_yaml(text: str) -> Scenario:
    data = _yaml().safe_load(text)
    if data is None:
        data = {}
    return scenario_from_dict(data)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a ``.yaml``/``.yml`` or ``.json`` scenario spec."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        return from_yaml(text)
    if path.suffix == ".json":
        return scenario_from_dict(json.loads(text))
    raise ValueError(
        f"unknown scenario format {path.suffix!r} for {path} "
        "(expected .yaml, .yml, or .json)")


def save_scenario(scenario: Scenario, path: Union[str, Path],
                  validate: bool = True) -> Path:
    """Write a scenario spec; the format follows the suffix."""
    if validate:
        scenario.check()
    path = Path(path)
    if path.suffix in (".yaml", ".yml"):
        text = to_yaml(scenario)
    elif path.suffix == ".json":
        text = json.dumps(scenario_to_dict(scenario), indent=2) + "\n"
    else:
        raise ValueError(
            f"unknown scenario format {path.suffix!r} for {path} "
            "(expected .yaml, .yml, or .json)")
    path.write_text(text, encoding="utf-8")
    return path
