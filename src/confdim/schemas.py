"""Versioned JSON shapes for the command-line tools, plus deterministic output.

Parsers take already-decoded JSON values and build library objects, raising
``SchemaError`` whose message starts with the path of the offending field
(``$.preimages.g1[0].degree`` style).  Rendering is byte-deterministic: dict
keys keep their construction order and every float prints with ``%.12g``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import AbstractSet, Optional, Sequence

import numpy as np

from confdim.covers import _cell_cap, essential_cycle_family, grid_annulus
from confdim.modulus import CombCurve, Cover, CurveFamily, explicit_family
from confdim.multicurve import (
    INESSENTIAL,
    PERIPHERAL,
    Essential,
    MulticurveSpec,
    PreimageComponent,
)

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input does not match the documented JSON shape."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _as_object(value, path: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    unknown = set(value) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    return value


def _check_version(obj: dict, path: str) -> None:
    if "schema_version" not in obj:
        raise SchemaError(f"{path}.schema_version", "missing required field")
    version = obj["schema_version"]
    if version is True or version is False or not isinstance(version, int):
        raise SchemaError(f"{path}.schema_version", "must be an integer")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}.schema_version", f"unknown version {version}, expected {SCHEMA_VERSION}"
        )


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if value is True or value is False or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    return value


def _parse_component(value, path: str, curve_names: AbstractSet[str]) -> PreimageComponent:
    obj = _as_object(value, path, {"degree", "class"})
    if "degree" not in obj:
        raise SchemaError(f"{path}.degree", "missing required field")
    if "class" not in obj:
        raise SchemaError(f"{path}.class", "missing required field")
    degree = _as_int(obj["degree"], f"{path}.degree", minimum=1)
    try:
        float(degree)
    except OverflowError:
        raise SchemaError(f"{path}.degree", "too large to convert to a float") from None
    cls = obj["class"]
    if isinstance(cls, str):
        if cls not in (PERIPHERAL, INESSENTIAL):
            raise SchemaError(
                f"{path}.class",
                f"expected {PERIPHERAL!r}, {INESSENTIAL!r}, or an essential object, got {cls!r}",
            )
        classification = cls
    else:
        cls_obj = _as_object(cls, f"{path}.class", {"essential"})
        if "essential" not in cls_obj:
            raise SchemaError(f"{path}.class.essential", "missing required field")
        target = cls_obj["essential"]
        if not isinstance(target, str) or target not in curve_names:
            raise SchemaError(
                f"{path}.class.essential", f"must name one of the declared curves, got {target!r}"
            )
        classification = Essential(target)
    return PreimageComponent(degree=degree, classification=classification)


def parse_multicurve(data, where: str = "$") -> MulticurveSpec:
    """Build a multicurve with its preimage data from a decoded JSON object."""
    obj = _as_object(data, where, {"schema_version", "curves", "map_degree", "preimages"})
    _check_version(obj, where)

    curves_raw = obj.get("curves")
    if not isinstance(curves_raw, list) or not curves_raw:
        raise SchemaError(f"{where}.curves", "expected a non-empty list of curve names")
    names = []
    seen = set()
    for i, name in enumerate(curves_raw):
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}.curves[{i}]", f"expected a non-empty string, got {name!r}")
        if name in seen:
            raise SchemaError(f"{where}.curves[{i}]", f"duplicate curve name {name!r}")
        names.append(name)
        seen.add(name)

    map_degree = None
    if "map_degree" in obj and obj["map_degree"] is not None:
        map_degree = _as_int(obj["map_degree"], f"{where}.map_degree", minimum=1)

    preimages_raw = obj.get("preimages", {})
    preimages_obj = _as_object(preimages_raw, f"{where}.preimages", seen)
    preimages = {}
    for name, components in preimages_obj.items():
        comp_path = f"{where}.preimages.{name}"
        if not isinstance(components, list):
            raise SchemaError(comp_path, "expected a list of components")
        preimages[name] = tuple(
            _parse_component(comp, f"{comp_path}[{i}]", seen)
            for i, comp in enumerate(components)
        )

    try:
        return MulticurveSpec(curves=tuple(names), preimages=preimages, map_degree=map_degree)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from exc


def parse_catalog(
    data, base_dir: Optional[str] = None, where: str = "$"
) -> tuple[MulticurveSpec, ...]:
    """A non-empty list of multicurves, inline or by file reference."""
    obj = _as_object(data, where, {"schema_version", "multicurves"})
    _check_version(obj, where)
    entries = obj.get("multicurves")
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"{where}.multicurves", "expected a non-empty list")

    specs = []
    for i, entry in enumerate(entries):
        entry_path = f"{where}.multicurves[{i}]"
        if isinstance(entry, str):
            ref = entry if base_dir is None else os.path.join(base_dir, entry)
            try:
                with open(ref, "r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except OSError as exc:
                raise SchemaError(entry_path, f"cannot read {ref!r}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise SchemaError(entry_path, f"invalid JSON in {ref!r}: {exc}") from exc
        specs.append(parse_multicurve(entry, where=entry_path))
    return tuple(specs)


def parse_cover_family(data, where: str = "$") -> tuple[Cover, CurveFamily]:
    """A cover with either an explicit curve list or a named oracle family."""
    obj = _as_object(data, where, {"schema_version", "pieces", "curves", "family"})
    _check_version(obj, where)
    family_raw = obj.get("family", "explicit")

    if isinstance(family_raw, str):
        if family_raw != "explicit":
            raise SchemaError(f"{where}.family", f"unknown family kind {family_raw!r}")
        if "pieces" not in obj:
            raise SchemaError(f"{where}.pieces", "missing required field")
        pieces = _as_int(obj["pieces"], f"{where}.pieces", minimum=1)
        _cell_cap(pieces, "an explicit cover")
        curves_raw = obj.get("curves")
        if not isinstance(curves_raw, list) or not curves_raw:
            raise SchemaError(f"{where}.curves", "expected a non-empty list of curves")
        curves = []
        for i, incidence in enumerate(curves_raw):
            curve_path = f"{where}.curves[{i}]"
            if not isinstance(incidence, list) or not incidence:
                raise SchemaError(curve_path, "expected a non-empty list of piece indices")
            indices = [
                _as_int(piece, f"{curve_path}[{j}]", minimum=0)
                for j, piece in enumerate(incidence)
            ]
            bad = [piece for piece in indices if piece >= pieces]
            if bad:
                raise SchemaError(curve_path, f"piece {bad[0]} outside cover of {pieces} pieces")
            curves.append(CombCurve(indices))
        return Cover(piece_count=pieces), explicit_family(curves)

    family_obj = _as_object(
        family_raw, f"{where}.family", {"oracle", "circumference", "height"}
    )
    oracle_name = family_obj.get("oracle")
    if oracle_name != "annulus":
        raise SchemaError(f"{where}.family.oracle", f"unknown oracle {oracle_name!r}")
    if "circumference" not in family_obj:
        raise SchemaError(f"{where}.family.circumference", "missing required field")
    if "height" not in family_obj:
        raise SchemaError(f"{where}.family.height", "missing required field")
    circumference = _as_int(family_obj["circumference"], f"{where}.family.circumference", 3)
    height = _as_int(family_obj["height"], f"{where}.family.height", 1)
    if "curves" in obj:
        raise SchemaError(f"{where}.curves", "explicit curves cannot accompany an oracle family")
    annulus = grid_annulus(circumference, height)
    if "pieces" in obj:
        pieces = _as_int(obj["pieces"], f"{where}.pieces", minimum=1)
        if pieces != annulus.piece_count:
            raise SchemaError(
                f"{where}.pieces",
                f"annulus has {annulus.piece_count} pieces, got {pieces}",
            )
    return annulus.as_cover(), essential_cycle_family(annulus)


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot render non-finite number {value!r}")
    return f"{value:.12g}"


def _json_text(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} deterministically")


def render_json(value) -> str:
    """Serialize with construction-ordered keys and %.12g floats, plus newline."""
    return _json_text(value) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Comma-separated table with a header row and unix newlines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()
