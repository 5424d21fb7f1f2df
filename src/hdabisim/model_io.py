"""The JSON model format shared by the CLI and the library loaders.

A model file looks like::

    {"cubes": [{"id": "x", "dim": 2, "d0": ["e1", "e2"], "d1": ["e3", "e4"]}, ...],
     "initial": "i",
     "events": ["a", "b"],
     "labels": {"x": [1, 2], ...},
     "frontier": ["x", ...]}

``d0``/``d1`` are positional: index k-1 holds the k-th lower/upper face.
``events`` and ``labels`` are optional; label entries are 1-based indices
into ``events``, sorted ascending.  ``frontier`` (optional) lists cubes whose
upper faces were omitted by truncation; only those may carry ``null`` inside
``d1``.  Unknown fields are rejected.

The loader fills the ``(dim, lower, upper)`` rows that `PrecubicalSet`
takes.  `dump_model` (and `dump_id_map`, for the unfolding's projection
sidecar) writes the bytes that ``json.dump(model_to_dict(...), handle,
indent=1)`` followed by a newline writes: one member per line, indented by
one space per level, items ending in ``","`` and keys followed by ``": "``,
empty arrays and objects as ``[]`` and ``{}``, and strings escaped to
ASCII.  They join strings escaped by the C
``json.encoder.encode_basestring_ascii`` instead of running ``json.dump``,
which with ``indent`` always takes the pure-Python encoder.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Mapping

from .core import HDA, EventSet, Labeling, ModelError, PrecubicalSet, Row

_MODEL_FIELDS = {"cubes", "initial", "events", "labels", "frontier"}
_CUBE_FIELDS = {"id", "dim", "d0", "d1"}
_STR, _STR_OR_NULL = {str}, {str, type(None)}


@dataclass
class LoadedModel:
    hda: HDA
    labeling: Labeling | None


def _parse_faces(raw: object, cube_id: str, key: str) -> tuple[str | None, ...]:
    if not isinstance(raw, list):
        raise ModelError(f"cube {cube_id!r}: {key} must be an array")
    out: list[str | None] = []
    for entry in raw:
        if entry is None:
            out.append(None)
        elif isinstance(entry, str):
            out.append(entry)
        else:
            raise ModelError(f"cube {cube_id!r}: {key} entries must be ids or null")
    return tuple(out)


def _parse_cube(raw: object) -> tuple[str, Row]:
    """One cube entry as (id, row), with every field check and its error
    message."""
    if not isinstance(raw, dict):
        raise ModelError("each cube must be an object")
    extra = set(raw) - _CUBE_FIELDS
    if extra:
        raise ModelError(f"unknown cube fields: {sorted(extra)}")
    cid = raw.get("id")
    dim = raw.get("dim")
    if not isinstance(cid, str) or not cid:
        raise ModelError("cube ids must be non-empty strings")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise ModelError(f"cube {cid!r}: dim must be a natural number")
    lower = _parse_faces(raw.get("d0", []), cid, "d0")
    upper = _parse_faces(raw.get("d1", []), cid, "d1")
    if any(f is None for f in lower):
        raise ModelError(f"cube {cid!r}: d0 entries may not be null")
    return cid, (dim, lower, upper)  # type: ignore[return-value]


def _rows_at_once(raw_cubes: list) -> tuple[dict[str, Row], list[str]] | None:
    """The rows of the cube entries and the ids of those with a null upper
    face (in file order, duplicates included), or None when some entry is
    not plain JSON of the expected types, which the checked path must see.

    Each check reads one field of every entry in a single C-level pass; an
    entry that passes them all is one `_parse_cube` accepts, as the same
    row.
    """
    if not set(map(type, raw_cubes)) <= {dict} or not all(
            map(_CUBE_FIELDS.issuperset, raw_cubes)):
        return None

    def field(key: str, default: object = None) -> list:
        return list(map(dict.get, raw_cubes, itertools.repeat(key),
                        itertools.repeat(default)))

    ids, dims = field("id"), field("dim")
    lower, upper = field("d0", []), field("d1", [])
    if not (set(map(type, ids)) <= _STR and all(ids)
            and set(map(type, dims)) <= {int} and min(dims, default=0) >= 0
            and set(map(type, lower)) <= {list}
            and set(map(type, upper)) <= {list}
            and set(map(type, itertools.chain.from_iterable(lower))) <= _STR):
        return None
    d1_types = set(map(type, itertools.chain.from_iterable(upper)))
    if not d1_types <= _STR_OR_NULL:
        return None
    rows = dict(zip(ids, zip(dims, map(tuple, lower), map(tuple, upper))))
    nulls = ([cid for cid, faces in zip(ids, upper) if None in faces]
             if type(None) in d1_types else [])
    return rows, nulls


def _is_label(tup: object) -> bool:
    return isinstance(tup, list) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in tup)


def model_from_dict(data: object) -> LoadedModel:
    if not isinstance(data, dict):
        raise ModelError("model must be a JSON object")
    unknown = set(data) - _MODEL_FIELDS
    if unknown:
        raise ModelError(f"unknown model fields: {sorted(unknown)}")
    if "cubes" not in data or "initial" not in data:
        raise ModelError("model requires 'cubes' and 'initial'")

    raw_cubes = data["cubes"]
    if not isinstance(raw_cubes, list):
        raise ModelError("'cubes' must be an array")
    parsed = _rows_at_once(raw_cubes)
    if parsed is not None:
        rows, nulls = parsed
    else:
        # Some entry is malformed (or of an unusual type): check entry by
        # entry, which raises the first error in file order.
        rows, nulls = {}, []
        for raw in raw_cubes:
            cid, row = _parse_cube(raw)
            rows[cid] = row
            if None in row[2]:
                nulls.append(cid)

    frontier_raw = data.get("frontier", [])
    if not isinstance(frontier_raw, list) or not all(
            isinstance(c, str) for c in frontier_raw):
        raise ModelError("'frontier' must be an array of cube ids")
    frontier = set(frontier_raw)
    for cid in nulls:
        if cid not in frontier:
            raise ModelError(
                f"cube {cid!r} has null upper faces but is not in 'frontier'")

    initial = data["initial"]
    if not isinstance(initial, str):
        raise ModelError("'initial' must be a cube id")
    if len(rows) != len(raw_cubes):
        # A later entry replaced an earlier one with its id.  Every entry was
        # accepted above, so each has a string id: name the first repeat.
        seen: set[str] = set()
        for raw in raw_cubes:
            if raw["id"] in seen:
                raise ModelError(f"duplicate cube id {raw['id']!r}")
            seen.add(raw["id"])
    space = PrecubicalSet(rows, frontier)
    hda = HDA(space, initial)

    labeling = None
    if "labels" in data and "events" not in data:
        raise ModelError("'labels' requires 'events'")
    if "events" in data:
        raw_events = data["events"]
        if not isinstance(raw_events, list) or not all(
                isinstance(e, str) for e in raw_events):
            raise ModelError("'events' must be an array of names")
        events = EventSet(tuple(raw_events))
        raw_labels = data.get("labels", {})
        if not isinstance(raw_labels, dict):
            raise ModelError("'labels' must be an object")
        tuples = raw_labels.values()
        if not (raw_labels.keys() <= rows.keys()
                and set(map(type, tuples)) <= {list}
                and set(map(type, itertools.chain.from_iterable(tuples)))
                <= {int}):
            # Name the first label in file order that the checks refuse.
            for cid, tup in raw_labels.items():
                if cid not in space:
                    raise ModelError(f"label for unknown cube {cid!r}")
                if not _is_label(tup):
                    raise ModelError(
                        f"label of {cid!r} must be an array of integers")
        labeling = Labeling(events, dict(zip(raw_labels, map(tuple, tuples))))
    return LoadedModel(hda, labeling)


def load_model(path: str | Path) -> LoadedModel:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Undecodable bytes, nesting too deep or integers too long to parse.
        raise ModelError(f"malformed JSON in {path}: {exc}") from exc
    return model_from_dict(data)


def model_to_dict(hda: HDA, labeling: Labeling | None = None) -> dict:
    space = hda.space
    rows = space.rows()
    out: dict = {
        "cubes": [
            {"id": cid, "dim": dim, "d0": list(lower), "d1": list(upper)}
            for cid in space.ids() for dim, lower, upper in [rows[cid]]
        ],
        "initial": hda.initial,
    }
    if space.frontier:
        out["frontier"] = sorted(space.frontier)
    if labeling is not None:
        out["events"] = list(labeling.events.names)
        out["labels"] = {
            cid: list(labeling.assign[cid])
            for cid in space.ids() if cid in labeling.assign
        }
    return out


# The separators of ``json.dump(..., indent=1)`` at each nesting depth: an
# item of a container at depth d starts on a new line indented by d spaces.
_PAD = ["\n" + " " * depth for depth in range(4)]
_CUBE = '{\n   "id": %s,\n   "dim": %s,\n   "d0": %s,\n   "d1": %s\n  }'


def _join(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array of encoded `items`, or with brackets ``"{}"`` an object
    of encoded ``key: value`` items, at `depth`, laid out as with
    ``indent=1``."""
    if not items:
        return brackets
    inner = _PAD[depth + 1]
    return (brackets[0] + inner + ("," + inner).join(items) + _PAD[depth]
            + brackets[1])


def _faces(faces: tuple[str | None, ...], text) -> str:
    """A cube's face array (depth 3), its entries encoded by `text`."""
    if not faces:
        return "[]"
    return "[\n    " + ",\n    ".join(map(text, faces)) + "\n   ]"


class _Quoted(dict):
    """Id -> its JSON text, with ``None`` -> ``null``; an id not stored yet
    (a face outside the set) is encoded on lookup."""

    def __missing__(self, cid: str) -> str:
        return _quote(cid)


def _model_json(hda: HDA, labeling: Labeling | None = None) -> str:
    """``json.dumps(model_to_dict(hda, labeling), indent=1)``, built by
    joining strings escaped by the C encoder."""
    space = hda.space
    rows, ids = space.rows(), space.ids()
    quoted = _Quoted(zip(ids, map(_quote, ids)))
    quoted[None] = "null"
    text = quoted.__getitem__
    cubes = []
    for cid in ids:
        dim, lower, upper = rows[cid]
        cubes.append(_CUBE % (quoted[cid], dim, _faces(lower, text),
                              _faces(upper, text)))
    members = ['"cubes": ' + _join(cubes, 1),
               '"initial": ' + text(hda.initial)]
    if space.frontier:
        members.append('"frontier": '
                       + _join(list(map(text, sorted(space.frontier))), 1))
    if labeling is not None:
        assign = labeling.assign
        members.append('"events": '
                       + _join(list(map(_quote, labeling.events.names)), 1))
        members.append('"labels": ' + _join(
            [quoted[cid] + ": " + _join(list(map(str, assign[cid])), 2)
             for cid in ids if cid in assign], 1, "{}"))
    return _join(members, 0, "{}")


def _id_map_json(table: Mapping[str, str]) -> str:
    """``json.dumps(table, indent=1)`` for a map of ids to ids."""
    return _join([_quote(k) + ": " + _quote(v) for k, v in table.items()],
                 0, "{}")


def _write(text: str, path: str | Path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from exc


def dump_model(hda: HDA, path: str | Path,
               labeling: Labeling | None = None) -> None:
    """Write the model file: ``json.dump(model_to_dict(hda, labeling),
    handle, indent=1)`` and a newline, byte for byte."""
    _write(_model_json(hda, labeling), path)


def dump_id_map(table: Mapping[str, str], path: str | Path) -> None:
    """Write a map of ids to ids (the unfolding's projection sidecar): the
    bytes of ``json.dump(table, handle, indent=1)`` and a newline."""
    _write(_id_map_json(table), path)
