"""Deterministic report output: JSON with 17-significant-digit floats and
sorted keys, atomic file writes, CSV tables, and input hashing.

The standard json module cannot control float formatting, so a small
recursive writer is used instead; identical in-memory reports therefore
serialize to identical bytes, which the CLI relies on for reproducibility.
Numeric arrays reduce to lists in one ``tolist`` call, and a list of floats
is written in one join, since coupling matrices make up most of a report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "format_float",
    "to_jsonable",
    "dumps_deterministic",
    "write_atomic",
    "csv_text",
    "sha256_file",
]


def format_float(x: float) -> str:
    """A float as a JSON number with 17 significant digits (round-trip exact)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def to_jsonable(obj: Any) -> Any:
    """Reduce report objects to dict/list/str/int/float/bool/None trees.

    A dataclass becomes a dict of its fields, less those whose metadata sets
    ``report`` to False.
    """
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            # tolist already gives Python bools, ints and floats
            return obj.tolist()
        return to_jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("report", True)
        }
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out[k] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _write_node(obj: Any, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _write_node(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        if all(type(v) is float for v in obj):
            # a float row, the bulk of a coupling matrix: one join
            if not all(map(math.isfinite, obj)):
                for v in obj:
                    format_float(v)  # raises on the first non-finite item
            sep = ",\n" + pad + "  "
            items = sep.join([format(v, ".17g") for v in obj])
            out.append("[\n" + pad + "  " + items + "\n" + pad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _write_node(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_deterministic(obj: Any) -> str:
    """Serialize a report tree to JSON text, bit-stable across runs."""
    out: list = []
    _write_node(to_jsonable(obj), out, 0)
    out.append("\n")
    return "".join(out)


def write_atomic(path: str, text: str) -> None:
    """Write text to path with no partial-file window (write then rename).

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of the temporary file.  An existing target that is
    not a regular file (``/dev/null``, a FIFO, a terminal) is written in
    place, never replaced."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
