"""Deterministic report output: JSON with 17-significant-digit floats and
sorted keys, atomic file writes, CSV tables, and input hashing.

The standard json module cannot control float formatting, so a small
recursive writer is used instead; identical in-memory reports therefore
serialize to identical bytes, which the CLI relies on for reproducibility.

The writer produces the text in pieces of at most one array row or one
scalar: a numeric array of two or more dimensions is written row by row, each
row reduced with ``tolist`` and its floats joined at once, since coupling
matrices make up most of a report.  A list of float rows, such as a path's
values with one short row per knot, gives one piece per row, its indent and
separator included, without a generator call per row.  A float64 row of at least ``WIDE_ROW``
entries, such as a coupling row, which is mostly zeros, is checked for
non-finite entries at once and writes "0" for each +0.0 without formatting
it; only its other entries go through ``format``.  ``write_report`` streams
those pieces into its temporary file, so writing a report holds the report's
own arrays and one row's text at a time, not the whole matrix as Python
floats or the whole text; ``dumps_deterministic`` joins them into one
string.

``sha256_file`` hashes an input with CPython's own SHA-256 module
(``_sha2``, or ``_sha256`` before Python 3.12), and with ``hashlib`` only
where neither exists: importing ``hashlib`` maps OpenSSL's libcrypto,
3.6 MiB, into the process.  The built-in hash takes about 5.5 ms per MB
where OpenSSL takes 0.9 ms, so it is the faster of the two, import
included, for inputs under about a MB.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "format_float",
    "to_jsonable",
    "dumps_deterministic",
    "write_atomic",
    "write_report",
    "csv_text",
    "sha256_file",
]


def format_float(x: float) -> str:
    """A float as a JSON number with 17 significant digits (round-trip exact)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


#: a 1-D float64 array at least this long is written by ``_wide_row``; a
#: shorter one costs more in numpy calls than its formatting saves
WIDE_ROW = 64


def _wide_row(row: np.ndarray, pad: str) -> str:
    """The JSON text of a 1-D float64 array at nesting depth ``pad``."""
    if not np.isfinite(row).all():
        for v in row.tolist():
            format_float(v)  # raises on the first non-finite item
    texts = ["0"] * row.size
    shown = np.flatnonzero((row != 0.0) | np.signbit(row))  # -0.0 writes "-0"
    for k, v in zip(shown.tolist(), row[shown].tolist()):
        texts[k] = format(v, ".17g")
    sep = ",\n" + pad + "  "
    return "[\n" + pad + "  " + sep.join(texts) + "\n" + pad + "]"


def _reduce(obj: Any) -> Any:
    """One level of ``to_jsonable``: ``obj`` as None, a bool, str, int or
    float, an ndarray, a dict with str keys, or a list or tuple, whose items
    are not reduced yet."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if f.metadata.get("report", True)
        }
    if hasattr(obj, "to_dict"):
        return _reduce(obj.to_dict())
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
        return obj
    if isinstance(obj, (list, tuple)):
        return obj
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def to_jsonable(obj: Any) -> Any:
    """Reduce report objects to dict/list/str/int/float/bool/None trees.

    A dataclass becomes a dict of its fields, less those whose metadata sets
    ``report`` to False.
    """
    obj = _reduce(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            # tolist already gives Python bools, ints and floats
            return obj.tolist()
        return to_jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def _pieces(obj: Any, indent: int) -> Iterator[str]:
    """The JSON text of ``obj`` at nesting depth ``indent``, in pieces of at
    most one array row or one scalar."""
    obj = _reduce(obj)
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.ndim < 2:
        if obj.ndim == 1 and obj.dtype == np.float64 and obj.size >= WIDE_ROW:
            yield _wide_row(obj, pad)
            return
        obj = to_jsonable(obj)
    if obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, str):
        yield json.dumps(obj, ensure_ascii=True)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield format_float(obj)
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        keys = sorted(obj)
        for i, k in enumerate(keys):
            yield pad + "  " + json.dumps(k, ensure_ascii=True) + ": "
            yield from _pieces(obj[k], indent + 1)
            yield ",\n" if i + 1 < len(keys) else "\n"
        yield pad + "}"
    elif len(obj) == 0:
        yield "[]"
    elif all(type(v) is float for v in obj):
        yield _float_row(obj, pad)
    else:
        # a list, a tuple, or an array of two or more dimensions: its rows;
        # a row of floats (a path's values hold one per knot) is one piece
        yield "[\n"
        inner = pad + "  "
        for i, v in enumerate(obj):
            end = ",\n" if i + 1 < len(obj) else "\n"
            if type(v) in (list, tuple) and v and all(type(u) is float for u in v):
                yield inner + _float_row(v, inner) + end
                continue
            yield inner
            yield from _pieces(v, indent + 1)
            yield end
        yield pad + "]"


def _float_row(row, pad: str) -> str:
    """The JSON text of a nonempty list or tuple of floats at nesting depth
    ``pad``, the bulk of a coupling matrix: one join."""
    if not all(map(math.isfinite, row)):
        for v in row:
            format_float(v)  # raises on the first non-finite item
    sep = ",\n" + pad + "  "
    return "[\n" + pad + "  " + sep.join([format(v, ".17g") for v in row]) + "\n" + pad + "]"


def _report_pieces(obj: Any) -> Iterator[str]:
    yield from _pieces(obj, 0)
    yield "\n"


def dumps_deterministic(obj: Any) -> str:
    """Serialize a report tree to JSON text, bit-stable across runs."""
    return "".join(_report_pieces(obj))


def _writes_in_place(path: str) -> bool:
    """Whether ``path`` is an existing target that is not a regular file
    (``/dev/null``, a FIFO, a terminal), which is written, never replaced."""
    return os.path.exists(path) and not os.path.isfile(path)


def _replace_atomic(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` into a temporary file next to ``path``, then rename
    it over ``path``.  If writing fails, or ``pieces`` raises, the temporary
    file is removed and ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            for piece in pieces:
                handle.write(piece)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_atomic(path: str, text: str) -> None:
    """Write text to path with no partial-file window (write then rename).

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the 0o600 of the temporary file.  An existing target that is
    not a regular file (``/dev/null``, a FIFO, a terminal) is written in
    place, never replaced."""
    if _writes_in_place(path):
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        return
    _replace_atomic(path, (text,))


def write_report(path: str, obj: Any) -> None:
    """Write ``dumps_deterministic(obj)`` to ``path`` as ``write_atomic``
    does, without building the whole text.

    A regular file (or a new one) gets the text streamed, a piece of at most
    one array row at a time, through the file's buffer into the temporary
    file; if the report turns out not to serialize (a non-finite float in its
    last row, say), the error propagates, the temporary file is removed and
    ``path`` is untouched.  A target written in place gets the whole text or
    nothing, since what reached a reader cannot be taken back."""
    if _writes_in_place(path):
        write_atomic(path, dumps_deterministic(obj))
    else:
        _replace_atomic(path, _report_pieces(obj))


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
    """The hex SHA-256 of the file at ``path``, read 64 KiB at a time."""
    try:  # CPython's own SHA-256, loaded on first use: hashlib maps OpenSSL's libcrypto
        from _sha2 import sha256
    except ImportError:  # Python 3.10 and 3.11
        try:
            from _sha256 import sha256
        except ImportError:  # a build without the built-in hashes
            from hashlib import sha256
    digest = sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
