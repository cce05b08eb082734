"""JSON codec of the reports.

Complex matrices travel as nested ``[re, im]`` pairs. :class:`ComplexMatrix`
is those nested lists together with the float array they were made from;
:func:`dump` writes a payload piece by piece as exactly the text of
``json.dumps(obj, indent=2, sort_keys=True)``, rendering each
:class:`ComplexMatrix` from its array in one pass instead of float by float,
and :func:`write_json` rewrites a report file in place.
:func:`parse_complex_matrix` reads a matrix back, and :func:`load` is the
one reader of input files.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import QcrbSatError

INDENT = "  "
# Pieces of small values gathered before one write.
FLUSH_PARTS = 4096
# Arrays with more axes than a matrix of [re, im] pairs are written one
# leading-axis slice at a time, so no more than one matrix's text is held.
LEAF_NDIM = 3
# Bounds of the texts kept for the whole process: the newline and key texts
# of the first MEMO_LEVELS nesting levels, at most MEMO_KEYS string keys of
# at most MEMO_KEY_CHARS characters per level, and the layouts of at most
# MEMO_LAYOUTS arrays of at most MEMO_LAYOUT_FLOATS floats. What falls
# outside is made again for each report (a large layout once per report).
MEMO_LEVELS = 32
MEMO_KEYS = 256
MEMO_KEY_CHARS = 64
MEMO_LAYOUTS = 64
MEMO_LAYOUT_FLOATS = 4096


class SchemaError(QcrbSatError):
    pass


class ComplexMatrix(list):
    """Nested ``[re, im]`` lists of a complex array (or stack of arrays).

    Equal to, and serialized by ``json.dumps`` like, the plain nested lists.
    ``pairs`` holds the same numbers as a float array of shape ``(..., 2)``;
    :func:`dump` encodes ``pairs``, so edits made to the lists afterwards do
    not reach its output.
    """

    __slots__ = ("pairs",)

    def __init__(self, m):
        a = np.asarray(m)
        self.pairs = np.stack([a.real, a.imag], axis=-1).astype(float, copy=False)
        super().__init__(self.pairs.tolist())


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floatstr(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _scalar_text(o):
    """JSON text of a str, None, bool, int or float (subclasses too), else None."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _floatstr(o)
    return None


# The text of a scalar by its exact type; subclasses go through _scalar_text.
_SCALARS = {
    str: encode_basestring_ascii,
    float: _floatstr,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _keystr(k) -> str:
    """JSON text of a dict key: scalars other than strings become strings."""
    text = k if isinstance(k, str) else _scalar_text(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return encode_basestring_ascii(text)


def _layout(shape: tuple, level: int):
    """Opening text, per-gap separators and closing text of a nested float array.

    The separator between consecutive floats depends only on how many
    trailing axes roll over there: ``r`` of them close ``r`` lists, put a
    comma, and open ``r`` lists.
    """
    k = len(shape)
    ind = ["\n" + INDENT * (level + d) for d in range(k + 1)]
    close = [ind[k - 1 - j] + "]" for j in range(k)]
    table = np.empty(k, dtype=object)
    for r in range(k):
        table[r] = "".join(close[:r]) + "," + ind[k - r] + "".join(
            "[" + ind[k - j] for j in range(r - 1, -1, -1)
        )
    gaps = np.arange(1, int(np.prod(shape)))
    rolled = np.zeros(len(gaps), dtype=np.intp)
    stride = 1
    for d in range(k - 1, 0, -1):
        stride *= shape[d]
        rolled += gaps % stride == 0
    head = "".join("[" + ind[d + 1] for d in range(k))
    return head, table[rolled].tolist(), "".join(close)


class _Newlines(dict):
    """``"\n"`` and the indentation of each nesting level, kept below ``MEMO_LEVELS``."""

    def __missing__(self, level: int) -> str:
        text = "\n" + INDENT * level
        if level < MEMO_LEVELS:
            self[level] = text
        return text


_NEWLINES = _Newlines()
# Per level, each string key's text ',<newline>"key": ' (see MEMO_KEYS).
_KEY_TEXTS = tuple({} for _ in range(MEMO_LEVELS))
# (shape, level) -> _layout(shape, level) of small arrays (see MEMO_LAYOUTS).
_LAYOUTS: dict = {}


def dump(obj, write, *, sort_keys: bool = True) -> None:
    """Write ``obj`` through ``write`` as ``json.dumps(obj, indent=2, sort_keys=sort_keys)``.

    The text goes out in pieces, so the whole document never exists as one
    string. Values ``json.dumps`` refuses raise the same ``TypeError``.
    Each value's handler comes from a table keyed by its exact type. The
    indentation of each level, the text before each string key (its comma,
    newline and indentation included) and the layout of each small array
    are made once per process, within the ``MEMO_*`` bounds; a large array's
    layout is made once per dump and dropped with it.
    """
    parts: list = []
    append = parts.append
    layouts: dict = {}  # layouts outside the process-wide bounds, for this dump only
    newline = _NEWLINES

    def flush():
        write("".join(parts))
        parts.clear()

    def leaf(a, level):
        key = (a.shape, level)
        layout = _LAYOUTS.get(key) or layouts.get(key)
        if layout is None:
            layout = _layout(a.shape, level)
            small = a.size <= MEMO_LAYOUT_FLOATS and len(_LAYOUTS) < MEMO_LAYOUTS
            (_LAYOUTS if small else layouts)[key] = layout
        head, seps, tail = layout
        flat = a.ravel().tolist()
        text = list(map(float.__repr__, flat))
        if not np.isfinite(a).all():
            for i in np.flatnonzero(~np.isfinite(a.ravel())).tolist():
                text[i] = _floatstr(flat[i])
        pieces = [None] * (2 * len(text) - 1)
        pieces[::2] = text
        pieces[1::2] = seps
        append(head)
        append("".join(pieces))
        append(tail)
        flush()

    def array(a, level):
        if a.ndim <= LEAF_NDIM:
            leaf(a, level)
            return
        inner = newline[level + 1]
        append("[" + inner)
        for i, sub in enumerate(a):
            if i:
                append("," + inner)
            array(sub, level + 1)
        append(newline[level] + "]")

    def sequence(o, level):
        if not o:
            append("[]")
            return
        inner = newline[level + 1]
        append("[" + inner)
        sep = "," + inner
        for i, v in enumerate(o):
            if i:
                append(sep)
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                containers.get(type(v), other)(v, level + 1)
            else:
                append(scalar(v))
            if len(parts) >= FLUSH_PARTS:
                flush()
        append(newline[level] + "]")

    def mapping(o, level):
        if not o:
            append("{}")
            return
        texts = _KEY_TEXTS[level] if level < MEMO_LEVELS else {}
        for i, (k, v) in enumerate(sorted(o.items()) if sort_keys else o.items()):
            text = texts.get(k) if type(k) is str else None
            if text is None:
                text = "," + newline[level + 1] + _keystr(k) + ": "
                if type(k) is str and len(texts) < MEMO_KEYS and len(k) <= MEMO_KEY_CHARS:
                    texts[k] = text
            append(text if i else "{" + text[1:])  # the first key opens the object
            scalar = _SCALARS.get(type(v))
            if scalar is None:
                containers.get(type(v), other)(v, level + 1)
            else:
                append(scalar(v))
            if len(parts) >= FLUSH_PARTS:
                flush()
        append(newline[level] + "}")

    def matrix(o, level):
        if o.pairs.size:
            array(o.pairs, level)
        else:
            sequence(o, level)

    def other(o, level):
        """A value whose exact type has no handler: subclasses, or what JSON refuses."""
        text = _scalar_text(o)
        if text is not None:
            append(text)
        elif isinstance(o, ComplexMatrix):
            matrix(o, level)
        elif isinstance(o, (list, tuple)):
            sequence(o, level)
        elif isinstance(o, dict):
            mapping(o, level)
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    containers = {list: sequence, tuple: sequence, dict: mapping, ComplexMatrix: matrix}
    scalar = _SCALARS.get(type(obj))
    if scalar is None:
        containers.get(type(obj), other)(obj, 0)
    else:
        append(scalar(obj))
    flush()


def write_json(obj, path=None, *, sort_keys: bool = True) -> None:
    """Write ``obj`` and a newline to ``path``, or to stdout when ``path`` is None.

    The bytes equal ``json.dumps(obj, indent=2, sort_keys=sort_keys) + "\\n"``.
    An existing file is rewritten in place and then, when longer, cut to
    the written length, also when ``dump`` raises part way, so no byte of
    its old text is left. It is not truncated on open: ext4 (``auto_da_alloc``) forces
    the blocks of a file truncated and written again out to disk at close,
    and the next truncation waits for that writeback. A new file gets the
    mode ``open(path, "w")`` gives it; a path that is not a regular file,
    such as ``/dev/null`` or a pipe, is written and never cut.
    """
    if path is None:
        dump(obj, sys.stdout.write, sort_keys=sort_keys)
        sys.stdout.write("\n")
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            dump(obj, fh.write, sort_keys=sort_keys)
            fh.write("\n")
            fh.flush()
        finally:  # text still buffered after a failure lands at the cut
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if info.st_size > end:
                    os.ftruncate(fd, end)


def load(source):
    """The JSON value of ``source``: a dict as given, else a stream or file path to parse.

    A file that cannot be read or does not hold JSON raises :class:`SchemaError`.
    """
    if isinstance(source, dict):
        return source
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read JSON input {source!r}: {exc}") from exc


def require_keys(data, keys) -> None:
    """Raise :class:`SchemaError` unless ``data`` is a JSON object holding every key."""
    if not isinstance(data, dict):
        raise SchemaError(f"expected a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise SchemaError(f"missing key {key!r}")


def is_count(x) -> bool:
    """Whether ``x`` is a JSON positive integer (booleans are not counts)."""
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def parse_complex_matrix(obj, n: int, what: str) -> np.ndarray:
    """Read an ``n x n`` matrix of ``[re, im]`` pairs; ``what`` names it in errors.

    The checks run on all rows and entries at once. When one fails, the rows
    are scanned in order, with the same checks, to name the first offender.
    """
    if not isinstance(obj, list) or len(obj) != n:
        raise SchemaError(f"{what}: expected {n} rows")
    rows_ok = all(map(isinstance, obj, repeat(list))) and set(map(len, obj)) <= {n}
    entries = list(chain.from_iterable(obj)) if rows_ok else []
    if not (
        rows_ok
        and all(map(isinstance, entries, repeat(list)))
        and set(map(len, entries)) <= {2}
        and all(map(isinstance, chain.from_iterable(entries), repeat((int, float))))
    ):
        for i, row in enumerate(obj):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"{what}: row {i} must have {n} entries")
            for j, entry in enumerate(row):
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, (int, float)) for x in entry)
                ):
                    raise SchemaError(f"{what}: entry ({i},{j}) must be an [re, im] pair")
    try:
        pairs = np.array(entries, dtype=float).reshape(n, n, 2)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{what}: entries beyond the float range") from None
    if not np.isfinite(pairs).all():
        raise SchemaError(f"{what}: non-finite entries")
    out = np.empty((n, n), dtype=complex)
    out.real = pairs[..., 0]
    out.imag = pairs[..., 1]
    return out
