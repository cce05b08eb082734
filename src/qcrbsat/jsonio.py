"""JSON codec of the reports.

Complex matrices travel as nested ``[re, im]`` pairs. :class:`ComplexMatrix`
is those nested lists together with the float array they were made from;
:func:`dump` writes a payload piece by piece as exactly the text of
``json.dumps(obj, indent=2, sort_keys=True)``, rendering each
:class:`ComplexMatrix` from its array in one pass instead of float by float,
and :func:`write_json` rewrites a report file in place.
:func:`parse_complex_matrix` reads a matrix back, and :func:`load` is the
one reader of input files.

:func:`dump` walks a value with one handler per exact type, except in a
list that starts with a dict and holds two or more, such as a sweep's
entries or a certificate's records. Such a list goes out ``PLAN_BATCH``
entries at a time, and each batch is one write. A dict there whose shape
has a plan is one ``%`` of the plan's template. The shape is the keys in
text order, the container lengths, the exact types of the scalars (str,
int, float, bool, None) and the shapes of the matrices. A list makes at
most ``PLAN_SHAPES`` plans, each from the first entry of its shape. A
batch converts its scalars column by column, each float once per bit
pattern, so ``-0.0`` stays apart from ``0.0``. Everything else takes the
walk: a single report; an entry holding a subclass (``np.float64``), a
tuple, a key that is not a string, an empty matrix, or more than
``PLAN_TEXTS`` template pieces or floats; and an entry of a shape beyond
the list's plans.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

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
# A list that starts with a dict and holds two or more writes each dict
# through the plan of its shape (see _Plan), PLAN_BATCH entries at a time:
# at most PLAN_SHAPES plans per list, each a template of at most PLAN_TEXTS
# pieces (about two per value) and floats.
PLAN_BATCH = 64
PLAN_SHAPES = 8
PLAN_TEXTS = 8192


class SchemaError(QcrbSatError):
    pass


class ComplexMatrix(list):
    """Nested ``[re, im]`` lists of a complex array (or stack of arrays).

    Equal to, and serialized by ``json.dumps`` like, the plain nested lists.
    ``pairs`` holds the same numbers as a float array of shape ``(..., 2)``,
    of a complex128 array the float64 view of a C-ordered copy; :func:`dump`
    encodes ``pairs``, so edits made to the lists afterwards do not reach
    its output.
    """

    __slots__ = ("pairs",)

    def __init__(self, m):
        a = np.asarray(m)
        if a.dtype == np.complex128:  # reshaped first: a 0-d array has no view
            self.pairs = np.array(a, order="C").reshape(a.shape + (1,)).view(np.float64)
        else:
            self.pairs = np.stack([a.real, a.imag], axis=-1).astype(float, copy=False)
        super().__init__(self.pairs.tolist())


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floatstr(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _float_texts(a: np.ndarray) -> list:
    """The JSON texts of the entries of float array ``a``, in ``ravel`` order."""
    flat = a.ravel().tolist()
    text = list(map(float.__repr__, flat))
    if not np.isfinite(a).all():
        for i in np.flatnonzero(~np.isfinite(a.ravel())).tolist():
            text[i] = _floatstr(flat[i])
    return text


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


_BOOL_TEXTS = {True: "true", False: "false"}
# The text of a scalar by its exact type; subclasses go through _scalar_text.
_SCALARS = {
    str: encode_basestring_ascii,
    float: _floatstr,
    int: int.__repr__,
    bool: _BOOL_TEXTS.__getitem__,
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


def _cached_layout(shape: tuple, level: int, layouts: dict):
    """:func:`_layout`, kept in ``_LAYOUTS`` when small, else in ``layouts``."""
    key = (shape, level)
    layout = _LAYOUTS.get(key) or layouts.get(key)
    if layout is None:
        layout = _layout(shape, level)
        small = int(np.prod(shape)) <= MEMO_LAYOUT_FLOATS and len(_LAYOUTS) < MEMO_LAYOUTS
        (_LAYOUTS if small else layouts)[key] = layout
    return layout


class _Mismatch(Exception):
    """A value that no plan takes."""


# The template text of a scalar slot by its exact type. Ints are written by
# ``%d`` and None by ``null%.0s``, which prints nothing of the value; floats,
# strings and booleans go in as texts the batch makes.
_SLOT_TEXTS = {float: "%s", str: "%s", bool: "%s", int: "%d", type(None): "null%.0s"}
_ABSENT = object()  # what a missing key reads as, so that its slot's type check fails


class _StrTexts(dict):
    """JSON texts of strings, each made once per batch."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


def _conform(col, ok, sample, bad: set) -> list:
    """``col`` with each value that fails ``ok`` replaced by ``sample`` and its index put in ``bad``.

    The replaced values read as the plan's own, so every later check passes
    on them; their entries' texts are dropped.
    """
    col = list(col)
    for i, v in enumerate(col):
        if not ok(v):
            bad.add(i)
            col[i] = sample
    return col


class _Plan:
    """The text of every dict of one shape, as one ``%`` template.

    The shape is the keys in text order, the container lengths, the exact
    scalar types and the shapes of the :class:`ComplexMatrix` pairs. It is
    made from one entry, with the same key, indentation and layout texts the
    walk writes; :meth:`texts` writes a batch of entries column by column,
    one column per scalar slot, read with ``itemgetter``, ``zip`` and
    ``map`` across the batch.
    """

    __slots__ = ("template", "columns")

    def __init__(self, entry, level: int, sort_keys: bool, layouts: dict):
        texts: list = []
        self.columns = _plan_node(entry, level, sort_keys, layouts, texts)
        self.template = "".join(texts)

    def texts(self, entries: list) -> list:
        """The text of each entry, or None for an entry of another shape."""
        m = len(entries)
        bad: set = set()
        cols: list = []  # one column per slot in text order; None where floats go
        floats: list = []  # the float columns, and the (m, k) blocks of matrices
        self.columns(entries, bad, cols, floats, _StrTexts())
        if len(bad) == m:
            return [None] * m
        if floats:
            x = np.concatenate([np.asarray(f, dtype=float).reshape(m, -1) for f in floats], axis=1)
            bits, inverse = np.unique(x.view(np.int64).ravel(), return_inverse=True)
            texts = np.array(_float_texts(bits.view(float)), dtype=object)
            filled = iter(texts[inverse.reshape(x.shape)].T.tolist())
            cols = [next(filled) if c is None else c for c in cols]
        out = (list(map(self.template.__mod__, zip(*cols))) if cols
               else [self.template % ()] * m)
        for i in bad:
            out[i] = None
        return out


def _plan_node(o, level: int, sort_keys: bool, layouts: dict, texts: list):
    """Append the template texts of ``o``, a value at ``level``, to ``texts``; return
    the function that reads its column across a batch.

    The reader ``columns(col, bad, cols, floats, strs)`` checks a column of
    values against ``o``'s shape, puts the indices that fail in ``bad``, and
    appends the scalar columns in text order to ``cols`` (floats to
    ``floats``, with a None in ``cols`` for each). Raises
    :class:`_Mismatch` for a value no plan takes: a subclass, a tuple, a key
    that is not a string, an empty matrix, or a template of more than
    ``PLAN_TEXTS`` pieces or floats.
    """
    kind = type(o)
    slot = _SLOT_TEXTS.get(kind)
    if slot is not None:
        texts.append(slot)

        def scalar(col, bad, cols, floats, strs):
            if list(map(type, col)).count(kind) != len(col):
                col = _conform(col, lambda v: type(v) is kind, o, bad)
            if kind is float:
                floats.append(col)
                cols.append(None)
            elif kind is str:
                cols.append(list(map(strs.__getitem__, col)))
            elif kind is bool:
                cols.append(list(map(_BOOL_TEXTS.__getitem__, col)))
            else:
                cols.append(col)

        return scalar
    if kind is ComplexMatrix:
        shape, size = o.pairs.shape, o.pairs.size
        if not size or size > PLAN_TEXTS:
            raise _Mismatch
        head, seps, tail = _cached_layout(shape, level, layouts)
        texts.append(head + "%s" + "%s".join(seps) + "%s" + tail)
        pairs_shape = attrgetter("pairs.shape")

        def matrix(col, bad, cols, floats, strs):
            if list(map(type, col)).count(ComplexMatrix) != len(col):
                col = _conform(col, lambda v: type(v) is ComplexMatrix, o, bad)
            if list(map(pairs_shape, col)).count(shape) != len(col):
                col = _conform(col, lambda v: v.pairs.shape == shape, o, bad)
            floats.append(np.stack([v.pairs for v in col]).reshape(len(col), size))
            cols.extend([None] * size)

        return matrix
    inner = _NEWLINES[level + 1]
    if kind is dict:
        if not all(type(k) is str for k in o):
            raise _Mismatch
        keys = tuple(sorted(o) if sort_keys else o)
        values = [o[k] for k in keys]
        heads = [("," + inner + _keystr(k) + ": ").replace("%", "%%") for k in keys]
    elif kind is list:
        keys, values = None, o
        heads = ["," + inner] * len(o)
    else:
        raise _Mismatch
    n = len(values)
    if n:
        heads[0] = ("{" if kind is dict else "[") + heads[0][1:]
    else:
        texts.append("{}" if kind is dict else "[]")
    children = []
    for head, v in zip(heads, values):
        texts.append(head)
        children.append(_plan_node(v, level + 1, sort_keys, layouts, texts))
        if len(texts) > PLAN_TEXTS:
            raise _Mismatch
    if n:
        texts.append(_NEWLINES[level] + ("}" if kind is dict else "]"))
    get = itemgetter(*keys) if keys and n > 1 else None

    def container(col, bad, cols, floats, strs):
        if list(map(type, col)).count(kind) != len(col):
            col = _conform(col, lambda v: type(v) is kind, o, bad)
        if keys is not None and not sort_keys:  # the key order is part of the shape
            if list(map(tuple, col)).count(keys) != len(col):
                col = _conform(col, lambda v: tuple(v) == keys, o, bad)
        elif list(map(len, col)).count(n) != len(col):
            col = _conform(col, lambda v: len(v) == n, o, bad)
        if keys is None:
            parts = zip(*col)
        else:
            try:
                parts = zip(*map(get, col)) if get else [list(map(itemgetter(k), col)) for k in keys]
            except KeyError:  # a key of another name: its slot reads _ABSENT and fails
                parts = [[v.get(k, _ABSENT) for v in col] for k in keys]
        for child, part in zip(children, parts):
            child(part, bad, cols, floats, strs)

    return container


def _fill(plan: _Plan, window, todo: list, texts: list) -> list:
    """Put ``plan``'s texts of the entries ``window[i]``, i in ``todo``, into
    ``texts[i]``; return the indices of the entries of other shapes."""
    left = []
    for i, text in zip(todo, plan.texts([window[i] for i in todo])):
        if text is None:
            left.append(i)
        else:
            texts[i] = text
    return left


def dump(obj, write, *, sort_keys: bool = True) -> None:
    """Write ``obj`` through ``write`` as ``json.dumps(obj, indent=2, sort_keys=sort_keys)``.

    The text goes out in pieces, so the whole document never exists as one
    string. Values ``json.dumps`` refuses raise the same ``TypeError``.
    Each value's handler comes from a table keyed by its exact type, and the
    dicts of a list that starts with a dict and holds two or more go
    through plans (see the module docstring). The indentation of each
    level, the text before each string key (its comma, newline and
    indentation included) and the layout of each small array are made once
    per process, within the ``MEMO_*`` bounds; a large array's layout is
    made once per dump and dropped with it.
    """
    parts: list = []
    append = parts.append
    layouts: dict = {}  # layouts outside the process-wide bounds, for this dump only
    newline = _NEWLINES

    def flush():
        write("".join(parts))
        parts.clear()

    def leaf(a, level):
        head, seps, tail = _cached_layout(a.shape, level, layouts)
        text = _float_texts(a)
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
        if type(o[0]) is dict and list(map(type, o)).count(dict) > 1:
            planned(o, level)
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

    def planned(o, level):
        """A list that starts with a dict and holds two or more, written PLAN_BATCH
        entries at a time: each dict a plan takes is one ``%`` of its template,
        and the rest the walk."""
        inner = newline[level + 1]
        sep = "," + inner
        plans: list = []
        tries = PLAN_SHAPES  # plans this list may still make, or fail to
        append("[" + inner)
        for start in range(0, len(o), PLAN_BATCH):
            window = o[start:start + PLAN_BATCH]
            texts = [None] * len(window)
            todo = [i for i, v in enumerate(window) if type(v) is dict]
            for plan in plans:
                if not todo:
                    break
                todo = _fill(plan, window, todo, texts)
            while todo and tries:
                tries -= 1
                try:
                    plan = _Plan(window[todo[0]], level + 1, sort_keys, layouts)
                except _Mismatch:
                    todo = todo[1:]  # the walk writes it
                    continue
                plans.append(plan)
                todo = _fill(plan, window, todo, texts)
            for i, (v, text) in enumerate(zip(window, texts), start):
                if i:
                    append(sep)
                if text is not None:
                    append(text)
                    continue
                scalar = _SCALARS.get(type(v))
                if scalar is None:
                    containers.get(type(v), other)(v, level + 1)
                else:
                    append(scalar(v))
                if len(parts) >= FLUSH_PARTS:
                    flush()
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
