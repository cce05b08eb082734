import io
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcrbsat import cli, jsonio
from qcrbsat import model as md
from qcrbsat.jsonio import ComplexMatrix, SchemaError, parse_complex_matrix
from oracles import parse_complex_matrix_loop

QUTRIT = ["--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7", "--theta", "0.3,0.5"]


def dumped(obj, **kw) -> str:
    buf = io.StringIO()
    jsonio.dump(obj, buf.write, **kw)
    return buf.getvalue()


def reference(obj, sort_keys=True) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys)


def payload(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return cli._COMMANDS[args.command](args)


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_MATRICES = hnp.arrays(np.complex128,
                       hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                       elements=st.complex_numbers(allow_nan=True, allow_infinity=True))
# Nested dicts, lists and tuples of every kind of value a report holds, edge floats included.
DOCUMENTS = st.recursive(
    st.text() | st.integers() | _FLOATS | st.sampled_from([-0.0, 5e-324, -5e-324])
    | st.booleans() | st.none() | _FLOATS.map(np.float64) | _MATRICES.map(ComplexMatrix),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


class _Str(str):
    """A string subclass, which json.dumps writes as the string it holds."""


# Floats a slot may take, the ones whose text is easy to get wrong among them.
_SLOT_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
                                1e16, 0.1]) | st.floats()
_SLOT_TEXTS = st.sampled_from(["%", "%s", "%d%%", "naïve ☃"]) | st.text(max_size=3)
# Keys, with the template's own "%" in some, and a few that are not strings.
_KEYS = _SLOT_TEXTS | st.integers(-2, 2)
# What each scalar slot of an entry shape draws, per entry.
_SLOTS = {
    "float": _SLOT_FLOATS,
    "int": st.integers(),
    "bool": st.booleans(),
    "str": _SLOT_TEXTS,
    "none": st.none(),
    "turns": st.integers(-3, 3) | _SLOT_FLOATS | st.booleans(),  # int, float and bool by turns
    "float64": _SLOT_FLOATS | _SLOT_FLOATS.map(np.float64),
    "strsub": _SLOT_TEXTS | _SLOT_TEXTS.map(_Str),
    "matrix": _MATRICES.map(ComplexMatrix),  # a matrix of changing shape
}
_ELEMENTS = st.complex_numbers(allow_nan=True, allow_infinity=True)
# Entry shapes: nested ("dict", [(key, shape), ...]) and ("list", [shape, ...]) over slots and
# ("fixed", shape), a matrix of one shape.
_SHAPES = st.recursive(
    st.sampled_from(sorted(_SLOTS)) | hnp.array_shapes(min_dims=1, max_dims=4, max_side=2).map(
        lambda shape: ("fixed", shape)),
    lambda children: (st.lists(children, max_size=3).map(lambda c: ("list", c))
                      | st.lists(st.tuples(_KEYS, children), max_size=3,
                                 unique_by=lambda kv: kv[0]).map(lambda c: ("dict", c))),
    max_leaves=12)


def _entry(data, shape):
    """A value of ``shape``, its scalars drawn afresh; now and then a tuple for a list, and
    a dict's keys in another order."""
    if isinstance(shape, str):
        return data.draw(_SLOTS[shape])
    kind, inner = shape
    if kind == "fixed":
        return ComplexMatrix(data.draw(hnp.arrays(np.complex128, inner, elements=_ELEMENTS)))
    if kind == "list":
        seq = [_entry(data, s) for s in inner]
        return tuple(seq) if data.draw(st.integers(0, 9)) == 0 else seq
    order = list(range(len(inner)))
    if data.draw(st.integers(0, 9)) == 0:
        order = data.draw(st.permutations(order))
    return {inner[i][0]: _entry(data, inner[i][1]) for i in order}


class TestWriterMatchesJsonDumps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", *QUTRIT],
            ["construct-povm", *QUTRIT],
            ["fisher", *QUTRIT],
            ["fisher", "--model", "random-rank-r", "--theta", "0,0,0",
             "--params", "seed=4,n_s=8,r_plus=4,n_params=3"],
            ["simulate", *QUTRIT, "--trials", "2000", "--batches", "2", "--estimator"],
            ["sweep", "--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7",
             "--grid", "0.0:1.0:3,0.1:0.9:2"],
            # entries of mixed shapes: an error first, and the diagnostics' null and filled checks
            ["sweep", "--model", "paper-qutrit", "--grid", "0.0:0.5:2,0.5:0.5:1"],
            ["sweep", "--model", "pure-qubit-amp-phase", "--grid", "0.3:1.2:3,-2.0:2.0:3",
             "--diagnostics"],
        ],
        ids=["analyze", "construct-povm", "fisher", "fisher-rank-r", "simulate", "sweep",
             "sweep-error-first", "sweep-diagnostics"],
    )
    def test_reports(self, argv):
        obj = payload(*argv)
        assert dumped(obj) == reference(obj)

    def test_report_file_bytes(self, tmp_path):
        obj = payload("construct-povm", *QUTRIT)
        path = tmp_path / "r.json"
        jsonio.write_json(obj, path)
        assert path.read_bytes() == (reference(obj) + "\n").encode("utf-8")

    def test_stdout(self, capsys):
        obj = {"a": [1.5, None], "b": ComplexMatrix(np.eye(2))}
        jsonio.write_json(obj)
        assert capsys.readouterr().out == reference(obj) + "\n"

    def test_edge_scalars(self):
        values = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 1e-7,
                  0.1, 2**70, -3, True, False, None, "", "plain", "naïve ☃ \"q\"\n\t",
                  np.float64(0.3), [], {}, [[]], [{}], {"e": {}}, (1, 2.5)]
        for v in values:
            assert dumped(v) == reference(v), v
        obj = {"values": values, "nested": {"empty": {}, "list": [[], [[]], {"x": []}]}}
        assert dumped(obj) == reference(obj)

    def test_keys(self):
        obj = {"b": 1, "a": {"d": 2, "c": 3}, "é": 4}
        assert dumped(obj) == reference(obj)
        assert dumped(obj, sort_keys=False) == reference(obj, sort_keys=False)
        for keys in ([1, 2, -5], [0.5, 1e300], [True], [None]):
            obj = {k: k for k in keys}
            assert dumped(obj) == reference(obj)

    def test_complex_matrices(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        z[0, 0] = complex(float("nan"), float("inf"))
        z[1, 2] = complex(-0.0, -float("inf"))
        z[3, 3] = complex(5e-324, 1e16)
        cases = [
            z,
            np.stack([z, z[::-1], z.conj()]),  # a stack is written slice by slice
            rng.standard_normal((2, 3, 2, 2)),
            np.eye(3),  # real input gets zero imaginary parts
            np.array([[1 + 2j]]),
            np.array([1j, 2.0]),
            np.zeros((0, 0)),
            np.zeros((2, 0)),
            np.zeros((0, 3, 3), dtype=complex),
        ]
        for m in cases:
            cm = ComplexMatrix(m)
            if m.ndim == 2:
                plain = [[[float(c.real), float(c.imag)] for c in row] for row in m]
                assert json.dumps(cm) == json.dumps(plain)
            for obj in (cm, {"m": cm, "n": [cm, 1]}, [[cm]]):
                assert dumped(obj) == reference(obj)
                assert dumped(obj, sort_keys=False) == reference(obj, sort_keys=False)

    def test_unserializable_raises_like_json(self):
        for bad in (np.array([1.0]), np.int64(3), np.float32(1.0), object(), {1, 2}):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                dumped({"x": [bad]})
        with pytest.raises(TypeError):
            dumped({(1, 2): 0})

    @settings(max_examples=200, deadline=None)
    @given(st.lists(DOCUMENTS, min_size=1, max_size=4))
    def test_random_documents(self, docs):
        # one process dumps them all, through the texts the earlier ones left behind
        for sort_keys in (True, False, True):
            for obj in docs:
                assert dumped(obj, sort_keys=sort_keys) == reference(obj, sort_keys=sort_keys)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_KEYS, _SHAPES), max_size=4, unique_by=lambda kv: kv[0]),
           st.integers(2, 40), st.booleans(), st.data())
    def test_lists_of_one_entry_shape(self, fields, count, odd, data):
        shape = ("dict", fields)
        entries = [_entry(data, shape) for _ in range(count)]
        if odd:  # one entry of another shape, anywhere
            other = data.draw(st.dictionaries(st.text(max_size=3), DOCUMENTS, max_size=3))
            entries.insert(data.draw(st.integers(0, count)), other)
        for obj in (entries, {"k": [entries, 1]}):
            for sort_keys in (True, False):
                try:
                    expected = reference(obj, sort_keys=sort_keys)
                except TypeError:  # keys that do not sort: both refuse
                    with pytest.raises(TypeError):
                        dumped(obj, sort_keys=sort_keys)
                else:
                    assert dumped(obj, sort_keys=sort_keys) == expected

    def test_more_entry_shapes_than_plans(self):
        # each entry's list has its own length: the shapes beyond PLAN_SHAPES take the walk
        entries = [{"x": [0.5] * (i % (2 * jsonio.PLAN_SHAPES)), "n": i} for i in range(100)]
        entries[7] = {"x": [np.float64(0.5)], "n": (1, 2)}
        for sort_keys in (True, False):
            assert dumped(entries, sort_keys=sort_keys) == reference(entries, sort_keys=sort_keys)

    def test_output_is_streamed(self):
        pieces = []
        obj = {"elements": ComplexMatrix(np.ones((3, 8, 8))), "rows": list(range(10000))}
        jsonio.dump(obj, pieces.append)
        assert "".join(pieces) == reference(obj)
        assert len(pieces) > 3
        assert max(map(len, pieces)) < len("".join(pieces)) / 2
        # a list of dicts of one shape goes out one batch of entries at a time
        entries = [{"i": i, "x": i / 7, "name": f"e{i}", "ok": i % 2 == 0, "none": None,
                    "m": ComplexMatrix(np.full((2, 2), i + 0.5j)), "q": [i / 3, [-i / 9]]}
                   for i in range(1024)]
        obj = {"entries": entries}
        pieces = []
        jsonio.dump(obj, pieces.append)
        assert "".join(pieces) == reference(obj)
        longest = max(len(json.dumps(e, indent=2).replace("\n", "\n    ")) for e in entries)
        assert len(pieces) >= len(entries) // jsonio.PLAN_BATCH
        assert max(map(len, pieces)) <= jsonio.PLAN_BATCH * (longest + len(",\n    ")) + 64
        lengths = []
        tracemalloc.start()
        try:
            jsonio.dump(obj, lambda text: lengths.append(len(text)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(lengths) == len(reference(obj))
        assert peak < 1 << 20


_SIGNED_ZEROS = st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
_PAIR_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)
_PAIR_INPUTS = (
    hnp.arrays(np.complex128, _PAIR_SHAPES,
               elements=st.complex_numbers(allow_nan=True, allow_infinity=True) | _SIGNED_ZEROS)
    | hnp.arrays(np.complex64, _PAIR_SHAPES,
                 elements=st.complex_numbers(width=64, allow_nan=True, allow_infinity=True)))
# Views of an input: as it is, transposed, negatively strided and strided.
_LAYOUTS = {
    "as is": lambda a: a,
    "transposed": lambda a: a.T,
    "reversed": lambda a: a[::-1] if a.ndim else a,
    "last axis reversed": lambda a: a[..., ::-2] if a.ndim else a,
}


class TestComplexMatrixPairs:
    @settings(max_examples=200, deadline=None)
    @given(_PAIR_INPUTS, st.sampled_from(sorted(_LAYOUTS)))
    def test_pairs_are_the_stacked_parts_bit_for_bit(self, a, layout):
        m = _LAYOUTS[layout](a)
        want = np.stack([m.real, m.imag], axis=-1).astype(float)
        cm = ComplexMatrix(m)
        assert cm.pairs.dtype == want.dtype and cm.pairs.shape == want.shape
        assert np.array_equal(cm.pairs.view(np.int64), want.view(np.int64))
        assert json.dumps(cm) == json.dumps(want.tolist())
        # pairs hold their own numbers: a later edit of the input does not reach them
        m[...] = 7 - 3j
        assert np.array_equal(cm.pairs.view(np.int64), want.view(np.int64))


class TestProcessWideTexts:
    def test_interleaved_payloads(self):
        # the same keys and shapes at other levels, in either key order
        analyze, sweep = payload("analyze", *QUTRIT), payload(
            "sweep", "--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7",
            "--grid", "0.1:0.9:2,0.2:0.8:2")
        povm = payload("construct-povm", *QUTRIT)
        docs = [analyze, {"deeper": analyze}, sweep, [[povm]], {"a": [analyze, sweep]},
                povm, {"z": {"y": {"x": povm}}}, sweep["sweep"], analyze]
        for sort_keys in (True, False, True):
            for obj in docs:
                assert dumped(obj, sort_keys=sort_keys) == reference(obj, sort_keys=sort_keys)

    def test_key_texts_stop_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(jsonio, "_KEY_TEXTS", tuple({} for _ in range(jsonio.MEMO_LEVELS)))
        obj = {"r": {f"k{i:04d}": i for i in range(jsonio.MEMO_KEYS + 50)}}
        obj["r"]["x" * (jsonio.MEMO_KEY_CHARS + 1)] = "long"
        for sort_keys in (True, False, True):
            assert dumped(obj, sort_keys=sort_keys) == reference(obj, sort_keys=sort_keys)
            assert len(jsonio._KEY_TEXTS[1]) == jsonio.MEMO_KEYS
        assert all(len(k) <= jsonio.MEMO_KEY_CHARS for k in jsonio._KEY_TEXTS[1])

    def test_nesting_beyond_the_kept_levels(self, monkeypatch):
        monkeypatch.setattr(jsonio, "_NEWLINES", jsonio._Newlines())
        obj = [1.5]
        for i in range(jsonio.MEMO_LEVELS + 8):
            obj = {"k": obj, "n": i} if i % 2 else [obj, None]
        assert dumped(obj) == reference(obj)
        assert dumped(obj, sort_keys=False) == reference(obj, sort_keys=False)
        assert max(jsonio._NEWLINES) == jsonio.MEMO_LEVELS - 1

    def test_large_layouts_are_not_kept(self):
        rng = np.random.default_rng(5)
        big = ComplexMatrix(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
        before = dict(jsonio._LAYOUTS)
        obj = {"basis": big, "stack": ComplexMatrix(np.ones((2, 64, 64)))}
        assert dumped(obj) == reference(obj)
        assert jsonio._LAYOUTS == before

    def test_small_layouts_stop_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(jsonio, "_LAYOUTS", {})
        monkeypatch.setattr(jsonio, "MEMO_LAYOUTS", 2)
        rng = np.random.default_rng(6)
        obj = {f"m{n}": ComplexMatrix(rng.standard_normal((n, n))) for n in range(1, 6)}
        for sort_keys in (True, False, True):
            assert dumped(obj, sort_keys=sort_keys) == reference(obj, sort_keys=sort_keys)
            assert len(jsonio._LAYOUTS) == 2


class TestRewriteInPlace:
    def test_short_over_long_and_long_over_short(self, tmp_path):
        small = payload("analyze", *QUTRIT)
        large = payload("sweep", "--model", "paper-qutrit", "--params", "d=0.6,c1=1,c2=0.7",
                        "--grid", "0.1:0.9:3,0.2:0.8:3")
        path = tmp_path / "r.json"
        for obj in (large, small, large, small, small):
            jsonio.write_json(obj, path)
            assert path.read_bytes() == (reference(obj) + "\n").encode("utf-8")

    def test_not_truncated_on_open(self, tmp_path, monkeypatch):
        # truncating on open is what makes ext4 force the rewritten blocks out at close
        flags, os_open = [], os.open

        def recording(path, flag, *args):
            flags.append(flag)
            return os_open(path, flag, *args)

        monkeypatch.setattr(os, "open", recording)
        jsonio.write_json({"a": 1}, tmp_path / "r.json")
        assert flags and not any(f & os.O_TRUNC for f in flags)

    def test_device_is_written_and_not_cut(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a file that is not regular is only written")

        monkeypatch.setattr(os, "ftruncate", refuse)
        monkeypatch.setattr(os, "lseek", refuse)
        jsonio.write_json(payload("analyze", *QUTRIT), os.devnull)

    def test_pipe_is_written_and_not_cut(self, tmp_path):
        obj, path, read = payload("analyze", *QUTRIT), tmp_path / "fifo", []
        os.mkfifo(path)
        reader = threading.Thread(target=lambda: read.append(path.read_bytes()))
        reader.start()
        jsonio.write_json(obj, path)
        reader.join()
        assert read == [(reference(obj) + "\n").encode("utf-8")]

    def test_failure_leaves_no_byte_of_the_old_report(self, tmp_path):
        path = tmp_path / "r.json"
        jsonio.write_json({"old": ["o" * 60] * (2 * jsonio.FLUSH_PARTS)}, path)
        old = path.read_text()
        # enough values to flush several times before the unserializable one
        good = {"a": list(range(3 * jsonio.FLUSH_PARTS))}
        with pytest.raises(TypeError):
            jsonio.write_json({**good, "b": object()}, path)
        text, new = path.read_text(), reference({**good, "b": None})
        assert 0 < len(text) < len(old)
        assert new.startswith(text)

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.json", "w", encoding="utf-8") as fh:
                fh.write("{}\n")
            jsonio.write_json({}, tmp_path / "report.json")
        finally:
            os.umask(previous)
        plain, report = os.stat(tmp_path / "plain.json"), os.stat(tmp_path / "report.json")
        assert report.st_mode == plain.st_mode


def loop_parse(obj):
    """The per-entry reading the array path must agree with."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in obj], dtype=complex)


def _assert_same_reading(obj, n=2):
    """The reader returns what the loop reader returns, or raises its first message."""
    try:
        expected = parse_complex_matrix_loop(obj, n, "m")
    except SchemaError as exc:
        with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
            parse_complex_matrix(obj, n, "m")
    else:
        assert np.array_equal(parse_complex_matrix(obj, n, "m").view(float), expected.view(float))


# Scalars within the float range (the loop reader crashes beyond it).
_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(), st.booleans(), st.none(), st.text(max_size=1)
)
_ANY = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=20)
# Mostly well-formed 2 x 2 matrices, so that single defects are reached too.
_ENTRIES = st.one_of(st.lists(st.one_of(st.floats(-9, 9), st.integers(-9, 9)), min_size=2,
                              max_size=2), _ANY)
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=1, max_size=3), min_size=1, max_size=3)


class TestParseComplexMatrix:
    def test_array_path_matches_entrywise(self, qutrit_point):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        z[0, 1] = complex(-0.0, 5e-324)
        for m in (z, qutrit_point.rho, *qutrit_point.drho):
            obj = json.loads(json.dumps(ComplexMatrix(m)))
            out = parse_complex_matrix(obj, len(m), "m")
            assert np.array_equal(out.view(float), loop_parse(obj).view(float))
            assert np.array_equal(np.signbit(out.view(float)), np.signbit(m.view(float)))

    def test_accepts_what_the_entry_reader_accepts(self):
        obj = [[[1, 0], [True, 2.5]], [[0.5, False], [2**60, -1]]]
        assert np.array_equal(parse_complex_matrix(obj, 2, "m"), loop_parse(obj))
        assert np.array_equal(parse_complex_matrix(ComplexMatrix(np.eye(2)), 2, "m"), np.eye(2))

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([[[1, 0], [0, 0]]], "m: expected 2 rows"),
            ((([1, 0], [0, 0]), ([0, 0], [1, 0])), "m: expected 2 rows"),
            ([[[1, 0], [0, 0]], [[0, 0]]], "m: row 1 must have 2 entries"),
            ([[[1, 0], [0, 0]], ([0, 0], [1, 0])], "m: row 1 must have 2 entries"),
            ([[[1, 0], (0, 0)], [[0, 0], [1, 0]]], r"m: entry \(0,1\) must be an \[re, im\] pair"),
            ([[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]], r"m: entry \(0,1\) must be an \[re, im\] pair"),
            ([[[1, 0], [0, 0]], [[0, "0"], [1, 0]]], r"m: entry \(1,0\) must be an \[re, im\] pair"),
            ([[[1, 0], [0, 0]], [[0, 0], [1, np.float32(0)]]],
             r"m: entry \(1,1\) must be an \[re, im\] pair"),
            ([[[1, 0], [0, 0]], [[0, 0], [1, None]]], r"m: entry \(1,1\) must be an \[re, im\] pair"),
            ([[[1, 0], [0, float("nan")]], [[0, 0], [1, 0]]], "m: non-finite entries"),
        ],
    )
    def test_errors_unchanged(self, obj, message):
        with pytest.raises(SchemaError, match=f"^{message}$"):
            parse_complex_matrix(obj, 2, "m")

    def test_overflow_unchanged(self):
        with pytest.raises(SchemaError, match=r"^m: entries beyond the float range$"):
            parse_complex_matrix([[[10**400, 0]]], 1, "m")

    def test_malformed_entries_are_named_before_overflow(self):
        with pytest.raises(SchemaError, match=r"^m: entry \(1,1\) must be an \[re, im\] pair$"):
            parse_complex_matrix([[[10**400, 0], [0, 0]], [[0, 0], [1, "0"]]], 2, "m")

    @pytest.mark.parametrize("obj", [
        # wrong row counts
        [], [[[1, 0], [0, 0]]], [[[1, 0], [0, 0]]] * 3, None, "ab", {"0": [[1, 0], [0, 0]]},
        # ragged rows
        [[[1, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
        [[[1, 0], [0, 0]], None], [[[1, 0], [0, 0]], "ab"], [[[1, 0], [0, 0]], []],
        # entries that are not [re, im] pairs
        [[[1, 0], []], [[0, 0], [1, 0]]], [[[1], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], 1.5], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [{"re": 0}, [1, 0]]],
        # strings, None, booleans, non-finite values
        [[["1", 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, None]], [[0, 0], [1, 0]]],
        [[[True, False], [0, 0]], [[0, 0], [False, True]]],
        [[[1, float("inf")], [0, 0]], [[0, 0], [1, 0]]],
        [[[1, 0], [0, 0]], [[0, float("-nan")], [1, 0]]],
        # the first offender, row by row, is named
        [[[1, 0], [0]], [[0, 0]]], [[[1, 0]], [[0, 0], [1, "0"]]],
        [[[float("nan"), 0], [0, 0]], [[None, 0], [1, 0]]],
    ])
    def test_malformed_matrices_match_the_loop_reader(self, obj):
        _assert_same_reading(obj)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_MATRICES, _ANY))
    def test_any_nesting_matches_the_loop_reader(self, obj):
        _assert_same_reading(obj)

    def test_numeric_model_roundtrip(self, qutrit_point):
        sp = md.parse_numeric_model(json.loads(json.dumps(md.state_to_numeric_model(qutrit_point))))
        assert np.array_equal(sp.rho, qutrit_point.rho)
        assert np.array_equal(sp.drho, qutrit_point.drho)
