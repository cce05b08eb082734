import io
import json
import os
import re
import threading

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
        ],
        ids=["analyze", "construct-povm", "fisher", "fisher-rank-r", "simulate", "sweep"],
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

    def test_output_is_streamed(self):
        pieces = []
        obj = {"elements": ComplexMatrix(np.ones((3, 8, 8))), "rows": list(range(10000))}
        jsonio.dump(obj, pieces.append)
        assert "".join(pieces) == reference(obj)
        assert len(pieces) > 3
        assert max(map(len, pieces)) < len("".join(pieces)) / 2


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
