import base64
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcore.cli import main
from entcore.decompose import (
    ConcentrationLevel,
    ConcentrationTree,
    TripartiteExtract,
    concentrate,
    reconstruct,
)
from entcore.fileio import (
    FileFormatError,
    read_operators,
    read_tensor,
    read_tree,
    write_operators,
    write_tensor,
    write_tree,
)
from entcore.states import haar_unitary, random_state
from entcore.tensor_ops import pair_dims

import legacy
from legacy import payload


class TestTensorFile:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        path = tmp_path / "state.json"
        state = random_state((2, 3, 2), seed=0)
        write_tensor(path, state)
        back = read_tensor(path)
        assert back.shape == (2, 3, 2)
        assert np.array_equal(back, state)

    def test_awkward_doubles_roundtrip_bitwise(self, tmp_path):
        path = tmp_path / "state.json"
        vals = np.array([0.1 + 0.3j, 1e-300 - 1e300j, -0.0 + 7.000000000000001j, np.pi * 1j])
        write_tensor(path, vals.reshape(2, 2))
        back = read_tensor(path)
        assert back.tobytes() == np.ascontiguousarray(vals.reshape(2, 2)).tobytes()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        state = random_state((2, 2, 2), seed=1)
        write_tensor(a, state)
        write_tensor(b, state)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_coefficient_count_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "dims": [2, 2], "coeffs": [[1.0, 0.0]]}))
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text(legacy.text(legacy.state_doc(random_state((2, 2), seed=2), version=2))[:40])
        with pytest.raises(FileFormatError):
            read_tensor(path)

    @pytest.mark.parametrize("version", [9, True, 1.0])
    def test_unknown_version_rejected(self, tmp_path, version):
        # True and 1.0 compare equal to 1 in Python but are not the integer 1
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"format_version": version, "dims": [2], "coeffs": [[1, 0], [0, 0]]}))
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps({"format_version": 1, "dims": [2], "coeffs": [[1.0, 0.0], [1e999, 0.0]]})
        )
        with pytest.raises(FileFormatError):
            read_tensor(path)

    @pytest.mark.parametrize("version, coeffs", [(1, []), (2, "")])
    def test_coefficient_count_is_exact_for_huge_dims(self, tmp_path, version, coeffs):
        # 2**32 * 2**32 wraps to 0 in a 64-bit integer
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format_version": version, "dims": [2**32, 2**32], "coeffs": coeffs}))
        with pytest.raises(FileFormatError, match=f"exactly {2**64} "):
            read_tensor(path)

    def test_bad_dims_rejected(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"format_version": 1, "dims": [2, 0], "coeffs": []}))
        with pytest.raises(FileFormatError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([[1.0, 0.0], [0.0]], r"coeffs holds an entry that is not a \[re, im\] pair"),
            ([[1.0, 0.0], [0.0, 0.0, 0.0]], r"coeffs holds an entry that is not a \[re, im\] pair"),
            *[([[1.0, 0.0], [v, 0.0]], "coeffs holds a value that is not a number") for v in ("1.0", None, True, [1.0])],
        ],
    )
    def test_malformed_coeffs_rejected(self, tmp_path, coeffs, message):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"format_version": 1, "dims": [2], "coeffs": coeffs}))
        with pytest.raises(FileFormatError, match=message):
            read_tensor(path)


class TestTreeFile:
    @pytest.mark.parametrize("stop_order", [2, 3])
    def test_roundtrip_reconstructs_source_state(self, tmp_path, stop_order):
        path = tmp_path / "tree.json"
        state = random_state((2, 2, 2, 2, 2, 2), seed=3)
        tree = concentrate(state, stop_order=stop_order)
        write_tree(path, tree)
        back = read_tree(path)
        assert back.original_shape == tree.original_shape
        assert back.stop_order == stop_order
        assert [level.ranks for level in back.levels] == [level.ranks for level in tree.levels]
        rebuilt = reconstruct(back)
        assert np.linalg.norm(rebuilt - state) <= 1e-10

    def test_terminal_only_tree_roundtrip(self, tmp_path):
        path = tmp_path / "tree.json"
        state = random_state((2, 2, 2), seed=30)
        write_tree(path, concentrate(state))
        back = read_tree(path)
        assert back.levels == []
        assert np.array_equal(reconstruct(back), state)

    def test_slices_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "tree.json"
        tree = concentrate(random_state((2, 2, 2, 2), seed=4))
        write_tree(path, tree)
        back = read_tree(path)
        for lvl_a, lvl_b in zip(tree.levels, back.levels):
            for ext_a, ext_b in zip(lvl_a.extracts, lvl_b.extracts):
                for sa, sb in zip(ext_a.slices, ext_b.slices):
                    assert np.array_equal(sa, sb)
                for sa, sb in zip(ext_a.complement_slices, ext_b.complement_slices):
                    assert np.array_equal(sa, sb)

    def test_wrong_slice_count_rejected(self, tmp_path):
        path = tmp_path / "tree.json"
        doc = legacy.tree_doc(concentrate(random_state((2, 2, 2, 2), seed=5)))
        doc["levels"][0]["modes"][0]["slices"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            read_tree(path)

    def test_non_integer_stop_order_rejected(self, tmp_path):
        path = tmp_path / "tree.json"
        doc = legacy.tree_doc(concentrate(random_state((2, 2, 2, 2), seed=7)), version=4)
        doc["stop_order"] = 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="stop_order"):
            read_tree(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version_1_tree_still_reads(self, tmp_path, version):
        # versions 1 and 2 also stored each mode's complement slices, and
        # version 1 each level's pairing and input dims and each mode's rows
        # and cols; the reader derives them instead
        path = tmp_path / "tree.json"
        state = random_state((2,) * 6, seed=6)
        tree = concentrate(state, stop_order=2)
        doc = legacy.tree_doc(tree)
        doc["format_version"] = version
        for level_doc, level in zip(doc["levels"], tree.levels):
            if version == 1:
                n = len(level.input_dims)
                level_doc["pairing"] = [list(range(i, min(i + 2, n))) for i in range(0, n, 2)]
                level_doc["input_dims"] = list(level.input_dims)
            for mode_doc, ext in zip(level_doc["modes"], level.extracts):
                if version == 1:
                    mode_doc["rows"], mode_doc["cols"] = ext.dims[1:]
                if version < 3:
                    mode_doc["complement"] = [legacy.pairs(m) for m in ext.complement_slices]
        path.write_text(json.dumps(doc))
        back = read_tree(path)
        assert np.linalg.norm(reconstruct(back) - state) < 1e-10
        assert_bit_equal(back, tree)

    def test_version_5_stores_each_shape_once(self, tmp_path):
        # no complement, no terminal dims, no per-mode rank beside its slices: the ranks give every shape
        path = tmp_path / "tree.json"
        tree = concentrate(random_state((2,) * 6, seed=6), stop_order=2)
        write_tree(path, tree)
        head, _, body = path.read_bytes().partition(b"\n")
        assert json.loads(head) == {
            "format_version": 5,
            "original_dims": [2] * 6,
            "ranks": [list(level.ranks) for level in tree.levels],
            "stop_order": 2,
        }
        entries = tree.terminal.size + sum(ext.slices.size for level in tree.levels for ext in level.extracts)
        assert len(body) == 16 * entries

    def test_slice_shape_must_match_pairing(self, tmp_path):
        # a 2x2 slice reflowed to 1x4 must not be read with the stored shape
        path = tmp_path / "tree.json"
        doc = legacy.tree_doc(concentrate(random_state((2,) * 5, seed=3)))
        mode_doc = doc["levels"][0]["modes"][0]
        mode_doc["rows"], mode_doc["cols"] = 1, 4
        mode_doc["slices"] = [[[pair for row in m for pair in row]] for m in mode_doc["slices"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="slice 0 must have 2 rows"):
            read_tree(path)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda doc: doc.update(levels={}), "levels must be a list"),
            (lambda doc: doc["levels"][0]["modes"].pop(), "level 0 must describe 3 modes"),
            (lambda doc: doc["levels"][0]["modes"][1].update(rank=0), "level 0 mode 1: bad rank 0"),
            (lambda doc: doc["levels"][0]["modes"][1].update(rank=5), "level 0 mode 1: bad rank 5"),
            (lambda doc: doc["levels"][0]["modes"][1].update(rank=True), "level 0 mode 1: bad rank True"),
        ],
    )
    def test_malformed_level_rejected(self, tmp_path, tamper, message):
        path = tmp_path / "tree.json"
        doc = legacy.tree_doc(concentrate(random_state((2,) * 6, seed=8)), version=4)
        tamper(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=message):
            read_tree(path)


class TestOperatorFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ops.json"
        ops = [haar_unitary(2, seed=i) for i in range(3)]
        write_operators(path, ops)
        back = read_operators(path)
        for a, b in zip(ops, back):
            assert np.array_equal(a, b)

    def test_missing_entries_rejected(self, tmp_path):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({"format_version": 1, "operators": [{"dim": 2}]}))
        with pytest.raises(FileFormatError):
            read_operators(path)

    @pytest.mark.parametrize(
        "operators, message",
        [
            ([], "operators must be a non-empty list"),
            *[([{"dim": d, "entries": [[[1.0, 0.0]]]}], f"operator 0 has bad dim {d!r}") for d in (0, "2", 2.0, True)],
            (
                [{"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}],
                r"each row of operator 0 must list exactly 2 \[re, im\] pairs",
            ),
        ],
    )
    def test_malformed_operators_rejected(self, tmp_path, operators, message):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({"format_version": 1, "operators": operators}))
        with pytest.raises(FileFormatError, match=message):
            read_operators(path)


def tiny_tree() -> ConcentrationTree:
    """A 3-qubit stop-order-2 tree of exact values, so its file depends on the writer alone."""
    pair = TripartiteExtract(np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.5j], [-0.5, 0.0]]]))
    lone = TripartiteExtract(np.array([[[0.6], [0.8]], [[-0.8], [0.6]]], dtype=np.complex128))
    level = ConcentrationLevel((2, 2, 2), [pair, lone], 1.0)
    return ConcentrationTree((2, 2, 2), [level], np.array([[0.25, 0.0], [0.0, -1 / 3]]), 2)


def indented_tree_text(tree) -> str:
    """A version 3 tree document in the indented layout that version was first written in."""
    return json.dumps(legacy.tree_doc(tree), indent=1, sort_keys=True, allow_nan=False) + "\n"


def floats(*values) -> np.ndarray:
    """The complex128 array whose float64 view is ``values``, real and imaginary parts in turn."""
    return np.array(values, dtype=np.float64).view(np.complex128)


def arrays(read) -> list:
    """What a reader returned, as arrays: a state, each operator, or a tree's terminal and then every slice."""
    if isinstance(read, ConcentrationTree):
        return [read.terminal] + [s for level in read.levels for ext in level.extracts for s in ext.slices]
    return list(read) if isinstance(read, list) else [read]


def assert_bit_equal(got, want):
    """``got`` is plain complex128 arrays, each writable and C-contiguous, of ``want``'s shapes and bits."""
    got, want = arrays(got), arrays(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.complex128 and a.flags.c_contiguous and a.flags.writeable
        assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b, dtype=np.complex128).tobytes()


# Files the older versions wrote, and the arrays they hold: [re, im] lists
# (state and operators 1, trees 3) and base64 strings (state and operators 2,
# trees 4).  They are read-only fixtures: no writer makes them any more.
V1_STATE = (
    b'{"coeffs":[[0.5,0.0],[-0.0,0.1],[1e-300,-2.5],[0.0,0.7071067811865476]],'
    b'"dims":[2,2],"format_version":1}\n'
)
V1_STATE_ARRAY = np.array([[0.5, complex(-0.0, 0.1)], [1e-300 - 2.5j, 0.7071067811865476j]])
V3_TREE = (
    b'{"format_version":3,"levels":[{"modes":['
    b'{"rank":2,"slices":[[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]],'
    b'[[[0.0,0.0],[0.0,0.5]],[[-0.5,0.0],[0.0,0.0]]]]},'
    b'{"rank":2,"slices":[[[[0.6,0.0]],[[0.8,0.0]]],[[[-0.8,0.0]],[[0.6,0.0]]]]}]}],'
    b'"original_dims":[2,2,2],"stop_order":2,'
    b'"terminal":{"coeffs":[[0.25,0.0],[0.0,0.0],[0.0,0.0],[-0.3333333333333333,0.0]],"dims":[2,2]}}\n'
)
V1_OPERATORS = (
    b'{"format_version":1,"operators":['
    b'{"dim":2,"entries":[[[0.0,0.0],[1.0,0.0]],[[1.0,0.0],[0.0,0.0]]]},'
    b'{"dim":3,"entries":[[[1.0,0.0],[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,1.0],[0.0,0.0]],'
    b'[[0.0,0.0],[0.0,0.0],[-1.0,0.0]]]}]}\n'
)
V1_OPERATORS_ARRAYS = [np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 1j, -1.0])]
V2_STATE = (
    b'{"coeffs":"AAAAAAAA4D8AAAAAAAAAAAAAAAAAAACAmpmZmZmZuT8BAAAAAAAAAAAAAAAAAATAWfP4wh9upQHNO39mnqDmPw==",'
    b'"dims":[2,2],"format_version":2}\n'
)
V2_STATE_ARRAY = floats(0.5, 0.0, -0.0, 0.1, 5e-324, -2.5, 1e-300, 0.7071067811865476).reshape(2, 2)
V4_TREE = (
    b'{"format_version":4,"levels":[{"modes":['
    b'{"rank":2,"slices":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    b'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAOA/AAAAAAAA4L8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="},'
    b'{"rank":2,"slices":"MzMzMzMz4z8AAAAAAAAAAJqZmZmZmek/AAAAAAAAAACamZmZmZnpvwAAAAAAAAAAMzMzMzMz4z8AAAAAAAAAAA=="}]}],'
    b'"original_dims":[2,2,2],"stop_order":2,'
    b'"terminal":{"coeffs":"AAAAAAAA0D8AAAAAAAAAgAEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEAAAAAAACAVVVVVVVV1b8AAAAAAAAAAA==","dims":[2,2]}}\n'
)
V4_TREE_TERMINAL = floats(0.25, -0.0, 5e-324, 0.0, 0.0, -5e-324, -1 / 3, 0.0).reshape(2, 2)
V2_OPERATORS = (
    b'{"format_version":2,"operators":['
    b'{"dim":2,"entries":"AAAAAAAAAAAAAAAAAAAAgAAAAAAAAPA/AQAAAAAAAAAAAAAAAADwPwAAAAAAAAAAAAAAAAAAAIAAAAAAAAAAAA=="},'
    b'{"dim":3,"entries":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    b'AAAAAAAAAAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'
    b'AADwvwAAAAAAAAAA"}]}\n'
)
V2_OPERATORS_ARRAYS = [floats(0.0, -0.0, 1.0, 5e-324, 1.0, 0.0, -0.0, 0.0).reshape(2, 2), np.diag([1.0, 1j, -1.0])]


def v4_tree() -> ConcentrationTree:
    tree = tiny_tree()
    return ConcentrationTree(tree.original_shape, tree.levels, V4_TREE_TERMINAL, tree.stop_order)


class TestLayout:
    """Each file is one compact JSON header line of sorted keys, then its arrays' raw little-endian complex128 bytes."""

    def test_state_file_bytes(self, tmp_path):
        path = tmp_path / "state.json"
        write_tensor(path, V2_STATE_ARRAY)
        assert path.read_bytes() == b'{"dims":[2,2],"format_version":3}\n' + struct.pack(
            "<8d", 0.5, 0.0, -0.0, 0.1, 5e-324, -2.5, 1e-300, 0.7071067811865476
        )

    def test_tree_file_bytes(self, tmp_path):
        # the pair mode's 2 x 2 x 2 slices, the lone mode's 2 x 2 x 1 slices, then the 2 x 2 terminal
        path = tmp_path / "tree.json"
        write_tree(path, v4_tree())
        assert path.read_bytes() == (
            b'{"format_version":5,"original_dims":[2,2,2],"ranks":[[2,2]],"stop_order":2}\n'
            + struct.pack("<16d", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.5, 0.0, 0.0, 0.0)
            + struct.pack("<8d", 0.6, 0.0, 0.8, 0.0, -0.8, 0.0, 0.6, 0.0)
            + struct.pack("<8d", 0.25, -0.0, 5e-324, 0.0, 0.0, -5e-324, -1 / 3, 0.0)
        )

    def test_operator_file_bytes(self, tmp_path):
        path = tmp_path / "ops.json"
        write_operators(path, V2_OPERATORS_ARRAYS)
        assert path.read_bytes() == (
            b'{"dims":[2,3],"format_version":3}\n'
            + struct.pack("<8d", 0.0, -0.0, 1.0, 5e-324, 1.0, 0.0, -0.0, 0.0)
            + struct.pack("<18d", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0)
        )

    @pytest.mark.parametrize(
        "text, read, want",
        [
            (V1_STATE, read_tensor, V1_STATE_ARRAY),
            (V3_TREE, read_tree, tiny_tree()),
            (V1_OPERATORS, read_operators, V1_OPERATORS_ARRAYS),
        ],
        ids=["state", "tree", "operators"],
    )
    def test_list_payload_file_reads_bit_exact(self, tmp_path, text, read, want):
        path = tmp_path / "old.json"
        path.write_bytes(text)
        assert_bit_equal(read(path), want)

    @pytest.mark.parametrize(
        "text, write, read, want",
        [
            (V2_STATE, write_tensor, read_tensor, V2_STATE_ARRAY),
            (V4_TREE, write_tree, read_tree, v4_tree()),
            (V2_OPERATORS, write_operators, read_operators, V2_OPERATORS_ARRAYS),
        ],
        ids=["state", "tree", "operators"],
    )
    def test_base64_file_reads_bit_exact(self, tmp_path, text, write, read, want):
        # the bytes each base64 string held are the payload the binary writers write
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_bytes(text)
        assert_bit_equal(read(old), want)
        write(new, want)
        # sorted keys put every base64 string of the old file in payload order
        strings = re.findall(rb'"([A-Za-z0-9+/=]{20,})"', text)
        assert new.read_bytes().partition(b"\n")[2] == b"".join(map(base64.b64decode, strings))

    def test_indented_tree_holds_the_same_document(self, tmp_path):
        # the version 3 tree in the indented layout still reads, bit for bit
        # to the arrays of the version 5 file of the same tree
        new, indented = tmp_path / "new.json", tmp_path / "indented.json"
        tree = concentrate(random_state((2,) * 9, seed=9), stop_order=3)
        write_tree(new, tree)
        indented.write_text(indented_tree_text(tree))
        assert json.loads(indented.read_text())["format_version"] == 3
        assert json.loads(new.read_bytes().partition(b"\n")[0])["format_version"] == 5
        back = read_tree(new)
        assert_bit_equal(back, tree)
        assert_bit_equal(read_tree(indented), back)

    WRITERS = {
        "state": (write_tensor, np.array([1.0, np.nan])),
        "tree": (write_tree, ConcentrationTree((2, 2), [], np.array([[1.0, np.nan], [0.0, 0.0]]), 3)),
        "operators": (write_operators, [np.array([[1.0, np.nan], [0.0, 1.0]])]),
        # shapes the readers refuse
        "0-d state": (write_tensor, np.array(1.0)),
        "state of dims (2, 0)": (write_tensor, np.zeros((2, 0))),
        "no operators": (write_operators, []),
        "2 x 3 operator": (write_operators, [np.eye(2), np.ones((2, 3))]),
        "1-D operator": (write_operators, [np.ones(2)]),
        "tree terminal off its ranks": (write_tree, ConcentrationTree((2, 2, 2), tiny_tree().levels, np.ones(4), 2)),
    }

    @pytest.mark.parametrize("what", WRITERS)
    def test_failed_write_leaves_the_file_as_it_was(self, tmp_path, what):
        writer, bad = self.WRITERS[what]
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        write_tensor(kept, random_state((2, 2), seed=1))
        before = kept.read_bytes()
        with pytest.raises(ValueError):
            writer(kept, bad)
        assert kept.read_bytes() == before
        with pytest.raises(ValueError):
            writer(absent, bad)
        assert not absent.exists()


def bits(*words) -> str:
    """The payload of the float64 values with the given IEEE 754 bit patterns."""
    return base64.b64encode(np.array(words, dtype="<u8").tobytes()).decode("ascii")


TWO = payload([1.0, 0.5j])  # 32 bytes, 44 characters


class TestPayload:
    """Every current-version array is one base64 payload; anything else is a format error naming the field."""

    @pytest.mark.parametrize(
        "version, coeffs, message",
        [
            (2, "-" + TWO[1:], "coeffs is not valid base64"),  # the URL-safe alphabet's 62
            (2, TWO[:-2] + "\u00e9=", "coeffs is not valid base64"),
            (2, TWO[:20] + "\n" + TWO[20:], "coeffs is not valid base64"),
            (2, TWO.rstrip("="), "coeffs is not valid base64"),
            (2, payload([1.0]), r"coeffs must hold exactly 2 complex128 values \(32 bytes\), not 16 bytes"),
            (2, base64.b64encode(base64.b64decode(TWO) + b"\0").decode(), "coeffs must hold exactly 2 complex128 values .* not 33 bytes"),
            (2, "", "coeffs must hold exactly 2 complex128 values .* not 0 bytes"),
            *[
                (2, bits(0, 0, 0, w), "coeffs contains non-finite values")
                for w in (0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000)
            ],
            (2, [[1.0, 0.0], [0.0, 0.5]], "coeffs must be a base64 string"),
            (2, None, "coeffs must be a base64 string"),
            (1, TWO, r"coeffs must list exactly 2 \[re, im\] pairs"),
        ],
        ids=[
            "outside the alphabet", "non-ASCII", "newline", "unpadded", "one pair short", "one byte over",
            "empty", "quiet NaN", "signalling NaN", "negative NaN", "inf", "-inf", "list in v2", "null in v2",
            "string in v1",
        ],
    )
    def test_malformed_state_payload_rejected(self, tmp_path, version, coeffs, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format_version": version, "dims": [2], "coeffs": coeffs}))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # level 0 of 5 qubits: modes (2, 2) of rank 4, (2, 2) of rank 4 and (2, 1) of rank 2
            (lambda doc: doc["levels"][0]["modes"][1].update(slices=payload(np.zeros(15))),
             r"level 0 mode 1 slices must hold exactly 16 complex128 values"),
            (lambda doc: doc["levels"][0]["modes"][2].update(slices=payload(np.zeros(2))),
             r"level 0 mode 2 slices must hold exactly 4 complex128 values"),
            (lambda doc: doc["levels"][0]["modes"][2].update(rank=1),
             r"level 0 mode 2 slices must hold exactly 2 complex128 values \(32 bytes\), not 64 bytes"),
            (lambda doc: doc["levels"][0]["modes"][0].update(slices=[payload(np.eye(2))] * 4),
             "level 0 mode 0 slices must be a base64 string"),
            (lambda doc: doc["terminal"].update(coeffs=bits(0x7FF0000000000000, 0) + "A"),
             "terminal coeffs is not valid base64"),
            (lambda doc: doc["terminal"].update(coeffs=bits(*[0] * 63, 0x7FF8000000000000)),
             "terminal coeffs contains non-finite values"),
            (lambda doc: doc.update(format_version=3), "terminal coeffs must list exactly 32"),
        ],
    )
    def test_malformed_tree_payload_rejected(self, tmp_path, tamper, message):
        path = tmp_path / "tree.json"
        doc = legacy.tree_doc(concentrate(random_state((2,) * 5, seed=3), stop_order=3), version=4)
        tamper(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_tree(path)

    @pytest.mark.parametrize(
        "version, entries, message",
        [
            (2, payload(np.eye(2)[:1]), "operator 0 must hold exactly 4 complex128 values"),
            (2, bits(*[0] * 7, 0xFFF0000000000000), "operator 0 contains non-finite values"),
            (2, np.stack([np.eye(2), np.zeros((2, 2))], -1).tolist(), "operator 0 must be a base64 string"),
            (1, payload(np.eye(2)), "operator 0 must have 2 rows"),
        ],
    )
    def test_malformed_operator_payload_rejected(self, tmp_path, version, entries, message):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps({"format_version": version, "operators": [{"dim": 2, "entries": entries}]}))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {message}"):
            read_operators(path)

    def test_arrays_read_back_are_plain_complex128(self, tmp_path):
        # np.frombuffer alone would give read-only arrays over the decoded bytes
        cases = [
            (write_tensor, read_tensor, random_state((2, 3, 2), seed=2)),
            (write_tree, read_tree, concentrate(random_state((2, 3) * 3, seed=2), stop_order=2)),
            (write_operators, read_operators, [haar_unitary(d, seed=d) for d in (2, 3, 2)]),
        ]
        for i, (write, read, value) in enumerate(cases):
            path = tmp_path / f"{i}.json"
            write(path, value)
            assert_bit_equal(read(path), value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_writers_reject_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "state.json"
        with pytest.raises(ValueError, match="coeffs: it contains non-finite values"):
            write_tensor(path, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="operator 1: it contains non-finite values"):
            write_operators(path, [np.eye(2), np.array([[bad]])])
        assert not path.exists()


def nan_at(offset):
    """Set the double at byte ``offset`` of a payload to NaN."""
    return lambda head, body: (head, body[:offset] + struct.pack("<d", math.nan) + body[offset + 8 :])


class TestBinaryPayload:
    """A binary file's header line gives every shape; the rest must be exactly their bytes, every value finite.

    The files hold a 5-qubit state (32 entries), five 2 x 2 operators (20) and
    the state's stop-order-3 tree (68): level 0 has modes (2, 2) of rank 4,
    (2, 2) of rank 4 and (2, 1) of rank 2, and the terminal is 4 x 4 x 2.
    """

    CASES = {
        "short state": ("state", lambda h, b: (h, b[:-1]), r"coeffs must hold exactly 32 complex128 values \(512 bytes\), not 511 bytes"),
        "state with trailing bytes": ("state", lambda h, b: (h, b + bytes(16)), "coeffs must hold exactly 32 complex128 values .* not 528 bytes"),
        "short tree": ("tree", lambda h, b: (h, b[:-16]), r"payload must hold exactly 68 complex128 values \(1088 bytes\), not 1072 bytes"),
        "operators with trailing bytes": ("operators", lambda h, b: (h, b + b"\n"), "payload must hold exactly 20 complex128 values .* not 321 bytes"),
        "header not an object": ("state", lambda h, b: (h["dims"], b), "expected a JSON object with field 'format_version'"),
        "operator dims not a list": ("operators", lambda h, b: ({**h, "dims": 2}, b), "dims must be a non-empty list of integers >= 1"),
        "rank out of range": ("tree", lambda h, b: ({**h, "ranks": [[4, 5, 2]]}, b), "level 0 mode 1: bad rank 5"),
        "too many ranks": ("tree", lambda h, b: ({**h, "ranks": [[4, 4, 2, 1]]}, b), "level 0 must describe 3 modes"),
        "stop order not an integer": ("tree", lambda h, b: ({**h, "stop_order": 3.0}, b), "stop_order must be 2 or 3"),
        "non-finite state": ("state", nan_at(16 * 31 + 8), "coeffs contains non-finite values"),
        "non-finite slice": ("tree", nan_at(16 * 33), "level 0 mode 2 slices contains non-finite values"),
        "non-finite terminal": ("tree", nan_at(16 * 36), "terminal coeffs contains non-finite values"),
        "non-finite operator": ("operators", nan_at(16 * 19), "operator 4 contains non-finite values"),
        "unknown version": ("state", lambda h, b: ({**h, "format_version": 9}, b), "unsupported format_version 9"),
        "tree version in a state file": ("state", lambda h, b: ({**h, "format_version": 5}, b), "unsupported format_version 5"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_malformed_binary_file_exit_2(self, tmp_path, capsys, case):
        kind, tamper, message = self.CASES[case]
        state = random_state((2,) * 5, seed=3)
        a, path = tmp_path / "a.bin", tmp_path / f"{kind}.bin"
        write_tensor(a, state)
        write, read, argv = {
            "state": (lambda p: write_tensor(p, state), read_tensor, ["concentrate", path, tmp_path / "t.bin"]),
            "tree": (lambda p: write_tree(p, concentrate(state)), read_tree, ["reconstruct", path, tmp_path / "b.bin"]),
            "operators": (lambda p: write_operators(p, [np.eye(2)] * 5), read_operators, ["check", a, a, "--mode", "lu", "--ops", path]),
        }[kind]
        write(path)
        head, _, body = path.read_bytes().partition(b"\n")
        head, body = tamper(json.loads(head), body)
        path.write_bytes(json.dumps(head).encode() + b"\n" + body)
        expected = f"^{re.escape(str(path))}: {message}"
        with pytest.raises(FileFormatError, match=expected):
            read(path)
        assert main([str(x) for x in argv]) == 2
        out, err = capsys.readouterr()
        assert re.match(f"error: {expected[1:]}", err) and err.count("\n") == 1
        assert "verdict" not in out

    def test_thirteen_qubit_state_is_a_header_and_its_bytes(self, tmp_path):
        path = tmp_path / "s.bin"
        state = random_state((2,) * 13, seed=1)
        write_tensor(path, state)
        head, newline, body = path.read_bytes().partition(b"\n")
        assert head == b'{"dims":[2,2,2,2,2,2,2,2,2,2,2,2,2],"format_version":3}' and newline
        assert body == state.astype("<c16").tobytes() and len(body) == 131072


# Every finite double, with the edge cases drawn often: signed zeros,
# subnormals, the smallest normal and the largest magnitudes.
DOUBLES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


def complex_arrays(shape):
    n = 2 * math.prod(shape)
    return st.lists(DOUBLES, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.float64).view(np.complex128).reshape(shape)
    )


def bit_equal(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dims=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_state_file_is_bit_exact(self, data, dims):
        state = data.draw(complex_arrays(tuple(dims)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            write_tensor(path, state)
            assert bit_equal(read_tensor(path), state)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dims=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_operator_file_is_bit_exact(self, data, dims):
        ops = [data.draw(complex_arrays((d, d))) for d in dims]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ops.json"
            write_operators(path, ops)
            back = read_operators(path)
        assert len(back) == len(ops)
        assert all(bit_equal(a, b) for a, b in zip(back, ops))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), ranks=st.tuples(st.integers(1, 4), st.integers(1, 2)))
    def test_every_version_reads_the_same_bits(self, data, dims, ranks):
        # the same arrays written as [re, im] lists, as base64 strings and as the binary payload
        state = data.draw(complex_arrays(tuple(dims)))
        ops = [data.draw(complex_arrays((d, d))) for d in dims]
        # a 3-qubit stop-order-2 tree: the reader takes any slice values of the derived shapes
        pair, lone = data.draw(complex_arrays((ranks[0], 2, 2))), data.draw(complex_arrays((ranks[1], 2, 1)))
        level = ConcentrationLevel((2, 2, 2), [TripartiteExtract(pair), TripartiteExtract(lone)], 1.0)
        tree = ConcentrationTree((2, 2, 2), [level], data.draw(complex_arrays(ranks)), 2)
        cases = [
            (state, legacy.state_doc, (1, 2), write_tensor, read_tensor),
            (ops, legacy.operators_doc, (1, 2), write_operators, read_operators),
            (tree, legacy.tree_doc, (3, 4), write_tree, read_tree),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file"
            for value, doc, versions, write, read in cases:
                for version in versions:
                    path.write_text(legacy.text(doc(value, version)))
                    assert_bit_equal(read(path), value)
                write(path, value)
                assert_bit_equal(read(path), value)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dims=st.lists(st.sampled_from((1, 2, 3)), min_size=2, max_size=7).filter(
            lambda d: math.prod(d) <= 2**8
        ),
        stop_order=st.sampled_from((2, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tree_file_is_bit_exact(self, dims, stop_order, seed):
        tree = concentrate(random_state(tuple(dims), seed=seed), stop_order=stop_order)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "tree.json", Path(tmp) / "again.json"
            write_tree(path, tree)
            back = read_tree(path)
            write_tree(again, back)
            assert again.read_bytes() == path.read_bytes()
        assert back.original_shape == tree.original_shape
        assert back.stop_order == stop_order
        assert bit_equal(back.terminal, tree.terminal)
        assert len(back.levels) == len(tree.levels)
        for t in (tree, back):
            # each level's ranks are the next level's input dims, and the last level's the terminal's shape
            following = [lvl.input_dims for lvl in t.levels[1:]] + [t.terminal.shape]
            for lvl, shape in zip(t.levels, following):
                assert lvl.ranks == shape
                for ext, pair in zip(lvl.extracts, pair_dims(lvl.input_dims), strict=True):
                    assert ext.slices.dtype == np.complex128 and ext.slices.flags.c_contiguous
                    assert ext.slices.shape == ext.dims and ext.dims[1:] == pair
        for lvl_a, lvl_b in zip(tree.levels, back.levels):
            assert lvl_b.input_dims == lvl_a.input_dims
            assert lvl_b.ranks == lvl_a.ranks
            for ext_a, ext_b in zip(lvl_a.extracts, lvl_b.extracts, strict=True):
                assert ext_b.dims == ext_a.dims
                assert bit_equal(ext_a.slices, ext_b.slices)
