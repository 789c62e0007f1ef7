import json

import numpy as np
import pytest

from entcore.decompose import concentrate, reconstruct
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
        write_tensor(path, random_state((2, 2), seed=2))
        path.write_text(path.read_text()[:40])
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

    def test_bad_dims_rejected(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"format_version": 1, "dims": [2, 0], "coeffs": []}))
        with pytest.raises(FileFormatError):
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
        tree = concentrate(random_state((2, 2, 2, 2), seed=5))
        write_tree(path, tree)
        doc = json.loads(path.read_text())
        doc["levels"][0]["modes"][0]["slices"].pop()
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            read_tree(path)

    def test_non_integer_stop_order_rejected(self, tmp_path):
        path = tmp_path / "tree.json"
        write_tree(path, concentrate(random_state((2, 2, 2, 2), seed=7)))
        doc = json.loads(path.read_text())
        doc["stop_order"] = 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="stop_order"):
            read_tree(path)

    def test_version_1_tree_still_reads(self, tmp_path):
        # version 1 also stored each level's pairing and input dims and each
        # mode's rows and cols; the reader derives them instead
        path = tmp_path / "tree.json"
        state = random_state((2,) * 6, seed=6)
        tree = concentrate(state, stop_order=2)
        write_tree(path, tree)
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        for level_doc, level in zip(doc["levels"], tree.levels):
            level_doc["pairing"] = [list(g) for g in level.plan.groups]
            level_doc["input_dims"] = list(level.input_dims)
            for mode_doc, ext in zip(level_doc["modes"], level.extracts):
                mode_doc["rows"], mode_doc["cols"] = ext.dims[1:]
        path.write_text(json.dumps(doc))
        assert np.linalg.norm(reconstruct(read_tree(path)) - state) < 1e-10

    def test_slice_shape_must_match_pairing(self, tmp_path):
        # a 2x2 slice reflowed to 1x4 must not be read with the stored shape
        path = tmp_path / "tree.json"
        write_tree(path, concentrate(random_state((2,) * 5, seed=3)))
        doc = json.loads(path.read_text())
        mode_doc = doc["levels"][0]["modes"][0]
        mode_doc["rows"], mode_doc["cols"] = 1, 4
        for key in ("slices", "complement"):
            mode_doc[key] = [[[pair for row in m for pair in row]] for m in mode_doc[key]]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="slice 0 must have 2 rows"):
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
