import json

import numpy as np
import pytest

from entcore.cli import main
from entcore.fileio import read_tensor, write_operators, write_tensor
from entcore.states import apply_local, haar_unitary, random_state


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_paper6_concentrate_summary(self, tmp_path, capsys):
        state = tmp_path / "p6.json"
        tree = tmp_path / "p6.tree.json"
        code, out, _ = run(capsys, "gen", "paper6", "0.8", "0.45", "0.35", "0.2", state)
        assert code == 0
        code, out, _ = run(capsys, "concentrate", state, tree, "--stop-order", "3")
        assert code == 0
        assert "(4, 4, 4)" in out
        assert "terminal order 3" in out

    def test_gen_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "gen", "random", "2", "2", "2", a, "--seed", "9")[0] == 0
        assert run(capsys, "gen", "random", "2", "2", "2", b, "--seed", "9")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ghz_positional_params(self, tmp_path, capsys):
        out_path = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "ghz", "4", "2", out_path)
        assert code == 0
        state = read_tensor(out_path)
        assert state.shape == (2, 2, 2, 2)

    def test_bad_family_params_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "paper4", "1.0", tmp_path / "x.json")
        assert code == 2


class TestConcentrateReconstruct:
    def test_roundtrip_matches_source(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        tree = tmp_path / "s.tree.json"
        back = tmp_path / "s.back.json"
        state = random_state((2, 2, 2, 2, 2), seed=3)
        write_tensor(src, state)
        assert run(capsys, "concentrate", src, tree)[0] == 0
        assert run(capsys, "reconstruct", tree, back)[0] == 0
        assert np.linalg.norm(read_tensor(back) - state) <= 1e-10

    def test_twelve_qubit_summary_reports_ten_extracts(self, tmp_path, capsys):
        src = tmp_path / "big.json"
        tree = tmp_path / "big.tree.json"
        write_tensor(src, random_state((2,) * 12, seed=4))
        code, out, _ = run(capsys, "concentrate", src, tree, "--stop-order", "2")
        assert code == 0
        assert "tripartite extracts: 10" in out
        assert "terminal order 2" in out

    def test_concentrate_is_byte_deterministic(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        write_tensor(src, random_state((2, 2, 2, 2), seed=21))
        assert run(capsys, "concentrate", src, t1)[0] == 0
        assert run(capsys, "concentrate", src, t2)[0] == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_pairing_flag(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        tree = tmp_path / "s.tree.json"
        write_tensor(src, random_state((2, 2, 2, 2, 2), seed=5))
        code, out, _ = run(capsys, "concentrate", src, tree, "--pairing", "0-1,2-3,4")
        assert code == 0
        assert "(0-1)(2-3)(4)" in out

    @pytest.mark.parametrize(
        "spec, expected", [("0-1,2-3", 3), ("0-2,1-3", 2)], ids=["wrong-mode-count", "non-adjacent"]
    )
    def test_pairing_flag_rejects_other_plans(self, tmp_path, capsys, spec, expected):
        # a well-formed plan for the wrong mode count is a dimension error (3);
        # a non-adjacent plan is a malformed spec that argparse rejects (2)
        src = tmp_path / "s.json"
        write_tensor(src, random_state((2,) * 5, seed=5))
        try:
            code = run(capsys, "concentrate", src, tmp_path / "t.json", "--pairing", spec)[0]
        except SystemExit as exc:
            code = exc.code
        assert code == expected

    def test_malformed_coeff_count_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"format_version": 1, "dims": [2, 2], "coeffs": [[1.0, 0.0]]}))
        code, _, err = run(capsys, "concentrate", src, tmp_path / "t.json")
        assert code == 2
        assert err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "concentrate", tmp_path / "absent.json", tmp_path / "t.json")
        assert code == 2

    def test_malformed_tree_exit_3(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        tree = tmp_path / "s.tree.json"
        write_tensor(src, random_state((2, 2, 2, 2), seed=6))
        assert run(capsys, "concentrate", src, tree)[0] == 0
        doc = json.loads(tree.read_text())
        doc["terminal"]["dims"] = [3, 3]
        doc["terminal"]["coeffs"] = [[1.0, 0.0]] * 9
        tree.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reconstruct", tree, tmp_path / "back.json")
        assert code == 3


class TestCheck:
    def test_haar_orbit_with_ops_exit_0(self, tmp_path, capsys):
        a, b, ops_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ops.json"
        psi = random_state((2, 2, 2, 2), seed=7)
        ops = [haar_unitary(2, seed=70 + i) for i in range(4)]
        write_tensor(a, psi)
        write_tensor(b, apply_local(psi, ops))
        write_operators(ops_path, ops)
        code, out, _ = run(capsys, "check", a, b, "--mode", "lu", "--ops", ops_path)
        assert code == 0
        assert "verdict: equivalent" in out
        assert "residuals:" in out

    def test_ghz_vs_w_lu_exit_1_with_witness(self, tmp_path, capsys):
        g, w = tmp_path / "g.json", tmp_path / "w.json"
        assert run(capsys, "gen", "ghz", "3", g)[0] == 0
        assert run(capsys, "gen", "w", "3", w)[0] == 0
        code, out, _ = run(capsys, "check", g, w, "--mode", "lu")
        assert code == 1
        assert "verdict: inequivalent" in out
        assert "singular values differ" in out

    def test_unrelated_pair_without_ops_exit_4(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_tensor(a, random_state((2, 2, 2, 2), seed=8))
        write_tensor(b, random_state((2, 2, 2, 2), seed=9))
        code, out, _ = run(capsys, "check", a, b, "--mode", "slocc", "--budget", "5")
        assert code == 4
        assert "verdict: inconclusive" in out

    def test_wrong_ops_exit_4(self, tmp_path, capsys):
        a, b, ops_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ops.json"
        psi = random_state((2, 2, 2, 2), seed=10)
        write_tensor(a, psi)
        write_tensor(b, apply_local(psi, [haar_unitary(2, seed=80 + i) for i in range(4)]))
        write_operators(ops_path, [haar_unitary(2, seed=90 + i) for i in range(4)])
        code, out, _ = run(capsys, "check", a, b, "--mode", "lu", "--ops", ops_path)
        assert code == 4

    @pytest.mark.parametrize(
        "ops",
        [
            [haar_unitary(2, seed=90 + i) for i in range(3)],
            [haar_unitary(3, seed=90)] + [haar_unitary(2, seed=91 + i) for i in range(3)],
        ],
        ids=["three-operators", "qutrit-operator"],
    )
    def test_mis_sized_ops_exit_3(self, tmp_path, capsys, ops):
        a, b, ops_path = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ops.json"
        psi = random_state((2, 2, 2, 2), seed=10)
        write_tensor(a, psi)
        write_tensor(b, apply_local(psi, [haar_unitary(2, seed=80 + i) for i in range(4)]))
        write_operators(ops_path, ops)
        code, out, err = run(capsys, "check", a, b, "--mode", "lu", "--ops", ops_path)
        assert code == 3
        assert "verdict" not in out
        assert "operator dims" in err

    def test_dimension_mismatch_exit_3(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_tensor(a, random_state((2, 2), seed=11))
        write_tensor(b, random_state((2, 2, 2), seed=12))
        code, _, err = run(capsys, "check", a, b, "--mode", "lu")
        assert code == 3


class TestParams:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "params", "2", "2", "2", "2")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run(capsys, "params", "2", "2", "2")
        assert code == 0 and out.strip() == "-4"
        code, out, _ = run(capsys, "params", "1")
        assert code == 0 and out.strip() == "0"
