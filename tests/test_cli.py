import base64
import json

import numpy as np
import pytest

from entcore import cli
from entcore.cli import main
from entcore.fileio import read_operators, read_tensor, read_tree, write_operators, write_tensor
from entcore.states import apply_local, haar_unitary, random_state

import legacy


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

    @pytest.mark.parametrize("family", ["paper4", "paper6"])
    @pytest.mark.parametrize("bad", ["inf", "nan", "1e999"])
    def test_non_finite_family_parameter_exit_2(self, tmp_path, capsys, family, bad):
        out_path = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", family, bad, "1", "1", "1", out_path)
        assert code == 2
        assert "bad generator arguments" in err and "finite parameters" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "params, rule",
        [
            (("ghz", "0"), "ghz needs n >= 2 parties of dimension >= 2"),
            (("ghz", "1"), "ghz needs n >= 2 parties of dimension >= 2"),
            (("ghz", "2", "1"), "ghz needs n >= 2 parties of dimension >= 2"),
            (("w", "1"), "w needs n >= 2 qubits"),
            (("random", "0", "2"), "random needs one or more dims, each >= 1, got (0, 2)"),
            (("product", "2", "-3"), "product needs one or more dims, each >= 1, got (2, -3)"),
        ],
        ids=["ghz-0", "ghz-1", "ghz-2-1", "w-1", "random-0-2", "product-2--3"],
    )
    def test_too_few_parties_or_levels_name_the_rule(self, tmp_path, capsys, params, rule):
        # bad generator arguments (2), not a dimension error (3)
        out_path = tmp_path / "x.json"
        code, _, err = run(capsys, "gen", *params, out_path)
        assert code == 2
        assert "bad generator arguments" in err and rule in err
        assert not out_path.exists()

    @pytest.mark.parametrize("seed", ["-1", "2.7", "many"])
    def test_bad_seed_rejected_at_parse_time(self, tmp_path, capsys, seed):
        out_path = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run(capsys, "gen", "random", "2", "2", out_path, "--seed", seed)
        assert exc.value.code == 2
        assert f"seed must be a non-negative integer, got {seed!r}" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "params, usage",
        [(("ghz",), "ghz takes: n [d]"), (("w", "3", "4"), "w takes: n"), (("random",), "random takes: dim")],
    )
    def test_wrong_param_count_exit_2(self, tmp_path, capsys, params, usage):
        out_path = tmp_path / "out.json"
        code, _, err = run(capsys, "gen", *params, out_path)
        assert code == 2
        assert usage in err
        assert not out_path.exists()


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
        # the summary labels each level's pairing, the adjacent one of its mode count
        src = tmp_path / "s.json"
        tree = tmp_path / "s.tree.json"
        write_tensor(src, random_state((2, 2, 2, 2, 2), seed=5))
        code, out, _ = run(capsys, "concentrate", src, tree)
        assert code == 0
        assert "(0-1)(2-3)(4)" in out
        # that pairing is derived from the dims, so no flag names it: argparse rejects one (2)
        with pytest.raises(SystemExit) as exc:
            run(capsys, "concentrate", src, tree, "--pairing", "0-1,2-3,4")
        assert exc.value.code == 2

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
        # version 4 stores the terminal's dims, so they can disagree with the levels' ranks
        src = tmp_path / "s.json"
        tree = tmp_path / "s.tree.json"
        write_tensor(src, random_state((2, 2, 2, 2), seed=6))
        assert run(capsys, "concentrate", src, tree)[0] == 0
        doc = legacy.tree_doc(read_tree(tree), version=4)
        doc["terminal"]["dims"] = [3, 3]
        doc["terminal"]["coeffs"] = base64.b64encode(np.ones(9, dtype="<c16").tobytes()).decode()
        tree.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reconstruct", tree, tmp_path / "back.json")
        assert code == 3

    def test_tiny_state_exit_0(self, tmp_path, capsys):
        # the squares of its entries underflow, but it is not the zero state
        src, tree, back = tmp_path / "s.json", tmp_path / "s.tree.json", tmp_path / "s.back.json"
        state = random_state((2,) * 7, seed=1) * 1e-200
        write_tensor(src, state)
        assert run(capsys, "concentrate", src, tree)[0] == 0
        assert run(capsys, "reconstruct", tree, back)[0] == 0
        assert np.linalg.norm((read_tensor(back) - state).ravel() * 1e200) <= 1e-13

    def test_malformed_payload_exit_2(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        doc = legacy.state_doc(random_state((2, 2, 2, 2), seed=6), version=2)
        doc["coeffs"] = doc["coeffs"][:-4]
        src.write_text(json.dumps(doc))
        code, _, err = run(capsys, "concentrate", src, tmp_path / "t.json")
        assert code == 2
        assert err == f"error: {src}: coeffs must hold exactly 16 complex128 values (256 bytes), not 255 bytes\n"
        assert not (tmp_path / "t.json").exists()


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

    @pytest.mark.parametrize("budget", ["-3", "-1", "2.7", "many"])
    def test_bad_budget_rejected_at_parse_time(self, tmp_path, capsys, budget):
        # exit 2 from argparse, before either file is read
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check", a, b, "--mode", "lu", "--budget", budget)
        assert exc.value.code == 2
        assert f"budget must be a non-negative integer, got {budget!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "2.7", "many"])
    def test_bad_seed_rejected_at_parse_time(self, tmp_path, capsys, seed):
        # -1 once reached numpy only at the first seeded restart: exit 3 on a
        # pair restart 0 leaves unsolved, a verdict on one that restart 0 solves
        a = tmp_path / "a.json"
        write_tensor(a, random_state((2, 2, 2), seed=14))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check", a, a, "--mode", "lu", "--seed", seed)
        assert exc.value.code == 2
        assert f"seed must be a non-negative integer, got {seed!r}" in capsys.readouterr().err

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

    def test_zero_state_exit_3(self, tmp_path, capsys):
        z = tmp_path / "z.json"
        write_tensor(z, np.zeros((2,) * 5))
        code, out, err = run(capsys, "check", z, z, "--mode", "lu")
        assert code == 3
        assert "verdict" not in out
        assert "cannot check equivalence of the zero tensor (psi)" in err


class TestHugeNumbers:
    """A number too large for a double in a list-payload file is a format error (exit 2), not a crash."""

    @pytest.mark.parametrize(
        "target, respell, where, argv",
        [
            (
                "b.json",
                lambda p: legacy.state_doc(read_tensor(p)),
                ("coeffs", 0, 0),
                ("check", "a.json", "b.json", "--mode", "lu"),
            ),
            (
                "ops.json",
                lambda p: legacy.operators_doc(read_operators(p)),
                ("operators", 0, "entries", 0, 0, 0),
                ("check", "a.json", "b.json", "--mode", "lu", "--ops", "ops.json"),
            ),
            (
                "t.json",
                lambda p: legacy.tree_doc(read_tree(p)),
                ("levels", 0, "modes", 0, "slices", 0, 0, 0, 0),
                ("reconstruct", "t.json", "back.json"),
            ),
        ],
        ids=["state", "operators", "tree"],
    )
    def test_401_digit_coefficient_exit_2(self, tmp_path, capsys, target, respell, where, argv):
        psi = random_state((2, 2, 2, 2), seed=13)
        ops = [haar_unitary(2, seed=130 + i) for i in range(4)]
        write_tensor(tmp_path / "a.json", psi)
        write_tensor(tmp_path / "b.json", apply_local(psi, ops))
        write_operators(tmp_path / "ops.json", ops)
        assert run(capsys, "concentrate", tmp_path / "a.json", tmp_path / "t.json")[0] == 0
        path = tmp_path / target
        doc = respell(path)
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = 10**400
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *(tmp_path / a if a.endswith(".json") else a for a in argv))
        assert code == 2
        assert "verdict" not in out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large" in err


class TestParams:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "params", "2", "2", "2", "2")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run(capsys, "params", "2", "2", "2")
        assert code == 0 and out.strip() == "-4"
        code, out, _ = run(capsys, "params", "1")
        assert code == 0 and out.strip() == "0"


class TestParser:
    COMMANDS = ("concentrate", "reconstruct", "check", "params", "gen")

    def test_main_calls_share_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run(capsys, "params", "2", "2")[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("argv", [(), *((c,) for c in COMMANDS)], ids=["entcore", *COMMANDS])
    def test_help_matches_a_fresh_parser(self, capsys, argv):
        # the shared parser, used by earlier calls, prints what a new one prints
        run(capsys, "params", "2", "2")
        helps = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*argv, "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith("usage: entcore")
