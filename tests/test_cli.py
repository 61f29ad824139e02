import ast
import hashlib
import json
import json.encoder
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from dualgraph import cli, resolution
from dualgraph.chains import ChainType
from dualgraph.cli import main
from dualgraph.dsl import GraphDocument
from dualgraph.errors import DualGraphError
from dualgraph.graph import WeightedGraph
from dualgraph.lattice import discriminant
from dualgraph.moves import MAX_LOG_MOVES, Move
from dualgraph.resolution import CheckResult, FiberRole

from test_lattice import cycle_discriminant

CHAIN_212 = "v 1 -2\nv 2 -1\nv 3 -2\ne 1 2\ne 2 3\n"
ZERO_ZERO = "v 1 0\nv 2 0\ne 1 2\n"


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return go


def write(tmp_path, text, name="g.dg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDisc:
    def test_zero_zero_chain(self, run, tmp_path):
        code, out, _ = run("disc", write(tmp_path, ZERO_ZERO))
        assert code == 0
        assert "discriminant: -1" in out

    def test_212_chain_is_degenerate(self, run, tmp_path):
        code, out, _ = run("disc", write(tmp_path, CHAIN_212))
        assert code == 0
        assert "discriminant: 0" in out

    def test_1000_vertex_cycle_prints_the_closed_form(self, run, tmp_path):
        rng = random.Random(1000)
        ws = [rng.randint(-5, 3) for _ in range(1000)]
        text = "".join(f"v {i} {w}\n" for i, w in enumerate(ws))
        text += "".join(f"e {i} {(i + 1) % 1000}\n" for i in range(1000))
        code, out, _ = run("disc", write(tmp_path, text), "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["discriminant"] == cycle_discriminant(ws)

    def test_subselection(self, run, tmp_path):
        code, out, _ = run("disc", write(tmp_path, CHAIN_212), "--sub", "1,3",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["discriminant"] == 4

    def test_unknown_selection_id_is_an_operation_error(self, run, tmp_path):
        path = write(tmp_path, CHAIN_212)
        for fmt in ("text", "json", "dot"):
            code, out, err = run("disc", path, "--sub", "1,9", "--format", fmt)
            assert (code, out, err) == (1, "", "error: selection contains unknown vertex 9\n")

    def test_missing_file_is_usage_error(self, run, tmp_path):
        code, out, err = run("disc", str(tmp_path / "absent.dg"))
        assert code == 2
        assert "error:" in err

    def test_undecodable_file_is_usage_error(self, run, tmp_path):
        path = tmp_path / "bad.dg"
        path.write_bytes(b"\xff\xfe v 1 -2\n")
        code, out, err = run("disc", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("command", ["disc", "minimalize", "standardize"])
    def test_byte_order_mark_is_skipped(self, run, tmp_path, command):
        """A file an editor saved with a UTF-8 BOM reads as the same file without it."""
        path = tmp_path / "g.dg"
        outcomes = []
        for bom in (b"\xef\xbb\xbf", b""):
            path.write_bytes(bom + CHAIN_212.encode())
            outcomes.append(run(command, str(path), "--format", "json"))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0

    def test_foreign_format_header_is_usage_error(self, run, tmp_path):
        path = write(tmp_path, CHAIN_212 + "# dualgraph banana\n")
        code, out, err = run("disc", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 6: format version 'banana' is not '1'\n"

    def test_bad_syntax_is_usage_error(self, run, tmp_path):
        code, _, err = run("disc", write(tmp_path, "v 1\n"))
        assert code == 2
        assert "line 1" in err


class TestMoves:
    def test_blowup_then_blowdown_restores_weights(self, run, tmp_path):
        path = write(tmp_path, "v 1 -1\n")
        code, out, _ = run("blowup", path, "--vertex", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        created = payload["results"]["created"]
        assert [created, -1] in payload["results"]["graph"]["vertices"]
        assert [1, -2] in payload["results"]["graph"]["vertices"]

    def test_edge_blowup(self, run, tmp_path):
        path = write(tmp_path, ZERO_ZERO)
        code, out, _ = run("blowup", path, "--edge", "1,2", "--format", "json")
        assert code == 0
        g = json.loads(out)["results"]["graph"]
        assert [3, -1] in g["vertices"]
        assert [1, -1] in g["vertices"] and [2, -1] in g["vertices"]

    def test_blowdown_contracts_and_drops_emptied_roles(self, run, tmp_path):
        text = CHAIN_212 + "role tips 1 3\nrole middle 2\n"
        code, out, _ = run("blowdown", write(tmp_path, text), "--vertex", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["removed"] == 2
        graph = payload["results"]["graph"]
        assert graph["vertices"] == [[1, -1], [3, -1]]
        assert graph["edges"] == [[1, 3]]
        assert graph["roles"] == {"tips": [1, 3]}
        assert [m["kind"] for m in payload["moves"]["main"]] == ["blow_down"]

    def test_blowdown_requires_minus_one(self, run, tmp_path):
        code, _, err = run("blowdown", write(tmp_path, ZERO_ZERO), "--vertex", "1")
        assert code == 1
        assert "error:" in err

    def test_minimalize_contracts_and_logs(self, run, tmp_path):
        text = "v 1 -2\nv 2 -1\nv 3 -2\ne 1 2\ne 2 3\nrole tips 1 3\n"
        code, out, _ = run("minimalize", write(tmp_path, text), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # two contractions leave a single 0-vertex, which is snc-minimal
        assert payload["results"]["contracted"] == 2
        assert payload["results"]["graph"]["vertices"] == [[3, 0]]
        assert payload["results"]["graph"]["roles"] == {"tips": [3]}
        assert len(payload["moves"]["minimalization"]) == 2

    def test_minimalize_respects_protection(self, run, tmp_path):
        code, out, _ = run("minimalize", write(tmp_path, "v 1 -1\n"),
                           "--protect", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["contracted"] == 0

    def test_standardize_212(self, run, tmp_path):
        code, out, _ = run("standardize", write(tmp_path, CHAIN_212),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["chain_type"] == [0]
        assert payload["results"]["is_standard"] is True

    def test_standardize_rejects_branching(self, run, tmp_path):
        star = "v 0 -2\nv 1 -2\nv 2 -2\nv 3 -2\ne 0 1\ne 0 2\ne 0 3\n"
        code, _, err = run("standardize", write(tmp_path, star))
        assert code == 1


class TestFibers:
    def test_count_up_to_three(self, run):
        code, out, _ = run("fibers", "--max", "3", "--validate")
        assert code == 0
        assert "fibers with up to 3 vertices: 4" in out
        assert "violations: 0" in out

    def test_json_counts(self, run):
        code, out, _ = run("fibers", "--max", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["by_size"] == {
            "1": 1, "2": 1, "3": 2, "4": 5, "5": 18}

    def test_dot_emits_one_block_per_fiber(self, run):
        code, out, _ = run("fibers", "--max", "2", "--format", "dot")
        assert code == 0
        assert out.count("graph fiber_") == 2


class TestResolve:
    def test_local_stage(self, run):
        code, out, _ = run("resolve", "3", "2", "--stage", "local",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["d_cusp_part"] == 1
        assert payload["status"] == "pass"

    def test_infinity_stage(self, run):
        code, out, _ = run("resolve", "3", "2", "--stage", "infinity",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["d_total"] == -1
        assert payload["results"]["d_far_part"] == 3

    def test_completion_stage_checks(self, run):
        code, out, _ = run("resolve", "5", "2", "--stage", "completion",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = [c["name"] for c in payload["checks"]]
        assert "boundary_discriminant" in names
        assert all(c["pass"] for c in payload["checks"])
        assert payload["results"]["rho"] == 8

    def test_completion_stage_reads_the_model(self, run, monkeypatch):
        # the printed checks are all of the model's, so the CLI adds only
        # the cusp part's discriminant to the three the model computed
        calls = []

        def counted(g, selection=None):
            calls.append(selection)
            return discriminant(g, selection)

        monkeypatch.setattr(cli, "discriminant", counted)
        monkeypatch.setattr(resolution, "discriminant", counted)
        code, out, _ = run("resolve", "5", "2", "--stage", "completion",
                           "--format", "json")
        assert code == 0
        assert len(calls) == 4
        model = resolution.build_completion(resolution.CuspPair(5, 2))
        payload = json.loads(out)
        shown = [{"name": c.name, "expected": c.expected, "computed": c.computed,
                  "pass": c.passed} for c in model.checks]
        assert payload["checks"] == json.loads(json.dumps(shown))  # tuples read back as lists
        assert (payload["results"]["d_boundary_chain"], payload["results"]["d_far_part"],
                payload["results"]["d_line_part"]) == (model.d_chain, model.d_far, model.d_line)

    def test_shared_factor_is_usage_error(self, run):
        code, _, err = run("resolve", "6", "2", "--stage", "local")
        assert code == 2

    def test_transversal_pair_is_usage_error(self, run):
        code, _, err = run("resolve", "1", "1", "--stage", "completion")
        assert code == 2


class TestVerifyTheorem:
    def test_single_pair(self, run):
        code, out, _ = run("verify-theorem", "3", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["d_v1"] == 3
        assert payload["results"]["d_v2"] == 2
        assert payload["status"] == "pass"
        assert all(c["pass"] for c in payload["checks"])

    def test_range(self, run):
        code, out, _ = run("verify-theorem", "--range", "2", "8",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = payload["results"]["pairs"]
        assert all(r["status"] == "pass" for r in rows)
        assert all(r["d_v1"] == r["n"] and r["d_v2"] == r["m"] for r in rows)
        assert [(r["n"], r["m"]) for r in rows] == sorted(
            (r["n"], r["m"]) for r in rows)

    def test_json_output_is_byte_stable(self, run):
        _, first, _ = run("verify-theorem", "4", "3", "--format", "json")
        _, second, _ = run("verify-theorem", "4", "3", "--format", "json")
        assert first == second

    def test_pair_and_range_together_rejected(self, run):
        code, _, err = run("verify-theorem", "3", "2", "--range", "2", "5")
        assert code == 2

    def test_missing_arguments_rejected(self, run):
        code, _, err = run("verify-theorem")
        assert code == 2


@pytest.fixture
def wrong_discriminant(monkeypatch):
    # the pipeline measures the parts of its members by _part_discriminant,
    # the completion its boundary by discriminant
    real, real_part = resolution.discriminant, resolution._part_discriminant
    monkeypatch.setattr(resolution, "discriminant", lambda g, sel=None: real(g, sel) + 1)
    monkeypatch.setattr(resolution, "_part_discriminant", lambda *args: real_part(*args) + 1)


class TestFailedCertificate:
    def test_json_keeps_the_whole_certificate(self, run, wrong_discriminant):
        code, out, err = run("verify-theorem", "3", "2", "--format", "json")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert payload["results"]["d_v1"] == 4
        failed = {c["name"]: c for c in payload["checks"] if not c["pass"]}
        assert failed["near_discriminant_one"]["expected"] == 3
        assert failed["near_discriminant_one"]["computed"] == 4

    def test_text_marks_the_failed_check(self, run, wrong_discriminant):
        code, out, _ = run("verify-theorem", "3", "2")
        assert code == 1
        assert "[FAIL] near_discriminant_one: expected 3, computed 4" in out
        assert "status: fail" in out

    def test_range_marks_rows_failed(self, run, wrong_discriminant):
        code, out, _ = run("verify-theorem", "--range", "2", "4", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        rows = payload["results"]["pairs"]
        assert rows and all(r["status"] == "fail" and "error" not in r for r in rows)
        (check,) = payload["checks"]
        assert (check["name"], check["computed"], check["pass"]) == (
            "pairs_verified", 0, False)

    def test_completion_keeps_the_whole_certificate(self, run, wrong_discriminant):
        code, out, err = run("resolve", "7", "3", "--stage", "completion", "--format", "json")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert payload["results"]["d_boundary_chain"] == 0
        assert payload["results"]["graph"]["vertices"]
        failed = {c["name"]: c for c in payload["checks"] if not c["pass"]}
        assert (failed["boundary_discriminant"]["expected"],
                failed["boundary_discriminant"]["computed"]) == (-1, 0)
        code, out, err = run("resolve", "7", "3", "--stage", "completion")
        assert (code, err) == (1, "")
        assert "[FAIL] boundary_discriminant: expected -1, computed 0" in out
        assert "status: fail" in out

    def test_range_row_carries_the_error(self, run, monkeypatch):
        def broken(pair):
            raise DualGraphError(f"cannot build ({pair.n}, {pair.m})")
        monkeypatch.setattr(cli, "theorem_pipeline", broken)
        code, out, _ = run("verify-theorem", "--range", "2", "3", "--format", "json")
        assert code == 1
        (row,) = json.loads(out)["results"]["pairs"]
        assert row == {"n": 3, "m": 2, "status": "fail", "error": "cannot build (3, 2)"}


class TestScalarCommands:
    def test_homology(self, run, tmp_path):
        code, out, _ = run("homology", write(tmp_path, CHAIN_212),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["discriminant"] == 0
        assert payload["results"]["torsion_order"] is None

    def test_homology_of_a_1000_vertex_cycle(self, run, tmp_path):
        # coker of the cycle Laplacian is Z + Z/1000
        text = "".join(f"v {i} -2\n" for i in range(1000))
        text += "".join(f"e {i} {(i + 1) % 1000}\n" for i in range(1000))
        code, out, _ = run("homology", write(tmp_path, text), "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["invariant_factors"] == [1] * 998 + [1000, 0]
        assert results["discriminant"] == 0 and results["torsion_order"] is None

    def test_check_acyclic_pass(self, run):
        code, out, _ = run("check-acyclic", "--d", "9", "--de", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["torsion_order"] == 3

    def test_check_acyclic_fail(self, run):
        code, out, _ = run("check-acyclic", "--d", "6", "--de", "2")
        assert code == 1
        assert "FAIL" in out

    def test_check_acyclic_zero_is_usage_error(self, run):
        code, _, err = run("check-acyclic", "--d", "0", "--de", "1")
        assert code == 2

    def test_euler(self, run, tmp_path):
        code, out, _ = run("euler", write(tmp_path, ZERO_ZERO), "--rho", "1")
        assert code == 0
        assert "euler characteristic of the complement: 0" in out

    def test_euler_rejects_cycles(self, run, tmp_path):
        loop = "v 1 -2\nv 2 -2\nv 3 -2\ne 1 2\ne 2 3\ne 3 1\n"
        code, _, err = run("euler", write(tmp_path, loop), "--rho", "2")
        assert code == 1


class TestRendering:
    def test_out_redirects_everything(self, run, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run("disc", write(tmp_path, ZERO_ZERO),
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]["discriminant"] == -1

    def test_schema_and_inputs_echo(self, run, tmp_path):
        path = write(tmp_path, ZERO_ZERO)
        _, out, _ = run("disc", path, "--format", "json")
        payload = json.loads(out)
        assert payload["schema"] == "dualgraph.certificate/2"
        assert payload["command"] == "disc"
        assert payload["inputs"]["file"] == path
        assert "seed" not in payload["inputs"]

    def test_dot_labels_weights_and_multiplicities(self, run):
        code, out, _ = run("verify-theorem", "2", "1", "--format", "dot")
        assert code == 0
        assert "graph dualgraph {" in out
        assert "\\nm 2" in out
        assert "curve" in out

    def test_dot_unsupported_for_scalar_commands(self, run):
        code, _, err = run("check-acyclic", "--d", "1", "--de", "1",
                           "--format", "dot")
        assert code == 2

    def test_unknown_command_exits_two(self, run):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


def test_python_dash_m_runs_the_cli():
    # __main__.py passes main's exit code to the shell: 0 on a pass, 2 on a
    # usage error
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def dash_m(*argv):
        return subprocess.run([sys.executable, "-m", "dualgraph", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = dash_m("verify-theorem", "5", "2", "--format", "json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "pass"
    done = dash_m("verify-theorem", "5")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error:")


LOOP = "v 1 -2\nv 2 -2\nv 3 -2\ne 1 2\ne 2 3\ne 3 1\n"
STAR = "v 0 -2\nv 1 -1\nv 2 -2\nv 3 -2\ne 0 1\ne 0 2\ne 0 3\n"

#: file commands and the extra arguments each needs
FILE_COMMANDS = {
    "disc": [], "minimalize": [], "standardize": [], "homology": [],
    "blowup": ["--vertex", "1"], "blowdown": ["--vertex", "1"],
    "euler": ["--rho", "1"],
}


def test_no_command_takes_a_seed(capsys, tmp_path):
    path = write(tmp_path, CHAIN_212)
    usable = {cmd: [path, *extra] for cmd, extra in FILE_COMMANDS.items()}
    usable.update({
        "fibers": ["--max", "2"], "resolve": ["3", "2", "--stage", "local"],
        "verify-theorem": ["3", "2"], "check-acyclic": ["--d", "9", "--de", "1"],
    })
    parser = cli.build_parser()
    assert set(usable) == set(parser._subparsers._group_actions[0].choices)
    for cmd, argv in usable.items():
        parser.parse_args([cmd, *argv])
        with pytest.raises(SystemExit) as err:
            main([cmd, *argv, "--seed", "0"])
        assert err.value.code == 2, cmd
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


# results past the digits Python prints: three weights of 2000 digits, whose
# discriminant has 6000, weights that a move takes from 4300 nines to 10**4300,
# an Euler characteristic of 10**4300 + 1, and a vertex created after the id
# 4300 nines, whose id is 10**4300
TOO_LONG = {
    "three": "".join(f"v {v} -{'9' * 2000}\n" for v in range(3)),
    "nines": f"v 1 -{'9' * 4300}\n",
    "up": f"v 1 {'9' * 4300}\nv 2 -1\ne 1 2\n",
    "empty": "# empty\n",
    "last_minus_one": f"v {'9' * 4300} -1\n",
    "last_one": f"v {'9' * 4300} 1\n",
}
TOO_LONG_CASES = [["disc", "three.dg"], ["disc", "three.dg", "--sub", "0,1,2"],
                  ["homology", "three.dg"], ["blowup", "nines.dg", "--vertex", "1"],
                  ["minimalize", "up.dg"], ["blowdown", "up.dg", "--vertex", "2"],
                  ["euler", "empty.dg", "--rho", "9" * 4300],
                  ["blowup", "last_minus_one.dg", "--vertex", "9" * 4300],
                  ["standardize", "last_one.dg"]]


def test_results_too_long_to_print_end_in_one_error_line(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in TOO_LONG.items():
        write(tmp_path, text, f"{name}.dg")
    limit = sys.get_int_max_str_digits()
    for argv in TOO_LONG_CASES:
        for fmt in ("json", "text", "dot"):
            code, out, err = run(*argv, "--format", fmt)
            assert (code, out) == (1, ""), argv
            assert err.count("\n") == 1 and err.startswith("error: "), argv
            assert f"reaches 10**{limit}" in err and f"get_int_max_str_digits() = {limit}" in err
    # euler prints no such number, and its bytes are as they were
    h = hashlib.sha256()
    for fmt in ("json", "text", "dot"):
        code, out, err = run("euler", "three.dg", "--rho", "1", "--format", fmt)
        h.update(json.dumps([fmt, code, out, err]).encode())
    assert h.hexdigest() == "9970f33206e2ec0dfbdefe981a5d9fcf4b4c57ef6b3531bf16ad8aedc415bd87"


def test_results_just_under_the_digit_limit_print_exactly(run, tmp_path):
    limit = sys.get_int_max_str_digits()
    nines = 10 ** limit - 1
    code, out, _ = run("disc", write(tmp_path, f"v 1 -{nines}\n"), "--format", "json")
    assert code == 0 and json.loads(out)["results"]["discriminant"] == nines
    code, out, _ = run("blowup", write(tmp_path, f"v 1 -{nines - 1}\n"), "--vertex", "1",
                       "--format", "json")
    assert code == 0 and json.loads(out)["results"]["graph"]["vertices"][0] == [1, -nines]
    code, out, _ = run("blowup", write(tmp_path, f"v {nines - 1} -1\n"), "--vertex",
                       str(nines - 1), "--format", "json")
    assert code == 0 and json.loads(out)["results"]["graph"]["vertices"][1] == [nines, -1]
    # the limit is read at run time
    up = write(tmp_path, f"v 1 -{nines}\n")
    assert run("blowup", up, "--vertex", "1")[0] == 1
    sys.set_int_max_str_digits(limit + 1)
    try:
        code, out, _ = run("blowup", up, "--vertex", "1", "--format", "json")
        assert code == 0 and json.loads(out)["results"]["graph"]["vertices"][0] == [1, -nines - 1]
    finally:
        sys.set_int_max_str_digits(limit)


# chains whose standardization would log more moves than moves.MAX_LOG_MOVES,
# each with the count its error names: a ladder of 10**26 blow-ups, and a run
# of 4300 nines free transformations, whose move count has more digits than
# Python prints
PAST_THE_LOG_CEILING = {
    "ladder": (f"v 1 {10 ** 26}\nv 2 -2\ne 1 2\n", f"move log to {10 ** 26} moves"),
    "ets": (f"v 1 0\nv 2 -{'9' * 4300}\ne 1 2\n", "move log to more than 10**100 moves"),
}


def test_a_standardization_past_the_log_ceiling_ends_in_one_error_line(run, tmp_path):
    for name, (text, count) in PAST_THE_LOG_CEILING.items():
        path = write(tmp_path, text, f"{name}.dg")
        for fmt in ("json", "text", "dot"):
            start = time.perf_counter()
            code, out, err = run("standardize", path, "--format", fmt)
            assert time.perf_counter() - start < 1.0, name
            assert (code, out) == (1, ""), name
            assert err.count("\n") == 1 and err.startswith("error: "), name
            assert f"{count}, past the ceiling of {MAX_LOG_MOVES}" in err, err


def test_no_input_ends_in_a_traceback(capsys, tmp_path):
    files = {name: write(tmp_path, text, f"{name}.dg") for name, text in
             (("chain", CHAIN_212), ("loop", LOOP), ("star", STAR),
              *((name, text) for name, (text, _) in PAST_THE_LOG_CEILING.items()))}
    files["missing"] = str(tmp_path / "absent.dg")
    files["undecodable"] = str(tmp_path / "undecodable.dg")
    (tmp_path / "undecodable.dg").write_bytes(b"\xff\xfe v 1 -2\n")
    cases = [[cmd, path, *extra] for cmd, extra in FILE_COMMANDS.items()
             for path in files.values()]
    chain = files["chain"]
    cases += [
        ["disc", chain, "--sub", "1,9"], ["disc", chain, "--sub", "1,x"],
        ["minimalize", chain, "--protect", "9"],
        ["blowup", chain, "--vertex", "9"], ["blowup", chain, "--edge", "1,9"],
        ["blowup", chain, "--edge", "1,3"], ["blowdown", chain, "--vertex", "9"],
        ["blowup", chain, "--edge", "1"], ["blowup", chain, "--edge", "1,x"],
        ["euler", chain, "--rho", "x"],
        ["fibers", "--max", "3", "--validate"], ["fibers", "--max", "0"],
        ["check-acyclic", "--d", "9", "--de", "1"], ["check-acyclic", "--d", "0", "--de", "1"],
        ["check-acyclic", "--d", "4", "--de", "0"],
        ["verify-theorem", "3", "2"], ["verify-theorem", "--range", "2", "4"],
        ["verify-theorem", "--range", "4", "2"], ["verify-theorem", "--range", "0", "3"],
    ]
    too_long = {f"{name}.dg": write(tmp_path, text, f"{name}.dg") for name, text in TOO_LONG.items()}
    cases += [[cmd, too_long[name], *extra] for cmd, name, *extra in TOO_LONG_CASES]
    for n, m in ((3, 2), (4, 2), (2, 3), (1, 1), (3, 0), (-3, 2)):
        cases.append(["verify-theorem", str(n), str(m)])
        cases += [["resolve", str(n), str(m), "--stage", stage]
                  for stage in ("local", "infinity", "completion")]
    bad = []
    for argv in cases:
        for fmt in ("json", "text", "dot"):
            try:
                code = main(argv + ["--format", fmt])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - the failure this test looks for
                code = f"{type(exc).__name__}: {exc}"
            capsys.readouterr()
            if code not in (0, 1, 2):
                bad.append((argv, fmt, code))
    assert bad == []
    with pytest.raises(SystemExit) as err:
        main(["blowup", chain, "--edge", "1,x"])
    assert err.value.code == 2
    assert "expected id,id, got '1,x'" in capsys.readouterr().err


def test_main_builds_its_parser_once(run, tmp_path, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    path = write(tmp_path, ZERO_ZERO)
    assert run("disc", path)[0] == 0
    with pytest.raises(SystemExit):  # a rejected invocation leaves the parser usable
        main(["disc", path, "--format", "yaml"])
    code, out, _ = run("disc", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["discriminant"] == -1
    assert len(built) == 1
    assert original() is not original()


def test_main_runs_the_handler_bound_at_call_time(run, tmp_path, monkeypatch):
    """A cmd_* rebound after the parser was built is the one main calls."""
    path = write(tmp_path, ZERO_ZERO)
    assert run("disc", path)[0] == 0  # builds and caches the parser
    original = cli.cmd_disc
    seen = []

    def traced(args):
        seen.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_disc", traced)
    code, out, _ = run("disc", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["discriminant"] == -1
    assert seen == ["disc"]


def test_every_command_resolves_to_a_handler():
    for command in cli.build_parser()._subparsers._group_actions[0].choices:
        assert callable(cli._handler(command)), command


def test_only_main_decides_which_pairs_are_usage_errors():
    """No function of the CLI but main names the errors of a bad exponent pair."""
    pair_errors = {"BadOrder", "NotCoprime", "Transversal"}
    tree = ast.parse(Path(cli.__file__).read_text())
    naming = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn)
              if getattr(node, "id", None) in pair_errors  # a bare name
              or getattr(node, "attr", None) in pair_errors}  # errors.X
    assert naming == {"main"}


# ------------------------------------------------- the certificate writer

def reference_render_json(args, result):
    """The certificate as the standard library's indent encoder renders it.

    This is the oracle for cli._json_text: the same payload, written by
    json.dumps with no default= and no conversion beforehand.
    """
    skip = {"command", "format", "out"}
    payload = {
        "schema": cli.SCHEMA,
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in skip},
        "results": result.results,
        "checks": [{"name": c.name, "expected": c.expected,
                    "computed": c.computed, "pass": c.passed}
                   for c in result.checks],
        "moves": result.moves,
        "status": "pass" if result.passed else "fail",
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def certificate_pair(argv):
    """(cli's JSON certificate, the oracle's) for one invocation."""
    args = cli.build_parser().parse_args(list(argv) + ["--format", "json"])
    result = cli._handler(args.command)(args)
    return cli._render_json(args, result), reference_render_json(args, result)


#: every long-Euclid pair the verify_sweep benchmark draws: (k+1, k) for k
#: within 2 of 121 and 163, and (2k+1, 2) for k within 2 of 113 and 153
LONG_EUCLID = ([(k + 1, k) for c in (121, 163) for k in range(c - 2, c + 3)]
               + [(2 * k + 1, 2) for c in (113, 153) for k in range(c - 2, c + 3)])


def test_certificates_match_the_stdlib_encoder(tmp_path):
    files = [write(tmp_path, text, f"{name}.dg") for name, text in
             (("chain", CHAIN_212), ("zero", ZERO_ZERO), ("loop", LOOP), ("star", STAR))]
    cases = [[cmd, path, *extra] for cmd, extra in FILE_COMMANDS.items() for path in files]
    cases += [
        ["standardize", write(tmp_path, "v 1 3000\nv 2 -2\ne 1 2\n", "long.dg")],
        ["disc", files[0], "--sub", "1,3"], ["minimalize", files[0], "--protect", "2"],
        ["blowup", files[0], "--edge", "1,2"], ["fibers", "--max", "5", "--validate"],
        ["check-acyclic", "--d", "9", "--de", "1"], ["check-acyclic", "--d", "6", "--de", "2"],
        ["verify-theorem", "--range", "2", "12"],
        ["verify-theorem", "161", "160"], ["verify-theorem", "307", "2"],
    ]
    cases += [["resolve", n, m, "--stage", s] for n, m in (("7", "3"), ("164", "163"))
              for s in ("local", "infinity", "completion")]
    pairs = [(n, m) for n in range(2, 31) for m in range(1, n) if gcd(n, m) == 1]
    assert len(pairs) == 277
    cases += [["verify-theorem", str(n), str(m)] for n, m in pairs + LONG_EUCLID]
    rendered = set()
    for argv in cases:
        try:
            got, want = certificate_pair(argv)
        except (cli.UsageFailure, DualGraphError):  # e.g. a blow-down of a (-2)-vertex
            continue
        assert got == want, argv
        rendered.add(argv[0])
    assert rendered == set(cli.build_parser()._subparsers._group_actions[0].choices)


def test_failed_certificate_matches_the_stdlib_encoder(wrong_discriminant):
    got, want = certificate_pair(["verify-theorem", "5", "3"])
    assert '"status": "fail"' in got
    assert got == want


class Level(IntEnum):
    LOW = -3
    HIGH = 7


class Label(str):
    """A str subclass whose str() differs from its characters."""

    def __str__(self):
        return "label:" + self


CHARACTERS = ('a', 'Z', ' ', '"', '\\', '/', '\x00', '\x08', '\t', '\n', '\x1f', '\x7f',
              '\xe9', '\u4e2d', '\u2028', '\U0001f600', '\U00010000', '\ud800')
SCALARS = (0, -1, -17, 10**30, -(10**30), True, False, None, "",
           Level.LOW, Level.HIGH, Label("tagged"))


def random_text(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 6)))


def random_scalar(rng):
    roll = rng.random()
    if roll < 0.3:
        return rng.randint(-10**6, 10**6)
    if roll < 0.6:
        return random_text(rng)
    return rng.choice(SCALARS)


def random_key(rng, kind):
    if kind == "str":
        return random_text(rng)
    return rng.choice((str(rng.randint(-3, 3)), Label("k"), Label(random_text(rng)),
                       random_text(rng)))


def random_payload(rng, depth=0):
    if depth >= 4 or rng.random() < 0.35:
        return random_scalar(rng)
    items = [random_payload(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 3, 5)))]
    kind = rng.choice(("list", "tuple", "str", "mixed"))
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {random_key(rng, kind): v for v in items}


def test_writer_matches_the_stdlib_encoder_on_random_payloads():
    rng = random.Random(14)
    for _ in range(3000):
        x = random_payload(rng)
        assert cli._json_text(x) == json.dumps(x, sort_keys=True, indent=2), x


#: what certificate/1 wrote through str(), and keys that are not str
NOT_JSON = (1.5, Fraction(1, 2), frozenset({3, 5}), ChainType((0, 0)), Move("spawn", 1, 0),
            {1: "int key"}, {True: "bool key"}, {None: "None key"}, {1: "int", "1": "str"})


@pytest.mark.parametrize("value", NOT_JSON, ids=repr)
def test_a_value_that_is_not_json_raises(value):
    for x in (value, [value], (1, value), {"k": value}, {"k": ["a", value]}):
        with pytest.raises(TypeError):
            cli._json_text(x)
        with pytest.raises(TypeError):
            cli._jsonable(x)


def test_certificate_never_reaches_the_pure_python_encoder(run, monkeypatch):
    argv = ["verify-theorem", "29", "27"]
    want = certificate_pair(argv)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    # from 3.13 the C encoder also writes indented text; without it every
    # json.dumps goes through the refused pure-Python encoder
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    with pytest.raises(AssertionError):  # the guard bites the indent encoder
        json.dumps([1], indent=2)
    code, out, _ = run(*argv, "--format", "json")
    assert (code, out) == (0, want)


# ------------------------------------- the row templates and their fallback

def generic_render_json(args, result):
    """The certificate as cli._json_text writes its plain payload, with no row template."""
    skip = {"command", "format", "out"}
    return cli._json_text({
        "schema": cli.SCHEMA,
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in skip},
        "results": result.results,
        "checks": [{"name": c.name, "expected": c.expected,
                    "computed": c.computed, "pass": c.passed}
                   for c in result.checks],
        "moves": result.moves,
        "status": "pass" if result.passed else "fail",
    }) + "\n"


ODD_VALUES = (True, False, Level.HIGH, Label("tagged"), (1, 2), [[1, [2, True]], []],
              None, Move("spawn", 1, 0), 1.5)
MOVE = Move("blow_up_edge", 7, 3, (2, 5))


class TaggedMove(Move):
    """A subclass of Move, which the move template declines."""


#: a Move field the writer reads replaced by a bool, an IntEnum, a float,
#: a Move, a str subclass or a list; no anchors or three; a subclass of Move
ODD_MOVES = (
    MOVE._replace(position=True), MOVE._replace(vertex=Level.LOW),
    MOVE._replace(anchors=(True, 5)), MOVE._replace(anchors=(2, Level.HIGH)),
    MOVE._replace(anchors=[2, 5]), MOVE._replace(anchors=()), MOVE._replace(anchors=(2, 5, 9)),
    MOVE._replace(kind=Label("spawn")), TaggedMove(*MOVE),
    MOVE._replace(position=1.5), MOVE._replace(vertex=Move("spawn", 1, 0)),
)


def odd_graph(ids, weights, edges):
    """A graph the public constructor takes without checking its ids and weights."""
    return WeightedGraph(ids, dict(zip(ids, weights)), edges, 40)


#: (graph, roles) with a weight or a vertex id replaced by a bool, an IntEnum or a float
ODD_GRAPHS = (
    (odd_graph([1, 2], [-3, True], [(1, 2)]), {}),
    (odd_graph([1, 2], [-3, Level.HIGH], [(1, 2)]), {"curve": (2,)}),
    (odd_graph([1, 2], [-3, 1.5], [(1, 2)]), {}),
    (odd_graph([3, True], [-3, -2], [(3, True)]), {}),
    (odd_graph([1, Level.HIGH], [-3, -2], [(1, Level.HIGH)]), {"curve": (Level.HIGH,)}),
    (odd_graph([1, 1.5], [-3, -2], [(1, 1.5)]), {}),
    (odd_graph([], [], []), {}),
)

#: fiber roles with a bool or an IntEnum, ids whose keys sort apart from
#: their values, an id listed twice, and no vertex at all
ODD_ROLES = (
    FiberRole((3, 1, 2), (3,), 1, (2,), {1: True, 2: 1, 3: 2}),
    FiberRole((3, Level.HIGH, 2), (3,), Level.HIGH, (2,), {Level.HIGH: 1, 2: 1, 3: 2}),
    FiberRole((10, 9, -1, 100, -20, 2), (10, 9), -1, (100, -20, 2),
              {10: 1, 9: 2, -1: 3, 100: 4, -20: 5, 2: 6}),
    FiberRole((4, 4, 5), (4,), 5, (4,), {4: 1, 5: 2}),
    FiberRole((), (), 7, (), {}),
)


def hand_built_results():
    """Results as the commands build them, with faults put into the objects
    the row templates read, and a result built by hand from plain data."""
    for v in ODD_VALUES:
        yield cli.CommandResult({}, checks=[CheckResult("c", v, 1), CheckResult("d", 2, v),
                                            CheckResult(Label("e"), v, v)])
    for move in ODD_MOVES:
        yield cli.CommandResult({}, moves={"main": cli._move_part((MOVE, move, MOVE))})
    yield cli.CommandResult({}, moves={"main": cli._move_part((MOVE,)),
                                       "none": cli._move_part(())})
    for g, roles in ODD_GRAPHS:
        yield cli.CommandResult({"n": 2, "graph": cli._graph_part(GraphDocument(g, roles))})
    for role in ODD_ROLES:
        yield cli.CommandResult({"fiber_one": cli._Rows(cli._fiber_text, cli._fiber_payload, role)})
    yield cli.CommandResult({"graph": {"vertices": ([1, -1],), "edges": [], "roles": {}}},
                            moves={"main": [{"kind": "spawn", "vertex": 1, "position": 0,
                                             "anchors": []}]})


def test_row_templates_write_what_the_generic_writer_does():
    """Every part the templates decline goes through _value_text as its
    plain data: the same bytes as the generic writer and the stdlib encoder
    on the plain view, or the same TypeError."""
    args = cli.build_parser().parse_args(["verify-theorem", "5", "3", "--format", "json"])
    raised = 0
    for result in hand_built_results():
        try:
            want = generic_render_json(args, result)
        except TypeError:
            raised += 1
            with pytest.raises(TypeError):
                cli._render_json(args, result)
            continue
        assert want == reference_render_json(args, result), result
        assert cli._render_json(args, result) == want, result
    assert raised == 6  # a float or a Move among the checks and in a Move, a float weight and id


def test_rendering_leaves_the_result_as_it_was():
    """results and moves read as today's plain data, after any number of
    renderings, and as the same objects on every read."""
    args = cli.build_parser().parse_args(["verify-theorem", "5", "3", "--format", "json"])
    result = cli._handler(args.command)(args)
    text = cli._render_json(args, result)
    results, moves = result.results, result.moves
    assert result.results is results and result.moves is moves
    cert = resolution.theorem_pipeline(resolution.CuspPair(5, 3))
    assert moves == {
        key: [{"kind": m.kind, "vertex": m.vertex, "position": m.position,
               "anchors": list(m.anchors)} for m in log]
        for key, log in (("resolution", cert.history.resolution),
                         ("minimalization", cert.history.minimalization))}
    g = cert.graph
    assert results["graph"] == {
        "vertices": [[v, g.weight(v)] for v in g.vertices],
        "edges": [list(e) for e in g.edges],
        "roles": {"curve": [cert.curve], "fiber_one": list(cert.fiber_one.vertices),
                  "fiber_two": list(cert.fiber_two.vertices), "sections": list(cert.sections)}}
    role = cert.fiber_two
    assert results["fiber_two"] == {
        "vertices": list(role.vertices), "near_part": list(role.near_part),
        "free_vertex": role.free_vertex, "far_part": list(role.far_part),
        "multiplicities": {str(v): role.multiplicity[v] for v in role.vertices}}
    before = json.dumps([results, moves], sort_keys=True)
    assert cli._render_json(args, result) == text
    assert result.results is results and result.moves is moves
    assert json.dumps([result.results, result.moves], sort_keys=True) == before
    plain = {"n": 1}
    assert cli.CommandResult(plain).results is plain  # a hand-built result reads as handed over


def test_a_certificate_builds_no_row_dict_or_pair_list(run, monkeypatch):
    """verify-theorem writes its move rows, graph pairs and fiber parts from
    the Moves, the graph and the fiber roles: no plain part is built."""
    argv = ["verify-theorem", "29", "27"]
    want = certificate_pair(argv)[1]
    built = Counter()
    for name in ("_move_rows", "_graph_payload", "_fiber_payload"):
        def counted(source, name=name, plain=getattr(cli, name)):
            built[name] += 1
            return plain(source)
        monkeypatch.setattr(cli, name, counted)
    assert run(*argv, "--format", "json") == (0, want, "")
    assert built == {}
    args = cli.build_parser().parse_args(argv + ["--format", "json"])
    result = cli._handler(args.command)(args)
    assert built == {}
    result.moves
    assert built == {"_move_rows": 2}
    result.results
    result.results
    assert built == {"_move_rows": 2, "_graph_payload": 1, "_fiber_payload": 2}


def test_a_certificate_takes_at_most_half_the_generic_writer_calls(monkeypatch):
    """The row templates write each check row, move row, graph pair and fiber
    part without a writer call of its own.  The generic writer alone made
    48346 calls on these 277 certificates, 174.5 each.  Only calls on a
    dict, list, tuple or _Rows count, since the writer also takes each value
    of an object by a call, a scalar included; they number 11531, 41.6
    each, and numbered 14301 while each fiber part was a plain dict."""
    calls = 0
    write = cli._value_text

    def counting(x, depth):
        nonlocal calls
        calls += isinstance(x, dict) or type(x) in (list, tuple, cli._Rows)
        return write(x, depth)

    monkeypatch.setattr(cli, "_value_text", counting)  # the recursion looks the name up
    pairs = [(n, m) for n in range(2, 31) for m in range(1, n) if gcd(n, m) == 1]
    assert len(pairs) == 277
    for n, m in pairs:
        args = cli.build_parser().parse_args(["verify-theorem", str(n), str(m), "--format", "json"])
        cli._render_json(args, cli._handler(args.command)(args))
    assert calls <= 11531


def test_rendering_a_long_certificate_takes_at_most_2_4_times_its_text():
    """The peak of the memory Python allocates while rendering the
    certificate of (4001, 4000), 2.85 MB of text, the text itself included.
    The text and its copy with the last newline make 2; a writer that
    returns each value's text reads 2.04, one that kept every piece of the
    document in one list until a last join read 2.7 to 2.8."""
    args = cli.build_parser().parse_args(["verify-theorem", "4001", "4000", "--format", "json"])
    result = cli._handler(args.command)(args)
    tracemalloc.start()
    try:
        text = cli._render_json(args, result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * len(text), (peak, len(text))
