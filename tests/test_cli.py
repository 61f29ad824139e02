import json

import pytest

from dualgraph import cli, resolution
from dualgraph.cli import main
from dualgraph.errors import DualGraphError
from dualgraph.lattice import discriminant

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
        # the four printed checks are the model's, so the CLI adds only the
        # cusp part's discriminant to the three the model computed
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
        shown = [(c.name, c.expected, c.computed) for c in model.checks
                 if c.name in ("boundary_discriminant", "far_part_floor",
                               "sides_coprime", "euler_vs_bridge_contacts")]
        payload = json.loads(out)
        assert [(c["name"], c["expected"], c["computed"])
                for c in payload["checks"]] == shown
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
    real = resolution.discriminant
    monkeypatch.setattr(resolution, "discriminant", lambda g, sel=None: real(g, sel) + 1)


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
        assert payload["schema"] == "dualgraph.certificate/1"
        assert payload["command"] == "disc"
        assert payload["inputs"]["file"] == path

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


LOOP = "v 1 -2\nv 2 -2\nv 3 -2\ne 1 2\ne 2 3\ne 3 1\n"
STAR = "v 0 -2\nv 1 -1\nv 2 -2\nv 3 -2\ne 0 1\ne 0 2\ne 0 3\n"

#: file commands and the extra arguments each needs
FILE_COMMANDS = {
    "disc": [], "minimalize": [], "standardize": [], "homology": [],
    "blowup": ["--vertex", "1"], "blowdown": ["--vertex", "1"],
    "euler": ["--rho", "1"],
}


def test_no_input_ends_in_a_traceback(capsys, tmp_path):
    files = {name: write(tmp_path, text, f"{name}.dg") for name, text in
             (("chain", CHAIN_212), ("loop", LOOP), ("star", STAR))}
    files["missing"] = str(tmp_path / "absent.dg")
    cases = [[cmd, path, *extra] for cmd, extra in FILE_COMMANDS.items()
             for path in files.values()]
    chain = files["chain"]
    cases += [
        ["disc", chain, "--sub", "1,9"], ["disc", chain, "--sub", "1,x"],
        ["minimalize", chain, "--protect", "9"],
        ["blowup", chain, "--vertex", "9"], ["blowup", chain, "--edge", "1,9"],
        ["blowup", chain, "--edge", "1,3"], ["blowdown", chain, "--vertex", "9"],
        ["blowup", chain, "--edge", "1"], ["euler", chain, "--rho", "x"],
        ["fibers", "--max", "3", "--validate"], ["fibers", "--max", "0"],
        ["check-acyclic", "--d", "9", "--de", "1"], ["check-acyclic", "--d", "0", "--de", "1"],
        ["check-acyclic", "--d", "4", "--de", "0"],
        ["verify-theorem", "3", "2"], ["verify-theorem", "--range", "2", "4"],
        ["verify-theorem", "--range", "4", "2"], ["verify-theorem", "--range", "0", "3"],
    ]
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
    assert sorted(cli._HANDLERS) == sorted(
        cli.build_parser()._subparsers._group_actions[0].choices)
