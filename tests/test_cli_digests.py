"""Byte digests of the CLI, one per subcommand family.

Each family runs a fixed list of invocations in the order given here and
hashes every one's (argv, exit code, stdout, stderr) into one sha256.
tests/fixtures/cli_digests.json pins the digests, so any change to a
certificate, text or dot byte of these invocations shows up as a changed
digest.  The invocations run in a temporary directory, on files with fixed
relative names, since file commands echo the path in inputs.file.

Regenerate the fixture, only for a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_digests.py --write
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from math import gcd
from pathlib import Path

from dualgraph.cli import main

from test_cli import CHAIN_212, LOOP, STAR, ZERO_ZERO

FIXTURE = Path(__file__).parent / "fixtures" / "cli_digests.json"
FORMATS = ("json", "text", "dot")
TEST_GRAPHS = {"chain": CHAIN_212, "zero": ZERO_ZERO, "loop": LOOP, "star": STAR}


def _pairs(hi):
    return [(n, m) for n in range(2, hi + 1) for m in range(1, n) if gcd(n, m) == 1]


def _random_multigraph(rng):
    """Text of a graph on 1-7 vertices with shuffled ids, weights -3..1 and parallel edges."""
    ids = rng.sample(range(1, 12), rng.randint(1, 7))
    lines = [f"v {v} {rng.randint(-3, 1)}" for v in ids]
    if len(ids) > 1:
        for _ in range(rng.randint(0, 2 * len(ids))):
            a, b = rng.sample(ids, 2)
            lines.append(f"e {a} {b}")
    return "\n".join(lines) + "\n", ids


def families():
    """{family: (files to write, argv lists)}, every argv without --format."""
    out = {}

    out["resolve"] = ({}, [
        ["resolve", str(n), str(m), "--stage", stage]
        for n, m in _pairs(16) for stage in ("local", "infinity", "completion")
    ])

    out["verify-theorem"] = ({}, [
        ["verify-theorem", str(n), str(m)] for n, m in _pairs(16)
    ] + [["verify-theorem", "--range", "2", "16"]])

    files, cases = {}, []
    for k in (1, 2, 3):
        for ws in itertools.product(range(-3, 4), repeat=k):
            name = "chain_" + "_".join(str(w) for w in ws) + ".dg"
            text = "".join(f"v {i} {w}\n" for i, w in enumerate(ws, start=1))
            text += "".join(f"e {i} {i + 1}\n" for i in range(1, k))
            files[name] = text
            cases.append(["standardize", name])
    out["standardize"] = (files, cases)

    rng = random.Random(20)
    files, cases = {}, []
    for i in range(200):
        text, ids = _random_multigraph(rng)
        name = f"g{i:03d}.dg"
        files[name] = text
        protect = ",".join(str(v) for v in ids if rng.random() < 0.3)
        cases.append(["minimalize", name])
        cases.append(["minimalize", name, "--protect", protect])
        cases.append(["blowup", name, "--vertex", str(rng.choice(ids))])
        a, b = rng.choice(ids), rng.choice(ids)
        cases.append(["blowup", name, "--edge", f"{a},{b}"])
        cases += [["blowdown", name, "--vertex", str(v)] for v in ids]
    out["minimalize-blowup-blowdown"] = (files, cases)

    out["fibers"] = ({}, [["fibers", "--max", "6", "--validate"]])

    files = {f"{name}.dg": text for name, text in TEST_GRAPHS.items()}
    cases = []
    for name in files:
        cases += [["disc", name], ["disc", name, "--sub", "1,2"],
                  ["homology", name], ["euler", name, "--rho", "1"],
                  ["euler", name, "--rho", "2"]]
    cases += [["check-acyclic", "--d", str(d), "--de", str(de)]
              for d in (-9, 1, 4, 6, 9, 12) for de in (1, 2, 3)]
    out["disc-homology-euler-check-acyclic"] = (files, cases)

    # pairs that are the invocation's fault (or fine, as (4, 1)), a command
    # dot cannot render, an unwritable --out, and a file whose role members
    # get contracted or blown down
    bad_pairs = [(6, 2), (2, 3), (3, 3), (2, 0), (0, 0), (-3, 2), (1, 1), (4, 1)]
    cases = []
    for n, m in bad_pairs:
        cases += [["resolve", str(n), str(m), "--stage", stage]
                  for stage in ("local", "infinity", "completion")]
        cases.append(["verify-theorem", str(n), str(m)])
    cases.append(["check-acyclic", "--d", "4", "--de", "1"])
    cases.append(["verify-theorem", "3", "2", "--out", "absent/cert.txt"])
    files = {"roles.dg": "v 1 -1\nv 2 -2\nv 3 -1\nv 4 -3\nv 5 -1\n"
                         "e 1 2\ne 2 3\ne 3 4\n"
                         "role gone 1 5\nrole mixed 2 3\nrole kept 4\n",
             "chain.dg": CHAIN_212 + "role tips 1 3\nrole middle 2\n"}
    cases += [["minimalize", "roles.dg"], ["minimalize", "roles.dg", "--protect", "3"],
              ["blowdown", "roles.dg", "--vertex", "5"],
              ["blowdown", "chain.dg", "--vertex", "2"],
              ["blowup", "roles.dg", "--vertex", "4"],
              ["blowup", "roles.dg", "--edge", "2,3"],
              ["disc", "roles.dg"], ["standardize", "chain.dg"]]
    out["invocation-errors-and-roles"] = (files, cases)

    # id lists as a selection reads them: reordered, repeated, empty, the
    # whole vertex set, unknown alone and unknown among known ids
    graphs = dict(TEST_GRAPHS, multi="v 1 -2\nv 2 -3\nv 4 -1\ne 1 2\ne 1 2\ne 2 4\n")
    files, cases = {}, []
    for name, text in graphs.items():
        files[f"{name}.dg"] = text
        ids = [line.split()[1] for line in text.splitlines() if line.startswith("v ")]
        for sub in (ids[::-1], ids[:2] + ids[:1], [], ids, ["9"], ids[:1] + ["9", "-4"] + ids[1:]):
            cases.append(["disc", f"{name}.dg", "--sub", ",".join(sub)])
    cases += [["minimalize", "chain.dg", "--protect", "2,9"],
              ["minimalize", "multi.dg", "--protect", "9"]]
    out["selections"] = (files, cases)

    # the text format's rejections, with their line numbers, and the files
    # it accepts: edges before their vertices, its own header, a leading
    # byte-order mark, CRLF line ends, comments and blank lines
    files = {
        "v_arity.dg": "v 1 0\nv 2\n",
        "e_arity.dg": "v 1 0\nv 2 0\ne 1\n",
        "bad_id.dg": "v x 0\n",
        "bad_weight.dg": "v 1 -2\nv 2 w\n",
        "bad_endpoint.dg": "v 1 0\nv 2 0\ne 1 y\n",
        "unknown_statement.dg": "v 1 0\nq 1 2\n",
        "duplicate.dg": "v 1 0\nv 2 -1\nv 1 -2\n",
        "self_loop.dg": "v 1 -1\ne 1 1\n",
        "undeclared_end.dg": "v 1 0\nv 2 0\ne 1 2\ne 2 3\n",
        "edge_first.dg": "e 1 2\ne 2 3\nv 1 -2\nv 2 -1\nv 3 -2\n",
        "empty_role.dg": CHAIN_212 + "role tips\n",
        "bad_role_name.dg": CHAIN_212 + "role 9tips 1 3\n",
        "role_twice.dg": CHAIN_212 + "role tips 1 3\nrole tips 2\n",
        "role_undeclared.dg": CHAIN_212 + "role tips 1 4\n",
        "header_2.dg": "# dualgraph 2\n" + CHAIN_212,
        "header_1.dg": "# dualgraph 1\n" + CHAIN_212,
        "bom.dg": "\ufeff" + CHAIN_212,
        "crlf.dg": CHAIN_212.replace("\n", "\r\n"),
        "comments.dg": "# a chain\n\nv 1 -2  # tip\n\n\nv 2 -1\nv 3 -2\n# edges\ne 1 2\n\ne 2 3\n",
    }
    cases = [[cmd, name] for name in [*files, "absent.dg"] for cmd in ("disc", "homology")]
    out["graph-files"] = (files, cases)

    # Smith forms: random multigraphs, isolated -2 vertices and -2 stars,
    # and two weight-2 vertices that meet three times, Q = [[2, 3], [3, 2]],
    # whose factors (1, 5) need a round with no unit pivot
    rng = random.Random(20)
    files = {f"h{i:03d}.dg": _random_multigraph(rng)[0] for i in range(200)}
    for k in range(1, 13):
        files[f"isolated_{k}.dg"] = "".join(f"v {v} -2\n" for v in range(1, k + 1))
        files[f"star_{k}.dg"] = ("".join(f"v {v} -2\n" for v in range(k + 1))
                                 + "".join(f"e 0 {v}\n" for v in range(1, k + 1)))
    files["two_three.dg"] = "v 1 2\nv 2 2\ne 1 2\ne 1 2\ne 1 2\n"
    out["homology"] = (files, [["homology", name] for name in files])
    return out


def _invoke(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def digests():
    """{family: {"invocations": count, "sha256": hex}} over every argv in all three formats."""
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for family, (files, cases) in families().items():
                for name, text in files.items():
                    Path(name).write_text(text, encoding="utf-8", newline="")
                h = hashlib.sha256()
                count = 0
                for argv in cases:
                    for fmt in FORMATS:
                        full = argv + ["--format", fmt]
                        code, out, err = _invoke(full)
                        h.update((json.dumps([full, code, out, err]) + "\n").encode())
                        count += 1
                result[family] = {"invocations": count, "sha256": h.hexdigest()}
        finally:
            os.chdir(cwd)
    return result


def test_cli_bytes_match_the_digests():
    assert digests() == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_digests.py --write")
    FIXTURE.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
