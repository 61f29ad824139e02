"""The certificate/2 fixture is the certificate/1 fixture under one pure rewrite.

`theorem_certificates_12.v1.json` keeps the 45 frozen certificate/1
documents byte for byte; `theorem_certificates_12.json` holds their
certificate/2 form.  v1_to_v2 renames the schema, drops `inputs.seed`,
and reads back the three check values that /1 wrote through str(): the
two sides checks (a set of frozensets) and the plane-form check (a
ChainType repr).  Every other byte of the fixture must match, and the CLI
must print the derived certificates.
"""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

from dualgraph.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SIDES_CHECKS = ("member_one_sides_are_near_far", "member_two_sides_are_near_far")
PLANE_FORM_CHECK = "far_boundary_reduces_to_plane_form"

FROZENSET = re.compile(r"frozenset\((?:\{([^}]*)\})?\)")
CHAIN_TYPE = re.compile(r"ChainType\(entries=\(([^)]*)\)\)")


def _sides(text):
    """'{frozenset({9, 2}), frozenset({4})}' as [[2, 9], [4]]; one set stands for two equal sides."""
    bodies = FROZENSET.findall(text)
    assert len(bodies) in (1, 2), text
    assert text == "{" + ", ".join(f"frozenset({{{b}}})" if b else "frozenset()"
                                   for b in bodies) + "}", text
    sides = [sorted(int(t) for t in b.split(", ")) if b else [] for b in bodies]
    return sorted(sides * 2 if len(sides) == 1 else sides)


def _chain_type(text):
    """'ChainType(entries=(0, 0))' as [0, 0]."""
    (body,) = CHAIN_TYPE.fullmatch(text).groups()
    return [int(t) for t in body.split(",") if t.strip()]


def v1_to_v2(cert):
    """The certificate/2 form of a certificate/1 document; cert itself is left as it was."""
    out = json.loads(json.dumps(cert))
    assert out["schema"] == "dualgraph.certificate/1"
    out["schema"] = "dualgraph.certificate/2"
    del out["inputs"]["seed"]
    for check in out["checks"]:
        if check["name"] in SIDES_CHECKS:
            rewrite = _sides
        elif check["name"] == PLANE_FORM_CHECK:
            rewrite = _chain_type
        else:
            continue
        check["expected"], check["computed"] = rewrite(check["expected"]), rewrite(check["computed"])
    return out


def read(name):
    return (FIXTURES / name).read_text()


def test_v1_strings_parse():
    assert _sides("{frozenset({9, 2}), frozenset({4})}") == [[2, 9], [4]]
    assert _sides("{frozenset({13}), frozenset({3, 11, 4})}") == [[3, 4, 11], [13]]
    assert _sides("{frozenset(), frozenset({5})}") == [[], [5]]
    assert _sides("{frozenset()}") == [[], []]
    assert _chain_type("ChainType(entries=(0, 0))") == [0, 0]
    assert _chain_type("ChainType(entries=(1,))") == [1]


def test_v2_fixture_is_the_v1_fixture_rewritten():
    v1_text, v2_text = read("theorem_certificates_12.v1.json"), read("theorem_certificates_12.json")
    v1 = json.loads(v1_text)
    assert len(v1) == 45
    assert v1_text == json.dumps(v1, sort_keys=True) + "\n"
    assert v2_text == json.dumps({k: v1_to_v2(c) for k, c in v1.items()}, sort_keys=True) + "\n"
    assert json.dumps(v1, sort_keys=True) + "\n" == v1_text  # v1_to_v2 left its input as it was
    assert "frozenset" in v1_text and "ChainType" in v1_text and '"seed"' in v1_text
    assert not any(word in v2_text for word in ("frozenset", "ChainType", '"seed"'))
    rewritten = [c["name"] for cert in v1.values() for c in cert["checks"]
                 if c["name"] in SIDES_CHECKS + (PLANE_FORM_CHECK,)]
    assert len(rewritten) == 2 * 45 + 11  # both sides checks everywhere, plane form when m = 1


def test_cli_prints_the_derived_certificates():
    v1 = json.loads(read("theorem_certificates_12.v1.json"))
    for key, cert in v1.items():
        n, m = key.split(",")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["verify-theorem", n, m, "--format", "json"]) == 0
        assert out.getvalue() == json.dumps(v1_to_v2(cert), sort_keys=True, indent=2) + "\n", key
