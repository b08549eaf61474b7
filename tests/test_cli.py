import json
import os
import pathlib
import subprocess
import sys

import pytest

from dnalg import cli
from dnalg.cli import (
    PresentationError,
    main,
    parse_presentation,
    render_presentation,
)
from dnalg.truncated import validate_action

from conftest import oracle_derived, s3_model, stable

S3_TEXT = "p = 3; generator y halfdeg 2; action P^1 y = y^2; action P^2 y = y^3"

LINKED_TEXT = """\
# linked two-generator table
p = 3
generator y4 halfdeg 2
generator y8 halfdeg 4
action P^1 y4 = y8
"""


def test_parse_semicolon_statements():
    a = parse_presentation(S3_TEXT)
    assert a.p == 3 and a.names == ("y",)
    assert validate_action(a).ok


def test_parse_orders_generators_by_half_degree():
    text = "p = 3\ngenerator b halfdeg 4\ngenerator a halfdeg 2\n"
    a = parse_presentation(text)
    assert a.names == ("a", "b")
    assert a.half_degrees == (2, 4)


def test_parse_autofills_top_power():
    a = parse_presentation(LINKED_TEXT)
    assert ("y4", 2) in a.autofilled and ("y8", 4) in a.autofilled
    assert a.action_entry(0, 2) == a.gen(0) ** 3


def test_parse_rejects_wrong_degree():
    text = "p = 3; generator y halfdeg 2; action P^1 y = y"
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert "degree" in str(err.value)


def test_parse_rejects_unknown_generator():
    with pytest.raises(PresentationError):
        parse_presentation("p = 3; generator y halfdeg 2; action P^1 z = y^2")


def test_parse_rejects_bad_prime():
    for bad in ("p = 4", "p = 2", "p = 9"):
        with pytest.raises(PresentationError):
            parse_presentation(bad + "; generator y halfdeg 1")


def test_parse_rejects_duplicate_generator():
    with pytest.raises(PresentationError):
        parse_presentation("p = 3; generator y halfdeg 2; generator y halfdeg 2")


def test_parse_error_carries_line_number():
    text = "p = 3\ngenerator y halfdeg 2\nnonsense here\n"
    with pytest.raises(PresentationError) as err:
        parse_presentation(text)
    assert "line 3" in str(err.value)


def test_round_trip():
    for text in (S3_TEXT, LINKED_TEXT):
        a = parse_presentation(text)
        b = parse_presentation(render_presentation(a))
        assert a.p == b.p
        assert a.names == b.names
        assert a.half_degrees == b.half_degrees
        for (i, k) in set(a.stored_entries()) | set(b.stored_entries()):
            assert a.action_entry(i, k).terms == b.action_entry(i, k).terms


# ---------------------------------------------------------------------------
# command dispatch


@pytest.fixture()
def s3_file(tmp_path):
    path = tmp_path / "s3.alg"
    path.write_text(S3_TEXT + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_exit_zero(capsys, s3_file):
    code, out = run(capsys, "validate", s3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] is True
    assert doc["command"] == "validate"


def test_check_dn_failure_exit_one(capsys, s3_file):
    code, out = run(capsys, "check-dn", "--n", "3", s3_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] is False
    assert doc["witnesses"][0]["instance"]["pairs"][0]["theta"] == "P^1"


def test_input_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("p = 4\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""


def test_missing_file_exit_two(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/path.alg")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--n", "6"],                       # census supports n <= 5
        ["gamma", "--n", "0", "--census"],           # census supports 1 <= n
        ["gamma", "--n", "-1", "--census"],
        ["derive", "--p", "4", "--halfdegs", "1"],   # p is not an odd prime
        ["derive", "--p", "3", "--halfdegs", "0"],   # half-degree below 1
        ["derive", "--p", "3", "--halfdegs", "1,,2"],  # empty item
        ["derive", "--p", "3", "--halfdegs", ""],    # empty list
        ["derive", "--p", "3", "--halfdegs", "1", "--max-unknowns", "-1"],
        ["thmc", "--p", "3", "--dims", "1,,3"],      # empty item
        ["thmc", "--p", "3", "--dims", ""],          # empty list
        ["check-dn", "--n", "0", "{p5}"],            # order below 1
        ["check-dn", "--n", "9", "{p5}"],            # order above p = 5
        ["check-propA", "--n", "0", "{p5}"],         # order below 1
        ["check-propA", "--n", "6", "{p5}"],         # order above p = 5
        ["check-dn", "--n", "3", "--max-support", "0", "{p5}"],  # no case to check
        ["check-dn", "--n", "3", "--max-support", "-1", "{p5}"],
        ["check-dn", "--n", "3", "--theta-dim-bound", "-1", "{p5}"],
        ["max-dn", "--max-support", "0", "{p5}"],
        ["max-dn", "--theta-dim-bound", "-1", "{p5}"],
        ["thmc", "--p", "5", "--dims", "3", "--out", "{tmp}"],  # a directory
        ["thmc", "--p", "5", "--dims", "3", "--out", "{tmp}/missing/r.json"],
    ],
)
def test_invalid_arguments_exit_two(capsys, tmp_path, argv):
    # {p5} stands for a file holding a valid p = 5 model on one generator
    # of half-degree 4, and {tmp} for a directory that exists.
    model = tmp_path / "p5.alg"
    model.write_text(render_presentation(s3_model(5, 4)))
    code = main([
        str(model) if arg == "{p5}" else arg.replace("{tmp}", str(tmp_path))
        for arg in argv
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unexpected_exception_exit_three(capsys, monkeypatch):
    # A fault inside a command must not pass for a checker FAIL (exit 1).
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_thmc", boom)
    code = main(["thmc", "--p", "3", "--dims", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_seed_flag_is_rejected(capsys):
    # No subcommand is randomized, so there is no --seed to accept.
    with pytest.raises(SystemExit) as exc:
        main(["thmc", "--p", "3", "--dims", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --seed 1" in captured.err


def test_reports_are_deterministic(capsys, s3_file):
    _, out1 = run(capsys, "check-dn", "--n", "2", s3_file)
    _, out2 = run(capsys, "check-dn", "--n", "2", s3_file)
    assert out1 == out2


GOLDEN_REPORTS = [
    ("thmc_p5_dims3.json", ["thmc", "--p", "5", "--dims", "3"], 0),
    ("steenrod_p1p1_p3.json", ["steenrod", "--eval", "P^1 P^1", "--p", "3"], 0),
    ("validate_s3.json", ["validate", "{s3}"], 0),
    ("normalize_s3.json", ["normalize", "{s3}"], 0),
    ("check_dn_n1_s3.json", ["check-dn", "--n", "1", "{s3}"], 0),
    ("check_dn_n3_s3.json", ["check-dn", "--n", "3", "{s3}"], 1),
    ("max_dn_s3.json", ["max-dn", "{s3}"], 0),
    ("check_propa_n2_s3.json", ["check-propA", "--n", "2", "{s3}"], 1),
    ("check_thma_s3.json", ["check-thmA", "{s3}"], 1),
    ("reduce_s3.json", ["reduce", "{s3}"], 0),
    ("derive_p5_halfdegs2.json", ["derive", "--p", "5", "--halfdegs", "2"], 0),
    ("gamma_n3_census.json", ["gamma", "--n", "3", "--census"], 0),
]


@pytest.mark.parametrize(
    "golden,argv,exit_code",
    GOLDEN_REPORTS,
    ids=[f"{golden}-argv{i}" for i, (golden, _, _) in enumerate(GOLDEN_REPORTS)],
)
def test_golden_reports(capsys, s3_file, golden, argv, exit_code):
    # {s3} stands for a file holding S3_TEXT; the report names only its digest.
    expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
    code, out = run(capsys, *[s3_file if arg == "{s3}" else arg for arg in argv])
    assert code == exit_code
    assert out == expected


def test_thmc_command(capsys):
    code, out = run(capsys, "thmc", "--p", "5", "--dims", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"][0]["value"] == 2


def test_thmc_caveat_for_circles(capsys):
    _, out = run(capsys, "thmc", "--p", "3", "--dims", "1,1,1")
    doc = json.loads(out)
    assert doc["verdicts"][0]["value"] == 3
    assert any("circle" in note for note in doc["notes"])


def test_steenrod_eval(capsys):
    code, out = run(capsys, "steenrod", "--eval", "P^1 P^2", "--p", "3")
    assert code == 0
    assert json.loads(out)["verdicts"][0]["normal_form"] == "0"
    code, out = run(capsys, "steenrod", "--eval", "P^1 P^1", "--p", "5")
    assert json.loads(out)["verdicts"][0]["normal_form"] == "2*P^2"


def test_gamma_census(capsys):
    code, out = run(capsys, "gamma", "--n", "4", "--census")
    assert code == 0
    doc = json.loads(out)
    rows = {entry["n"]: entry for entry in doc["verdicts"]}
    assert rows[3]["vertices"] == 12 and rows[3]["facets"] == 12
    assert rows[4]["vertices"] == 120 and rows[4]["facets"] == 74


def test_gamma_text_format(capsys):
    code, out = run(capsys, "gamma", "--n", "2", "--format", "text")
    assert code == 0
    assert "vertices: 2" in out
    assert not out.startswith("{")  # table form, not the JSON document


def test_derive_command(capsys):
    code, out = run(capsys, "derive", "--p", "3", "--halfdegs", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"][0]["count"] == 2
    assert len(doc["presentations"]) == 2


def test_max_dn_command(capsys, s3_file):
    code, out = run(capsys, "max-dn", s3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdicts"][0]["value"] == 1
    assert doc["search_bounds"]["incomplete_theta_degrees"] == []


def test_max_dn_without_generators(capsys, tmp_path):
    path = tmp_path / "empty.alg"
    path.write_text("p = 5\n")
    code, out = run(capsys, "max-dn", str(path))
    assert code == 0
    assert json.loads(out)["verdicts"][0]["value"] == 4


def test_check_propa_failure(capsys, s3_file):
    code, out = run(capsys, "check-propA", "--n", "2", s3_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdicts"][0]["failures"]


def test_check_thma_failure(capsys, s3_file):
    code, out = run(capsys, "check-thmA", s3_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["witnesses"]


def test_reduce_command(capsys, s3_file):
    code, out = run(capsys, "reduce", s3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["kept_generators"] == []


def test_normalize_command(capsys, s3_file):
    code, out = run(capsys, "normalize", s3_file)
    assert code == 0
    doc = json.loads(out)
    reparsed = parse_presentation("\n".join(doc["presentation"]))
    assert reparsed.half_degrees == (2,)


def test_normalize_lists_every_entry_up_to_the_half_degree(capsys, tmp_path):
    # Already normal: the normalized presentation is the parsed one, which
    # stores only the top entry, yet the report lists the zero entries too.
    path = tmp_path / "y6.txt"
    path.write_text("p = 3\ngenerator y6 halfdeg 3\n")
    code, out = run(capsys, "normalize", str(path))
    assert code == 0
    assert json.loads(out)["presentation"] == [
        "p = 3",
        "generator y6 halfdeg 3",
        "action P^1 y6 = 0",
        "action P^2 y6 = 0",
        "action P^3 y6 = y6^3",
    ]


def test_out_and_quiet(capsys, s3_file, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, "validate", s3_file, "--quiet", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["overall"] is True


def test_validate_invalid_table_exit_one(capsys, tmp_path):
    path = tmp_path / "zero.alg"
    path.write_text("p = 3; generator y halfdeg 2; action P^1 y = 0\n")
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["overall"] is False
    # Every Adem instance holds on this table, but P(y4_2)^4 != 0.
    unstable = next(a for a in oracle_derived(3, (1, 1, 2)) if not stable([a]))
    path = tmp_path / "unstable.alg"
    path.write_text(render_presentation(unstable) + "\n")
    code, out = run(capsys, "validate", str(path))
    assert code == 1
    verdicts = {v["check"]: v for v in json.loads(out)["verdicts"]}
    assert verdicts["unstable"]["failures"] == ["P(y4_2)^4 != 0"]
    assert verdicts["adem"]["ok"]
    code = main(["max-dn", str(path)])
    assert code == 2
    assert "presentation does not define an action" in capsys.readouterr().err


def test_report_key_order(capsys, s3_file):
    _, out = run(capsys, "check-dn", "--n", "1", s3_file)
    doc = json.loads(out)
    assert list(doc)[:7] == [
        "command",
        "input_digest",
        "config",
        "verdicts",
        "witnesses",
        "search_bounds",
        "version",
    ]


def test_derive_then_check_pipeline(capsys, tmp_path):
    # derived tables round-trip through files and pass every checker stage
    _, out = run(capsys, "derive", "--p", "5", "--halfdegs", "2")
    doc = json.loads(out)
    assert doc["verdicts"][0]["count"] == 2
    for i, lines in enumerate(doc["presentations"]):
        path = tmp_path / f"model{i}.alg"
        path.write_text("\n".join(lines) + "\n")
        assert run(capsys, "validate", str(path))[0] == 0
        assert run(capsys, "check-dn", "--n", "2", str(path))[0] == 0
        assert run(capsys, "check-dn", "--n", "3", str(path))[0] == 1
        code, out2 = run(capsys, "max-dn", str(path))
        assert code == 0 and json.loads(out2)["verdicts"][0]["value"] == 2


@pytest.mark.parametrize(
    "text,argv,exit_code",
    [
        (None, ["thmc", "--p", "5", "--dims", "3"], 0),
        ("p = 3; generator y halfdeg 2; action P^1 y = 0\n", ["validate", "{file}"], 1),
        ("p = 4\n", ["validate", "{file}"], 2),
    ],
    ids=["pass", "checker-fail", "input-error"],
)
def test_module_entry_point_exit_status(tmp_path, text, argv, exit_code):
    # The real entry point in a fresh interpreter: the exit status, and the
    # report on stdout (nothing on an input error).
    path = tmp_path / "model.alg"
    if text is not None:
        path.write_text(text)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dnalg.cli", *[str(path) if a == "{file}" else a for a in argv]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == exit_code, proc.stderr
    if exit_code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
    else:
        doc = json.loads(proc.stdout)
        assert doc["command"] == argv[0]
        assert doc["overall"] is (exit_code == 0)
