"""The budget table `budgets.json`: one row per CLI command line with its
expected exit code, wall timeout and optional peak-RSS budget and stdout
check. `tools/budgets.py` runs every row in a fresh process; here each row
must still parse under the CLI, each cap must have a row on both of its
sides, and each refusal, which comes before any work, runs in-process. The
`BENCH_*.json` files at the root, which `tools/budgets.py --record` writes,
must name only rows of the table, so a renamed row cannot orphan its
history."""

import json
from pathlib import Path

import pytest

from ramlab import cli, verify

ROWS = json.loads(Path(__file__).with_name("budgets.json").read_text())
RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
FIELDS = {"name", "cap", "argv", "spec", "exit", "timeout_s", "rss_mb", "value", "lines",
          "distinct_lines"}
CAPS = sorted([name for name in vars(cli) if name.startswith("MAX_")]
              + [f"verify.{name}" for name in vars(verify) if name.startswith("MAX_")])


def _argv(row: dict, tmp_path: Path) -> list[str]:
    # the runner's substitution: `{spec}` names the row's spec, written out
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(row.get("spec")))
    return [str(spec) if arg == "{spec}" else arg for arg in row["argv"]]


def test_names_are_distinct():
    names = [row["name"] for row in ROWS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_row_is_well_formed_and_parses(row, tmp_path):
    assert {"name", "argv", "exit", "timeout_s"} <= set(row) <= FIELDS
    assert "cap" not in row or row["cap"] in CAPS
    assert ("spec" in row) == ("{spec}" in row["argv"])
    # a renamed or removed flag fails here, not only in the runner; the
    # command's own tree, which `main` builds, reads it the same
    argv = _argv(row, tmp_path)
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("cap", CAPS)
def test_every_cap_has_a_row_at_it_and_one_above(cap):
    exits = {row["exit"] for row in ROWS if row.get("cap") == cap}
    assert {0, 1} <= exits


@pytest.mark.parametrize("row", [row for row in ROWS if row["exit"] == 1],
                         ids=[row["name"] for row in ROWS if row["exit"] == 1])
def test_refusal_rows_exit_1_in_process(row, tmp_path, capsys):
    assert cli.main(_argv(row, tmp_path)) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_bench_records_name_only_budget_rows():
    assert RECORDS
    names = {row["name"] for row in ROWS}
    for path in RECORDS:
        record = json.loads(path.read_text())
        recorded = [row["name"] for row in record["rows"]]
        assert recorded and set(recorded) <= names, path.name
        for row in record["rows"]:
            for key in ("wall_s", "peak_rss_mb"):
                spread = row[key]
                assert spread["min"] <= spread["median"] <= spread["max"], (path.name, row["name"])
