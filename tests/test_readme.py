"""The README's CLI examples, each run in-process as written."""

import csv
import io
import json
import pathlib
import shlex

import pytest

from qhyper import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list:
    """The lines of the first sh block under the README's "## CLI" heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


EXAMPLES = readme_examples()


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_passes(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "qhyper"
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    if "--emit" in argv and argv[argv.index("--emit") + 1] == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header[-1] == "provenance" and rows
        col = header.index("pass")
        assert all(row[col] != "False" for row in rows)
    else:
        assert json.loads(out)["pass"] is True


def test_readme_flag_table_matches_the_parser():
    # each row: | `command` | `flags` | `defaults` | `flag` box; ... |, against cli._TAKES
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```sh\n", 1)[0]
    rows = [line.split("|")[1:5] for line in section.splitlines() if line.startswith("| `")]
    assert {row[0].strip(" `") for row in rows} == set(cli._TAKES)
    for command, flags, defaults, admitted in rows:
        takes = cli._TAKES[command.strip(" `")]
        assert flags.strip(" `").split() == list(takes)
        words = defaults.strip(" `").split()
        assert dict(zip(words[::2], words[1::2])) == \
            {flag: value for flag, (value, _) in takes.items() if value is not None}
        boxes = (cell.strip().split(" ", 1) for cell in admitted.split(";"))
        assert {flag.strip("`"): box for flag, box in boxes} == \
            {flag: str(box) for flag, (_, box) in takes.items() if box is not None}
    # the seeds every command takes
    assert cli._COMMON["--seed"] == cli._COMMON["--sign-seed"]
    assert f"take {cli._COMMON['--seed'][1]}" in " ".join(section.split())
