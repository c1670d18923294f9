"""The README's command-line examples and measure names stay in step with the
code: every example parses (nothing runs), and the documented column order is
the report's."""

import shlex
from pathlib import Path

from discoh.cli import build_parser
from discoh.measures import CSV_COLUMNS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, fence: str) -> list:
    """Lines of the first ``fence`` block after ``heading``."""
    rest = README[README.index(heading):]
    body = rest[rest.index(fence) + len(fence):]
    return body[: body.index("```")].strip("\n").splitlines()


def test_readme_command_lines_parse():
    commands = [
        shlex.split(line, comments=True)
        for line in code_block("## Command line", "```sh")
        if line.startswith("discoh ")
    ]
    assert {argv[1] for argv in commands} == {"compute", "sweep", "verify", "random"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # argparse exits on any unknown flag or choice


def test_readme_measure_names_are_the_report_columns():
    (line,) = code_block("### Measure names", "```")
    assert tuple(name.strip() for name in line.split(",")) == CSV_COLUMNS
