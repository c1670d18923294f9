"""The README's examples and measure names stay in step with the code: the
library quickstart runs, every command-line example parses (nothing runs), and
the documented column order and suite details keys are the code's."""

import shlex
from pathlib import Path

from discoh.cli import build_parser
from discoh.measures import CSV_COLUMNS
from discoh.verify import SUITES, run_suite

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, fence: str) -> list:
    """Lines of the first ``fence`` block after ``heading``."""
    rest = README[README.index(heading):]
    body = rest[rest.index(fence) + len(fence):]
    return body[: body.index("```")].strip("\n").splitlines()


def test_readme_quickstart_runs():
    source = "\n".join(code_block("## Library quickstart", "```python"))
    namespace = {}
    exec(compile(source, "README.md quickstart", "exec"), namespace)
    assert abs(namespace["value"] - 1.0) <= 1e-9  # the Bell state's discord


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


def test_readme_suite_details_keys_are_the_suites_keys():
    section = README[README.index("### Suite details"):]
    listed = {}
    for line in section[: section.index("\n\n", section.index("- `"))].splitlines():
        if line.startswith("- `"):
            name, keys = line[2:].split(":", 1)
            listed[name.strip("`")] = [key.strip().strip("`") for key in keys.split(",")]
    assert list(listed) == list(SUITES)
    for name in SUITES:
        assert listed[name] == list(run_suite(name, trials=2, restarts=2).details), name
