"""The README's examples and measure names stay in step with the code: the
library quickstart runs and returns the values its comments state, every
command-line example parses (nothing runs), the documented column order
and suite details keys are the code's, and the quoted verify margins are what
the command prints."""

import ast
import re
import shlex
from pathlib import Path

from numpy.testing import assert_allclose

from discoh.cli import build_parser, main
from discoh.measures import CSV_COLUMNS
from discoh.verify import SUITES, run_suite

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, fence: str) -> list:
    """Lines of the first ``fence`` block after ``heading``."""
    rest = README[README.index(heading):]
    body = rest[rest.index(fence) + len(fence):]
    return body[: body.index("```")].strip("\n").splitlines()


def stated_value(line: str):
    """The literal a quickstart line's comment opens with (a number, a list or
    a set), or None."""
    if "#" not in line:
        return None
    m = re.match(r"(-?\d+\.\d+|\[.*\]|\{.*\})", line.split("#", 1)[1].strip())
    return None if m is None else ast.literal_eval(m.group(1))


def test_readme_quickstart_runs():
    # each statement runs in turn; where its comment states a value, the
    # expression (or the first name it assigns) must have that value
    lines = code_block("## Library quickstart", "```python")
    namespace, checked = {}, []
    for node in ast.parse("\n".join(lines)).body:
        exec(compile(ast.Module([node], []), "README.md quickstart", "exec"), namespace)
        want = stated_value(lines[node.end_lineno - 1])
        if want is None:
            continue
        if isinstance(node, ast.Expr):
            expr = node.value
        else:
            target = node.targets[0]
            expr = target.elts[0] if isinstance(target, ast.Tuple) else target
        expr = ast.unparse(expr)
        got = eval(expr, namespace)
        if isinstance(want, set):
            assert set(got) == want, expr
        else:
            assert_allclose(got, want, rtol=0, atol=1e-9, err_msg=expr)
        checked.append(expr)
    assert checked == [
        "coherence_discord(bell)", "value", "coherence_discord(cq)",
        "coherence_discord(dephased)", "classify(swap)",
        "mixed", "coherence_discord(freed)",
    ]


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


def test_readme_quoted_verify_margins_are_what_the_cli_prints(capsys):
    quoted = re.findall(r"`discoh verify (\S+) --trials (\d+)` reports\s+`([^`]+)`", README)
    assert [suite for suite, _, _ in quoted] == ["theorem1", "superadditivity"]
    for suite, trials, value in quoted:
        assert main(["verify", suite, "--trials", trials]) == 0
        assert f'"max_violation": {value},' in capsys.readouterr().out, suite
