"""The README's example runs and prints what its comments say, and the
runners and checks it names exist."""

import contextlib
import io
import re
from pathlib import Path

import choreo
from choreo import conformance

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.MULTILINE)
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected


# a runner or check the README cites in backticks, with any dotted prefix
_CITED = re.compile(r"`(?:\w+\.)*(run_\w+|check_\w+|compare_runs|project_and_run)\b")


def test_readme_cites_only_runners_and_checks_that_exist():
    cited = set(_CITED.findall(README.read_text(encoding="utf-8")))
    assert {"compare_runs", "run_simulated", "check_value_agreement"} <= cited
    assert sorted(n for n in cited
                  if not hasattr(choreo, n) and not hasattr(conformance, n)) == []
