"""Each example's options are stated once, by its builder's keyword parameters
in `examples.py`; the `choreo run` flags and the README's flag table must list
exactly those."""

import inspect
import re
from pathlib import Path

from choreo.cli import _build_parser
from choreo.examples import BUILDERS

README = Path(__file__).resolve().parent.parent / "README.md"
RUN_FLAGS = {"example", "mode", "seed", "role", "config", "step_budget", "report",
             "recv_timeout"}


def _options(name):
    return set(inspect.signature(BUILDERS[name]).parameters)


def test_run_example_flags_are_the_builders_options():
    ns = _build_parser().parse_args(["run", "--example", "gmw"])
    flags = set(vars(ns)) - RUN_FLAGS - {"command", "func"}
    assert flags == set().union(*map(_options, BUILDERS))
    for option in flags:
        flag = "--" + option.replace("_", "-")
        ns = _build_parser().parse_args(["run", "--example", "gmw", flag, "text"])
        assert getattr(ns, option) == "text"


def test_readme_flag_table_lists_each_builders_options():
    text = README.read_text(encoding="utf-8")
    (table,) = re.findall(r"^\| Example \| Flags \|\n\|---\|---\|\n((?:\|.*\n)+)", text,
                          re.MULTILINE)
    listed = {}
    for row in table.splitlines():
        examples, flags = row.strip("|").split(" | ")
        for name in re.findall(r"`([a-z-]+)`", examples):
            assert name not in listed, name
            listed[name] = {f.replace("-", "_") for f in re.findall(r"`--([a-z-]+)", flags)}
    assert listed == {name: _options(name) for name in BUILDERS}
