"""README examples and schemas against the command line they describe."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qespoly.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index("## " + title + "\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _command_lines() -> list:
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("qespoly ")]


def _schema_keys(label: str) -> set:
    """Top-level keys of the schema README lists for one command label."""
    line = next(line for line in _section("Output schemas").splitlines()
                if line.startswith(f"- {label}: "))
    schema = line.split(": ", 1)[1].strip("`")
    top = re.sub(r"\[[^\]]*\]", "", schema)
    return set(re.findall(r'"(\w+)"', top))


def test_readme_lists_every_example():
    assert len(_command_lines()) == 10


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_example_exits_zero(line, capsys):
    argv = shlex.split(line)[1:]
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("m, label", [(2, "`duality`, even `M`"), (3, "`spectrum`")])
def test_duality_json_keys_match_readme(m, label, capsys):
    assert main(["duality", "--m", str(m), "--zeta", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) - {"manifest"} == _schema_keys(label)


def test_oracle_json_keys_match_readme(capsys):
    assert main(["oracle", "--family", "dshg", "--m", "3", "--zeta", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) - {"manifest"} == _schema_keys("`oracle`")
