"""The README's library example runs as printed, and its CLI synopsis names each flag."""

import pathlib
import re

import pytest

from fraccons.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def test_library_example_runs(capsys):
    # the first python block; an API change that leaves it stale fails here
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    linf = float(capsys.readouterr().out)
    assert 0.0 <= linf < 1e-6


def test_cli_synopsis_lists_the_flags_each_parser_takes(capsys):
    # the sh block of the CLI section: each subcommand's line (and the lines
    # indented under it) names exactly the flags its --help lists
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command-line interface.*?```sh\n(.*?)```", text, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        if line.startswith("fraccons "):
            command = line.split()[1]
        listed.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert sorted(listed) == ["catalog", "selftest", "solve", "verify"]
    for command, flags in listed.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        accepted = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert flags == accepted, command


def test_declared_floors_cover_what_the_code_calls():
    # np.trapezoid is new in numpy 2.0, scipy.special.betaincc in scipy 1.11;
    # read by a regex, since tomllib needs Python 3.11
    text = PYPROJECT.read_text(encoding="utf-8")
    floor = {name: tuple(map(int, re.search(rf'"{name}>=(\d+)\.(\d+)', text).groups()))
             for name in ("numpy", "scipy")}
    assert floor["numpy"] >= (2, 0) and floor["scipy"] >= (1, 11)
