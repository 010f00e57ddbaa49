"""The README's library example runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the first python block; an API change that leaves it stale fails here
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    linf = float(capsys.readouterr().out)
    assert 0.0 <= linf < 1e-6
