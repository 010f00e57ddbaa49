"""The README's library example runs as printed."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def test_library_example_runs(capsys):
    # the first python block; an API change that leaves it stale fails here
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    linf = float(capsys.readouterr().out)
    assert 0.0 <= linf < 1e-6


def test_declared_floors_cover_what_the_code_calls():
    # np.trapezoid is new in numpy 2.0, scipy.special.betaincc in scipy 1.11;
    # read by a regex, since tomllib needs Python 3.11
    text = PYPROJECT.read_text(encoding="utf-8")
    floor = {name: tuple(map(int, re.search(rf'"{name}>=(\d+)\.(\d+)', text).groups()))
             for name in ("numpy", "scipy")}
    assert floor["numpy"] >= (2, 0) and floor["scipy"] >= (1, 11)
