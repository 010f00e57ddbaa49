"""The rows of tools/mutants.py still point at the code: a refactor that
removes a mutant's old text, or its catching test, fails here."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new, test", mutants.MUTANTS,
                         ids=[row[0] for row in mutants.MUTANTS])
def test_row_points_at_the_code(name, file, old, new, test):
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    path, *_, case = test.split("::")
    assert f"def {case.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8")
