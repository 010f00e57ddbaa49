"""Mutation check: each committed mutant of the source must fail its test.

Kept out of the default test run. Run it by hand from the root of a checkout:

    python3 tools/mutants.py

It copies ``src/``, ``tests/``, ``pyproject.toml`` and ``bench/`` (the
workload configs, references and runner the tests read) to a temporary
directory and first runs every catching test there unmutated; they must
pass. Then, for each row of ``MUTANTS`` in turn, it replaces the row's old
text (which must occur exactly once in its file) with the new text, runs the
row's catching test, and restores the file. A mutant whose test still passes
survives. The survivors are printed last; the exit status is 0 when there
are none and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TFDE = "src/fraccons/tfde.py"
_SOLVER_TESTS = "tests/test_tfde.py::"
# (name, file, old text, new text, the test that must fail on the mutant)
MUTANTS = (
    ("line search quarters lambda", _TFDE,
     "lam *= 0.5", "lam *= 0.25",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_newton_paths_bitwise[0.9-halving]"),
    ("tolerance floor factor 1e-11", _TFDE,
     "1e-12 * term_mag", "1e-11 * term_mag",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("relative tolerance 1e-11", _TFDE,
     "_TOL = 1e-10", "_TOL = 1e-11",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("_max_abs by np.fmax.reduce, which skips a NaN", _TFDE,
     "    a = np.abs(v)\n    return float(a[a.argmax()])",
     "    return float(np.fmax.reduce(np.abs(v)))",
     _SOLVER_TESTS + "TestNewtonJacobian::test_max_abs_is_the_max_of_abs_nan_included"),
    ("n = 2 rhs summed in another order", _TFDE,
     "rhs = c0 * W[m - 1, 1:-1] + c_l1 * y[1:-1] - hist[1:-1]",
     "rhs = c0 * W[m - 1, 1:-1] + (c_l1 * y[1:-1] - hist[1:-1])",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("sign of s flipped in the Jacobian's main diagonal", _TFDE,
     "d = (s[1:] - kh[1:] - s[:-1] - kh[:-1]) / hx2 - c0",
     "d = (-s[1:] - kh[1:] + s[:-1] - kh[:-1]) / hx2 - c0",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("errstate dropped from the step loop", _TFDE,
     'with np.errstate(all="ignore"):', "if True:",
     _SOLVER_TESTS + "TestSolver::test_overflowing_tolerance_raises"),
    ("divergence_residual's D_t rows shifted by one", "src/fraccons/conslaw.py",
     "diff1(ct[lo - 1:hi + 1]", "diff1(ct[lo:hi + 2]",
     "tests/test_acceptance.py::test_verify_matches_bench_reference[verify_solver-0]"),
    ("solver history budget 1e14", "src/fraccons/cli.py",
     "_SOLVER_WORK_BUDGET = 1e11", "_SOLVER_WORK_BUDGET = 1e14",
     "tests/test_cli.py::test_solver_history_budget"),
)


def _passes(workdir: Path, test: str) -> bool:
    """Whether ``test`` passes in ``workdir``, run by pytest in a fresh process."""
    # no bytecode cache: a mutant and its restore may share a size and an mtime second
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           test], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, check=False)
    return proc.returncode == 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fraccons-mutants-") as tmp:
        workdir = Path(tmp)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, workdir / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", workdir / "pyproject.toml")

        for test in sorted({row[4] for row in MUTANTS}):
            if not _passes(workdir, test):
                print(f"catching test fails unmutated: {test}")
                return 1

        survivors = []
        for name, file, old, new, test in MUTANTS:
            path = workdir / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {file}, not once")
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                caught = not _passes(workdir, test)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'caught  ' if caught else 'SURVIVED'} {name}  ({test})")
            if not caught:
                survivors.append(name)

    print(f"{len(MUTANTS)} mutants, {len(survivors)} survivors "
          f"in {time.perf_counter() - start:.0f} s")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
