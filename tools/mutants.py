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
_CONSLAW = "src/fraccons/conslaw.py"
_VERIFY_SOLVER = "tests/test_acceptance.py::test_verify_matches_bench_reference[verify_solver-0]"
_FRACOPS = "src/fraccons/fracops.py"
_CONV_TESTS = "tests/test_fracops.py::TestCausalConv::"
_POLE_TESTS = "tests/test_fracops.py::TestEndpointWeightedIntegrals::"
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
     "    a = np.abs(v, out)\n    return a.item(a.argmax())",
     "    return float(np.fmax.reduce(np.abs(v, out)))",
     _SOLVER_TESTS + "TestNewtonJacobian::test_max_abs_is_the_max_of_abs_nan_included"),
    ("n = 2 rhs summed in another order", _TFDE,
     "add(multiply(c0, W[m - 1, 1:-1], rhs), multiply(c_l1, y[1:-1], scratch_in), rhs)\n"
     "                subtract(rhs, hist_in, rhs)",
     "subtract(multiply(c_l1, y[1:-1], scratch_in), hist_in, scratch_in)\n"
     "                add(multiply(c0, W[m - 1, 1:-1], rhs), scratch_in, rhs)",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("sign of s flipped in the Jacobian's main diagonal", _TFDE,
     "subtract(subtract(subtract(s_r, kh_r, d), s_l, d), kh_l, d)",
     "subtract(subtract(subtract(s_l, kh_r, d), s_r, d), kh_l, d)",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("kh and kp one buffer", _TFDE,
     "um, kh, kp, du, q, s = (np.empty(cols - 1) for _ in range(6))",
     "um, kh, du, q, s = (np.empty(cols - 1) for _ in range(5)); kp = kh",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_fields_bitwise"),
    ("k' exponent beta in place of beta - 1", _TFDE,
     "np.power(u, d._exponents[1], out)", "np.power(u, d._exponents[0], out)",
     _SOLVER_TESTS + "TestDiffusivity::test_rows_bitwise_equal_to_expressions"),
    ("the two trial rows one object", _TFDE,
     "trial, spare = np.empty(cols - 2), np.empty(cols - 2)",
     "trial = spare = np.empty(cols - 2)",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_newton_paths_bitwise[rl_wave-halving]"),
    ("the two residual rows one object", _TFDE,
     "g, g_try = np.empty(cols - 2), np.empty(cols - 2)", "g = g_try = np.empty(cols - 2)",
     _SOLVER_TESTS + "TestSolverMatchesReference::test_newton_paths_bitwise[0.9-halving]"),
    ("errstate dropped from the step loop", _TFDE,
     'with np.errstate(all="ignore"):', "if True:",
     _SOLVER_TESTS + "TestSolver::test_overflowing_tolerance_raises"),
    ("conservation_residuals' D_t rows shifted by one", _CONSLAW,
     "(ct[lo + 1:hi + 1, 3:-3] - ct[lo - 1:hi - 1, 3:-3])",
     "(ct[lo + 2:hi + 2, 3:-3] - ct[lo:hi, 3:-3])", _VERIFY_SOLVER),
    ("conservation_residuals' D_x columns shifted by one", _CONSLAW,
     "(cx[lo:hi, 4:-2] - cx[lo:hi, 2:-4])", "(cx[lo:hi, 5:-1] - cx[lo:hi, 3:-3])",
     _VERIFY_SOLVER),
    ("sign of the boundary flux flipped in the balance", _CONSLAW,
     "(cx[lo:hi, -1] - cx[lo:hi, 0])", "(cx[lo:hi, 0] - cx[lo:hi, -1])", _VERIFY_SOLVER),
    ("the dense convolution's Toeplitz shifted by one lag", _FRACOPS,
     "k[rows - 1::-1], np.zeros(rows - 1)", "k[rows - 2::-1], np.zeros(rows)",
     _CONV_TESTS + "test_matches_direct_sum"),
    ("the convolution's size test inverted", _FRACOPS,
     "if rows <= _DENSE_ROWS:", "if rows > _DENSE_ROWS:",
     _CONV_TESTS + "test_dense_up_to_257_rows_fft_bitwise_above"),
    ("the pole's lag-1 far hat back on the rule of weight x^(mu-1)", _FRACOPS,
     "hats = np.stack([(1.0 / (r + xk)) @ wk,", "hats = np.stack([(1.0 / (r + xj)) @ (wj * xj),",
     _POLE_TESTS + "test_large_order_inside_the_float_range[1e-08]"),
    ("_power_integral taking t^(q+mu) and T^p apart", _FRACOPS,
     "s ** (q + mu) * T ** (q + mu + p)", "(s * T) ** (q + mu) * T ** p",
     _POLE_TESTS + "test_power_term_scales_as_a_power_of_T[1e-200-0.5-1.5-start]"),
    ("solver history budget 1e14", "src/fraccons/cli.py",
     "_SOLVER_WORK_BUDGET = 1e11", "_SOLVER_WORK_BUDGET = 1e14",
     "tests/test_cli.py::test_solver_history_budget"),
    ("parse_config not loading LAPACK", "src/fraccons/cli.py",
     "        _load_dgtsv()  # a scenario that solves", "        pass  # a scenario that solves",
     "tests/test_cli.py::test_entry_point_loads_only_the_scipy_it_uses[parse_solver_config]"),
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
