"""Full acceptance battery: one printed pass/fail line per criterion."""

import importlib.util
import json
import pathlib

import pytest

from fraccons.acceptance import CRITERIA, run_all
from fraccons.cli import main

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def results(request):
    out = {r.number: r for r in run_all()}
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    emit = reporter.write_line if reporter is not None else print
    emit("")
    for number in sorted(out):
        emit(out[number].line())
    return out


@pytest.mark.parametrize("number", [i + 1 for i in range(len(CRITERIA))])
def test_criterion(results, number):
    r = results[number]
    assert r.passed, r.line()


def test_sweep_line_matches_bench_reference(results):
    # the selftest_sweep workload checks this line; a correspondence-table
    # edit that adds or drops a swept entry must fail here too
    ref = BENCH / "refs" / "selftest_sweep.json"
    (variant,) = json.loads(ref.read_text(encoding="utf-8"))["variants"]
    assert [results[12].line()] == variant["lines"]


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, for its config variants and reference check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # run.py imports its sibling child.py
        spec = importlib.util.spec_from_file_location("fraccons_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _verify_cases():
    """(workload, variant index) of every verify workload: each variant, but
    only variant 0 of verify_solver, whose variants are 0.6 s of solves each."""
    for path in sorted((BENCH / "workloads").glob("verify_*.json")):
        count = len(json.loads(path.read_text(encoding="utf-8"))["variants"])
        count = 1 if path.stem == "verify_solver" else count
        yield from (pytest.param(path.stem, i, id=f"{path.stem}-{i}") for i in range(count))


@pytest.mark.parametrize("workload, variant", _verify_cases())
def test_verify_matches_bench_reference(bench_run, tmp_path, capsys, workload, variant):
    # in process: the exit code and the report rows must pass the
    # benchmark's own check against its reference
    spec = json.loads((BENCH / "workloads" / f"{workload}.json").read_text(encoding="utf-8"))
    ref = json.loads((BENCH / "refs" / f"{workload}.json").read_text(encoding="utf-8"))
    params = spec["variants"][variant]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bench_run.make_config(spec, params)))
    argv = [str(cfg) if arg == "{config}" else arg for arg in spec["argv"]]
    rc = main(argv)
    assert ref["variants"][variant]["params"] == params
    assert bench_run.check_output(ref["variants"][variant], rc, capsys.readouterr().out) is None
