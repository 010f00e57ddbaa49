"""Full acceptance battery: one printed pass/fail line per criterion."""

import importlib.util
import json
import math
import pathlib
from types import SimpleNamespace

import pytest

from fraccons import acceptance
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



def _norms_falling(monkeypatch, rate, noether_rate):
    """Patch the criteria's divergence_residual: its L-infinity norm falls by
    ``noether_rate`` per halving of the time step for a Noether vector (the
    zero entries of criterion 12) and by ``rate`` for the others, and is tiny
    on the n = 512 field (criterion 8's stationary one)."""

    def residual(cv, u, *args, **kwargs):
        n = u.grid.n_steps
        r = noether_rate if cv.provenance.startswith("NoetherDerived") else rate
        return SimpleNamespace(linf=1e-12 if n == 512 else 1e-4 * r ** -math.log2(n))

    monkeypatch.setattr(acceptance, "divergence_residual", residual)


@pytest.mark.parametrize("criterion, rate, noether_rate, passed", [
    (acceptance.criterion_8, 1.2, 1.6, False),
    (acceptance.criterion_8, 1.6, 1.6, True),
    (acceptance.criterion_12, 1.2, 1.6, False),
    (acceptance.criterion_12, 1.6, 1.2, False),
    (acceptance.criterion_12, 1.6, 1.6, True),
], ids=["8-slow", "8-fast", "12-slow-closed-forms", "12-slow-zero-entries", "12-fast"])
def test_decay_bound_separates_slow_from_fast_decay(monkeypatch, criterion, rate,
                                                    noether_rate, passed):
    # the criteria ask for decay by 1.4 per halving: a bound loosened to 1.2
    # or below, or tightened above 1.6, fails here
    _norms_falling(monkeypatch, rate, noether_rate)
    assert criterion().passed is passed
