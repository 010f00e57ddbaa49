"""Full acceptance battery: one printed pass/fail line per criterion."""

import json
import pathlib

import pytest

from fraccons.acceptance import CRITERIA, run_all


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
    ref = pathlib.Path(__file__).resolve().parents[1] / "bench" / "refs" / "selftest_sweep.json"
    (variant,) = json.loads(ref.read_text(encoding="utf-8"))["variants"]
    assert [results[12].line()] == variant["lines"]
