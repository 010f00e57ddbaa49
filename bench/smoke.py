"""Fast smoke test of the benchmark runner on tiny grids.

Kept out of the default test run (pytest does not collect this file name).
Run it with either of:

    python3 -m pytest -q bench/smoke.py
    python3 bench/smoke.py

It builds two tiny workloads in a temporary directory, captures their
references from the current sources, and checks that the runner emits every
metric named in BENCHMARK.json with its unit, that layer self times add up
to the traced wall time, and that a corrupted reference row is counted as a
failed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import LAYERS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_VERIFY = {
    "why": "tiny Caputo wave verify",
    "argv": ["verify", "--config", "{config}"],
    "config": {
        "kind": "caputo", "alpha": 1.5, "T": 1.0, "x_lo": 0.0, "x_hi": 1.0,
        "diffusivity": {"family": "power", "beta": 1.0},
        "source": {"id": "exact_stationary", "params": {"a": 0.1, "b": 1.0}},
        "vectors": ["Table5_v1", "Table5_v2"],
        "grids": [8, 16],
    },
    "variants": [{"source.params.a": 0.1}, {"source.params.a": 0.12}],
}
TINY_SELFTEST = {"why": "one quick criterion", "argv": ["selftest", "--only", "1"],
                 "config": None, "variants": [{}]}


def _tiny_dirs(tmp: Path) -> tuple[Path, Path]:
    workloads, refs = tmp / "workloads", tmp / "refs"
    workloads.mkdir()
    (workloads / "tiny_verify.json").write_text(json.dumps(TINY_VERIFY), encoding="utf-8")
    (workloads / "tiny_selftest.json").write_text(json.dumps(TINY_SELFTEST), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("tiny_verify", "tiny_selftest"):
            run.capture_refs(name, workloads, refs)
    return workloads, refs


def _bench(workload: str, seed: int, trace: bool, dirs: tuple[Path, Path]) -> tuple[list[str], dict]:
    """One one-second run: its printed lines (metrics, then details) and its result."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_all(workload, seed, 1.0, trace, *dirs)
    return out.getvalue().strip().splitlines(), result


def _expect(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def test_metrics_and_fail_frac():
    with tempfile.TemporaryDirectory() as tmp:
        workloads, refs = _tiny_dirs(Path(tmp))
        dirs = (workloads, refs)
        for name in ("tiny_verify", "tiny_selftest"):
            for seed in (0, 1):
                lines, result = _bench(name, seed, False, dirs)
                assert result["correct"] and result["failed"] == 0, lines
                assert result["attempted"] >= 2
                _expect(result["metrics"], BENCHMARK["end_to_end"])
                for m in BENCHMARK["end_to_end"]:
                    assert any(ln.startswith(f"{name}: {m['name']} = ") for ln in lines)
                assert json.loads(lines[-1])["fail_frac"] == 0.0

            lines, result = _bench(name, 0, True, dirs)
            assert result["correct"], lines
            _expect(result["metrics"], BENCHMARK["per_layer"])
            m = {k: v["value"] for k, v in result["metrics"].items()}
            layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            assert abs(layers - m["trace.wall_s"]) < 1e-9 * max(1.0, m["trace.wall_s"])
            assert 0.0 < m["trace.coverage"] <= 1.0
            if name == "tiny_selftest":
                assert m["acceptance.self_s"] > 0.0
            else:
                assert m["conslaw.components.calls"] > 0 and m["specialfn.hyp2f1.calls"] > 0

        # corrupt one reference row: every call of that variant must now fail
        ref_path = refs / "tiny_verify.json"
        ref = json.loads(ref_path.read_text(encoding="utf-8"))
        ref["variants"][0]["rows"][3][3] *= 1.5
        ref_path.write_text(json.dumps(ref), encoding="utf-8")
        lines, result = _bench("tiny_verify", 0, False, dirs)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 2
        detail = json.loads(lines[-1])
        assert detail["fail_frac"] == 1.0 and "Linf" in detail["failures"][0]
        # the other variant's reference is untouched
        _, result = _bench("tiny_verify", 1, False, dirs)
        assert result["correct"] and result["failed"] == 0


if __name__ == "__main__":
    test_metrics_and_fail_frac()
    print("bench smoke test passed")
