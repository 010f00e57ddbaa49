"""fraccons benchmark: fresh-process CLI calls on committed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_solver --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 60 --trace 0

Each run generates the workload's config from ``--seed`` (the seed picks one
of the workload's parameter variants; grids never change), then starts one
child process at a time (``bench/child.py``), each of which imports
``fraccons`` from ``src/`` and calls ``fraccons.cli.main`` once.  Module
caches therefore start cold, as in every real CLI call.  Every call's exit
code and output are checked against ``bench/refs/<workload>.json``.

A fixed calibration job runs in this process after every child, so each
child sits between two calibrations.  ``wall_s`` and ``setup_s`` are the
child's times scaled by ``CALIB_REF_S`` over the mean of those two: seconds
at a fixed machine speed, so that the host's drift in speed between runs
cancels.  The raw times are in the details line.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones from traced calls, alternated
with untraced calls to give ``trace.overhead``.  The line before it holds
the details: environment, parameters, sample counts, maxima, ``fail_frac``
and the failure messages.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = HERE / "workloads"
REFS = HERE / "refs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 8     # least set-up-only spawns per run, besides one per full call
MIN_CALLS = 2         # full CLI calls per run, even past --seconds
RUN_LIMIT_S = 170     # a run, and any one child, ends within this even if a call hangs
CALIB_REF_S = 0.25    # calibrate()'s typical time on the machine of the README baseline
# output tolerances against the reference rows
NORM_RTOL, NORM_ATOL = 1e-6, 1e-12   # Linf, L2: roundoff on O(1) fields
RATIO_RTOL = 1e-3                     # ratio of two such norms, printed to 6 digits

COVERED = ("specialfn", "fracops", "tfde", "symcat", "conslaw")
# per-layer metric -> the span names it sums (self time) or counts (calls)
SELF_SPANS = {
    "fracops.j_integral.self_s": ("fracops.j_integral",),
    "fracops.left_frac_integral.self_s": ("fracops.left_frac_integral",),
    "fracops.hyperkernel.self_s": ("fracops.left_integral_endpoint_pole",
                                   "fracops.f_modified_integral"),
    "tfde.solve_nonlinear.self_s": ("tfde.solve_nonlinear",),
    "conslaw.verify.self_s": ("conslaw.divergence_residual", "conslaw.flux_balance"),
}
CALL_SPANS = {
    "fracops.j_integral.calls": "fracops.j_integral",
    "fracops.left_frac_integral.calls": "fracops.left_frac_integral",
    "tfde.column.calls": "tfde.GridFunction.column",
    "specialfn.hyp2f1.calls": "specialfn.hyp2f1",
    "specialfn.mittag_leffler.calls": "specialfn.mittag_leffler",
    "tfde.banded_solves": "tfde.banded_solves",
    "conslaw.components.calls": "conslaw.ConservedVectorEval.components",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, workload or reference)."""


# ---------------------------------------------------------------------------
# workloads and references
# ---------------------------------------------------------------------------

def load_workload(workloads: Path, name: str) -> dict:
    path = workloads / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"no workload {name!r} in {workloads}")
    return json.loads(path.read_text(encoding="utf-8"))


def make_config(spec: dict, variant: dict) -> dict | None:
    """The workload's base config with one variant's dotted-path overrides."""
    if spec["config"] is None:
        return None
    cfg = copy.deepcopy(spec["config"])
    for dotted, value in variant.items():
        *path, last = dotted.split(".")
        node = cfg
        for key in path:
            node = node[key]
        node[last] = value
    return cfg


def parse_rows(stdout: str) -> list[list]:
    """Verify report rows as [provenance, n_steps, n_x, Linf, L2, ratio].

    Provenance ids may contain commas, so fields are taken from the right.
    """
    rows = []
    for line in stdout.splitlines():
        if not line or line.startswith("#") or line.startswith("provenance_id,"):
            continue
        fields = line.split(",")
        prov = ",".join(fields[:-8])
        _kind, _alpha, n_t, n_x, linf, l2, _excl, ratio = fields[-8:]
        rows.append([prov, int(n_t), int(n_x), float(linf), float(l2),
                     float(ratio) if ratio else None])
    return rows


def capture(stdout: str, exit_code: int, is_verify: bool) -> dict:
    ref = {"exit_code": exit_code}
    if is_verify:
        ref["rows"] = parse_rows(stdout)
    else:
        ref["lines"] = stdout.splitlines()
    return ref


def _refs_text(variants: list[dict]) -> str:
    """References as JSON with one report row or output line per text line."""
    blocks = []
    for v in variants:
        body = v.get("rows", v.get("lines", []))
        key = "rows" if "rows" in v else "lines"
        items = ",\n".join("   " + json.dumps(item) for item in body)
        blocks.append(f'  {{"params": {json.dumps(v["params"])}, "exit_code": {v["exit_code"]},\n'
                      f'   "{key}": [\n{items}\n  ]}}')
    return '{"variants": [\n' + ",\n".join(blocks) + "\n]}\n"


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def check_output(ref: dict, exit_code: int, stdout: str) -> str | None:
    """None when the call matches the reference, else what differs."""
    if exit_code != ref["exit_code"]:
        return f"exit code {exit_code}, expected {ref['exit_code']}"
    if "lines" in ref:
        got = stdout.splitlines()
        return None if got == ref["lines"] else f"output {got!r}, expected {ref['lines']!r}"
    try:
        rows = parse_rows(stdout)
    except ValueError as exc:
        return f"unreadable report row: {exc}"
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} report rows, expected {len(ref['rows'])}"
    for got, want in zip(rows, ref["rows"]):
        if got[:3] != want[:3]:
            return f"row {got[:3]}, expected {want[:3]}"
        for col, g, w in (("Linf", got[3], want[3]), ("L2", got[4], want[4])):
            if not _close(g, w, NORM_RTOL, NORM_ATOL):
                return f"{want[0]} n={want[1]} {col} {g!r}, expected {w!r}"
        if (got[5] is None) != (want[5] is None) or (
                want[5] is not None and not _close(got[5], want[5], RATIO_RTOL)):
            return f"{want[0]} n={want[1]} ratio {got[5]!r}, expected {want[5]!r}"
    return None


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds taken by a fixed job shaped like the program's hot loops.

    Python loops over growing numpy slices with a trapezoid sum each, a
    dense matrix-vector product and scalar ``math`` calls, in this process.
    The job never changes, so its time tracks only the machine's speed.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 257)
    mat = np.outer(x, x[::-1])
    acc = 0.0
    for _ in range(70):
        for i in range(1, x.size):
            seg = x[: i + 1] * x[i::-1]
            acc += float(np.trapezoid(seg, dx=0.5))
        for k in range(1, 4000):
            acc += math.lgamma(1.5 + 1e-3 * k) * math.exp(-1e-3 * k)
        acc += float((mat @ x).sum())
    if not math.isfinite(acc):
        raise BenchError("calibration job gave a non-finite sum")
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def environment() -> tuple[dict, dict]:
    """Child environment (sources on the path, capped BLAS threads) and its record."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    blas = {}
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        blas[var] = max(1, min(wanted, nproc))
        env[var] = str(blas[var])
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return env, {"nproc": nproc, "cpu_model": cpu, "blas_threads": blas,
                 "load_generator": "one process, one child at a time"}


class Runner:
    """Spawns child processes, one at a time, for one workload variant."""

    def __init__(self, workdir: Path, env: dict, config: Path | None, argv: list[str]):
        self.workdir = workdir
        self.env = env
        self.config = config
        self.argv = argv
        self.spawns = 0

    @classmethod
    def for_variant(cls, spec: dict, variant: dict, workdir: Path, env: dict) -> "Runner":
        """Write the variant's generated config into ``workdir``: the CLI reads only that."""
        cfg = make_config(spec, variant)
        cfg_path = None
        if cfg is not None:
            cfg_path = workdir / "config.json"
            cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        argv = [a.replace("{config}", str(cfg_path)) for a in spec["argv"]]
        return cls(workdir, env, cfg_path, argv)

    def spawn(self, setup_only: bool = False, trace: bool = False,
              timeout: float = RUN_LIMIT_S) -> dict:
        """One child process; its stats plus ``stdout`` and ``error`` (None when it ran)."""
        self.spawns += 1
        stats_path = self.workdir / f"stats-{self.spawns}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--stats", str(stats_path)]
        if self.config is not None:
            cmd += ["--workload-config", str(self.config)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        cmd += ["--spawned", repr(time.monotonic()), "--", *self.argv]
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {timeout:.0f} s", "stdout": ""}
        if proc.returncode != 0 or not stats_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stats written"]
            return {"error": f"child exited {proc.returncode}: {tail[0]}", "stdout": proc.stdout}
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        stats.update(stdout=proc.stdout, error=None)
        return stats


def layer_metrics(trace: dict) -> dict:
    self_s, calls = trace["self_s"], trace["calls"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
    for metric, spans in SELF_SPANS.items():
        out[metric] = sum((self_s.get(s, 0.0) for s in spans), 0.0)
    for metric, span in CALL_SPANS.items():
        out[metric] = calls.get(span, 0)
    out["trace.wall_s"] = sum(self_s.values())
    out["trace.coverage"] = sum(out[f"{layer}.self_s"] for layer in COVERED) / out["trace.wall_s"]
    return out


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass  # another run's files are still there


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workloads: Path, refs: Path) -> tuple[dict, dict]:
    spec = load_workload(workloads, name)
    ref_path = refs / f"{name}.json"
    if not ref_path.is_file():
        raise BenchError(f"no reference for {name!r} in {refs}")
    ref_variants = json.loads(ref_path.read_text(encoding="utf-8"))["variants"]
    if [r["params"] for r in ref_variants] != spec["variants"]:
        raise BenchError(f"references for {name!r} do not match its variants; recapture them")
    index = seed % len(spec["variants"])
    variant = spec["variants"][index]
    ref = ref_variants[index]

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env, env_record = environment()
        runner = Runner.for_variant(spec, variant, workdir, env)

        start = time.monotonic()
        deadline = start + RUN_LIMIT_S

        def left() -> float:
            return max(1.0, deadline - time.monotonic())

        calibs: list[float] = []
        spawns: list[list] = []  # [start, setup_s, wall_s]; spawn i sits between calibs i and i+1

        def bracketed(**kwargs) -> dict:
            """One spawn, then a calibration; ``scale`` uses the calibrations on both sides."""
            t0 = time.monotonic() - start
            res = runner.spawn(timeout=left(), **kwargs)
            calibs.append(calibrate())
            res["scale"] = 2.0 * CALIB_REF_S / (calibs[-2] + calibs[-1])
            spawns.append([t0, res.get("setup_s"), res.get("wall_s")])
            return res

        # unrecorded: writes bytecode, warms caches, and opens the first bracket
        runner.spawn(setup_only=True, timeout=left())
        calibs.append(calibrate())
        calls, failures = [], []
        setups = []          # (raw, scaled) set-up time of every process that ran
        cycles, shorts = [], []  # durations of one call cycle, of one set-up-only spawn

        def setup_only() -> None:
            t0 = time.monotonic()
            res = bracketed(setup_only=True)
            shorts.append(time.monotonic() - t0)
            if res["error"] is None:
                setups.append((res["setup_s"], res["setup_s"] * res["scale"]))

        # cycles of one full call and one set-up-only spawn, so that both kinds of
        # sample span the whole run
        while True:
            t0 = time.monotonic()
            traced = trace and len(calls) % 2 == 1
            res = bracketed(trace=traced)
            res["traced"] = traced
            calls.append(res)
            if res["error"] is None:
                setups.append((res["setup_s"], res["setup_s"] * res["scale"]))
                res["error"] = check_output(ref, res["exit_code"], res["stdout"])
            if res["error"] is not None:
                failures.append(res["error"])
            setup_only()
            now = time.monotonic()
            cycles.append(now - t0)
            reserve = max(0, SETUP_SAMPLES - len(shorts)) * _median(shorts)
            if now >= deadline or (len(calls) >= MIN_CALLS
                                   and now - start + _median(cycles) + reserve > seconds):
                break
        # set-up-only spawns fill what is left of --seconds, and make at least SETUP_SAMPLES
        while time.monotonic() < deadline and (
                len(shorts) < SETUP_SAMPLES
                or time.monotonic() - start + _median(shorts) <= seconds):
            setup_only()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK)

    ran = [c for c in calls if "wall_s" in c]
    plain = [c for c in ran if not c["traced"]]
    walls = [c["wall_s"] * c["scale"] for c in plain]
    rss = [c["peak_rss_mb"] for c in plain]
    versions = ran[0]["versions"] if ran else {}
    detail = {
        "workload": name, "seed": seed, "variant": index, "params": variant,
        "why": spec["why"], "env": {**versions, **env_record},
        "calls": len(calls), "fail_frac": len(failures) / len(calls),
        **{key: {"median": _median(v), "max": max(v, default=None), "count": len(v)}
           for key, v in (("wall_s", walls), ("setup_s", [s for _, s in setups]),
                          ("peak_rss_mb", rss), ("raw_wall_s", [c["wall_s"] for c in plain]),
                          ("raw_setup_s", [r for r, _ in setups]), ("calib_s", calibs))},
        "failures": failures,
        "series": {"calib_s": calibs, "spawns": spawns},
    }
    if trace:
        # the layer breakdown of the median traced call, so its self times still add up
        traced = sorted((c for c in ran if c["traced"]), key=lambda c: c["wall_s"])
        metrics = {}
        if traced and walls:
            layers = layer_metrics(traced[(len(traced) - 1) // 2]["trace"])
            metrics = {k: {"value": v, "unit": "count" if isinstance(v, int) else "s"}
                       for k, v in layers.items()}
            metrics["trace.coverage"]["unit"] = "ratio"
            metrics["trace.overhead"] = {
                "value": _median([c["wall_s"] * c["scale"] for c in traced]) / _median(walls) - 1.0,
                "unit": "ratio"}
    else:
        metrics = {}
        if walls:
            metrics = {
                "wall_s": {"value": _median(walls), "unit": "s"},
                "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
                "peak_rss_mb": {"value": _median(rss), "unit": "MiB"},
            }
    result = {"correct": not failures and bool(metrics), "attempted": len(calls),
              "failed": len(failures), "metrics": metrics}
    return detail, result


def capture_refs(name: str, workloads: Path, refs: Path) -> None:
    """Write ``refs/<name>.json`` from one untraced call per variant."""
    spec = load_workload(workloads, name)
    workdir = WORK / f"{name}-capture-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    variants = []
    try:
        env, _ = environment()
        for variant in spec["variants"]:
            runner = Runner.for_variant(spec, variant, workdir, env)
            res = runner.spawn()
            if res["error"] is not None:
                raise BenchError(f"{name} variant {variant}: {res['error']}")
            variants.append({"params": variant, **capture(res["stdout"], res["exit_code"],
                                                          runner.config is not None)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK)
    refs.mkdir(parents=True, exist_ok=True)
    (refs / f"{name}.json").write_text(_refs_text(variants), encoding="utf-8")
    print(f"captured {len(variants)} reference variant(s) for {name}")


def _print_result(detail: dict, result: dict) -> None:
    for key, m in result["metrics"].items():
        print(f"{detail['workload']}: {key} = {m['value']} {m['unit']}")
    print(f"{detail['workload']}: fail_frac = {detail['fail_frac']} "
          f"({result['failed']} of {result['attempted']} calls)")
    print(json.dumps(detail))


def workload_names(workload: str, workloads: Path) -> list[str]:
    """``workload``, or every workload in ``workloads`` when it is 'all'."""
    if workload == "all":
        return [p.stem for p in sorted(workloads.glob("*.json"))]
    return [workload]


def run_all(workload: str, seed: int, seconds: float, trace: bool,
            workloads: Path, refs: Path) -> dict:
    """Run ``workload`` (or 'all'), print each one's metrics and details; the result line."""
    results = []
    for name in workload_names(workload, workloads):
        detail, result = run_workload(name, seed, seconds, trace, workloads, refs)
        _print_result(detail, result)
        results.append((name, result))
    if len(results) == 1:
        return results[0][1]
    return {"correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": m for n, r in results for k, m in r["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture-refs", action="store_true",
                    help="write the references from the current sources instead of measuring")
    args = ap.parse_args(argv)

    try:
        if not (SRC / "fraccons" / "cli.py").is_file():
            raise BenchError(f"no fraccons sources under {SRC}")
        if args.capture_refs:
            for name in workload_names(args.workload, WORKLOADS):
                capture_refs(name, WORKLOADS, REFS)
            return 0
        final = run_all(args.workload, args.seed, args.seconds, bool(args.trace),
                        WORKLOADS, REFS)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
