"""Command-line interface: solve, verify, catalog, selftest.

Exit codes, each failure with a one-line message on stderr:
  0 success;
  2 configuration/validation error, found before any solve: a non-finite
    number, a grid or n_x with a fraction, an n_x below 6 (each grid's n_x,
    which is its step count when n_x is not given), an exclude_frac that
    leaves no interior time node on some grid, a largest grid whose field has
    more than 2^25 nodes (n + 1) * (n_x + 1), grids whose dense endpoint-pole
    weights would exceed the 1 GiB budget _DENSE_WEIGHT_BUDGET, a solver source
    on grids whose L1 history sums, n^2 (n_x + 1) / 2 per grid, would exceed the
    1e11 multiply-adds of _SOLVER_WORK_BUDGET, an unknown
    key in a config mapping, a vector listed twice, a vector or substitution
    that does not fit the equation, a source that does not solve it (of
    another kind or diffusivity), a --config or --out path that cannot be
    read or written (--out is opened before the first solve; a file the check
    creates is removed at once), or a ``selftest --only`` number that names
    no criterion (checked before any criterion runs);
  3 solver failure (including a Newton iterate outside the domain of
    k, a singular Newton system, and a Newton tolerance that overflows
    float64), or a special-function series that did not converge or cannot
    reach float64 accuracy (the Mittag-Leffler series of an exact
    solution at large lam^2 t^alpha), or a float64 overflow in the
    numerics (a horizon T near 1e308), or an array too large for the
    memory (MemoryError; the dense endpoint-pole kernels grow as the square of
    the grid, and their weights are checked against a budget before any solve);
  4 conservation-check (or selftest) failure: a convergence ratio below
    the threshold (the line names the worst vector, its n_steps and
    ratio, and the threshold, and a fixed n_x), or a non-finite residual
    inside the checked window.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .specialfn import ConvergenceError
from .fracops import Kind, FractionalSpec, SpaceGrid, TimeGrid, TimeSeries
from .tfde import (
    Diffusivity,
    DiffusivityFamily,
    SolverError,
    _load_dgtsv,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    l1_history_work,
    solve_nonlinear,
)
from .symcat import AdjointSubstitution, list_symmetries, regime_constants, regime_of
from .conslaw import (
    CSV_HEADER,
    ConservedVectorEval,
    _time_window,
    catalog_ids,
    catalog_vector,
    conservation_residuals,
    correspondence,
    dense_weight_bytes,
)

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


# source id -> (its params with their defaults, the kind whose equation it
# solves, and the diffusivity it solves: one Diffusivity, a family, or None
# for any); None as the kind fits either
_SOURCES = {
    "exact_linear": ({"lam": 1.0}, None, Diffusivity.constant(1.0)),
    "exact_stationary": ({"a": 0.1, "b": 1.0}, Kind.CAPUTO, None),
    "exact_rl_power": ({"c": 1.0}, Kind.RIEMANN_LIOUVILLE, None),
    "exact_rl_separable": ({"a": 0.1, "b": 1.0}, Kind.RIEMANN_LIOUVILLE, DiffusivityFamily.POWER),
    "solver": ({"a": 0.1, "b": 1.0, "perturb": 0.0}, None, None),
}
# diffusivity family -> the keys it reads besides "family"
_FAMILY_KEYS = {"constant": ("k0",), "power": ("beta",), "exponential": ()}
# the config keys every scenario gives, and the others with their defaults
_REQUIRED = ("kind", "alpha", "T", "x_lo", "x_hi", "diffusivity", "source", "vectors")
_DEFAULTS = {"grids": (64, 128, 256), "n_x": None, "substitution": None,
             "exclude_frac": 0.05, "threshold": 1.3}
# the most nodes (n + 1) * (n_x + 1) a field may have: 256 MiB of float64,
# and a solve or verify holds several fields of that size at once
_MAX_NODES = 2 ** 25
# the most bytes the dense endpoint-pole weights may take over the grids of a
# verify: 1 GiB, a largest grid near 10^4 steps
_DENSE_WEIGHT_BUDGET = 2 ** 30
# the most multiply-adds the solver's L1 history sums may take over the grids of
# a verify: about 20 s at 5e9 a second on one core (verify_solver's grids take
# 1.8e8); with n_x = 64, one grid of up to about 55,000 steps
_SOLVER_WORK_BUDGET = 1e11


@dataclass(frozen=True)
class ScenarioConfig:
    """One verification scenario, built: the equation, the evaluator of each
    vector, the solution source with its params, and the grid settings."""

    spec: FractionalSpec
    diffusivity: Diffusivity
    vectors: tuple[str, ...]                   # in config order
    evaluators: dict[str, ConservedVectorEval]  # vector id -> evaluator, in config order
    source: str                                # the source id
    params: dict[str, float]                   # its params, the defaults filled in
    T: float
    x_lo: float
    x_hi: float
    grids: tuple
    n_x: Optional[int]
    exclude_frac: float
    threshold: float


def _whole(value, name: str) -> int:
    """``value`` as an int; ValueError, naming ``name``, unless it is a whole number."""
    try:
        number = float(value)
        if number.is_integer():
            return int(number)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a configuration mapping and build its scenario.

    The equation, the substitution and every vector are built once here, so
    the library's constructors are the checks of kind, alpha, T, the space
    interval, family, regime and vector ids; their ValueError becomes a
    ConfigError. A vector id listed twice is refused. The
    source must solve the equation of the configured kind and diffusivity.
    A scenario with the solver source must keep its L1 history work within
    _SOLVER_WORK_BUDGET, and loads the solver's LAPACK routine (scipy.linalg)
    here, not in its first solve.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping")
    unknown = set(data) - set(_REQUIRED) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = set(_REQUIRED) - set(data)
    if missing:
        raise ConfigError(f"missing configuration keys: {sorted(missing)}")
    data = {**_DEFAULTS, **data}
    try:
        diffusivity = dict(data["diffusivity"])
        source = dict(data["source"])
        given = dict(source.get("params", {}))
        sub = dict(data["substitution"]) if data["substitution"] else None
        vectors = tuple(data["vectors"])
        grids = tuple(_whole(g, "every grid") for g in data["grids"])
        n_x = _whole(data["n_x"], "n_x") if data["n_x"] is not None else None
        # the numbers of the scenario, each read with float()
        values = {k: float(data[k])
                  for k in ("alpha", "T", "x_lo", "x_hi", "exclude_frac", "threshold")}
        numbers = list(values.items())
        numbers += [(f"diffusivity.{k}", diffusivity.get(k, 0.0)) for k in ("k0", "beta")]
        numbers += [(f"source.params.{k}", v) for k, v in given.items()]
        numbers += [(f"substitution.{k}", v) for k, v in (sub or {}).items() if k != "regime"]
        for name, value in numbers:
            if not math.isfinite(float(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    if not all(isinstance(vid, str) for vid in vectors):
        raise ConfigError("vectors must be a list of vector id strings")
    repeated = sorted({vid for vid in vectors if vectors.count(vid) > 1})
    if repeated:
        raise ConfigError(f"vectors: {', '.join(repeated)} listed more than once")
    if sub is not None and not isinstance(sub.get("regime"), str):
        raise ConfigError("substitution.regime must be a regime name")
    extra = set(sub or {}) - {"regime", "c1", "c2", "c3", "c4"}
    if extra:
        raise ConfigError(f"unknown substitution keys: {sorted(extra)}")
    sid = source.get("id")
    if not isinstance(sid, str) or sid not in _SOURCES:
        raise ConfigError(f"source.id must be one of {tuple(_SOURCES)}")
    if list(grids) != sorted(set(grids)) or min(grids, default=0) < 4:
        raise ConfigError("grids must be a strictly increasing list of integers >= 4")
    if n_x is not None and n_x < 6:
        raise ConfigError("n_x must be an integer >= 6")
    if n_x is None and grids[0] < 6:
        raise ConfigError(f"grids: without n_x a grid of {grids[0]} steps has n_x = {grids[0]}, "
                          "and the residual's space window needs n_x >= 6")
    n, cells = grids[-1], (n_x if n_x is not None else grids[-1])
    if (n + 1) * (cells + 1) > _MAX_NODES:
        raise ConfigError(f"grids: a field of {n} time steps and {cells} space cells has "
                          f"{(n + 1) * (cells + 1)} nodes, over the limit of {_MAX_NODES}")
    if not (0.0 <= values["exclude_frac"] < 0.5):
        raise ConfigError("exclude_frac must lie in [0, 0.5)")
    defaults, kind, needed = _SOURCES[sid]
    try:
        family = DiffusivityFamily(diffusivity.get("family"))
        beta = float(diffusivity.get("beta", 1.0)) if family is DiffusivityFamily.POWER else 0.0
        spec = FractionalSpec(Kind(str(data["kind"])), values["alpha"])
        diffu = Diffusivity(family, k0=float(diffusivity.get("k0", 1.0)), beta=beta)
        if kind not in (None, spec.kind):
            raise ValueError(f"source {sid} solves the equation of kind {kind.value} only")
        if needed not in (None, diffu, family):
            want = (f"a {needed.value} diffusivity" if isinstance(needed, DiffusivityFamily)
                    else f"the {needed.family.value} diffusivity k0 = {needed.k0:g}")
            raise ValueError(f"source {sid} solves the equation for {want} only")
        TimeGrid(values["T"], grids[-1])
        SpaceGrid(values["x_lo"], values["x_hi"], cells)
        for n in grids:
            _time_window(n, values["exclude_frac"])
        substitution = sub and AdjointSubstitution(
            sub["regime"], spec, **{k: float(v) for k, v in sub.items() if k != "regime"})
        evaluators = {vid: catalog_vector(vid, spec, diffu, initial_velocity=0.0,
                                          substitution=substitution)
                      for vid in vectors}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dense = dense_weight_bytes(vectors, grids)
    if dense > _DENSE_WEIGHT_BUDGET:
        raise ConfigError(f"grids: the endpoint-pole weights on grids up to {grids[-1]} steps "
                          f"need {dense / 2 ** 30:.1f} GiB, over the budget of "
                          f"{_DENSE_WEIGHT_BUDGET / 2 ** 30:g} GiB")
    work = (sum(l1_history_work(n, n_x if n_x is not None else n) for n in grids)
            if sid == "solver" else 0)
    if work > _SOLVER_WORK_BUDGET:
        raise ConfigError(f"grids: the solver's L1 history on grids up to {grids[-1]} steps "
                          f"needs {work:.2g} multiply-adds, over the budget of "
                          f"{_SOLVER_WORK_BUDGET:g}")
    # no key is ignored
    for where, keys, allowed in (
            (f"diffusivity keys for {family.value}", diffusivity,
             ("family",) + _FAMILY_KEYS[family.value]),
            ("source keys", source, ("id", "params")),
            (f"source.params keys for {sid}", given, defaults)):
        extra = set(keys) - set(allowed)
        if extra:
            raise ConfigError(f"unknown {where}: {sorted(extra)}; allowed: {', '.join(allowed)}")
    if sid == "solver":
        _load_dgtsv()  # a scenario that solves loads LAPACK while it is built
    return ScenarioConfig(
        spec=spec, diffusivity=diffu, vectors=vectors, evaluators=evaluators, source=sid,
        params={k: float(given.get(k, default)) for k, default in defaults.items()},
        T=values["T"], x_lo=values["x_lo"], x_hi=values["x_hi"], grids=grids, n_x=n_x,
        exclude_frac=values["exclude_frac"], threshold=values["threshold"])


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def _solution(cfg: ScenarioConfig, n_steps: int) -> TimeSeries:
    """The field of the scenario's source on ``n_steps`` time steps."""
    spec, diffu, p = cfg.spec, cfg.diffusivity, cfg.params
    grid = TimeGrid(cfg.T, n_steps)
    x = SpaceGrid(cfg.x_lo, cfg.x_hi, cfg.n_x if cfg.n_x is not None else n_steps)
    if cfg.source == "exact_linear":
        return exact_linear_separable(spec, p["lam"], grid, x)
    if cfg.source == "exact_stationary":
        return exact_stationary_caputo(diffu, p["a"], p["b"], grid, x)
    if cfg.source == "exact_rl_power":
        return exact_rl_power_mode(spec.alpha, p["c"], grid, x)
    if cfg.source == "exact_rl_separable":
        return exact_rl_separable(diffu, spec.alpha, p["a"], p["b"], grid, x)
    # numerical solver: separable-compatible initial data, optionally perturbed
    a, b, eps = p["a"], p["b"], p["perturb"]
    xx = x.nodes()
    u0 = diffu.K_inv(a * xx + b) * (1.0 + eps * np.sin(np.pi * (xx - cfg.x_lo)
                                                      / (cfg.x_hi - cfg.x_lo)))
    return solve_nonlinear(spec, diffu, grid, x, u0, initial_velocity=0.0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_cfg(path: str, **overrides) -> ScenarioConfig:
    """The scenario of the JSON file ``path``, with the overrides that are not None."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data.update({k: v for k, v in overrides.items() if v is not None})
    return parse_config(data)


def run_solve(cfg: ScenarioConfig, out: Optional[str]) -> int:
    u = _solution(cfg, cfg.grids[-1])
    if out:
        u.to_csv(out)
        print(f"wrote solution field ({u.grid.n_steps}x{u.x.n_x} cells) to {out}")
    else:
        print(f"solved: {u.grid.n_steps} time steps, {u.x.n_x} space cells")
    return 0


def run_verify(cfg: ScenarioConfig, out: Optional[str]) -> int:
    rows = []
    below = []  # (ratio, vector id, n_steps) of every ratio under the threshold
    last = {}
    for gi, n in enumerate(cfg.grids):
        u = _solution(cfg, n)
        for vid in sorted(cfg.vectors):
            rep, fb = conservation_residuals(cfg.evaluators[vid], u, cfg.exclude_frac)
            nested = gi > 0 and cfg.grids[gi] == 2 * cfg.grids[gi - 1]
            if nested and vid in last and rep.linf > 0:
                rep.convergence_ratio = last[vid] / rep.linf
                if rep.convergence_ratio < cfg.threshold:
                    below.append((rep.convergence_ratio, vid, n))
            last[vid] = rep.linf
            rows.append(rep.csv_row())
            fb.provenance = f"{vid}[flux]"
            rows.append(fb.csv_row())
    text = _report_text(rows)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} report rows to {out}")
    else:
        print(text, end="")
    if below:
        ratio, vid, n = min(below)
        floor = (f"; n_x is fixed at {cfg.n_x}, so the space error may be the floor"
                 if cfg.n_x is not None else "")
        print(f"convergence check failed: {vid} ratio {ratio:.6g} at n_steps={n} "
              f"is below the threshold {cfg.threshold:g}{floor}", file=sys.stderr)
        return 4
    return 0


def _report_text(rows) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return "\n".join([f"# generated {stamp}", CSV_HEADER] + rows) + "\n"


def run_catalog(cfg: Optional[ScenarioConfig]) -> int:
    if cfg is None:
        print("catalog vector ids:")
        for vid in catalog_ids():
            print(f"  {vid}")
        return 0
    spec, diffu = cfg.spec, cfg.diffusivity
    regime = regime_of(spec)
    print(f"admitted symmetries for kind={spec.kind.value}, alpha={spec.alpha}, "
          f"k-family={diffu.family.value}:")
    for sym in list_symmetries(spec.kind, spec.alpha, diffu):
        entries = [f"{c} -> {'+'.join(correspondence(sym.id, c, regime))}"
                   for c in regime_constants(regime)]
        print(f"  {sym.id}: " + "; ".join(entries))
    return 0


def run_selftest(numbers=None) -> int:
    from .acceptance import run_all
    results = run_all(numbers)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 4


def _overflow(kind: str, flag: int) -> None:
    raise OverflowError("a numpy result exceeds the float64 range")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraccons",
        description="Conservation-law construction and verification for "
                    "time-fractional diffusion equations")
    subs = parser.add_subparsers(dest="command", required=True)
    p_solve, p_verify = subs.add_parser("solve"), subs.add_parser("verify")
    for p in (p_solve, p_verify):
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grids", default=None, help="comma-separated, e.g. 64,128,256")
    # solve solves on the last grid alone and takes neither verify setting
    p_verify.add_argument("--exclude-frac", type=float, default=None)
    p_verify.add_argument("--threshold", type=float, default=None)
    p_solve.set_defaults(exclude_frac=None, threshold=None)
    p_cat = subs.add_parser("catalog")
    p_cat.add_argument("--config", default=None)
    p_self = subs.add_parser("selftest")
    p_self.add_argument("--only", default=None,
                        help="comma-separated criterion numbers, e.g. 1,4,9")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            numbers = ({int(s) for s in args.only.split(",")} if args.only else None)
            return run_selftest(numbers)
        if args.command == "catalog":
            return run_catalog(_load_cfg(args.config) if args.config else None)
        grids = [_whole(g, "every grid") for g in args.grids.split(",")] if args.grids else None
        cfg = _load_cfg(args.config, grids=grids, exclude_frac=args.exclude_frac,
                        threshold=args.threshold)
        if args.out:
            # an unusable --out path fails before the first solve; append mode keeps an
            # existing file until the run writes it, and a file it creates goes at once
            new = not os.path.lexists(args.out)
            open(args.out, "a", encoding="utf-8").close()
            if new:
                os.remove(args.out)
        # a numpy overflow raises OverflowError, as Python's float arithmetic does
        with np.errstate(over="call", call=_overflow):
            return (run_solve if args.command == "solve" else run_verify)(cfg, args.out)
    except (ConfigError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"series did not converge: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"non-finite residual: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
