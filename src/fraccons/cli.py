"""Command-line interface: solve, verify, catalog, selftest.

Exit codes, each failure with a one-line message on stderr:
  0 success;
  2 configuration/validation error (a non-finite number, a grid or n_x
    with a fraction, a largest grid whose field has more than 2^25 nodes
    (n + 1) * (n_x + 1), checked before any solve, an unknown key in a
    config mapping, a --config or --out path that cannot be read or
    written; --out is opened before the first solve), and a
    ``selftest --only`` number that names no criterion
    (checked before any criterion runs);
  3 solver failure (including a Newton iterate outside the domain of
    k and a singular Newton system), or a special-function series that did not converge or cannot
    reach float64 accuracy (the Mittag-Leffler series of an exact
    solution at large lam^2 t^alpha), or a float64 overflow in the
    numerics (a horizon T near 1e308), or an array too large for the
    memory (MemoryError; the dense kernels grow as the square of the grid);
  4 conservation-check (or selftest) failure: a convergence ratio below
    the threshold (the line names the worst vector, its n_steps and
    ratio, and the threshold, and a fixed n_x), or a non-finite residual
    inside the checked window.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .specialfn import ConvergenceError
from .fracops import Kind, FractionalSpec, TimeGrid, TimeSeries
from .tfde import (
    Diffusivity,
    DiffusivityFamily,
    SolverError,
    TFDEProblem,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
)
from .symcat import AdjointSubstitution, list_symmetries, regime_constants, regime_of
from .conslaw import (
    CSV_HEADER,
    ConservedVectorEval,
    catalog_ids,
    catalog_vector,
    correspondence,
    divergence_residual,
    flux_balance,
)

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "main"]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


# source id -> {param: default}: the only params each source takes
_SOURCE_PARAMS = {
    "exact_linear": {"lam": 1.0},
    "exact_stationary": {"a": 0.1, "b": 1.0},
    "exact_rl_power": {"c": 1.0},
    "exact_rl_separable": {"a": 0.1, "b": 1.0},
    "solver": {"a": 0.1, "b": 1.0, "perturb": 0.0},
}
# diffusivity family -> the keys it reads besides "family"
_FAMILY_KEYS = {"constant": ("k0",), "power": ("beta",), "exponential": ()}
# the most nodes (n + 1) * (n_x + 1) a field may have: 256 MiB of float64,
# and a solve or verify holds several fields of that size at once
_MAX_NODES = 2 ** 25


@dataclass(frozen=True)
class ScenarioConfig:
    """One verification scenario: equation, solution source, vectors, grids."""

    kind: str
    alpha: float
    T: float
    x_lo: float
    x_hi: float
    diffusivity: dict
    source: dict
    vectors: tuple
    grids: tuple = (64, 128, 256)
    substitution: Optional[dict] = None
    exclude_frac: float = 0.05
    threshold: float = 1.3
    n_x: Optional[int] = None


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
    """Validate a configuration mapping and freeze it into a ScenarioConfig.

    The equation, the substitution and every vector are built once here, so
    the library's constructors are the checks of kind, alpha, T, family,
    regime and vector ids; their ValueError becomes a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping")
    known = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = {"kind", "alpha", "T", "x_lo", "x_hi", "diffusivity",
               "source", "vectors"} - set(data)
    if missing:
        raise ConfigError(f"missing configuration keys: {sorted(missing)}")
    try:
        cfg = ScenarioConfig(
            kind=str(data["kind"]),
            alpha=float(data["alpha"]),
            T=float(data["T"]),
            x_lo=float(data["x_lo"]),
            x_hi=float(data["x_hi"]),
            diffusivity=dict(data["diffusivity"]),
            source=dict(data["source"]),
            vectors=tuple(data["vectors"]),
            grids=tuple(_whole(g, "every grid") for g in data.get("grids", (64, 128, 256))),
            substitution=(dict(data["substitution"]) if data.get("substitution") else None),
            exclude_frac=float(data.get("exclude_frac", 0.05)),
            threshold=float(data.get("threshold", 1.3)),
            n_x=(_whole(data["n_x"], "n_x") if data.get("n_x") is not None else None),
        )
        # the numbers of the scenario, which the assembly reads with float()
        numbers = [(k, getattr(cfg, k))
                   for k in ("alpha", "T", "x_lo", "x_hi", "exclude_frac", "threshold")]
        numbers += [(f"diffusivity.{k}", cfg.diffusivity.get(k, 0.0)) for k in ("k0", "beta")]
        numbers += [(f"source.params.{k}", v) for k, v in dict(cfg.source.get("params", {})).items()]
        numbers += [(f"substitution.{k}", v)
                    for k, v in (cfg.substitution or {}).items() if k != "regime"]
        for name, value in numbers:
            if not math.isfinite(float(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc
    if not all(isinstance(vid, str) for vid in cfg.vectors):
        raise ConfigError("vectors must be a list of vector id strings")
    if cfg.substitution is not None and not isinstance(cfg.substitution.get("regime"), str):
        raise ConfigError("substitution.regime must be a regime name")
    extra = set(cfg.substitution or {}) - {"regime", "c1", "c2", "c3", "c4"}
    if extra:
        raise ConfigError(f"unknown substitution keys: {sorted(extra)}")
    sid = cfg.source.get("id")
    if not isinstance(sid, str) or sid not in _SOURCE_PARAMS:
        raise ConfigError(f"source.id must be one of {tuple(_SOURCE_PARAMS)}")
    if cfg.x_lo >= cfg.x_hi:
        raise ConfigError("x_lo must be less than x_hi")
    if list(cfg.grids) != sorted(set(cfg.grids)) or min(cfg.grids, default=0) < 4:
        raise ConfigError("grids must be a strictly increasing list of integers >= 4")
    if cfg.n_x is not None and cfg.n_x < 6:
        raise ConfigError("n_x must be an integer >= 6")
    n = cfg.grids[-1]
    n_x = cfg.n_x if cfg.n_x is not None else n
    if (n + 1) * (n_x + 1) > _MAX_NODES:
        raise ConfigError(f"grids: a field of {n} time steps and {n_x} space cells has "
                          f"{(n + 1) * (n_x + 1)} nodes, over the limit of {_MAX_NODES}")
    if not (0.0 <= cfg.exclude_frac < 0.5):
        raise ConfigError("exclude_frac must lie in [0, 0.5)")
    if sid == "exact_linear" and (
            cfg.diffusivity.get("family") != "constant"
            or float(cfg.diffusivity.get("k0", 1.0)) != 1.0):
        raise ConfigError("source exact_linear solves the equation for the constant "
                          "diffusivity k0 = 1 only")
    try:
        TimeGrid(cfg.T, cfg.grids[-1])
        _evaluators(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # no key is ignored; the family is a valid one once the evaluators are built
    family = cfg.diffusivity["family"]
    for where, keys, allowed in (
            (f"diffusivity keys for {family}", cfg.diffusivity, ("family",) + _FAMILY_KEYS[family]),
            ("source keys", cfg.source, ("id", "params")),
            (f"source.params keys for {sid}", dict(cfg.source.get("params", {})),
             _SOURCE_PARAMS[sid])):
        extra = set(keys) - set(allowed)
        if extra:
            raise ConfigError(f"unknown {where}: {sorted(extra)}; allowed: {', '.join(allowed)}")
    return cfg


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def _equation(cfg: ScenarioConfig) -> tuple[FractionalSpec, Diffusivity]:
    """The spec and diffusivity of the scenario; the constructors validate them."""
    d = cfg.diffusivity
    family = DiffusivityFamily(d.get("family"))
    beta = float(d.get("beta", 1.0)) if family is DiffusivityFamily.POWER else 0.0
    return (FractionalSpec(Kind(cfg.kind), cfg.alpha),
            Diffusivity(family, k0=float(d.get("k0", 1.0)), beta=beta))


def _evaluators(cfg: ScenarioConfig) -> dict[str, ConservedVectorEval]:
    """The evaluator of each configured vector id, with u_t(0, x) = 0."""
    spec, diffu = _equation(cfg)
    sub = None
    if cfg.substitution is not None:
        consts = {k: float(v) for k, v in cfg.substitution.items() if k != "regime"}
        sub = AdjointSubstitution(cfg.substitution["regime"], spec, **consts)
    return {vid: catalog_vector(vid, spec, diffu, initial_velocity=0.0, substitution=sub)
            for vid in cfg.vectors}


def _solution(cfg: ScenarioConfig, n_steps: int) -> TimeSeries:
    spec, diffu = _equation(cfg)
    grid = TimeGrid(cfg.T, n_steps)
    n_x = cfg.n_x if cfg.n_x is not None else n_steps
    x = np.linspace(cfg.x_lo, cfg.x_hi, n_x + 1)
    sid = cfg.source["id"]
    given = dict(cfg.source.get("params", {}))
    p = {k: float(given.get(k, default)) for k, default in _SOURCE_PARAMS[sid].items()}
    if sid == "exact_linear":
        return exact_linear_separable(spec, p["lam"], grid, x)
    if sid == "exact_stationary":
        return exact_stationary_caputo(diffu, p["a"], p["b"], grid, x)
    if sid == "exact_rl_power":
        return exact_rl_power_mode(cfg.alpha, p["c"], grid, x)
    if sid == "exact_rl_separable":
        return exact_rl_separable(diffu, cfg.alpha, p["a"], p["b"], grid, x)
    # numerical solver: separable-compatible initial data, optionally perturbed
    a, b, eps = p["a"], p["b"], p["perturb"]
    span = cfg.x_hi - cfg.x_lo

    def profile(xx):
        base = diffu.K_inv(a * xx + b)
        return base * (1.0 + eps * np.sin(np.pi * (xx - cfg.x_lo) / span))

    problem = TFDEProblem(spec, diffu, cfg.x_lo, cfg.x_hi, profile,
                          initial_velocity=np.zeros_like if spec.n == 2 else None)
    return solve_nonlinear(problem, grid, n_x)


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
        print(f"wrote solution field ({u.grid.n_steps}x{u.x.size - 1} cells) to {out}")
    else:
        print(f"solved: {u.grid.n_steps} time steps, {u.x.size - 1} space cells")
    return 0


def run_verify(cfg: ScenarioConfig, out: Optional[str]) -> int:
    rows = []
    below = []  # (ratio, vector id, n_steps) of every ratio under the threshold
    last = {}
    evaluators = _evaluators(cfg)
    for gi, n in enumerate(cfg.grids):
        u = _solution(cfg, n)
        for vid in sorted(cfg.vectors):
            cv = evaluators[vid]
            comps = cv.components(u)
            rep = divergence_residual(cv, u, cfg.exclude_frac, comps)
            nested = gi > 0 and cfg.grids[gi] == 2 * cfg.grids[gi - 1]
            if nested and (vid, "div") in last and rep.linf > 0:
                rep.convergence_ratio = last[(vid, "div")] / rep.linf
                if rep.convergence_ratio < cfg.threshold:
                    below.append((rep.convergence_ratio, vid, n))
            last[(vid, "div")] = rep.linf
            rows.append(rep.csv_row())
            fb = flux_balance(cv, u, cfg.exclude_frac, comps)
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
    spec, diffu = _equation(cfg)
    regime = regime_of(spec)
    print(f"admitted symmetries for kind={cfg.kind}, alpha={cfg.alpha}, "
          f"k-family={cfg.diffusivity['family']}:")
    for sym in list_symmetries(spec.kind, cfg.alpha, diffu):
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
    for name in ("solve", "verify"):
        p = subs.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--grids", default=None, help="comma-separated, e.g. 64,128,256")
        p.add_argument("--exclude-frac", type=float, default=None)
        p.add_argument("--threshold", type=float, default=None)
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
            # an unusable --out path fails before the first solve; append mode
            # leaves an existing file as it is until the run writes it
            open(args.out, "a", encoding="utf-8").close()
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
