"""Command-line interface: solve, verify, catalog, selftest.

Exit codes, each failure with a one-line message on stderr:
  0 success;
  2 configuration/validation error;
  3 solver failure, or a special-function series that did not converge;
  4 conservation-check (or selftest) failure, including a non-finite
    residual inside the checked window.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .specialfn import ConvergenceError
from .fracops import Kind, FractionalSpec, TimeGrid
from .tfde import (
    Diffusivity,
    GridFunction,
    SolverError,
    TFDEProblem,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
)
from .symcat import SUBSTITUTION_REGIMES, _sym, adjoint_substitution, list_symmetries
from .conslaw import (
    CSV_HEADER,
    catalog_ids,
    catalog_vector,
    correspondence,
    divergence_residual,
    flux_balance,
    noether_vector,
)

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "serialize_config", "main"]


class ConfigError(ValueError):
    """Invalid scenario configuration."""


_SOURCES = ("exact_linear", "exact_stationary", "exact_rl_power",
            "exact_rl_separable", "solver")
_SYMMETRY_IDS = ("X1", "X2", "X3_lin", "Xinf", "X3_pow", "X3_exp",
                 "X4_pow43", "X4_rl")


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


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a configuration mapping and freeze it into a ScenarioConfig."""
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
    cfg = ScenarioConfig(
        kind=str(data["kind"]),
        alpha=float(data["alpha"]),
        T=float(data["T"]),
        x_lo=float(data["x_lo"]),
        x_hi=float(data["x_hi"]),
        diffusivity=dict(data["diffusivity"]),
        source=dict(data["source"]),
        vectors=tuple(data["vectors"]),
        grids=tuple(int(g) for g in data.get("grids", (64, 128, 256))),
        substitution=(dict(data["substitution"]) if data.get("substitution") else None),
        exclude_frac=float(data.get("exclude_frac", 0.05)),
        threshold=float(data.get("threshold", 1.3)),
        n_x=(int(data["n_x"]) if data.get("n_x") is not None else None),
    )
    if cfg.kind not in ("rl", "caputo"):
        raise ConfigError("kind must be 'rl' or 'caputo'")
    if not (0.0 < cfg.alpha < 2.0) or cfg.alpha == 1.0:
        raise ConfigError("alpha must lie in (0,2) with alpha != 1")
    if cfg.T <= 0:
        raise ConfigError("T must be positive")
    if cfg.x_lo >= cfg.x_hi:
        raise ConfigError("x_lo must be less than x_hi")
    if list(cfg.grids) != sorted(set(cfg.grids)) or min(cfg.grids, default=0) < 4:
        raise ConfigError("grids must be a strictly increasing list of integers >= 4")
    if not (0.0 <= cfg.exclude_frac < 0.5):
        raise ConfigError("exclude_frac must lie in [0, 0.5)")
    fam = cfg.diffusivity.get("family")
    if fam not in ("constant", "power", "exponential"):
        raise ConfigError("diffusivity.family must be constant, power, or exponential")
    if cfg.source.get("id") not in _SOURCES:
        raise ConfigError(f"source.id must be one of {_SOURCES}")
    if cfg.source["id"] == "exact_linear" and (
            fam != "constant" or float(cfg.diffusivity.get("k0", 1.0)) != 1.0):
        raise ConfigError("source exact_linear solves the equation for the constant "
                          "diffusivity k0 = 1 only")
    valid = set(catalog_ids())
    for vid in cfg.vectors:
        if isinstance(vid, str) and vid.startswith("Noether:"):
            sym_id = vid.split(":", 1)[1]
            if sym_id not in _SYMMETRY_IDS:
                raise ConfigError(f"unknown symmetry id in {vid!r}")
        elif vid not in valid:
            raise ConfigError(f"unknown vector id {vid!r}")
    if cfg.substitution is not None:
        regime = cfg.substitution.get("regime")
        if regime not in SUBSTITUTION_REGIMES:
            raise ConfigError(f"substitution.regime must be one of {SUBSTITUTION_REGIMES}")
    return cfg


def serialize_config(cfg: ScenarioConfig) -> dict:
    """Plain-data form; parse_config(serialize_config(cfg)) == cfg."""
    out = asdict(cfg)
    out["vectors"] = list(cfg.vectors)
    out["grids"] = list(cfg.grids)
    return out


# ---------------------------------------------------------------------------
# scenario assembly
# ---------------------------------------------------------------------------

def _diffusivity(cfg: ScenarioConfig) -> Diffusivity:
    d = cfg.diffusivity
    fam = d["family"]
    if fam == "constant":
        return Diffusivity.constant(float(d.get("k0", 1.0)))
    if fam == "power":
        return Diffusivity.power(float(d.get("beta", 1.0)))
    return Diffusivity.exponential()


def _spec(cfg: ScenarioConfig) -> FractionalSpec:
    kind = Kind.RIEMANN_LIOUVILLE if cfg.kind == "rl" else Kind.CAPUTO
    return FractionalSpec(kind, cfg.alpha, cfg.T)


def _solution(cfg: ScenarioConfig, n_steps: int) -> GridFunction:
    spec = _spec(cfg)
    diffu = _diffusivity(cfg)
    grid = TimeGrid(cfg.T, n_steps)
    n_x = cfg.n_x if cfg.n_x is not None else n_steps
    x = np.linspace(cfg.x_lo, cfg.x_hi, n_x + 1)
    src = cfg.source
    p = src.get("params", {})
    sid = src["id"]
    if sid == "exact_linear":
        return exact_linear_separable(spec, float(p.get("lam", 1.0)), grid, x)
    if sid == "exact_stationary":
        return exact_stationary_caputo(diffu, float(p.get("a", 0.1)),
                                       float(p.get("b", 1.0)), grid, x)
    if sid == "exact_rl_power":
        return exact_rl_power_mode(cfg.alpha, float(p.get("c", 1.0)), grid, x)
    if sid == "exact_rl_separable":
        return exact_rl_separable(diffu, cfg.alpha, float(p.get("a", 0.1)),
                                  float(p.get("b", 1.0)), grid, x)
    # numerical solver: separable-compatible initial data, optionally perturbed
    a = float(p.get("a", 0.1))
    b = float(p.get("b", 1.0))
    eps = float(p.get("perturb", 0.0))
    alpha = cfg.alpha
    span = cfg.x_hi - cfg.x_lo

    def profile(xx):
        base = diffu.K_inv(a * xx + b)
        return base * (1.0 + eps * np.sin(np.pi * (xx - cfg.x_lo) / span))

    # boundary traces: the end values of the profile, times t^{alpha-1} for the RL kind
    lo, hi = (float(profile(np.array([xb]))[0]) for xb in (cfg.x_lo, cfg.x_hi))
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        boundary_lo = lambda t: lo * t ** (alpha - 1.0)
        boundary_hi = lambda t: hi * t ** (alpha - 1.0)
    else:
        boundary_lo = lambda t: lo
        boundary_hi = lambda t: hi
    problem = TFDEProblem(
        spec, diffu, cfg.x_lo, cfg.x_hi, profile,
        initial_velocity=(lambda xx: np.zeros_like(xx)) if spec.n == 2 else None,
        boundary_lo=boundary_lo, boundary_hi=boundary_hi)
    return solve_nonlinear(problem, grid, n_x)


def _maybe_sub(cfg: ScenarioConfig):
    if cfg.substitution is None:
        return None
    s = dict(cfg.substitution)
    regime = s.pop("regime")
    return adjoint_substitution(regime, _spec(cfg), **{k: float(v) for k, v in s.items()})


def _vector_eval(cfg: ScenarioConfig, vid: str, u: GridFunction):
    spec = _spec(cfg)
    diffu = _diffusivity(cfg)
    sub = _maybe_sub(cfg)
    if vid.startswith("Noether:"):
        if sub is None:
            raise ConfigError(f"{vid} requires a substitution block")
        sym = _sym(vid.split(":", 1)[1], cfg.alpha, beta=diffu.beta)
        return noether_vector(sym, sub, spec, diffu)
    return catalog_vector(vid, spec, diffu, initial=u.values[0],
                          initial_velocity=np.zeros_like(u.x), substitution=sub)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_cfg(args) -> ScenarioConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if args.grids:
        data["grids"] = [int(g) for g in args.grids.split(",")]
    if args.exclude_frac is not None:
        data["exclude_frac"] = args.exclude_frac
    if args.threshold is not None:
        data["threshold"] = args.threshold
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
    worst_ratio_ok = True
    last = {}
    for gi, n in enumerate(cfg.grids):
        u = _solution(cfg, n)
        for vid in sorted(cfg.vectors):
            cv = _vector_eval(cfg, vid, u)
            comps = cv.components(u)
            rep = divergence_residual(cv, u, cfg.exclude_frac, comps)
            nested = gi > 0 and cfg.grids[gi] == 2 * cfg.grids[gi - 1]
            if nested and (vid, "div") in last and rep.linf > 0:
                rep.convergence_ratio = last[(vid, "div")] / rep.linf
                if rep.convergence_ratio < cfg.threshold:
                    worst_ratio_ok = False
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
    return 0 if worst_ratio_ok else 4


def _report_text(rows) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return "\n".join([f"# generated {stamp}", CSV_HEADER] + rows) + "\n"


def run_catalog(cfg: Optional[ScenarioConfig]) -> int:
    if cfg is None:
        print("catalog vector ids:")
        for vid in catalog_ids():
            print(f"  {vid}")
        return 0
    spec = _spec(cfg)
    diffu = _diffusivity(cfg)
    syms = list_symmetries(spec.kind, cfg.alpha, diffu, allow_conditional=True)
    regime = ("RL_" if cfg.kind == "rl" else "Caputo_") + ("sub" if cfg.alpha < 1 else "wave")
    print(f"admitted symmetries for kind={cfg.kind}, alpha={cfg.alpha}, "
          f"k-family={cfg.diffusivity['family']}:")
    consts = ("c1", "c2") if regime.endswith("sub") else ("c1", "c2", "c3", "c4")
    for sym in syms:
        entries = []
        for const in consts:
            try:
                ids = correspondence(sym.id, const, regime)
            except KeyError:
                continue
            entries.append(f"{const} -> {'+'.join(ids)}")
        print(f"  {sym.id}: " + ("; ".join(entries) if entries else "(no table entry)"))
    return 0


def run_selftest(numbers=None) -> int:
    from .acceptance import run_all
    results = run_all(numbers)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 4


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
    p_cat.add_argument("--grids", default=None)
    p_cat.add_argument("--exclude-frac", type=float, default=None)
    p_cat.add_argument("--threshold", type=float, default=None)
    p_self = subs.add_parser("selftest")
    p_self.add_argument("--only", default=None,
                        help="comma-separated criterion numbers, e.g. 1,4,9")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            numbers = ({int(s) for s in args.only.split(",")} if args.only else None)
            return run_selftest(numbers)
        if args.command == "catalog":
            cfg = _load_cfg(args) if args.config else None
            return run_catalog(cfg)
        cfg = _load_cfg(args)
        if args.command == "solve":
            return run_solve(cfg, args.out)
        return run_verify(cfg, args.out)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"series did not converge: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"non-finite residual: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
