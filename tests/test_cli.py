import ast
import contextlib
import copy
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraccons
from fraccons import cli, conslaw, fracops, tfde
from fraccons.cli import ConfigError, main, parse_config
from fraccons.fracops import TimeSeries


def base_config(**overrides):
    cfg = {
        "kind": "caputo",
        "alpha": 0.5,
        "T": 1.0,
        "x_lo": 0.0,
        "x_hi": 1.0,
        "diffusivity": {"family": "power", "beta": 1.0},
        "source": {"id": "exact_stationary", "params": {"a": 0.1, "b": 1.0}},
        "vectors": ["Table3_v1"],
        "grids": [16, 32],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(bogus=1))

    def test_missing_key_rejected(self):
        data = base_config()
        del data["alpha"]
        with pytest.raises(ConfigError):
            parse_config(data)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(kind="fractional"))

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(alpha=1.0))
        with pytest.raises(ConfigError):
            parse_config(base_config(alpha=2.5))

    def test_repeated_vector_id_rejected(self):
        with pytest.raises(ConfigError, match="^vectors: Table5_v1 listed more than once$"):
            parse_config(base_config(alpha=1.5, vectors=["Table5_v1", "Table5_v2", "Table5_v1"]))

    def test_space_interval_checked_as_the_space_grid(self):
        with pytest.raises(ConfigError, match="^x_lo must be less than x_hi, both finite, "
                                              "got 1.0 and 1.0$"):
            parse_config(base_config(x_lo=1.0, x_hi=1.0))

    def test_grids_must_increase(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(grids=[64, 32]))
        with pytest.raises(ConfigError):
            parse_config(base_config(grids=[2, 4]))

    def test_grid_node_limit(self):
        # (2^20 - 1 + 1) * (31 + 1) = 2^25 nodes is the largest field admitted;
        # only parsed here, never allocated. A vector without dense weights:
        # Table3_v1's would need 8 TiB there (the endpoint-pole budget). An
        # exact source runs no L1 history, so the solver's budget passes it
        parse_config(base_config(grids=[16, 2 ** 20 - 1], n_x=31, vectors=["Trivial_Caputo"]))
        with pytest.raises(ConfigError, match=r"^grids: .* 1048576 time steps .* over the limit"):
            parse_config(base_config(grids=[16, 2 ** 20], n_x=31))
        with pytest.raises(ConfigError, match="^grids: "):
            parse_config(base_config(grids=[16, 8192]))  # n_x defaults to the grid

    def test_unknown_vector_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(vectors=["NotAVector"]))

    def test_noether_vector_ids_accepted(self):
        cfg = parse_config(base_config(
            vectors=["Noether:X1"],
            substitution={"regime": "Caputo_sub", "c1": 1.0}))
        assert cfg.vectors == ("Noether:X1",)

    def test_bad_substitution_regime_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(substitution={"regime": "nope", "c1": 1.0}))

    def test_bad_diffusivity_family_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(diffusivity={"family": "cubic"}))

    def test_bad_source_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(source={"id": "oracle"}))


class TestVerifyCommand:
    def test_verify_writes_report(self, tmp_path):
        # threshold 0: the stationary field is resolved to roundoff, so the
        # grid-to-grid ratio is noise and only the report shape is under test
        cfg_path = write_config(tmp_path, base_config(grids=[32, 64], n_x=32,
                                                      threshold=0.0))
        out = tmp_path / "report.csv"
        rc = main(["verify", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == ("provenance_id,kind,alpha,n_steps,n_x,Linf,L2,"
                            "excluded_nodes,convergence_ratio")
        # two grids x (divergence row + flux row)
        assert len(lines) == 2 + 4
        assert lines[2].startswith("Table3_v1,caputo,0.5,32,32,")
        assert lines[3].startswith("Table3_v1[flux],caputo,0.5,32,32,")

    def test_verify_threshold_failure_exits_4(self, tmp_path, capsys):
        # the stationary solution is resolved almost exactly, so demanding a
        # huge improvement factor between grids must fail, and stderr names
        # the vector with the lowest ratio
        cfg_path = write_config(tmp_path, base_config(
            vectors=["Table3_v1", "Table3_v2"], grids=[32, 64], n_x=32, threshold=1e6))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 4
        out, err = capsys.readouterr()
        # each vector's ratio from its 12-digit Linf values on the two grids
        linf = {}
        for line in out.splitlines()[2:]:
            fields = line.split(",")
            if not fields[0].endswith("[flux]"):
                linf.setdefault(fields[0], []).append(float(fields[5]))
        worst = min(linf, key=lambda vid: linf[vid][0] / linf[vid][1])
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert f"{worst} ratio " in lines[0] and "n_steps=64" in lines[0]
        assert "threshold 1e+06" in lines[0]
        assert "n_x is fixed at 32" in lines[0]

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["verify", "--config", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["verify", "--config", str(path)])
        assert rc == 2

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(kind="bogus"))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 2

    def test_nonconvergent_series_exits_3(self, tmp_path, capsys):
        # lam = 4 drives the Mittag-Leffler argument of the exact solution
        # past the range where its series converges; at lam = 2.5 (z down to
        # -6.25) it converges, but cancellation leaves no correct digit
        for lam in (4.0, 2.5):
            cfg_path = write_config(tmp_path, base_config(
                diffusivity={"family": "constant"}, x_hi=np.pi,
                source={"id": "exact_linear", "params": {"lam": lam}},
                vectors=["Trivial_Caputo"], grids=[32, 64], n_x=8))
            rc = main(["verify", "--config", cfg_path])
            assert rc == 3, lam
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert err.startswith("series did not converge")

    @pytest.mark.parametrize("diffusivity", [{"family": "constant", "k0": 2.0},
                                             {"family": "power", "beta": 2.0}])
    def test_exact_linear_needs_unit_diffusivity_exits_2(self, tmp_path, capsys, diffusivity):
        # the separable mode solves the equation for k = 1 only
        cfg_path = write_config(tmp_path, base_config(
            diffusivity=diffusivity, x_hi=np.pi,
            source={"id": "exact_linear", "params": {"lam": 1.0}},
            vectors=["Trivial_Caputo"], n_x=8))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "exact_linear" in err

    def test_newton_outside_diffusivity_domain_exits_3(self, tmp_path, capsys):
        # perturb = 20 makes the start guess of a step negative, where
        # k = u^0.5 is undefined; that is a solver failure, and no
        # RuntimeWarning may escape (the suite turns them into errors)
        cfg_path = write_config(tmp_path, base_config(
            kind="rl", diffusivity={"family": "power", "beta": 0.5},
            source={"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 20.0}},
            vectors=["Trivial_RL"], n_x=16))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("solver failure")

    def test_singular_newton_system_exits_3(self, tmp_path, capsys, monkeypatch):
        # a zero first column makes the Newton system singular: LAPACK reports
        # a zero pivot, which is a solver failure, not a configuration error
        real = tfde.solve_banded
        monkeypatch.setattr(tfde, "solve_banded",
                            lambda dl, d, du, b: real(0.0 * dl, 0.0 * d, du, b))
        rc = main(["verify", "--config", write_config(tmp_path, self.solver_config(n_x=8))])
        assert rc == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure: singular"), err

    @pytest.mark.parametrize("patch, message", [
        # a step uphill of the residual: every halving of it fails
        ("solve_banded", "Newton line search stalled"),
        ("_MAX_ITER", "nonlinear iteration did not converge"),
    ])
    def test_newton_failure_exits_3(self, tmp_path, capsys, monkeypatch, patch, message):
        if patch == "solve_banded":
            real = tfde.solve_banded
            monkeypatch.setattr(tfde, "solve_banded", lambda dl, d, du, b: -real(dl, d, du, b))
        else:
            monkeypatch.setattr(tfde, "_MAX_ITER", 1)
        rc = main(["verify", "--config", write_config(tmp_path, self.solver_config(n_x=8))])
        assert rc == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"solver failure: {message}"]

    @pytest.mark.parametrize("source, vectors, alpha, ratio", [
        # u = t^(alpha-1) K^-1(a x + b) with k = u^2: the vectors converge
        ({"id": "exact_rl_separable", "params": {"a": 0.5, "b": 1.0}}, ["NL_RL_sub"], 0.5,
         "3.64975"),
        # u = c t^(alpha-1): C^t = D^(alpha-1) u is a constant, and the divergence is 0
        ({"id": "exact_rl_power", "params": {"c": 0.7}}, ["Trivial_RL"], 1.5, ""),
    ], ids=["exact_rl_separable", "exact_rl_power"])
    def test_rl_exact_sources(self, tmp_path, capsys, source, vectors, alpha, ratio):
        cfg = self.solver_config(source=source, vectors=vectors, alpha=alpha)
        rc = main(["verify", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(r[0], r[3]) for r in rows] == [(vectors[0], "32"), (f"{vectors[0]}[flux]", "32"),
                                                (vectors[0], "64"), (f"{vectors[0]}[flux]", "64")]
        assert rows[2][-1] == ratio
        if not ratio:
            assert float(rows[0][5]) == float(rows[2][5]) == 0.0

    def test_nonfinite_residual_exits_4(self, tmp_path, capsys, monkeypatch):
        def nonfinite(cv, *args, **kwargs):
            raise FloatingPointError(f"{cv.provenance}: non-finite residual inside the window")

        monkeypatch.setattr("fraccons.cli.conservation_residuals", nonfinite)
        rc = main(["verify", "--config", write_config(tmp_path, base_config())])
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "non-finite" in err

    @staticmethod
    def solver_config(**overrides):
        return base_config(**{
            "kind": "rl", "diffusivity": {"family": "power", "beta": 2.0},
            "source": {"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 0.1}},
            "vectors": ["NL_RL_sub", "Trivial_RL"], "grids": [32, 64], **overrides})

    @pytest.mark.parametrize("vectors, message", [
        (["NL_RL_sub", "Table3_v1"], "Table3_v1: requires the Caputo kind with alpha in (0,1)"),
        (["Table1_v1"], "Table1_v1: requires the Riemann-Liouville kind with alpha in (1,2)"),
        (["Noether:X1"], "Noether:X1: requires an adjoint substitution"),
        (["Linear_RL_sub_X1"], "Linear_RL_sub_X1: requires an adjoint substitution"),
        # the CLI never supplies the field h that the Xinf generator needs
        (["Noether:Xinf"], "Noether:Xinf: Xinf requires a user-supplied solution field h"),
        (["Linear_RL_sub_Xinf"],
         "Linear_RL_sub_Xinf: Xinf requires a user-supplied solution field h"),
        # k = u^2 admits X1, X2 and X3_pow only
        (["Noether:X4_pow43"], "Noether:X4_pow43: the equation does not admit the symmetry "
                               "'X4_pow43'"),
        (["Linear_RL_sub_X3"], "Linear_RL_sub_X3: the equation does not admit the symmetry "
                               "'X3_lin'"),
    ])
    def test_unfit_vector_exits_2_before_solving(self, tmp_path, capsys, monkeypatch,
                                                 vectors, message):
        def no_solve(cfg, n_steps):
            raise AssertionError("solved before the vector ids were checked")

        monkeypatch.setattr("fraccons.cli._solution", no_solve)
        cfg = self.solver_config(n_x=8, vectors=vectors)
        if "requires an adjoint substitution" not in message:
            cfg["substitution"] = {"regime": "RL_sub", "c1": 1.0}
        if vectors[0].endswith("Xinf"):  # admitted for a constant k; only the field h is missing
            cfg["diffusivity"] = {"family": "constant"}
        rc = main(["verify", "--config", write_config(tmp_path, cfg)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"configuration error: {message}"]

    @pytest.mark.parametrize("n_x", [-1, 0, 5])
    def test_unusable_n_x_exits_2(self, tmp_path, capsys, n_x):
        # the residual drops 3 space columns at each side, so n_x < 6 leaves
        # nothing to measure
        rc = main(["verify", "--config", write_config(tmp_path, self.solver_config(n_x=n_x))])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["configuration error: n_x must be an integer >= 6"]

    def test_smallest_n_x_passes(self, tmp_path, capsys):
        rc = main(["verify", "--config", write_config(tmp_path, self.solver_config(n_x=6))])
        assert rc == 0
        assert ",64,6," in capsys.readouterr().out

    def test_vectors_share_the_fields_integrals(self, tmp_path, capsys, monkeypatch):
        # the four vectors of the bench's solver workload read I^(1/2) u and
        # I^(3/2) u: one FFT convolution each per grid, not one per vector
        calls = []
        conv = fracops._causal_conv
        monkeypatch.setattr(fracops, "_causal_conv", lambda k, F: calls.append(1) or conv(k, F))
        vectors = ["NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2", "Trivial_RL"]
        cfg = self.solver_config(n_x=8, vectors=vectors, grids=[16, 32])
        rc = main(["verify", "--config", write_config(tmp_path, cfg)])
        assert rc == 4  # at n_x = 8 the space error holds the ratios under the threshold
        assert "convergence check failed" in capsys.readouterr().err
        assert len(calls) == 2 * 2

    def test_default_n_x_below_window_exits_2(self, tmp_path, capsys):
        # without n_x the space grid has n_steps cells: 4 leave no window
        rc = main(["verify", "--config", write_config(tmp_path, base_config(grids=[4, 8]))])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "space window" in err[0] and "n_x = 4" in err[0]

    def test_grids_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        rc = main(["verify", "--config", cfg_path, "--grids", "16"])
        assert rc == 0
        text = capsys.readouterr().out
        assert ",16," in text

    def test_grids_flag_reads_grids_as_a_config_does(self, tmp_path, capsys):
        # 3e1 is the whole number 30, as in a config's "grids"
        rc = main(["verify", "--config", write_config(tmp_path, base_config()), "--grids", "16,3e1"])
        assert rc == 0
        assert ",30,30," in capsys.readouterr().out

    def test_grids_flag_not_a_number_exits_2(self, tmp_path, capsys):
        rc = main(["verify", "--config", write_config(tmp_path, base_config()), "--grids", "16,x"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["configuration error: every grid must be a whole number, got 'x'"]


# one bad value per config; every one must exit 2, 3 or 4 with one stderr line
_RL_WAVE_LINEAR = dict(kind="rl", alpha=1.5, x_hi=np.pi,
                       diffusivity={"family": "constant", "k0": 1.0},
                       source={"id": "exact_linear", "params": {"lam": 1.0}}, n_x=16)
_CAPUTO_SUB_LINEAR = dict(kind="caputo", alpha=0.5, x_hi=np.pi,
                          diffusivity={"family": "constant", "k0": 1.0},
                          source={"id": "exact_linear", "params": {"lam": 1.0}},
                          substitution={"regime": "Caputo_sub", "c2": 1.0}, n_x=8)
_RL_SOLVER = dict(kind="rl", vectors=["NL_RL_sub"],
                  source={"id": "solver", "params": {"a": 0.1, "b": 1.0}})
BAD_CONFIGS = {
    "vectors_not_a_list": (dict(vectors=5), 2),
    "vector_id_not_a_string": (dict(vectors=[["Table3_v1"]]), 2),
    # a repeated id printed each row twice, the twin's ratio divided by the first
    "vector_id_repeated": (dict(alpha=1.5, vectors=["Table5_v1", "Table5_v1"], n_x=8), 2),
    "threshold_null": (dict(threshold=None), 2),
    "grids_not_numbers": (dict(grids="ab"), 2),
    "diffusivity_not_a_mapping": (dict(diffusivity=5), 2),
    "beta_null": (dict(diffusivity={"family": "power", "beta": None}), 2),
    "params_null": (dict(source={"id": "exact_stationary", "params": None}), 2),
    "param_not_a_number": (dict(source={"id": "exact_stationary", "params": {"a": "x"}}), 2),
    "substitution_not_a_mapping": (dict(substitution=5), 2),
    "substitution_key_c5": (dict(vectors=["Noether:X1"],
                                 substitution={"regime": "Caputo_sub", "c1": 1.0, "c5": 1.0}), 2),
    "substitution_constant_null": (dict(vectors=["Noether:X1"],
                                        substitution={"regime": "Caputo_sub", "c1": None}), 2),
    # a retired regime, which did not solve the adjoint equation, is unknown
    "rl_wave_linear_particular": (dict(_RL_WAVE_LINEAR, vectors=["Noether:X3_lin"],
                                       substitution={"regime": "Linear_particular", "c1": 1.0}),
                                  2),
    # a sub regime takes c1 and c2 only; c3 would be dropped, leaving v = 0
    "substitution_c3_in_sub_regime": (dict(vectors=["Noether:X3_lin", "Linear_Cap_sub_X3"],
                                           substitution={"regime": "Caputo_sub", "c3": 1.0}), 2),
    "substitution_regime_not_a_string": (dict(vectors=["Noether:X1"],
                                              substitution={"regime": ["Caputo_sub"],
                                                            "c1": 1.0}), 2),
    "substitution_without_regime": (dict(vectors=["Noether:X1"], substitution={"c1": 1.0}), 2),
    "substitution_of_another_kind": (dict(vectors=["Table3_v1"],
                                          substitution={"regime": "RL_sub", "c1": 1.0}), 2),
    "diffusivity_family_not_a_string": (dict(diffusivity={"family": ["power"]}), 2),
    "T_zero": (dict(T=0.0), 2),
    # every number must be finite: a NaN threshold passes every ratio
    "threshold_nan": (dict(threshold="nan"), 2),
    "T_inf": (dict(T="inf", source={"id": "solver", "params": {"a": 0.1, "b": 1.0}}), 2),
    "x_lo_minus_inf": (dict(x_lo="-inf"), 2),
    # a grid or n_x with a fraction is not truncated
    "grids_fractional": (dict(grids=[16.9, 32.2]), 2),
    "n_x_fractional": (dict(n_x=16.5), 2),
    "x_lo_equals_x_hi": (dict(x_lo=1.0, x_hi=1.0), 2),
    "x_lo_above_x_hi": (dict(x_lo=2.0, x_hi=1.0), 2),
    "exclude_frac_half": (dict(exclude_frac=0.5), 2),
    "exclude_frac_negative": (dict(exclude_frac=-0.1), 2),
    # the window is checked on every grid, not after the first solves
    "exclude_frac_empties_the_first_grid": (dict(_RL_SOLVER, grids=[8, 16], n_x=8,
                                                 exclude_frac=0.45), 2),
    # without n_x each grid's n_x is its n_steps, which must be >= 6 too
    "default_n_x_below_6": (dict(_RL_SOLVER, grids=[4, 5]), 2),
    # a key a mapping does not take is refused, not ignored
    "param_misspelt": (dict(source={"id": "exact_stationary", "params": {"a": 0.1, "bb": 2.0}}), 2),
    "perturb_on_exact_stationary": (dict(source={"id": "exact_stationary",
                                                 "params": {"a": 0.1, "perturb": 0.1}}), 2),
    "diffusivity_key_unknown": (dict(diffusivity={"family": "power", "beta": 1.0, "kappa": 3}), 2),
    "source_id_not_a_string": (dict(source={"id": ["solver"]}), 2),
    # the time moments overflow float64: a numerical failure, not a traceback
    "T_huge_on_solver": (dict(kind="rl", T=1e308, vectors=["NL_RL_sub_t1"],
                              source={"id": "solver", "params": {"a": 0.1, "b": 1.0}}), 3),
    # a grid too large to allocate is refused before the first, small grid is solved
    "grids_1e308": (dict(grids=[16, 1e308]), 2),
    "grids_10_to_12": (dict(grids=[16, 10 ** 12]), 2),
    # within the node limit at n_x = 8, but about 7 TiB of endpoint-pole weights
    "pole_weights_over_budget": (dict(alpha=1.5, vectors=["Table5_v1"], grids=[16, 1000000],
                                      n_x=8), 2),
    # at the node limit, but about 1.8e13 multiply-adds of L1 history: hours of
    # solving; never run without the budget
    "solver_history_over_budget": (dict(_RL_SOLVER, grids=[1048575], n_x=31), 2),
}


def _no_solve(cfg, n_steps):
    raise AssertionError(f"a configuration error was found only after solving {n_steps} steps")


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_with_one_line(tmp_path, capsys, monkeypatch, case):
    overrides, code = BAD_CONFIGS[case]
    if code == 2:
        # every configuration error is found before any solve
        monkeypatch.setattr("fraccons.cli._solution", _no_solve)
    rc = main(["verify", "--config", write_config(tmp_path, base_config(**overrides))])
    assert rc == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


# the same for solve: one bad value per config, its exit code and the start of its line
BAD_SOLVE_CONFIGS = {
    # u = log(a x + b) is near 706, where k(u) u / hx^2 = e^u u / hx^2
    # overflows: the Newton tolerance was inf, and every row was the start guess
    "newton_tolerance_overflows": (dict(diffusivity={"family": "exponential"}, n_x=8,
                                        source={"id": "solver",
                                                "params": {"a": 1e305, "b": 4e306}}),
                                   3, "solver failure: Newton tolerance is not finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOLVE_CONFIGS))
def test_bad_solve_config_exits_with_one_line(tmp_path, capsys, case):
    overrides, code, start = BAD_SOLVE_CONFIGS[case]
    out = tmp_path / "field.csv"
    rc = main(["solve", "--config", write_config(tmp_path, base_config(**overrides)),
               "--out", str(out)])
    assert rc == code
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(start)
    # a run that fails leaves no file at a new --out path, not even an empty one
    assert not out.exists()


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_non_positive_horizon_exits_2_before_solving(tmp_path, capsys, monkeypatch, T):
    # the horizon is the time grid's, and the grid's check names it
    monkeypatch.setattr("fraccons.cli._solution", _no_solve)
    rc = main(["verify", "--config", write_config(tmp_path, base_config(T=T))])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"configuration error: T must be positive and finite, got {T!r}"]


@pytest.mark.parametrize("vectors, accepted", [
    (["Table5_v1"], True),
    (["Table5_v1", "Table5_v4"], True),  # one order m = 2: one matrix per grid
    (["Table5_v1", "Table5_v2"], False),  # orders m = 2 and 1: 1.5 GiB
    (["Table5_v3"], True),  # no endpoint-pole integral
])
def test_endpoint_pole_budget_counts_one_matrix_per_order(vectors, accepted):
    cfg = base_config(alpha=1.5, vectors=vectors, grids=[16, 10000], n_x=8)
    if accepted:
        parse_config(cfg)
        return
    with pytest.raises(ConfigError, match=r"^grids: the endpoint-pole weights .* 1\.5 GiB, "
                                          r"over the budget of 1 GiB$"):
        parse_config(cfg)


@pytest.mark.parametrize("grids, n_x, accepted", [
    ([1048575], 31, False),  # 1.8e13 multiply-adds, at the node limit
    ([512, 1024, 2048], 64, True),  # verify_solver's grids: 1.8e8
    ([16, 55000], 64, True),  # 9.8e10
    ([16, 56000], 64, False),  # 1.02e11
    # without n_x each grid's n_x is its step count: 9.3e10 for the last grid
    # alone, and 1.9e11 summed over the three
    ([5700], None, True),
    ([4096, 5000, 5700], None, False),
])
def test_solver_history_budget(grids, n_x, accepted):
    cfg = base_config(**{**_RL_SOLVER, "grids": grids, "n_x": n_x})
    if accepted:
        parse_config(cfg)
        return
    with pytest.raises(ConfigError, match=rf"^grids: the solver's L1 history on grids up to "
                                          rf"{grids[-1]} steps needs .* multiply-adds, "
                                          r"over the budget of 1e\+11$"):
        parse_config(cfg)


@pytest.mark.parametrize("overrides", [
    # one end term of v and three power terms of u_t
    {},
    # no power terms in u: only v's end term
    dict(source={"id": "exact_stationary", "params": {"a": 0.1, "b": 1.0}}),
    # the Riemann-Liouville J takes D_t v = 0
    dict(kind="rl", substitution={"regime": "RL_sub", "c2": 1.0}),
    # Table5_v3 and Table5_v6 share v = (T-t)^(alpha-1)
    dict(alpha=1.5, vectors=["Table5_v3", "Table5_v6"], substitution=None, grids=[16, 11000],
         source={"id": "exact_stationary", "params": {"a": 0.1, "b": 1.0}}),
    # with u_tt's three power terms
    dict(alpha=1.5, vectors=["Table5_v3", "Table5_v6"], substitution=None),
])
def test_dense_weight_budget_leaves_j_out(overrides):
    # J's power-term sums keep no (n+1)^2 weights, so no count of terms
    # refuses a grid; 4 such matrices were 1.9 GiB at 8000 steps
    parse_config(base_config(**{**_CAPUTO_SUB_LINEAR, "vectors": ["Noether:X3_lin"],
                                "grids": [16, 8000], **overrides}))


_NUMPY_OUT_OF_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (1000001, 1000001)"


@pytest.mark.parametrize("command, error, line", [
    ("verify", MemoryError(_NUMPY_OUT_OF_MEMORY), f"out of memory: {_NUMPY_OUT_OF_MEMORY}"),
    ("solve", MemoryError(_NUMPY_OUT_OF_MEMORY), f"out of memory: {_NUMPY_OUT_OF_MEMORY}"),
    ("verify", MemoryError(), "out of memory: an allocation failed"),
], ids=["verify", "solve", "bare"])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, command, error, line):
    def out_of_memory(cfg, n_steps):
        raise error

    monkeypatch.setattr("fraccons.cli._solution", out_of_memory)
    rc = main([command, "--config", write_config(tmp_path, base_config())])
    assert rc == 3
    assert capsys.readouterr().err.strip().splitlines() == [line]


def _dotted_paths(cfg, prefix=""):
    """Every key of the config mapping, nested ones as dotted paths."""
    for key, value in cfg.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted_paths(value, prefix + key + ".")


def _holder(cfg, dotted):
    """The mapping that holds the dotted key, and the key's last part."""
    *parents, last = dotted.split(".")
    for key in parents:
        cfg = cfg[key]
    return cfg, last


def _bench_verify_configs(variant=0):
    """The given variant of each bench verify workload, by name."""
    configs = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "bench" / "workloads").glob("verify_*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        for dotted, value in spec["variants"][variant].items():
            node, last = _holder(spec["config"], dotted)
            node[last] = value
        configs[path.stem] = spec["config"]
    return configs


@pytest.mark.parametrize("variant", range(8))
def test_every_bench_verify_variant_is_accepted(variant):
    # within the node limit and both budgets: verify_solver's L1 history
    # work is about 1.8e8 multiply-adds, under _SOLVER_WORK_BUDGET
    configs = _bench_verify_configs(variant)
    assert len(configs) == 3
    for cfg in configs.values():
        parse_config(cfg)


# on grids 16/32 and n_x = 8
_FUZZ_CONFIGS = {name: dict(cfg, grids=[16, 32], n_x=8)
                 for name, cfg in _bench_verify_configs().items()}
_DELETE = object()
# one key's new value: deleted, null, bools, 0, +-1, huge and non-finite
# numbers, strings, lists, mappings and an integer beyond float64
_FUZZ_VALUES = [_DELETE, None, True, False, 0, 1, -1, 1e308, math.nan, math.inf, -math.inf,
                "x", "1.5", [], [1, 2], {}, {"a": 1}, 10 ** 400]


@settings(max_examples=200)
@given(case=st.sampled_from([(name, key) for name, cfg in sorted(_FUZZ_CONFIGS.items())
                             for key in _dotted_paths(cfg)]),
       value=st.sampled_from(_FUZZ_VALUES))
@example(case=("verify_j", "T"), value=1e308)
@example(case=("verify_tables", "T"), value=0)
@example(case=("verify_solver", "T"), value=-1)
def test_mutated_bench_config_exits_with_a_code_and_one_line(case, value):
    # no mutation of one key may end in a traceback, an undocumented exit code or
    # a message over several lines; grids stay at most 32 unless a mutation
    # deletes them, and a larger value is refused by the node limit before a solve
    name, dotted = case
    cfg = copy.deepcopy(_FUZZ_CONFIGS[name])
    node, last = _holder(cfg, dotted)
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--config", path])
    assert rc in (0, 2, 3, 4)
    if rc != 0:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


def test_verify_at_alpha_one_ulp_below_one_exits_0(tmp_path, capsys):
    # the pole weights' order 1 - alpha is 2^-53, where the Gauss rule once divided by 0
    cfg = write_config(tmp_path, base_config(alpha=0.9999999999999999))
    assert main(["verify", "--config", cfg]) == 0


def test_nan_threshold_flag_exits_2(tmp_path, capsys):
    rc = main(["verify", "--config", write_config(tmp_path, base_config()), "--threshold", "nan"])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "configuration error: invalid configuration value: "
        "threshold must be a finite number, got nan"]


@pytest.mark.parametrize("overrides, name", [
    (dict(T="inf"), "T"),
    (dict(source={"id": "exact_stationary", "params": {"a": "nan"}}), "source.params.a"),
    (dict(diffusivity={"family": "power", "beta": "-inf"}), "diffusivity.beta"),
    (dict(vectors=["Noether:X1"], substitution={"regime": "Caputo_sub", "c1": "inf"}),
     "substitution.c1"),
])
def test_non_finite_number_is_named(tmp_path, capsys, overrides, name):
    rc = main(["verify", "--config", write_config(tmp_path, base_config(**overrides))])
    assert rc == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert f"invalid configuration value: {name} must be a finite number" in line


@pytest.mark.parametrize("overrides, message", [
    (dict(source={"id": "exact_linear", "params": {"lamda": 1.15}},
          diffusivity={"family": "constant", "k0": 1.0}),
     "unknown source.params keys for exact_linear: ['lamda']; allowed: lam"),
    (dict(source={"id": "exact_stationary", "params": {"a": 0.1, "perturb": 0.1}}),
     "unknown source.params keys for exact_stationary: ['perturb']; allowed: a, b"),
    (dict(diffusivity={"family": "constant", "k0": 1.0, "kappa": 3}),
     "unknown diffusivity keys for constant: ['kappa']; allowed: family, k0"),
    # a key another family reads is not silently dropped either
    (dict(diffusivity={"family": "power", "beta": 1.0, "k0": 3.0}),
     "unknown diffusivity keys for power: ['k0']; allowed: family, beta"),
    (dict(source={"id": "exact_stationary", "param": {"a": 0.2}}),
     "unknown source keys: ['param']; allowed: id, params"),
], ids=["param_misspelt", "perturb_on_exact_stationary", "diffusivity_key", "k0_on_power",
        "source_key"])
def test_unknown_key_is_named(tmp_path, capsys, overrides, message):
    rc = main(["verify", "--config", write_config(tmp_path, base_config(**overrides))])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"configuration error: {message}"]


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_out_path_is_checked_before_solving(tmp_path, capsys, monkeypatch, command):
    solves = []
    monkeypatch.setattr("fraccons.cli._solution", lambda cfg, n_steps: solves.append(n_steps))
    folder = tmp_path / "a_directory"
    folder.mkdir()
    rc = main([command, "--config", write_config(tmp_path, base_config()), "--out", str(folder)])
    assert rc == 2 and solves == []
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("configuration error: ") and "Is a directory" in line


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "{dir}"],
    ["catalog", "--config", "{dir}"],
    ["solve", "--config", "{cfg}", "--out", "{dir}"],
    ["verify", "--config", "{cfg}", "--out", "{dir}"],
], ids=["verify_config", "catalog_config", "solve_out", "verify_out"])
def test_directory_path_exits_2_with_one_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, base_config(threshold=0.0))
    folder = tmp_path / "a_directory"
    folder.mkdir()
    rc = main([arg.format(cfg=cfg, dir=folder) for arg in argv])
    assert rc == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("configuration error: ") and "Is a directory" in line


@pytest.mark.parametrize("command", ["solve", "catalog"])
def test_unfit_vector_exits_2_in_every_command(tmp_path, capsys, command):
    # the vectors are built with the config, so no command accepts one
    # that does not fit the configured equation
    cfg = base_config(kind="rl", source={"id": "solver", "params": {"a": 0.5, "b": 1.0}},
                      vectors=["Table3_v1"], grids=[16], n_x=8)
    rc = main([command, "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "configuration error: Table3_v1: requires the Caputo kind with alpha in (0,1)"]


@pytest.mark.parametrize("command", ["verify", "catalog"])
@pytest.mark.parametrize("kind, source, diffusivity, message", [
    ("rl", "exact_stationary", {"family": "power", "beta": 2.0},
     "source exact_stationary solves the equation of kind caputo only"),
    ("caputo", "exact_rl_separable", {"family": "power", "beta": 2.0},
     "source exact_rl_separable solves the equation of kind rl only"),
    ("caputo", "exact_rl_power", {"family": "power", "beta": 2.0},
     "source exact_rl_power solves the equation of kind rl only"),
    ("rl", "exact_rl_separable", {"family": "exponential"},
     "source exact_rl_separable solves the equation for a power diffusivity only"),
], ids=["rl_stationary", "caputo_rl_separable", "caputo_rl_power", "rl_separable_exponential"])
def test_mismatched_source_exits_2_before_solving(tmp_path, capsys, monkeypatch, command,
                                                  kind, source, diffusivity, message):
    # a field that does not solve the configured equation is refused with the
    # config, so neither verify nor catalog reaches a solve
    monkeypatch.setattr("fraccons.cli._solution", _no_solve)
    vectors = ["NL_RL_sub", "Trivial_RL"] if kind == "rl" else ["Table3_v1"]
    cfg = base_config(kind=kind, diffusivity=diffusivity, source={"id": source},
                      vectors=vectors, n_x=8)
    rc = main([command, "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"configuration error: {message}"]


def test_verify_builds_each_vector_once(tmp_path, capsys, monkeypatch):
    # parse_config builds the evaluators and verify runs them: one
    # catalog_vector call per id, where building them again would make two
    calls = []
    real = cli.catalog_vector
    monkeypatch.setattr(cli, "catalog_vector", lambda vid, *a, **kw: calls.append(vid)
                        or real(vid, *a, **kw))
    cfg = base_config(vectors=["Table3_v1", "Table3_v2"], grids=[16, 32], n_x=8, threshold=0.0)
    rc = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    # 2 vectors x 2 grids x (divergence row + flux row)
    assert capsys.readouterr().out.count("\nTable3_v") == 8
    assert sorted(calls) == ["Table3_v1", "Table3_v2"]


class TestSolveCommand:
    def test_solve_writes_loadable_field(self, tmp_path):
        cfg = base_config(
            source={"id": "solver", "params": {"a": 0.1, "b": 1.0}},
            grids=[16], n_x=16)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "field.csv"
        rc = main(["solve", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        u = TimeSeries.from_csv(str(out))
        assert u.values.shape == (17, 17)
        assert np.isfinite(u.values).all()

    def test_solve_without_out_prints_the_grid(self, tmp_path, capsys):
        cfg = base_config(source={"id": "solver", "params": {"a": 0.1, "b": 1.0}},
                          grids=[16], n_x=8)
        rc = main(["solve", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        assert capsys.readouterr().out == "solved: 16 time steps, 8 space cells\n"
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_solve_rl_field_is_finite(self, tmp_path):
        # the t^{alpha-1} mode is infinite at t = 0; that row is written as 0
        cfg = base_config(
            kind="rl", diffusivity={"family": "power", "beta": 2.0},
            source={"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 0.1}},
            vectors=["NL_RL_sub"], grids=[16], n_x=16)
        out = tmp_path / "field.csv"
        rc = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        u = TimeSeries.from_csv(str(out))
        assert np.isfinite(u.values).all()
        assert np.all(u.values[0] == 0.0)


class TestCatalogCommand:
    def test_catalog_lists_ids(self, capsys):
        rc = main(["catalog"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Trivial_RL" in text
        assert "Table5_v6" in text

    def test_catalog_with_config_prints_correspondence(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        rc = main(["catalog", "--config", cfg_path])
        assert rc == 0
        text = capsys.readouterr().out
        assert "admitted symmetries" in text
        assert "X1:" in text and "Table3_v1" in text

    def test_catalog_of_the_linear_case_names_its_vectors(self, tmp_path, capsys):
        cfg = base_config(diffusivity={"family": "constant"})
        rc = main(["catalog", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  X3_lin: c1 -> Linear_Cap_sub_X3; c2 -> Linear_Cap_sub_X3" in lines
        assert "  Xinf: c1 -> Linear_Cap_sub_Xinf; c2 -> Linear_Cap_sub_Xinf" in lines

    @pytest.mark.parametrize("flag", ["--grids", "--exclude-frac", "--threshold"])
    def test_catalog_has_no_verify_flags(self, tmp_path, flag):
        # catalog reads neither the grids nor the verify settings
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "--config", write_config(tmp_path, base_config()), flag, "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--exclude-frac", "--threshold"])
    def test_solve_has_no_verify_flags(self, tmp_path, flag):
        # solve solves on the last grid and reads neither verify setting
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", write_config(tmp_path, base_config()), flag, "0.1"])
        assert exc.value.code == 2


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        rc = main(["selftest", "--only", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("PASS criterion")
        assert " 1 [" in text

    @pytest.mark.parametrize("only, unknown", [("99", "99"), ("0,1", "0")])
    def test_unknown_criterion_exits_2_before_running(self, capsys, only, unknown):
        rc = main(["selftest", "--only", only])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip().splitlines() == [
            f"configuration error: unknown selftest criteria {unknown}: "
            "the criteria are numbered 1 to 12"]


_SOLVE_DIRECTLY = (
    "from fraccons import Diffusivity, FractionalSpec, Kind, SpaceGrid, TimeGrid, solve_nonlinear\n"
    "d, x = Diffusivity.power(2.0), SpaceGrid(0.0, 1.0, 16)\n"
    "u0 = d.K_inv(0.1 * x.nodes() + 1.0)\n"
    "u = solve_nonlinear(FractionalSpec(Kind.CAPUTO, 0.5), d, TimeGrid(1.0, 16), x, u0)\n"
    "rc = int(abs(u.values - u0).max() > 1e-6)  # stationary data stay stationary")


# entry point -> (its set-up, the call, whether the call loads the solver's
# LAPACK routine). None loads a scipy module: scipy.special is imported on the
# first 2F1 call, scipy.integrate (and scipy.linalg through it) in selftest
# criterion 6, and the solver's dgtsv comes from the file of scipy's _flapack
# extension, which imports no scipy module
@pytest.mark.parametrize("setup, call, lapack", [
    ("", "import fraccons", False),
    ("", "import fraccons.cli", False),
    ("import fraccons.cli", "rc = fraccons.cli.main(['catalog'])", False),
    ("import fraccons.cli", "rc = fraccons.cli.main(['selftest', '--only', '12'])", False),
    ("import fraccons.cli",
     "rc = fraccons.cli.main(['verify', '--config', 'verify_tables.json'])", False),
    # its convergence check fails (exit 4) at n_x = 8: threshold 0 keeps rc at 0
    ("import fraccons.cli",
     "rc = fraccons.cli.main(['verify', '--config', 'verify_j.json', '--threshold', '0'])", False),
    ("import fraccons.cli",
     "fraccons.cli.parse_config(json.load(open('verify_solver.json')))", True),
    ("import fraccons", _SOLVE_DIRECTLY, True),
], ids=["import", "import_cli", "catalog", "selftest_12", "verify_tables", "verify_j",
        "parse_solver_config", "solve_directly"])
def test_entry_point_loads_only_the_scipy_it_uses(tmp_path, setup, call, lapack):
    for name in ("verify_tables", "verify_j", "verify_solver"):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(_bench_verify_configs()[name]), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(fraccons.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scipy_now = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    cached = "sys.modules['fraccons.tfde']._load_dgtsv.cache_info().currsize"
    code = (f"import json, sys\nrc = 0\n{setup}\nbefore = {scipy_now}\n{call}\n"
            f"print(json.dumps([rc, before, {scipy_now}, {cached}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    rc, before, after, cached = json.loads(out.strip().splitlines()[-1])
    assert rc == 0
    assert before == after == []
    assert cached == int(lapack)


def test_verify_tables_makes_one_endpoint_pole_call_per_core_and_grid(monkeypatch):
    # Table5_v1/v4 share _pole_moment(2) and v2/v5 _pole_moment(1): two
    # distinct pole cores on each of the three grids, each computed once
    calls = []
    real = conslaw.left_integral_endpoint_pole
    monkeypatch.setattr(conslaw, "left_integral_endpoint_pole",
                        lambda *args: calls.append(1) or real(*args))
    cfg = parse_config(_bench_verify_configs()["verify_tables"])
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_verify(cfg, None) == 0
    assert len(calls) == 6


def test_package_exports_match_module_all():
    # every name the package imports from a module is in that module's
    # __all__, and every __all__ entry exists
    tree = ast.parse(open(fraccons.__file__, encoding="utf-8").read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"fraccons.{node.module}")
            assert sorted({a.name for a in node.names} - set(module.__all__)) == [], node.module
    for info in pkgutil.iter_modules(fraccons.__path__):
        module = importlib.import_module(f"fraccons.{info.name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
