import json

import numpy as np
import pytest

from fraccons.cli import (
    ConfigError,
    main,
    parse_config,
    serialize_config,
)
from fraccons.tfde import GridFunction


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
    def test_round_trip(self):
        cfg = parse_config(base_config())
        assert parse_config(serialize_config(cfg)) == cfg

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

    def test_grids_must_increase(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(grids=[64, 32]))
        with pytest.raises(ConfigError):
            parse_config(base_config(grids=[2, 4]))

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

    def test_verify_threshold_failure_exits_4(self, tmp_path):
        # the stationary solution is resolved almost exactly, so demanding a
        # huge improvement factor between grids must fail
        cfg_path = write_config(tmp_path, base_config(grids=[32, 64], n_x=32,
                                                      threshold=1e6))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 4

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
        # past the range where its series converges
        cfg_path = write_config(tmp_path, base_config(
            diffusivity={"family": "constant"}, x_hi=np.pi,
            source={"id": "exact_linear", "params": {"lam": 4.0}},
            vectors=["Trivial_Caputo"], n_x=8))
        rc = main(["verify", "--config", cfg_path])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1

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

    def test_nonfinite_residual_exits_4(self, tmp_path, capsys, monkeypatch):
        def nonfinite(cv, *args, **kwargs):
            raise FloatingPointError(f"{cv.provenance}: non-finite residual inside the window")

        monkeypatch.setattr("fraccons.cli.divergence_residual", nonfinite)
        rc = main(["verify", "--config", write_config(tmp_path, base_config())])
        assert rc == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "non-finite" in err

    def test_grids_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config())
        rc = main(["verify", "--config", cfg_path, "--grids", "16"])
        assert rc == 0
        text = capsys.readouterr().out
        assert ",16," in text


class TestSolveCommand:
    def test_solve_writes_loadable_field(self, tmp_path):
        cfg = base_config(
            source={"id": "solver", "params": {"a": 0.1, "b": 1.0}},
            grids=[16], n_x=16)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "field.csv"
        rc = main(["solve", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        u = GridFunction.from_csv(str(out))
        assert u.values.shape == (17, 17)
        assert np.isfinite(u.values).all()

    def test_solve_rl_field_is_finite(self, tmp_path):
        # the t^{alpha-1} mode is infinite at t = 0; that row is written as 0
        cfg = base_config(
            kind="rl", diffusivity={"family": "power", "beta": 2.0},
            source={"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 0.1}},
            vectors=["NL_RL_sub"], grids=[16], n_x=16)
        out = tmp_path / "field.csv"
        rc = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 0
        u = GridFunction.from_csv(str(out))
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


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        rc = main(["selftest", "--only", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("PASS criterion")
        assert " 1 [" in text
