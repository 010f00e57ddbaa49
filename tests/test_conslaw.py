import math

import numpy as np
import pytest

from fraccons.conslaw import (
    CSV_HEADER,
    ConservedVectorEval,
    catalog_ids,
    catalog_vector,
    correspondence,
    divergence_residual,
    flux_balance,
    formal_lagrangian,
    noether_vector,
)
from fraccons.fracops import FractionalSpec, Kind, TimeGrid, diff1
from fraccons.symcat import adjoint_substitution, list_symmetries
from fraccons.tfde import (
    Diffusivity,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
)

RL = Kind.RIEMANN_LIOUVILLE
CAP = Kind.CAPUTO


class TestCatalogIndex:
    def test_expected_ids_present(self):
        ids = catalog_ids()
        for pid in ("Trivial_RL", "Trivial_Caputo", "NL_RL_sub", "Table1_v6_alt",
                    "Table3_v1", "Table5_v6", "Linear_Cap_sub_X3", "Linear_RL_wave_Xinf"):
            assert pid in ids

    def test_unknown_id_rejected(self):
        spec = FractionalSpec(RL, 0.5, 1.0)
        with pytest.raises(ValueError):
            catalog_vector("NoSuchVector", spec, Diffusivity.constant(1.0))

    def test_kind_mismatch_rejected(self):
        spec = FractionalSpec(CAP, 0.5, 1.0)
        with pytest.raises(ValueError):
            catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))

    def test_linear_ids_require_substitution(self):
        spec = FractionalSpec(CAP, 0.5, 1.0)
        with pytest.raises(ValueError):
            catalog_vector("Linear_Cap_sub_X1", spec, Diffusivity.constant(1.0),
                           substitution=None)


class TestCorrespondence:
    def test_rl_sub_prose_entries(self):
        assert correspondence("X1", "c1", "RL_sub") == ("Zero",)
        assert correspondence("X1", "c2", "RL_sub") == ("Trivial_RL",)
        assert correspondence("X4_rl", "c2", "RL_sub") == ("NL_RL_sub_t2",)

    def test_rl_wave_table_entries(self):
        assert correspondence("X1", "c2", "RL_wave") == ("Table1_v1",)
        assert correspondence("X4_rl", "c4", "RL_wave") == ("Table1_v6",)
        assert correspondence("X4_pow43", "c2", "RL_wave") == ("Zero",)

    def test_caputo_sub_table_entries(self):
        assert correspondence("X2", "c1", "Caputo_sub") == ("Table3_v1", "Table3_v2")
        assert correspondence("X3_pow", "c2", "Caputo_sub") == ("Table3_v3",)

    def test_caputo_wave_table_entries(self):
        assert correspondence("X1", "c3", "Caputo_wave") == ("Table5_v2",)
        assert correspondence("X4_rl", "c1", "Caputo_wave") == (
            "Table5_v1", "Table5_v2", "Table5_v3")

    def test_validation(self):
        with pytest.raises(ValueError):
            correspondence("X1", "c5", "RL_sub")
        with pytest.raises(ValueError):
            correspondence("X1", "c3", "RL_sub")
        with pytest.raises(ValueError):
            correspondence("X1", "c1", "nowhere")


class TestFormalLagrangian:
    def test_vanishes_on_solutions(self):
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(CAP, 0.5, 1.0)
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        sub = adjoint_substitution("Caputo_sub", spec, c1=1.0, c2=1.0)
        v = sub.field(tgrid, x)
        L = formal_lagrangian(u, v, d, spec)
        assert np.max(np.abs(L.values[1:-1, 1:-1])) < 1e-6


class TestClosedFormVectors:
    def test_trivial_rl_on_power_mode(self):
        # On u = c t^{alpha-1}: C^t = I^{1-alpha} u = c Gamma(alpha), constant,
        # and C^x = 0, so the divergence vanishes identically.
        alpha, c = 0.5, 0.7
        spec = FractionalSpec(RL, alpha, 1.0)
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 33)
        u = exact_rl_power_mode(alpha, c, tgrid, x)
        cv = catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))
        ct, cx = cv.components(u)
        assert np.max(np.abs(ct[1:, :] - c * math.gamma(alpha))) < 1e-12
        rep = divergence_residual(cv, u)
        assert rep.linf < 1e-10

    def test_trivial_caputo_divergence_decays(self):
        spec = FractionalSpec(CAP, 0.5, 1.0)
        d = Diffusivity.constant(1.0)
        cv = catalog_vector("Trivial_Caputo", spec, d)
        linfs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            x = np.linspace(0.0, np.pi, n // 2 + 1)
            u = exact_linear_separable(spec, 1.0, tgrid, x)
            linfs.append(divergence_residual(cv, u).linf)
        assert linfs[1] < linfs[0]

    def test_table3_vectors_on_stationary_solution(self):
        d = Diffusivity.power(1.0)
        spec = FractionalSpec(CAP, 0.5, 1.0)
        tgrid = TimeGrid(1.0, 128)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        u0 = u.values[0].copy()
        for i in range(1, 5):
            cv = catalog_vector(f"Table3_v{i}", spec, d, initial=u0)
            rep = divergence_residual(cv, u)
            assert rep.linf < 1e-5, f"Table3_v{i}: {rep.linf}"

    def test_table5_vectors_on_stationary_solution(self):
        d = Diffusivity.power(1.0)
        spec = FractionalSpec(CAP, 1.5, 1.0)
        tgrid = TimeGrid(1.0, 128)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        u0 = u.values[0].copy()
        ut0 = np.zeros_like(u.x)
        for i in range(1, 7):
            cv = catalog_vector(f"Table5_v{i}", spec, d, initial=u0,
                                initial_velocity=ut0)
            rep = divergence_residual(cv, u)
            assert rep.linf < 1e-4, f"Table5_v{i}: {rep.linf}"

    def test_table1_vectors_on_rl_separable_solution(self):
        alpha = 1.5
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(RL, alpha, 1.0)
        tgrid = TimeGrid(1.0, 128)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
        for i in (1, 2, 3, 4, 5):
            cv = catalog_vector(f"Table1_v{i}", spec, d)
            rep = divergence_residual(cv, u)
            assert rep.linf < 1e-3, f"Table1_v{i}: {rep.linf}"

    def test_table1_v6_alt_outperforms_printed_form(self):
        # The structurally consistent variant decays under refinement;
        # the form as printed does not.
        alpha = 1.5
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(RL, alpha, 1.0)
        printed, alt = [], []
        for n in (64, 128):
            tgrid = TimeGrid(1.0, n)
            x = np.linspace(0.0, 1.0, n + 1)
            u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
            printed.append(divergence_residual(
                catalog_vector("Table1_v6", spec, d), u).linf)
            alt.append(divergence_residual(
                catalog_vector("Table1_v6_alt", spec, d), u).linf)
        assert alt[1] < 0.5 * alt[0]
        assert printed[1] > 0.9 * printed[0]


class TestNoetherVectors:
    def test_noether_matches_linear_catalog(self):
        # X3 with the particular substitution v = t x on the Caputo
        # subdiffusion mode: operator-built and catalog vectors agree.
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha, 1.0)
        d = Diffusivity.constant(1.0)
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 65)
        lam = 0.5
        u = exact_linear_separable(spec, lam, tgrid, x)
        sub = adjoint_substitution("Linear_particular", spec, c1=1.0)
        sym = next(s for s in list_symmetries(CAP, alpha, d) if s.id == "X3_lin")
        nv = noether_vector(sym, sub, spec, d)
        cv = catalog_vector("Linear_Cap_sub_X3", spec, d, substitution=sub)
        ct_n, cx_n = nv.components(u)
        ct_c, cx_c = cv.components(u)
        assert np.max(np.abs(ct_n[1:-1] - ct_c[1:-1])) < 1e-10
        assert np.max(np.abs(cx_n[1:-1, 1:-1] - cx_c[1:-1, 1:-1])) < 1e-5

    def test_linear_catalog_flux_carries_diffusivity(self):
        # for k = k0 the flux is k0 (v_x W - v W_x); here W = u (X3) and v = t x
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha, 1.0)
        d = Diffusivity.constant(2.0)
        tgrid = TimeGrid(1.0, 32)
        x = np.linspace(0.0, np.pi, 33)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        sub = adjoint_substitution("Linear_particular", spec, c1=1.0)
        cv = catalog_vector("Linear_Cap_sub_X3", spec, d, substitution=sub)
        _, cx = cv.components(u)
        v = np.outer(tgrid.nodes(), x)
        hx = x[1] - x[0]
        want = 2.0 * (diff1(v, hx, axis=1) * u.values - v * diff1(u.values, hx, axis=1))
        np.testing.assert_allclose(cx, want, rtol=1e-12, atol=1e-12)

    def test_noether_vector_divergence_small(self):
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha, 1.0)
        d = Diffusivity.power(2.0)
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 65)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        sub = adjoint_substitution("Caputo_sub", spec, c1=1.0)
        sym = next(s for s in list_symmetries(CAP, alpha, d) if s.id == "X1")
        nv = noether_vector(sym, sub, spec, d)
        rep = divergence_residual(nv, u)
        assert rep.linf < 1e-3


class TestVerifiers:
    def _trivial_setup(self, n=64):
        spec = FractionalSpec(RL, 0.5, 1.0)
        tgrid = TimeGrid(1.0, n)
        x = np.linspace(0.0, 1.0, 33)
        u = exact_rl_power_mode(0.5, 0.7, tgrid, x)
        cv = catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))
        return cv, u

    def test_report_fields_and_csv_row(self):
        cv, u = self._trivial_setup()
        rep = divergence_residual(cv, u, exclude_frac=0.1)
        row = rep.csv_row()
        parts = row.split(",")
        assert len(parts) == len(CSV_HEADER.split(","))
        assert parts[0] == "Trivial_RL"
        assert parts[1] == "rl"
        assert float(parts[2]) == 0.5
        assert int(parts[3]) == 64 and int(parts[4]) == 32
        assert float(parts[5]) == rep.linf
        assert int(parts[7]) == rep.excluded_nodes
        assert parts[8] == ""  # no convergence ratio recorded

    def test_exclusion_window_scales(self):
        cv, u = self._trivial_setup()
        rep1 = divergence_residual(cv, u, exclude_frac=0.05)
        rep2 = divergence_residual(cv, u, exclude_frac=0.2)
        assert rep2.excluded_nodes > rep1.excluded_nodes

    def test_empty_window_rejected(self):
        cv, u = self._trivial_setup(n=8)
        with pytest.raises(ValueError):
            divergence_residual(cv, u, exclude_frac=0.5)

    def test_nonfinite_interior_rejected(self):
        spec = FractionalSpec(RL, 0.5, 1.0)

        def bad(u):
            ct = np.full_like(u.values, np.nan)
            return ct, np.zeros_like(u.values)

        cv = ConservedVectorEval("bad", spec, bad)
        _, u = self._trivial_setup()
        with pytest.raises(FloatingPointError):
            divergence_residual(cv, u)

    def test_flux_balance_on_trivial_vector(self):
        cv, u = self._trivial_setup()
        rep = flux_balance(cv, u)
        assert rep.linf < 1e-10
