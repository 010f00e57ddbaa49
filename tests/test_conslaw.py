import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betaincc, rgamma

from fraccons import conslaw
from fraccons.conslaw import (
    _CORRESPONDENCE,
    CSV_HEADER,
    ConservedVectorEval,
    catalog_ids,
    catalog_vector,
    conservation_residuals,
    correspondence,
    formal_lagrangian,
    _CLOSED_FORMS,
    _linear_prefix,
    _noether_core,
)
from fraccons.fracops import (FractionalSpec, Kind, SingularTerm, SpaceGrid, TimeGrid, TimeSeries,
                              diff1)
from fraccons.specialfn import mittag_leffler
from fraccons.symcat import (_GENERATORS, _REGIMES, SUBSTITUTION_REGIMES, AdjointSubstitution,
                             Symmetry, characteristic, list_symmetries, regime_constants,
                             regime_of, rl_extra_beta)
from fraccons.tfde import (
    Diffusivity,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
)

RL = Kind.RIEMANN_LIOUVILLE
CAP = Kind.CAPUTO

# every closed-form id at each derivative order it admits, but the misprinted
# Table1_v6 (tested against its corrected form below)
CLOSED_FORM_CASES = [pytest.param(pid, n, False, 1.0, id=pid if want is not None else f"{pid}-n{n}")
                     for pid, (_, want, _, _) in _CLOSED_FORMS.items() if pid != "Table1_v6"
                     for n in ((want,) if want is not None else (1, 2))]
# the Caputo table ids on a field that moves, whose u_t carries power terms, on
# the horizon T = 1 and on a shorter one, which the pole weights (T - t)^p read
# off the grid
MOVING_CASES = [pytest.param(pid, want, True, T, id=f"{pid}-moving" + ("" if T == 1.0 else f"-T{T}"))
                for T in (1.0, 0.5)
                for pid, (_, want, _, _) in _CLOSED_FORMS.items() if pid.startswith(("Table3", "Table5"))]


def exact_field(kind, n, steps, moving=False, T=1.0):
    """(spec, diffusivity, u) of an exact solution on a steps x steps grid: of
    [0, T] x [0, 1], or, ``moving``, the Caputo mode E_alpha(-t^alpha) sin x of the
    linear equation on [0, T] x [0, pi]."""
    alpha = 0.5 if n == 1 else 1.5
    spec = FractionalSpec(kind, alpha)
    grid, x = TimeGrid(T, steps), SpaceGrid(0.0, 1.0, steps)
    if moving:
        d = Diffusivity.constant(1.0)
        return spec, d, exact_linear_separable(spec, 1.0, grid, SpaceGrid(0.0, np.pi, steps))
    if kind is RL:
        d = Diffusivity.power(1.0 if n == 1 else 2.0)
        return spec, d, exact_rl_separable(d, alpha, 0.5, 1.0, grid, x)
    d = Diffusivity.power(1.0)
    return spec, d, exact_stationary_caputo(d, 0.1, 1.0, grid, x)


class TestCatalogIndex:
    def test_expected_ids_present(self):
        ids = catalog_ids()
        for pid in ("Trivial_RL", "Trivial_Caputo", "NL_RL_sub", "Table1_v6_alt",
                    "Table3_v1", "Table5_v6", "Linear_Cap_sub_X3", "Linear_RL_wave_Xinf"):
            assert pid in ids

    def test_unknown_id_rejected(self):
        spec = FractionalSpec(RL, 0.5)
        with pytest.raises(ValueError):
            catalog_vector("NoSuchVector", spec, Diffusivity.constant(1.0))

    def test_kind_mismatch_rejected(self):
        spec = FractionalSpec(CAP, 0.5)
        with pytest.raises(ValueError):
            catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))

    def test_linear_ids_require_substitution(self):
        spec = FractionalSpec(CAP, 0.5)
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

    def test_every_entry_is_a_catalog_id(self):
        ids = set(catalog_ids())
        assert tuple(_CORRESPONDENCE) == SUBSTITUTION_REGIMES
        for regime, table in _CORRESPONDENCE.items():
            assert set(table) <= set(_GENERATORS), regime
            found = set()
            for sym_id, row in table.items():
                # one entry per constant the regime's substitution takes
                assert len(row) == len(regime_constants(regime)), (regime, sym_id)
                for const in regime_constants(regime):
                    found.update(correspondence(sym_id, const, regime))
            assert found - {"Zero"}, regime
            assert found <= ids | {"Zero"}, (regime, found - ids)

    @pytest.mark.parametrize("kind", [RL, CAP])
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_every_admitted_symmetry_has_an_entry(self, kind, alpha):
        # the catalog command prints a row for each admitted symmetry, the
        # linear case's X3_lin and Xinf included; every vector of the row
        # and the symmetry's Noether vector pass catalog_vector's checks on
        # that equation, so its admission check rejects nothing the table lists
        spec = FractionalSpec(kind, alpha)
        regime = regime_of(spec)
        sub = AdjointSubstitution(regime, spec, c1=1.0)
        h = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 8), SpaceGrid(0.0, np.pi, 8))
        for d in (Diffusivity.constant(1.0), Diffusivity.exponential(), Diffusivity.power(2.0),
                  Diffusivity.power(-4.0 / 3.0), Diffusivity.power(rl_extra_beta(alpha))):
            for sym in list_symmetries(kind, alpha, d, h):
                assert sym.id in _CORRESPONDENCE[regime], (regime, d, sym.id)
                pids = {f"Noether:{sym.id}"}
                for const in regime_constants(regime):
                    pids.update(correspondence(sym.id, const, regime))
                for pid in sorted(pids - {"Zero"}):
                    catalog_vector(pid, spec, d, initial_velocity=0.0, substitution=sub, h=h)
        assert correspondence("Xinf", "c2", regime) == (f"{_linear_prefix(regime)}_Xinf",)

    def test_validation(self):
        with pytest.raises(ValueError):
            correspondence("X1", "c5", "RL_sub")
        with pytest.raises(ValueError):
            correspondence("X1", "c3", "RL_sub")
        with pytest.raises(ValueError):
            correspondence("X1", "c1", "nowhere")
        with pytest.raises(ValueError):  # no entry for this symmetry in the regime
            correspondence("X3_exp", "c1", "RL_sub")


class TestFormalLagrangian:
    def test_vanishes_on_solutions(self):
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(CAP, 0.5)
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 128)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0, c2=1.0)
        v = sub.field(tgrid, x)
        L = formal_lagrangian(u, v, d, spec)
        assert np.max(np.abs(L.values[1:-1, 1:-1])) < 1e-6

    @pytest.mark.parametrize("v_space", [SpaceGrid(0.0, 2.0, 16), None], ids=["other", "none"])
    def test_fields_on_different_space_grids_refused(self, v_space):
        # u on [0, 1] and v on [0, 2], 17 nodes each: L was their product; a
        # 1-D v of 17 rows would broadcast along u's 17 columns
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(CAP, 0.5)
        tgrid = TimeGrid(1.0, 16)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, SpaceGrid(0.0, 1.0, 16))
        v = (TimeSeries(tgrid, np.ones(17)) if v_space is None
             else AdjointSubstitution("Caputo_sub", spec, c1=1.0).field(tgrid, v_space))
        with pytest.raises(ValueError, match="different space grids"):
            formal_lagrangian(u, v, d, spec)


class TestClosedFormVectors:
    def test_trivial_rl_on_power_mode(self):
        # On u = c t^{alpha-1}: C^t = I^{1-alpha} u = c Gamma(alpha), constant,
        # and C^x = 0, so the divergence vanishes identically.
        alpha, c = 0.5, 0.7
        spec = FractionalSpec(RL, alpha)
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 32)
        u = exact_rl_power_mode(alpha, c, tgrid, x)
        cv = catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))
        ct, cx = cv.components(u)
        assert np.max(np.abs(ct[1:, :] - c * math.gamma(alpha))) < 1e-12
        rep = conservation_residuals(cv, u)[0]
        assert rep.linf < 1e-10

    def test_trivial_caputo_divergence_decays(self):
        spec = FractionalSpec(CAP, 0.5)
        d = Diffusivity.constant(1.0)
        cv = catalog_vector("Trivial_Caputo", spec, d)
        linfs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            x = SpaceGrid(0.0, np.pi, n // 2)
            u = exact_linear_separable(spec, 1.0, tgrid, x)
            linfs.append(conservation_residuals(cv, u)[0].linf)
        assert linfs[1] < linfs[0]

    @pytest.mark.parametrize("pid, n, moving, T", CLOSED_FORM_CASES + MOVING_CASES)
    def test_divergence_decays(self, pid, n, moving, T):
        # RL ids on u = t^(alpha-1) K^-1(a x + b) and Caputo ids on the stationary
        # solution fall by over 2 per doubling; Caputo ids on the moving linear
        # mode by over 1.4 per doubling to n = 128; time and space refined together
        linfs = []
        for steps in ((32, 64, 128) if moving else (32, 64)):
            spec, d, u = exact_field(_CLOSED_FORMS[pid][0], n, steps, moving, T)
            cv = catalog_vector(pid, spec, d, initial_velocity=0.0)
            linfs.append(conservation_residuals(cv, u)[0].linf)
        rate = 1.4 if moving else 2.0
        assert all(a > rate * b for a, b in zip(linfs, linfs[1:])), f"{pid}: {linfs}"

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 1.7])
    @pytest.mark.parametrize("pid, const", [("Table5_v3", "c2"), ("Table5_v6", "c4")])
    def test_table5_time_ids_are_the_noether_x3_vector(self, pid, const, alpha):
        # v = (T-t)^(alpha-1) (c2 = 1) or x (T-t)^(alpha-1) (c4 = 1) of Caputo_wave
        spec = FractionalSpec(CAP, alpha)
        d = Diffusivity.constant(1.0)
        u = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 64), SpaceGrid(0.0, np.pi, 64))
        sub = AdjointSubstitution("Caputo_wave", spec, **{const: 1.0})
        got = catalog_vector(pid, spec, d).components(u)
        want = catalog_vector("Noether:X3_lin", spec, d, substitution=sub).components(u)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), pid

    @pytest.mark.parametrize("pid", ["Table5_v3", "Table5_v6"])
    def test_table5_time_ids_constant_on_a_stationary_field(self, pid):
        # u_t = u_tt = 0 exactly, so C^t is Gamma(alpha) u (times x) on every row
        spec, d, u = exact_field(CAP, 2, 64)
        ct, _ = catalog_vector(pid, spec, d).components(u)
        assert np.array_equal(ct, np.broadcast_to(ct[0], ct.shape))

    @pytest.mark.parametrize("pid, moment", [("Table5_v1", "Table5_v4"),
                                             ("Table5_v2", "Table5_v5"),
                                             ("Table5_v3", "Table5_v6")])
    def test_x_moment_reuses_the_read_only_core(self, monkeypatch, pid, moment):
        # a vector and its x-moment share one core, computed once per field
        # and kept read-only, so that x c cannot write the shared c in place
        spec = FractionalSpec(CAP, 1.5)
        d = Diffusivity.constant(1.0)
        u = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, np.pi, 16))
        fresh = [catalog_vector(p, spec, d, initial_velocity=0.0).components(
            exact_linear_separable(spec, 1.0, u.grid, u.x))[0] for p in (pid, moment)]
        calls = []
        real = conslaw.time_derivative
        monkeypatch.setattr(conslaw, "time_derivative",
                            lambda *args: calls.append(1) or real(*args))
        ct, _ = catalog_vector(pid, spec, d, initial_velocity=0.0).components(u)
        built = len(calls)
        xct, _ = catalog_vector(moment, spec, d, initial_velocity=0.0).components(u)
        assert built > 0 and len(calls) == built
        assert not ct.flags.writeable
        with pytest.raises(ValueError):
            ct += 1.0
        # bit for bit those of a fresh field (the end row t = T is not finite)
        assert np.array_equal(ct, fresh[0], equal_nan=True)
        assert np.array_equal(xct, fresh[1], equal_nan=True)

    def test_core_memo_keeps_initial_velocities_apart(self):
        # Table5_v2 reads u_t(0, x): another velocity on the same field is another core
        spec = FractionalSpec(CAP, 1.5)
        d = Diffusivity.constant(1.0)
        u = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, np.pi, 16))
        cts = [catalog_vector("Table5_v2", spec, d, initial_velocity=v).components(u)[0]
               for v in (0.0, 1.0, 0.0)]
        assert not np.array_equal(cts[0], cts[1])
        assert cts[2] is cts[0]

    @pytest.mark.parametrize("pid", sorted(_CLOSED_FORMS))
    def test_wrong_kind_or_order_names_the_id(self, pid):
        kind, n, _, _ = _CLOSED_FORMS[pid]
        d = Diffusivity.constant(1.0)
        for other, alpha in ((RL, 0.5), (RL, 1.5), (CAP, 0.5), (CAP, 1.5)):
            spec = FractionalSpec(other, alpha)
            if other is kind and n in (None, spec.n):
                continue
            with pytest.raises(ValueError, match=f"^{pid}: requires"):
                catalog_vector(pid, spec, d)

    @pytest.mark.parametrize("pid", sorted(p for p, (kind, n, _, _) in _CLOSED_FORMS.items()
                                           if kind is CAP and n in (None, 2)))
    def test_missing_initial_velocity_names_the_id_when_built(self, pid):
        # the cores of D^1 u at n = 2 read u_t(0, x), which a sampled field
        # does not determine: refused when the vector is built, before any field
        spec, d = FractionalSpec(CAP, 1.5), Diffusivity.constant(1.0)
        if pid in ("Table5_v2", "Table5_v5"):
            with pytest.raises(ValueError, match=rf"^{pid}: requires the initial data u_t\(0, x\)$"):
                catalog_vector(pid, spec, d)
        else:
            catalog_vector(pid, spec, d)
        catalog_vector(pid, spec, d, initial_velocity=0.0)

    def test_nl_rl_sub_t2_conserved_off_the_extra_power(self):
        # the flux printed for this vector holds only at beta = rl_extra_beta(alpha);
        # at beta = -1/2 the derived one is conserved to roundoff (beta = 1 is
        # the NL_RL_sub_t2 case of test_divergence_decays)
        d = Diffusivity.power(-0.5)
        u = exact_rl_separable(d, 0.5, 0.5, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, 1.0, 32))
        cv = catalog_vector("NL_RL_sub_t2", FractionalSpec(RL, 0.5), d)
        assert conservation_residuals(cv, u)[0].linf < 1e-12

    def test_nl_rl_sub_t2_flux_is_the_printed_one_at_the_extra_power(self):
        alpha = 0.5
        spec = FractionalSpec(RL, alpha)
        d = Diffusivity.power(rl_extra_beta(alpha))
        u = exact_rl_separable(d, alpha, 0.5, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, 1.0, 16))
        _, cx = catalog_vector("NL_RL_sub_t2", spec, d).components(u)
        t, x = u.grid.nodes()[:, None], u.x.nodes()[None, :]
        ux = diff1(u.values, u.hx, axis=1)
        printed = t * d.k(u.values) * ((1.0 - alpha) / (1.0 + alpha) * u.values - x * ux)
        assert np.max(np.abs(cx - printed)) <= 1e-13 * np.max(np.abs(printed))

    def test_table1_v6_alt_outperforms_printed_form(self):
        # The structurally consistent variant decays under refinement;
        # the form as printed does not.
        alpha = 1.5
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(RL, alpha)
        printed, alt = [], []
        for n in (64, 128):
            tgrid = TimeGrid(1.0, n)
            x = SpaceGrid(0.0, 1.0, n)
            u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
            printed.append(conservation_residuals(catalog_vector("Table1_v6", spec, d), u)[0].linf)
            alt.append(conservation_residuals(catalog_vector("Table1_v6_alt", spec, d), u)[0].linf)
        assert alt[1] < 0.5 * alt[0]
        assert printed[1] > 0.9 * printed[0]


class TestNoetherVectors:
    def test_noether_matches_linear_catalog(self):
        # X3 with the substitution v = (T-t)^{a-1} x on the Caputo
        # subdiffusion mode: operator-built and catalog vectors agree.
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha)
        d = Diffusivity.constant(1.0)
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 64)
        lam = 0.5
        u = exact_linear_separable(spec, lam, tgrid, x)
        sub = AdjointSubstitution("Caputo_sub", spec, c2=1.0)
        nv = catalog_vector("Noether:X3_lin", spec, d, substitution=sub)
        cv = catalog_vector("Linear_Cap_sub_X3", spec, d, substitution=sub)
        ct_n, cx_n = nv.components(u)
        ct_c, cx_c = cv.components(u)
        assert np.max(np.abs(ct_n[1:-1] - ct_c[1:-1])) < 1e-10
        assert np.max(np.abs(cx_n[1:-1, 1:-1] - cx_c[1:-1, 1:-1])) < 1e-5

    @pytest.mark.parametrize("kind", [CAP, RL])
    def test_x3_vector_is_the_core_without_lagrangian(self, monkeypatch, kind):
        # xi0 = xi1 = 0 for X3_lin: the vector is _noether_core's, bit for bit,
        # and the formal Lagrangian is never built
        spec = FractionalSpec(kind, 0.5)
        d = Diffusivity.constant(1.0)
        tgrid = TimeGrid(1.0, 32)
        x = SpaceGrid(0.0, np.pi, 16)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        sub = AdjointSubstitution(regime_of(spec), spec, c2=1.0)
        sym = Symmetry("X3_lin", 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = _noether_core(characteristic(sym, u), sub.field(tgrid, x), u, sub, spec, d)

        def no_lagrangian(*args):
            raise AssertionError("formal Lagrangian built for a vector with xi = 0")

        monkeypatch.setattr("fraccons.conslaw.formal_lagrangian", no_lagrangian)
        comps = catalog_vector("Noether:X3_lin", spec, d, substitution=sub).components(u)
        for got, want in zip(comps, core):
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("regime", SUBSTITUTION_REGIMES)
    def test_linear_ids_are_the_noether_vectors(self, regime):
        # one Noether path: a Linear_<regime>_<symmetry> id is the Noether vector
        # of its symmetry bit for bit, the xi L terms of X1 and X2 included
        kind, n, _ = _REGIMES[regime]
        spec = FractionalSpec(kind, n - 0.5)
        d = Diffusivity.constant(1.0)
        u = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, np.pi, 16))
        sub = AdjointSubstitution(regime, spec, **dict.fromkeys(regime_constants(regime), 1.0))
        for sym in ("X1", "X2", "X3", "Xinf"):
            got = catalog_vector(f"{_linear_prefix(regime)}_{sym}", spec, d, substitution=sub,
                                 h=u).components(u)
            want = catalog_vector(f"Noether:{sym.replace('X3', 'X3_lin')}", spec, d,
                                  substitution=sub, h=u).components(u)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True), (regime, sym)

    def test_linear_catalog_flux_carries_diffusivity(self):
        # for k = k0 the flux is k0 (v_x W - v W_x); here W = u (X3) and
        # v = (T-t)^{a-1} x, compared below the end row t = T where v is infinite
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha)
        d = Diffusivity.constant(2.0)
        tgrid = TimeGrid(1.0, 32)
        x = SpaceGrid(0.0, np.pi, 32)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        sub = AdjointSubstitution("Caputo_sub", spec, c2=1.0)
        cv = catalog_vector("Linear_Cap_sub_X3", spec, d, substitution=sub)
        _, cx = cv.components(u)
        v = np.outer((1.0 - tgrid.nodes()[:-1]) ** (alpha - 1.0), x.nodes())
        hx = x.h
        uv = u.values[:-1]
        want = 2.0 * (diff1(v, hx, axis=1) * uv - v * diff1(uv, hx, axis=1))
        np.testing.assert_allclose(cx[:-1], want, rtol=1e-12, atol=1e-12)

    def test_substitution_of_another_spec_rejected(self):
        # a substitution built at another alpha is not a solution of this
        # spec's adjoint equation, and its vector would not be conserved
        spec = FractionalSpec(CAP, 0.5)
        d = Diffusivity.constant(1.0)
        other = AdjointSubstitution("Caputo_sub", FractionalSpec(CAP, 0.3), c1=1.0, c2=1.0)
        with pytest.raises(ValueError, match="Linear_Cap_sub_X3"):
            catalog_vector("Linear_Cap_sub_X3", spec, d, substitution=other)
        with pytest.raises(ValueError, match="^Noether:X3_lin: the substitution was built for"):
            catalog_vector("Noether:X3_lin", spec, d, substitution=other)

    def test_linear_id_of_another_regime_rejected(self):
        spec = FractionalSpec(CAP, 0.5)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        for vid in ("Linear_RL_sub_X1", "Linear_Cap_wave_X1"):
            with pytest.raises(ValueError, match=f"{vid}: does not fit the Caputo_sub regime"):
                catalog_vector(vid, spec, Diffusivity.constant(1.0), substitution=sub)

    def test_noether_vector_divergence_small(self):
        alpha = 0.5
        spec = FractionalSpec(CAP, alpha)
        d = Diffusivity.power(2.0)
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 64)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        nv = catalog_vector("Noether:X1", spec, d, substitution=sub)
        assert nv.provenance == "NoetherDerived(X1,Caputo_sub)"
        rep = conservation_residuals(nv, u)[0]
        assert rep.linf < 1e-3

    def test_noether_id_validation(self):
        spec = FractionalSpec(CAP, 0.5)
        d = Diffusivity.constant(1.0)
        with pytest.raises(ValueError, match="^Noether:X1: requires an adjoint substitution$"):
            catalog_vector("Noether:X1", spec, d)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        with pytest.raises(ValueError,
                           match="^Noether:X9: the equation does not admit the symmetry 'X9'$"):
            catalog_vector("Noether:X9", spec, d, substitution=sub)

    @pytest.mark.parametrize("vid, sym_id", [("Noether:X3_exp", "X3_exp"),
                                             ("Noether:X4_pow43", "X4_pow43"),
                                             ("Linear_Cap_sub_X3", "X3_lin")])
    def test_unadmitted_symmetry_rejected(self, vid, sym_id):
        # k = u^2 admits X1, X2 and X3_pow only: the vector of any other
        # generator is not conserved, so building it fails
        spec = FractionalSpec(CAP, 0.5)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        with pytest.raises(ValueError,
                           match=f"^{vid}: the equation does not admit the symmetry '{sym_id}'$"):
            catalog_vector(vid, spec, Diffusivity.power(2.0), substitution=sub)

    def test_xinf_without_h_rejected_when_built(self):
        # the Xinf characteristic is the field h; without it the vector
        # cannot be evaluated, so building it fails before any evaluation
        spec = FractionalSpec(CAP, 0.5)
        d = Diffusivity.constant(1.0)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        for vid in ("Noether:Xinf", "Linear_Cap_sub_Xinf"):
            with pytest.raises(ValueError, match=f"^{vid}: Xinf requires"):
                catalog_vector(vid, spec, d, substitution=sub)
        h = exact_linear_separable(spec, 1.0, TimeGrid(1.0, 32), SpaceGrid(0.0, np.pi, 16))
        for vid in ("Noether:Xinf", "Linear_Cap_sub_Xinf"):
            ct, cx = catalog_vector(vid, spec, d, substitution=sub, h=h).components(h)
            assert np.isfinite(ct[1:-1]).all() and np.isfinite(cx[1:-1]).all()


# the adjoint field v as parts a g(x) (T-t)^p: (p, a, g, g_xx) on the x nodes
_GREEN_V = {
    "constant": lambda x: [(0.0, 1.0, np.cos(x) + 0.2 * x, -np.cos(x))],
    # 1 + t/2 = 3/2 - (T-t)/2 at T = 1
    "linear": lambda x: [(0.0, 1.5, np.cos(x), -np.cos(x)), (1.0, -0.5, np.cos(x), -np.cos(x)),
                         (0.0, 1.0, 0.2 * x, np.zeros_like(x))],
    # e^-t = e^-1 e^(T-t), its Taylor series past roundoff on the window
    "decaying": lambda x: [(float(k), math.exp(-1.0) / math.factorial(k), np.cos(x), -np.cos(x))
                           for k in range(25)],
}

# At a < 1 the end term's power a - 1 is negative, and a field stores its
# regular part as 0 at the anchor t = T of such a term. So the right integral
# and J miss v's regular value at T, and the identity decays at first order.
_ANCHOR_ZERO = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the regular part is stored as 0 at the anchor of a negative-power term")
_GREEN_CASES = [pytest.param(alpha, v_case, end,
                             id=f"{alpha}-{v_case}-{'end_term' if end else 'smooth'}",
                             marks=[_ANCHOR_ZERO] if end and alpha < 1.0 else [])
                for alpha in (0.3, 0.5, 1.5, 1.7) for v_case in sorted(_GREEN_V)
                for end in (False, True)]


class TestTable3V3AgainstJ:
    """Table3_v3 and Noether:X3_lin with Caputo_sub c2 = 1 are one vector: W = u
    and v = x (T-t)^(a-1), so C^t = Gamma(a) x u - J(u_t, v), x times
    _pole_moment(0)'s core. Table3_v3 takes it with the endpoint-pole weights,
    the Noether vector with J. On criterion 6's field: the Caputo mode with
    a = lam = 1/2, x in [0, 1], n_x = 16, at t = 1/8, ..., 7/8 and n = 256."""

    ROWS = np.arange(1, 8) * 32

    @staticmethod
    def c_t(pid):
        spec = FractionalSpec(CAP, 0.5)
        sub = AdjointSubstitution("Caputo_sub", spec, c2=1.0)
        cv = catalog_vector(pid, spec, Diffusivity.constant(1.0), substitution=sub)
        u = exact_linear_separable(spec, 0.5, TimeGrid(1.0, 256), SpaceGrid(0.0, 1.0, 16))
        return cv.components(u)[0][TestTable3V3AgainstJ.ROWS]

    def test_table3_v3_matches_the_quadrature_reference(self):
        # criterion 6's oracle: Gamma(a) x sin(lam x) [E_a(-lam^2 t^a) + lam^2 int_0^t
        # tau^(a-1) E_{a,a}(-lam^2 tau^a) Q(1-a, a; (t-tau)/(1-tau)) dtau]
        a = lam = 0.5
        x = SpaceGrid(0.0, 1.0, 16).nodes()

        def c_t(t):
            j = quad(lambda tau: lam ** 2 * mittag_leffler(a, a, -lam ** 2 * tau ** a)
                     * betaincc(1.0 - a, a, (t - tau) / (1.0 - tau)),
                     0.0, t, weight="alg", wvar=(a - 1.0, 0.0), limit=200)[0]
            return math.gamma(a) * (mittag_leffler(a, 1.0, -lam ** 2 * t ** a) + j)

        ref = np.outer([c_t(t) for t in self.ROWS / 256], x * np.sin(lam * x))
        assert np.max(np.abs(self.c_t("Table3_v3") - ref)) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="J errs at first order near t = T (ROADMAP item 2); "
                                           "the gap is 1.0e-5 at n = 256")
    def test_j_form_matches_table3_v3(self):
        assert np.max(np.abs(self.c_t("Noether:X3_lin") - self.c_t("Table3_v3"))) <= 1e-6


class TestGreenIdentity:
    """The Caputo Noether vector against the fractional Green identity

      D_t C^t + D_x C^x = v (cD^a W - W_xx) - W (D^a_{T-} v - v_xx)

    with C^t = _noether_ct(W, v) and C^x = v_x W - v W_x, on fields that solve
    neither equation, so that an error proportional to a residual shows."""

    @staticmethod
    def identity_error(alpha, v_case, end, n):
        """Linf of the identity's residual over t in [1/8, 7/8] and the columns
        3..-3 that the residual keeps, at T = 1, x in [0, pi], n_x = n/2."""
        spec = FractionalSpec(CAP, alpha)
        grid, x = TimeGrid(1.0, n), SpaceGrid(0.0, np.pi, n // 2)
        t, xs = grid.nodes()[:, None], x.nodes()
        # W = (1 + t + t^2/2) sin x + 0.3 t cos 2x as parts c(x) t^m: (m, c, c_xx)
        w_parts = [(0, np.sin(xs), -np.sin(xs)),
                   (1, np.sin(xs) + 0.3 * np.cos(2.0 * xs), -np.sin(xs) - 1.2 * np.cos(2.0 * xs)),
                   (2, 0.5 * np.sin(xs), -0.5 * np.sin(xs))]
        v_parts = _GREEN_V[v_case](xs)
        W = TimeSeries.from_parts(grid, sum(c * t ** m for m, c, _ in w_parts), x=x)
        end_terms = (SingularTerm(np.cos(xs), alpha - 1.0, "end"),) if end else ()
        v = TimeSeries.from_parts(grid, sum(a * g * (1.0 - t) ** p for p, a, g, _ in v_parts),
                                  end_terms, x)
        ct = conslaw._noether_ct(W, v, None, spec)
        cx = v.dx_field().values * W.values - v.values * W.dx_field().values
        lhs = diff1(ct, grid.h, axis=0) + diff1(cx, x.h, axis=1)
        rows = slice(n // 8, 7 * n // 8 + 1)
        t, s = t[rows], 1.0 - t[rows]
        if end:  # (T-t)^(a-1) is in the kernel of D^a_{T-}
            v_parts = v_parts + [(alpha - 1.0, 1.0, np.cos(xs), -np.cos(xs))]
        # cD^a t^m = m!/Gamma(m+1-a) t^(m-a), and 0 for the integers m < n
        cap_W = sum(c * math.factorial(m) / math.gamma(m + 1.0 - alpha) * t ** (m - alpha)
                    for m, c, _ in w_parts if m >= spec.n)
        W_xx = sum(c_xx * t ** m for m, _, c_xx in w_parts)
        # D^a_{T-} (T-t)^p = Gamma(p+1)/Gamma(p+1-a) (T-t)^(p-a)
        right_v = sum(a * g * math.gamma(p + 1.0) * rgamma(p + 1.0 - alpha) * s ** (p - alpha)
                      for p, a, g, _ in v_parts)
        v_vals = sum(a * g * s ** p for p, a, g, _ in v_parts)
        v_xx = sum(a * g_xx * s ** p for p, a, _, g_xx in v_parts)
        rhs = v_vals * (cap_W - W_xx) - W.values[rows] * (right_v - v_xx)
        return np.max(np.abs(lhs[rows] - rhs)[:, 3:-3])

    @pytest.mark.parametrize("alpha, v_case, end", _GREEN_CASES)
    def test_identity_decays_at_second_order(self, alpha, v_case, end):
        # with one edge column dropped, the one-sided x stencils make it first order
        err = [self.identity_error(alpha, v_case, end, n) for n in (64, 128, 256)]
        ratios = [err[0] / err[1], err[1] / err[2]]
        assert min(ratios) >= 3.0, (err, ratios)


class TestVerifiers:
    def _trivial_setup(self, n=64):
        spec = FractionalSpec(RL, 0.5)
        tgrid = TimeGrid(1.0, n)
        x = SpaceGrid(0.0, 1.0, 32)
        u = exact_rl_power_mode(0.5, 0.7, tgrid, x)
        cv = catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))
        return cv, u

    def test_report_fields_and_csv_row(self):
        cv, u = self._trivial_setup()
        rep = conservation_residuals(cv, u, exclude_frac=0.1)[0]
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
        rep1 = conservation_residuals(cv, u, exclude_frac=0.05)[0]
        rep2 = conservation_residuals(cv, u, exclude_frac=0.2)[0]
        assert rep2.excluded_nodes > rep1.excluded_nodes

    def test_empty_window_rejected(self):
        cv, u = self._trivial_setup(n=8)
        with pytest.raises(ValueError):
            conservation_residuals(cv, u, exclude_frac=0.5)

    def test_nonfinite_interior_rejected(self):
        spec = FractionalSpec(RL, 0.5)

        def bad(u):
            ct = np.full_like(u.values, np.nan)
            return ct, np.zeros_like(u.values)

        cv = ConservedVectorEval("bad", spec, bad)
        _, u = self._trivial_setup()
        with pytest.raises(FloatingPointError):
            conservation_residuals(cv, u)

    @pytest.mark.parametrize("comp, index, what", [
        (0, np.s_[32], "residual"),
        # C^x on the end columns enters the boundary flux, not the residual's D_x
        (1, np.s_[:, 0], "balance"),
        (1, np.s_[:, -1], "balance"),
    ], ids=["ct-row", "cx-first-column", "cx-last-column"])
    def test_nonfinite_window_names_the_vector(self, comp, index, what):
        _, u = self._trivial_setup()

        def bad(u):
            comps = (np.zeros_like(u.values), np.zeros_like(u.values))
            comps[comp][index] = np.inf
            return comps

        cv = ConservedVectorEval("Trivial_RL", FractionalSpec(RL, 0.5), bad)
        with pytest.raises(FloatingPointError, match=f"^Trivial_RL: non-finite {what} inside"):
            conservation_residuals(cv, u)

    def test_flux_balance_on_trivial_vector(self):
        cv, u = self._trivial_setup()
        rep = conservation_residuals(cv, u)[1]
        assert rep.linf < 1e-10

    def test_components_evaluated_once(self):
        cv, u = self._trivial_setup()
        calls = []

        def counted(u):
            calls.append(u)
            return cv._fn(u)

        reports = conservation_residuals(ConservedVectorEval(cv.provenance, cv.spec, counted), u)
        assert len(calls) == 1 and calls[0] is u
        assert reports == conservation_residuals(cv, u)

    @pytest.mark.parametrize("n_x", [4, 5])
    def test_narrow_space_grid_rejected(self, n_x):
        cv = catalog_vector("Trivial_RL", FractionalSpec(RL, 0.5), Diffusivity.constant(1.0))
        u = exact_rl_power_mode(0.5, 0.7, TimeGrid(1.0, 16), SpaceGrid(0.0, 1.0, n_x))
        with pytest.raises(ValueError, match=f"needs n_x >= 6, got n_x = {n_x}$"):
            conservation_residuals(cv, u)


def _verifier_field(kind, n_x, n=64):
    """(spec, diffusivity, u, vector ids) of a field the verifiers read: a
    solver field of RL k = u^2 (verify_solver's equation) or the exact Caputo
    mode E_alpha(-t^alpha) sin x, on n steps and n_x cells."""
    if kind is RL:
        spec, d, x = FractionalSpec(RL, 0.5), Diffusivity.power(2.0), SpaceGrid(0.0, 1.0, n_x)
        xs = x.nodes()
        u0 = d.K_inv(0.5 * xs + 1.0) * (1.0 + 0.1 * np.sin(np.pi * xs))
        u = solve_nonlinear(spec, d, TimeGrid(1.0, n), x, u0, initial_velocity=0.0)
        return spec, d, u, ("NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2", "Trivial_RL")
    spec, d = FractionalSpec(CAP, 0.5), Diffusivity.constant(1.0)
    u = exact_linear_separable(spec, 1.0, TimeGrid(1.0, n), SpaceGrid(0.0, np.pi, n_x))
    return spec, d, u, ("Trivial_Caputo", "Table3_v1", "Table3_v3")


class TestVerifiersMatchFullStencils:
    """The verifier differences only its windows; the oracle is the full-stencil
    form it replaced: diff1 over rows lo-1..hi and every column, then sliced."""

    @staticmethod
    def full_stencil_windows(ct, cx, u, lo, hi):
        res = diff1(ct[lo - 1:hi + 1], u.grid.h, axis=0)[1:-1] + diff1(cx[lo:hi], u.hx, axis=1)
        mass = np.trapezoid(ct[lo - 1:hi + 1], dx=u.hx, axis=1)
        bal = diff1(mass, u.grid.h)[1:-1] + (cx[lo:hi, -1] - cx[lo:hi, 0])
        return {"residual": res[:, 3:-3], "balance": bal}

    @pytest.mark.parametrize("kind", [RL, CAP], ids=["rl-solver", "caputo-exact"])
    @pytest.mark.parametrize("n_x", [6, 64])
    def test_windows_bitwise(self, monkeypatch, kind, n_x):
        spec, d, u, ids = _verifier_field(kind, n_x)
        windows = {}
        report = conslaw._report

        def record(cv, u, window, lo, what):
            windows[what] = window
            return report(cv, u, window, lo, what)

        monkeypatch.setattr(conslaw, "_report", record)
        lo, hi = conslaw._time_window(u.grid.n_steps, 0.05)
        for pid in ids:
            cv, seen = catalog_vector(pid, spec, d), []

            def recorded(u, cv=cv, seen=seen):
                seen.append(cv.components(u))
                return seen[-1]

            conservation_residuals(ConservedVectorEval(pid, spec, recorded), u)
            (ct, cx), = seen
            want = self.full_stencil_windows(ct, cx, u, lo, hi)
            for what in ("residual", "balance"):
                got = windows[what]
                assert got.shape == want[what].shape and got.tobytes() == want[what].tobytes(), \
                    (pid, what)
