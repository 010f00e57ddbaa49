"""Self-test criteria exercising the whole library end to end.

Each criterion function returns a CriterionResult; run_all executes the full
battery. The CLI ``selftest`` subcommand and the acceptance test suite both
delegate here so the two views cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specialfn import gamma, hyp2f1, mittag_leffler
from .fracops import (
    Kind,
    FractionalSpec,
    SingularTerm,
    SpaceGrid,
    TimeGrid,
    TimeSeries,
    caputo_left_derivative,
    diff1,
    j_integral,
    left_frac_integral,
    right_frac_integral,
    rl_left_derivative,
)
from .tfde import (
    Diffusivity,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
)
from .symcat import (AdjointSubstitution, adjoint_residual, regime_constants, regime_of,
                     rl_extra_beta)
from .conslaw import (
    catalog_vector,
    correspondence,
    divergence_residual,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} [{self.title}]: {self.detail}"


def criterion_1() -> CriterionResult:
    """Special-function identities."""
    e_err = abs(mittag_leffler(1.0, 1.0, 1.0) - math.e) / math.e
    f_err = abs(hyp2f1(1.0, 1.0, 2.0, 0.5) - 2.0 * math.log(2.0)) / (2.0 * math.log(2.0))
    ok = e_err <= 1e-10 and f_err <= 1e-10
    return CriterionResult(1, "special functions", ok,
                           f"E_1,1(1) rel err {e_err:.2e}, 2F1(1,1;2;1/2) rel err {f_err:.2e}")


def criterion_2() -> CriterionResult:
    """Fractional power rules on sampled linear data."""
    grid = TimeGrid(1.0, 256)
    f = TimeSeries.from_function(grid, lambda t: t)
    i_val = left_frac_integral(f, 0.5).values[-1]
    i_err = abs(i_val - gamma(2.0) / gamma(2.5))
    d_val = caputo_left_derivative(f, 0.5).values[-1]
    d_err = abs(d_val - 1.0 / gamma(1.5))
    ok = i_err <= 1e-12 and d_err <= 1e-8
    return CriterionResult(2, "power rules", ok,
                           f"I^0.5 t err {i_err:.2e} (<=1e-12), cD^0.5 t err {d_err:.2e} (<=1e-8)")


def criterion_3() -> CriterionResult:
    """Riemann-Liouville annihilation of the t^{alpha-1} mode.

    The mode is represented the way the library represents all initial-time
    power behavior: sampled values plus a declared power-law term (plain
    sampling of a non-integrable singularity loses O(sqrt(h)) of kernel mass
    and cannot annihilate). A sampled smooth multiple of the mode provides
    the honest numerical part of the check.
    """
    errs = []
    for n in (256, 512):
        grid = TimeGrid(1.0, n)
        t = grid.nodes()
        f = TimeSeries.from_function(grid, lambda tt: tt ** -0.5, (SingularTerm(1.0, -0.5),))
        d = rl_left_derivative(f, 0.5)
        # sampled component: D^0.5 of t^0.5 must match the power rule
        g = TimeSeries(grid, t ** 0.5)
        dg = rl_left_derivative(g, 0.5)
        mask = t >= 0.1
        e_mode = float(np.max(np.abs(d.values[mask])))
        e_pow = float(np.max(np.abs(dg.values[mask] - gamma(1.5))))
        errs.append((e_mode, e_pow))
    ok = (errs[0][0] <= 1e-4 and errs[1][0] <= errs[0][0]
          and errs[1][1] < errs[0][1])
    return CriterionResult(3, "RL annihilation", ok,
                           f"|D^0.5 t^-0.5| {errs[0][0]:.2e} at n=256 (<=1e-4); sampled "
                           f"power-rule err {errs[0][1]:.2e} -> {errs[1][1]:.2e} under refinement")


def criterion_4() -> CriterionResult:
    """J closed form and the differentiation property of J."""
    grid = TimeGrid(2.0, 512)
    one = TimeSeries.from_function(grid, lambda t: np.ones_like(t))
    jv = j_integral(one, one, 0.5).values
    i_mid = np.argmin(np.abs(grid.nodes() - 1.0))
    ref = (2.0 ** 1.5 - 2.0) / gamma(2.5)
    cf_err = abs(jv[i_mid] - ref)

    # property: D_t J(f, g) = f * rI^{1-a} g - g * 0I^{1-a} f for (f,g)=(t,1)
    def prop_err(n: int) -> float:
        g2 = TimeGrid(1.0, n)
        t = g2.nodes()
        f = TimeSeries(g2, t)
        g = TimeSeries.from_function(g2, lambda s: np.ones_like(s))
        lhs = diff1(j_integral(f, g, 0.5).values, g2.h)
        rhs = t * right_frac_integral(g, 0.5).values - left_frac_integral(f, 0.5).values
        lo = max(2, math.ceil(0.1 * (n + 1)))
        return float(np.max(np.abs((lhs - rhs)[lo:n + 1 - lo])))

    e1, e2 = prop_err(128), prop_err(256)
    order = math.log2(e1 / e2)
    ok = cf_err <= 1e-6 and order >= 1.8
    return CriterionResult(4, "J integral", ok,
                           f"closed-form err {cf_err:.2e} (<=1e-6), property order {order:.2f} (>=1.8)")


def criterion_5() -> CriterionResult:
    """Adjoint-equation residuals of the four substitution regimes."""
    details = []
    ok = True
    cases = [(Kind.RIEMANN_LIOUVILLE, 0.5, 1e-12), (Kind.RIEMANN_LIOUVILLE, 1.5, 1e-12),
             (Kind.CAPUTO, 0.5, 1e-5), (Kind.CAPUTO, 1.5, 1e-5)]
    diffu = Diffusivity.constant(1.0)
    for kind, alpha, tol in cases:
        spec = FractionalSpec(kind, alpha)
        regime = regime_of(spec)
        tg = TimeGrid(1.0, 512)
        x = SpaceGrid(0.0, 1.0, 64)
        u = exact_linear_separable(spec, 1.0, tg, x)
        consts = dict(zip(regime_constants(regime), (1.0, 0.5, 0.25, 0.125)))
        sub = AdjointSubstitution(regime, spec, **consts)
        v = sub.field(tg, x)
        res = adjoint_residual(v, u, diffu, spec)
        n = tg.n_steps
        cut = n + 1 - math.ceil(0.05 * (n + 1))
        linf = float(np.max(np.abs(res.values[1:cut, 1:-1])))
        ok = ok and linf <= tol
        details.append(f"{regime} {linf:.1e}")
    return CriterionResult(5, "adjoint substitutions", ok, ", ".join(details))


def criterion_6() -> CriterionResult:
    """Noether C^t of X3 with v = (T-t)^{a-1} x against closed forms plus quadrature.

    The oracle uses none of the library's fractional kernels. On the Caputo mode
    u = E_a(-lam^2 t^a) sin(lam x), a = lam = 1/2, with the Caputo_sub
    substitution c2 = 1, the characteristic is W = u, tI^{1-a}_T v = Gamma(a) x,
    and the mu-integral inside J(u_t, v) is Gamma(1-a) Gamma(a) Q(1-a, a; z),
    z = (t-tau)/(T-tau), Q the regularized upper incomplete beta function. So
      C^t = W * tI^{1-a}_T v - J(u_t, v)
          = Gamma(a) x sin(lam x) [E_a(-lam^2 t^a)
              + lam^2 int_0^t tau^{a-1} E_{a,a}(-lam^2 tau^a) Q(1-a, a; z) dtau].
    The tau-integral is scipy quad with the algebraic weight tau^{a-1}.
    Compared at t = 1/8, ..., 7/8 on n = 256 and 512; passes when the
    n = 512 error is at most 1e-5 and below the n = 256 one.
    """
    from scipy.integrate import quad  # at module level it adds ~0.3 s to every import
    from scipy.special import betaincc

    alpha, lam, T = 0.5, 0.5, 1.0
    spec = FractionalSpec(Kind.CAPUTO, alpha)
    sub = AdjointSubstitution("Caputo_sub", spec, c2=1.0)
    cv = catalog_vector("Noether:X3_lin", spec, Diffusivity.constant(1.0), substitution=sub)
    x = SpaceGrid(0.0, 1.0, 16)
    nodes = np.arange(1, 8) / 8.0

    def c_t(t: float) -> float:
        j, _ = quad(lambda tau: lam ** 2 * mittag_leffler(alpha, alpha, -lam ** 2 * tau ** alpha)
                    * betaincc(1.0 - alpha, alpha, (t - tau) / (T - tau)),
                    0.0, t, weight="alg", wvar=(alpha - 1.0, 0.0), limit=200)
        return gamma(alpha) * (mittag_leffler(alpha, 1.0, -lam ** 2 * t ** alpha) + j)

    ref = np.outer([c_t(t) for t in nodes], x.nodes() * np.sin(lam * x.nodes()))
    errs = []
    for n in (256, 512):
        ct, _ = cv.components(exact_linear_separable(spec, lam, TimeGrid(T, n), x))
        errs.append(float(np.max(np.abs(ct[np.rint(nodes * n).astype(int)] - ref))))
    ok = errs[1] <= 1e-5 and errs[1] < errs[0]
    return CriterionResult(6, "Noether vs quadrature", ok,
                           f"C^t max error {errs[0]:.2e} (n=256) -> {errs[1]:.2e} (n=512, <=1e-5)")


def _decay_ratios(pid: str, spec, diffu, make_u, grids=(64, 128, 256), **kw) -> list[float]:
    cv = catalog_vector(pid, spec, diffu, **kw)
    linfs = [divergence_residual(cv, make_u(n)).linf for n in grids]
    return [linfs[i] / linfs[i + 1] for i in range(len(linfs) - 1)]


def criterion_7() -> CriterionResult:
    """Divergence decay on the exact linear Caputo solution."""
    spec = FractionalSpec(Kind.CAPUTO, 0.5)
    diffu = Diffusivity.constant(1.0)
    sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0, c2=1.0)

    def make_u(n):
        return exact_linear_separable(spec, 1.0, TimeGrid(1.0, n), SpaceGrid(0.0, math.pi, n // 2))

    r1 = _decay_ratios("Trivial_Caputo", spec, diffu, make_u)
    r2 = _decay_ratios("Noether:X3_lin", spec, diffu, make_u, substitution=sub)
    ok = all(r >= 1.4 for r in r1 + r2)
    return CriterionResult(7, "linear conservation decay", ok,
                           f"Trivial_Caputo ratios {r1[0]:.2f}/{r1[1]:.2f}, "
                           f"X3 vector ratios {r2[0]:.2f}/{r2[1]:.2f} (>=1.4)")


def criterion_8() -> CriterionResult:
    """Tables 3 and 5 on the stationary solution with k(u) = u, and on the
    moving linear mode, whose u_t carries power terms."""
    diffu = Diffusivity.power(1.0)
    u = exact_stationary_caputo(diffu, 0.1, 1.0, TimeGrid(1.0, 512), SpaceGrid(0.0, 1.0, 512))
    spec3, spec5 = FractionalSpec(Kind.CAPUTO, 0.5), FractionalSpec(Kind.CAPUTO, 1.5)
    worst3 = max(divergence_residual(catalog_vector(f"Table3_v{i}", spec3, diffu), u).linf
                 for i in range(1, 5))
    worst5 = max(divergence_residual(catalog_vector(f"Table5_v{i}", spec5, diffu,
                                                    initial_velocity=0.0), u).linf
                 for i in range(1, 7))
    ratios = []
    for table, spec, ids in (("Table3", spec3, range(1, 5)), ("Table5", spec5, range(1, 7))):
        def make_u(n, spec=spec):
            return exact_linear_separable(spec, 1.0, TimeGrid(1.0, n), SpaceGrid(0.0, math.pi, n))
        for i in ids:
            ratios += _decay_ratios(f"{table}_v{i}", spec, Diffusivity.constant(1.0), make_u,
                                    grids=(32, 64, 128), initial_velocity=0.0)
    ok = worst3 <= 1e-6 and worst5 <= 1e-5 and min(ratios) >= 1.4
    return CriterionResult(8, "Tables 3 and 5 conservation", ok,
                           f"stationary: Table3 max {worst3:.2e} (<=1e-6), Table5 max {worst5:.2e} "
                           f"(<=1e-5); moving field: min ratio {min(ratios):.2f} (>=1.4)")


def criterion_9() -> CriterionResult:
    """Trivial vector on the pure t^{alpha-1} mode."""
    alpha = 0.5
    spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha)
    tg = TimeGrid(1.0, 128)
    x = SpaceGrid(0.0, 1.0, 32)
    c = 0.7
    u = exact_rl_power_mode(alpha, c, tg, x)
    cv = catalog_vector("Trivial_RL", spec, Diffusivity.constant(1.0))
    ct, _ = cv.components(u)
    t = tg.nodes()
    dev = float(np.max(np.abs(ct[t >= 0.1] - c * gamma(alpha))))
    div = divergence_residual(cv, u).linf
    ok = dev <= 1e-8 and div <= 1e-8
    return CriterionResult(9, "RL power mode", ok,
                           f"C^t deviation from c*Gamma(a) {dev:.2e}, divergence {div:.2e} (<=1e-8)")


def criterion_10() -> CriterionResult:
    """Conservation order on nonlinear RL solver output, k = u^2."""
    spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5)
    diffu = Diffusivity.power(2.0)
    a, b = 0.5, 1.0

    linfs = {pid: [] for pid in ("NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2")}
    for n in (128, 256):
        x = SpaceGrid(0.0, 1.0, n)
        c1 = diffu.K_inv(a * x.nodes() + b) * (1.0 + 0.1 * np.sin(np.pi * x.nodes()))
        u = solve_nonlinear(spec, diffu, TimeGrid(1.0, n), x, c1)
        for pid in linfs:
            cv = catalog_vector(pid, spec, diffu)
            linfs[pid].append(divergence_residual(cv, u).linf)
    orders = {pid: math.log2(v[0] / v[1]) for pid, v in linfs.items()}
    ok = all(o >= 1.0 for o in orders.values())
    detail = ", ".join(f"{pid} order {o:.2f}" for pid, o in orders.items())
    return CriterionResult(10, "nonlinear RL solver", ok, detail + " (>=1.0)")


def criterion_11() -> CriterionResult:
    """Adjudication of the two readings of the sixth wave-regime table entry."""
    spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 1.5)
    diffu = Diffusivity.constant(1.0)

    def make_u(n):
        return exact_linear_separable(spec, 1.0, TimeGrid(1.0, n), SpaceGrid(0.0, math.pi, n // 2))

    ratios = {pid: _decay_ratios(pid, spec, diffu, make_u, grids=(64, 128, 256))
              for pid in ("Table1_v6", "Table1_v6_alt")}
    conv = {pid: all(r >= 1.4 for r in rs) for pid, rs in ratios.items()}
    ok = conv["Table1_v6"] != conv["Table1_v6_alt"]
    winner = "Table1_v6_alt" if conv["Table1_v6_alt"] else "Table1_v6"
    detail = (f"convergent form: {winner}; ratios as-printed "
              f"{ratios['Table1_v6'][0]:.2f}/{ratios['Table1_v6'][1]:.2f}, corrected "
              f"{ratios['Table1_v6_alt'][0]:.2f}/{ratios['Table1_v6_alt'][1]:.2f}")
    return CriterionResult(11, "table typo adjudication", ok, detail)


def criterion_12() -> CriterionResult:
    """Correspondence-table sweep over all reachable entries."""
    failures: list[str] = []
    checked = 0

    def check_decay(pid, spec, diffu, make_u):
        nonlocal checked
        checked += 1
        if pid == "Table1_v6":
            # the printed sixth entry is the typo'd form; use the corrected
            # reading established by the adjudication criterion
            pid = "Table1_v6_alt"
        cv = catalog_vector(pid, spec, diffu, initial_velocity=0.0)
        linfs = [divergence_residual(cv, make_u(n)).linf for n in (64, 128)]
        # decay by >= 1.4 per halving, or already at the numerical floor
        if not (linfs[1] <= 1e-10 or linfs[0] / linfs[1] >= 1.4):
            failures.append(f"{pid} ratio {linfs[0] / max(linfs[1], 1e-300):.2f}")

    def check_zero(sym_id, regime, spec, diffu, make_u, const):
        # zero-marked entries: the Noether construction must produce a vector
        # whose divergence vanishes identically on solutions, so the measured
        # divergence is pure discretization noise: it must decay under
        # refinement exactly like the nonzero entries
        nonlocal checked
        checked += 1
        sub = AdjointSubstitution(regime, spec, **{const: 1.0})
        cv = catalog_vector(f"Noether:{sym_id}", spec, diffu, substitution=sub)
        linfs = [divergence_residual(cv, make_u(n)).linf for n in (64, 128)]
        ok_here = linfs[1] <= 1e-8 or (linfs[0] / linfs[1] >= 1.4 and linfs[1] <= 1e-3)
        if not ok_here:
            failures.append(f"{sym_id}/{const} {regime} zero-entry linf {linfs[1]:.2e} "
                            f"ratio {linfs[0] / max(linfs[1], 1e-300):.2f}")

    def field(exact, diffu, *args):
        """make_u of an exact solution on an n x n/2 grid of [0, 1]^2."""
        return lambda n: exact(diffu, *args, TimeGrid(1.0, n), SpaceGrid(0.0, 1.0, n // 2))

    # (spec, diffusivity, make_u, symmetry ids): the RL wave regime on
    # separable exact solutions, the Caputo regimes on stationary ones
    rl_wave = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 1.5)
    cases = []
    for beta, (a, b), sym_ids in ((2.0, (0.5, 1.0), ("X1", "X2", "X3_pow")),
                                  (-4.0 / 3.0, (-0.1, -1.0), ("X4_pow43",)),
                                  (rl_extra_beta(1.5), (-0.1, -1.0), ("X4_rl",))):
        diffu = Diffusivity.power(beta)
        cases.append((rl_wave, diffu, field(exact_rl_separable, diffu, 1.5, a, b), sym_ids))
    for alpha in (0.5, 1.5):
        spec = FractionalSpec(Kind.CAPUTO, alpha)
        stationary = [(Diffusivity.power(2.0), 0.5, 1.0, ("X1", "X2", "X3_pow")),
                      (Diffusivity.exponential(), 0.5, 1.0, ("X3_exp",)),
                      (Diffusivity.power(-4.0 / 3.0), -0.1, -1.0, ("X4_pow43",))]
        if spec.n == 2:
            stationary.append((Diffusivity.power(rl_extra_beta(alpha)), -0.1, -1.0, ("X4_rl",)))
        cases += [(spec, diffu, field(exact_stationary_caputo, diffu, a, b), sym_ids)
                  for diffu, a, b, sym_ids in stationary]

    for spec, diffu, make_u, sym_ids in cases:
        # one field per grid for all of the case's entries, which then share
        # its memoized quantities; the fields go when the case ends
        make_u = lru_cache(maxsize=None)(make_u)
        regime = regime_of(spec)
        seen = set()
        for sym_id in sym_ids:
            for const in regime_constants(regime):
                for pid in correspondence(sym_id, const, regime):
                    if pid == "Zero":
                        check_zero(sym_id, regime, spec, diffu, make_u, const)
                    elif pid not in seen:
                        seen.add(pid)
                        check_decay(pid, spec, diffu, make_u)
    ok = not failures
    detail = f"{checked} entries checked" + ("" if ok else "; failures: " + "; ".join(failures))
    return CriterionResult(12, "correspondence sweep", ok, detail)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the criteria numbered in ``numbers`` (all when None), in order.

    A number without a criterion raises ValueError before any criterion runs.
    """
    unknown = sorted(set(numbers or ()) - set(range(1, len(CRITERIA) + 1)))
    if unknown:
        raise ValueError(f"unknown selftest criteria {', '.join(map(str, unknown))}: "
                         f"the criteria are numbered 1 to {len(CRITERIA)}")
    return [fn() for num, fn in enumerate(CRITERIA, 1) if numbers is None or num in numbers]
