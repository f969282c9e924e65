from fractions import Fraction

import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import operators as ops
from wadg import refelem as rf
from wadg import solver as sv
from wadg.refelem import ElementShape
from wadg.solver import FieldState, FluxParams, Formulation, MassMode, SolverConfig

from conftest import fit_slope

QUAD = ElementShape.Quadrilateral


def random_state(disc, rng, scale=1.0):
    K, Np = disc.mesh.K, disc.ref.Np
    return FieldState(*(scale * rng.standard_normal((K, Np)) for _ in range(3)))


def energy_rate(state, disc):
    """d/dt of the quadratic energy, from the premultiplied RHS."""
    pre = sv.rhs_pre_mass(state, disc)
    Mh = disc.ref.Mhat
    return (np.einsum("ki,ij,kj->", state.p, Mh, pre.p)
            + np.einsum("ki,ij,kj->", state.u1, Mh, pre.u1)
            + np.einsum("ki,ij,kj->", state.u2, Mh, pre.u2))


@pytest.fixture
def curved_mesh():
    return mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3)


class TestRHS:
    def test_constant_state_interior_zero(self):
        m = mg.uniform_quad_mesh(4)
        cfg = SolverConfig(N=2)
        disc = sv.Discretization(m, cfg)
        K, Np = m.K, disc.ref.Np
        st = FieldState(np.full((K, Np), 3.14), np.zeros((K, Np)), np.zeros((K, Np)))
        d = sv.rhs_pre_mass(st, disc)
        interior = ~m.boundary_tags.any(axis=1)
        assert interior.sum() == 4
        for arr in (d.p, d.u1, d.u2):
            assert np.max(np.abs(arr[interior])) < 1e-12

    def test_formulation_equivalence_sufficient_quadrature(self, curved_mesh, rng):
        N = 3
        vdeg, fdeg = sv.sufficient_quadrature_degrees(N, curved_mesh.N_geo, QUAD)
        dS = sv.Discretization(curved_mesh, SolverConfig(N=N, formulation=Formulation.Strong))
        dW = sv.Discretization(curved_mesh, SolverConfig(
            N=N, formulation=Formulation.StrongWeak,
            volume_quad_degree=vdeg, face_quad_degree=fdeg))
        for _ in range(5):
            st = random_state(dS, rng)
            a = sv.rhs_pre_mass(st, dS)
            b = sv.rhs_pre_mass(st, dW)
            for x, y in ((a.p, b.p), (a.u1, b.u1), (a.u2, b.u2)):
                assert np.max(np.abs(x - y)) < 1e-9

    def test_single_curved_element_energy_rate_zero(self, rng):
        # tau = 0: volume terms cancel and the mirror boundary does no work
        nodes = rf.interpolation_nodes(QUAD, 2)
        fx = lambda r, s: r + 0.1 * r**2 * s
        fy = lambda r, s: s - 0.08 * r * s**2
        emn = np.stack([fx(nodes[:, 0], nodes[:, 1]),
                        fy(nodes[:, 0], nodes[:, 1])], axis=1)[None]
        m = mg.CurvedMesh2D(shape=QUAD, N_geo=2, elem_map_nodes=emn,
                            face_connectivity=np.full((1, 4, 2), -1, dtype=np.int64),
                            boundary_tags=np.ones((1, 4), dtype=np.int64),
                            h=2.0, provenance={})
        disc = sv.Discretization(m, SolverConfig(N=3, flux=FluxParams(0, 0)))
        st = random_state(disc, rng)
        assert abs(energy_rate(st, disc)) < 1e-10

    def test_energy_rate_equals_face_jump_dissipation(self, curved_mesh, rng):
        # tau >= 0: dE/dt = -1/2 sum_f int tau_p [p]^2 + tau_u ([u].n)^2
        tau_p, tau_u = 0.7, 1.3
        cfg = SolverConfig(N=3, formulation=Formulation.StrongWeak,
                           flux=FluxParams(tau_p, tau_u))
        disc = sv.Discretization(curved_mesh, cfg)
        st = random_state(disc, rng)
        dE = energy_rate(st, disc)

        geo_ = disc.geo
        pM, pP = disc.face_traces(st.p)
        u1M, u1P = disc.face_traces(st.u1)
        u2M, u2P = disc.face_traces(st.u2)
        bc = disc.bc_mask
        pP = np.where(bc, -pM, pP)
        u1P = np.where(bc, u1M, u1P)
        u2P = np.where(bc, u2M, u2P)
        dp = pP - pM
        dun = (u1P - u1M) * geo_.nxq + (u2P - u2M) * geo_.nyq
        # interior faces visited from both sides at -1/2 per unique face;
        # mirror boundary faces appear once and carry -1/4 [p]^2 directly
        quad = np.sum(disc.ref.wfq[None, :] * geo_.Jfq
                      * (tau_p * dp**2 + tau_u * dun**2))
        oracle = -0.25 * quad
        assert dE == pytest.approx(oracle, rel=1e-10)
        assert dE < 0

    def test_insufficient_quadrature_rejected(self, curved_mesh):
        with pytest.raises(sv.ConfigError):
            sv.Discretization(curved_mesh, SolverConfig(
                N=3, formulation=Formulation.Strong, volume_quad_degree=7))
        # override flag allows it
        sv.Discretization(curved_mesh, SolverConfig(
            N=3, formulation=Formulation.Strong, volume_quad_degree=7,
            face_quad_degree=7, unsafe_quadrature=True))


class TestMassInverse:
    def test_modes_agree_affine_unit_speed(self, rng):
        m = mg.uniform_quad_mesh(3)
        dW = sv.Discretization(m, SolverConfig(N=3, mass_mode=MassMode.WADG))
        dE = sv.Discretization(m, SolverConfig(N=3, mass_mode=MassMode.ExactCurvedMass))
        st = random_state(dW, rng)
        a = sv.rhs_full(st, dW)
        b = sv.rhs_full(st, dE)
        for x, y in ((a.p, b.p), (a.u1, b.u1), (a.u2, b.u2)):
            assert np.max(np.abs(x - y)) < 1e-10 * max(1, np.max(np.abs(y)))

    def test_wadg_mode_stores_no_dense_matrices(self, curved_mesh):
        disc = sv.Discretization(curved_mesh, SolverConfig(N=3))
        assert disc.mass_inv_p is None and disc.mass_inv_u is None
        # per-element update data is pointwise weights only
        assert disc.w_upd_p.shape == (curved_mesh.K, disc.ref_upd.Nq)
        assert disc.w_upd_u.shape == (curved_mesh.K, disc.ref_upd.Nq)

    def test_heterogeneous_wavespeed_pointwise(self, curved_mesh):
        c2 = lambda x, y: 1.0 + 0.5 * np.sin(np.pi * np.hypot(x, y))
        med = sv.MediumField(c2)
        disc = sv.Discretization(curved_mesh, SolverConfig(N=2), med)
        geo_upd = geom.compute_geometric_data(curved_mesh, disc.ref_upd)
        expect = c2(geo_upd.xq, geo_upd.yq) / geo_upd.Jq
        assert np.max(np.abs(disc.w_upd_p - expect)) < 1e-14

    def test_wadg_vs_exact_disk_error_ratio(self):
        m = mg.disk_mesh(1, 3)
        errs = {}
        for mode in (MassMode.WADG, MassMode.ExactCurvedMass):
            cfg = SolverConfig(N=3, mass_mode=mode, cfl=1.0)
            _, diag = sv.run(m, cfg, sv.bessel_initial_condition, 1.0,
                             exact_p=sv.bessel_pressure, n_outputs=1)
            errs[mode] = diag["l2_error_p"][-1]
        ratio = errs[MassMode.WADG] / errs[MassMode.ExactCurvedMass]
        assert 0.99 <= ratio <= 1.01


class TestLSRK:
    def test_amplification_matches_exact_recurrence(self):
        """Scalar y' = lam y: one step must reproduce the degree-5
        amplification polynomial of the coefficient set, computed in exact
        rational arithmetic."""
        A = [Fraction(0), Fraction(-567301805773, 1357537059087),
             Fraction(-2404267990393, 2016746695238),
             Fraction(-3550918686646, 2091501179385),
             Fraction(-1275806237668, 842570457699)]
        B = [Fraction(1432997174477, 9575080441755),
             Fraction(5161836677717, 13612068292357),
             Fraction(1720146321549, 2090206949498),
             Fraction(3134564353537, 4481467310338),
             Fraction(2277821191437, 14882151754819)]
        yp, rp = [Fraction(1)], [Fraction(0)]

        def add(p, q):
            n = max(len(p), len(q))
            return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                    for i in range(n)]

        for a, b in zip(A, B):
            rp = add([a * c for c in rp], [Fraction(0)] + yp)  # r <- a r + z y
            yp = add(yp, [b * c for c in rp])
        R = [float(c) for c in yp]
        # fourth-order: agrees with exp through z^4
        assert R[:5] == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 24], abs=1e-15)

        lam, dt = -0.37, 0.21
        st = FieldState(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
        out = sv.lsrk_step(st, dt, lambda s: FieldState(lam * s.p, 0 * s.u1, 0 * s.u2))
        expect = sum(c * (lam * dt) ** k for k, c in enumerate(R))
        assert out.p[0, 0] == pytest.approx(expect, abs=1e-14)

    def test_zero_rhs_unchanged(self, rng):
        st = FieldState(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)),
                        rng.standard_normal((2, 3)))
        out = sv.lsrk_step(st, 0.5, lambda s: FieldState(0 * s.p, 0 * s.u1, 0 * s.u2))
        assert np.array_equal(out.p, st.p)
        assert out.t == pytest.approx(st.t + 0.5)

    def test_fourth_order_on_rotation(self):
        # (p, u1) rotate with angular velocity w; measure Richardson order
        w = 1.7

        def rhs(s):
            return FieldState(w * s.u1, -w * s.p, 0 * s.u2)

        def advance(dt, T=1.0):
            st = FieldState(np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
            n = int(round(T / dt))
            for _ in range(n):
                st = sv.lsrk_step(st, dt, rhs)
            return st

        errs, dts = [], []
        for n in (20, 40, 80):
            dt = 1.0 / n
            st = advance(dt)
            err = np.hypot(st.p[0, 0] - np.cos(w), st.u1[0, 0] + np.sin(w))
            errs.append(err)
            dts.append(dt)
        assert fit_slope(dts, errs, window=3) == pytest.approx(4.0, abs=0.1)


class TestStableDt:
    def test_formula_self_consistency(self):
        # N=1 uniform unit-speed mesh, h = 0.5: per element area h^2,
        # perimeter 4h -> h_min = h/2; dt = cfl * (h/2) / (N+1)^2
        m = mg.uniform_quad_mesh(4, domain=((0, 2), (0, 2)))
        dt = sv.stable_dt(sv.Discretization(m, SolverConfig(N=1, cfl=1.0)))
        assert dt == pytest.approx(0.25 / 4, rel=1e-12)

    def test_doubling_wavespeed_halves_dt(self):
        m = mg.disk_mesh(1, 2)
        cfg = SolverConfig(N=2, cfl=0.5)
        dt1 = sv.stable_dt(sv.Discretization(m, cfg, sv.MediumField(1.0)))
        dt2 = sv.stable_dt(sv.Discretization(m, cfg, sv.MediumField(4.0)))
        assert dt2 == pytest.approx(dt1 / 2, rel=1e-12)

    def test_invalid_cfl(self):
        m = mg.uniform_quad_mesh(2)
        disc = sv.Discretization(m, SolverConfig(N=1, cfl=0.0))
        with pytest.raises(sv.ConfigError):
            sv.stable_dt(disc)


class TestRun:
    def test_zero_initial_data(self):
        m = mg.disk_mesh(0, 2)
        zero = lambda x, y: (np.zeros_like(x),) * 3
        state, diag = sv.run(m, SolverConfig(N=2), zero, 0.3)
        assert np.max(np.abs(state.p)) == 0.0
        assert state.t == pytest.approx(0.3)

    def test_standing_mode_convergence(self):
        # four-plane-wave standing mode satisfying the wall condition
        N = 2
        om = np.pi * np.sqrt(2.0)

        def p_ex(x, y, t):
            return np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(om * t)

        def init(x, y):
            z = np.zeros_like(x)
            return p_ex(x, y, 0.0), z, z

        hs, errs = [], []
        for K1D in (4, 8, 16):
            m = mg.uniform_quad_mesh(K1D)
            _, diag = sv.run(m, SolverConfig(N=N, cfl=0.5), init, 0.5,
                             exact_p=p_ex, n_outputs=1)
            hs.append(m.h)
            errs.append(diag["l2_error_p"][-1])
        slope = fit_slope(hs, errs)
        assert N + 0.5 <= slope <= N + 1.5

    def test_energy_conservation_tau0(self):
        m = mg.disk_mesh(1, 3)
        cfg = SolverConfig(N=3, formulation=Formulation.StrongWeak,
                           flux=FluxParams(0, 0), mass_mode=MassMode.WADG, cfl=0.25)
        _, diag = sv.run(m, cfg, sv.bessel_initial_condition, 1.0, n_outputs=5)
        E = diag["energy"]
        assert np.max(np.abs(E - E[0])) / E[0] < 1e-8

    def test_blowup_detected(self):
        m = mg.disk_mesh(0, 2)
        cfg = SolverConfig(N=2)
        with pytest.raises(sv.BlowUp):
            sv.run(m, cfg, sv.bessel_initial_condition, 4.0, dt=0.5, n_outputs=2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_caught_within_ten_steps(self, monkeypatch):
        # one output interval: before, the blow-up surfaced only at T
        finite = []
        step = sv.lsrk_step

        def counted(state, dt, rhs_fn):
            out = step(state, dt, rhs_fn)
            finite.append(bool(np.isfinite(out.p).all()))
            return out

        monkeypatch.setattr(sv, "lsrk_step", counted)
        m = mg.disk_mesh(0, 2)
        with pytest.raises(sv.BlowUp, match="non-finite"):
            sv.run(m, SolverConfig(N=2), sv.bessel_initial_condition, 2000.0,
                   dt=0.5, n_outputs=1)
        first_bad = finite.index(False)
        assert len(finite) <= first_bad + sv.FINITE_CHECK_STEPS < 4000

    @pytest.mark.parametrize("T, dt, n_outputs, steps", [
        (1.0, 0.03, 4, 36),     # 0.25 / 0.03 = 8.3: 8 steps of dt and a short one
        (1.0, 0.125, 2, 8),     # exact multiple: no extra sliver step
    ])
    def test_integer_step_counts(self, monkeypatch, T, dt, n_outputs, steps):
        calls = []
        step = sv.lsrk_step

        def counted(state, dt_step, rhs_fn):
            calls.append((state.t, dt_step))
            return step(state, dt_step, rhs_fn)

        monkeypatch.setattr(sv, "lsrk_step", counted)
        zero = lambda x, y: (np.zeros_like(x),) * 3
        state, diag = sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1), zero, T,
                             dt=dt, n_outputs=n_outputs)
        assert len(calls) == steps
        assert state.t == T
        assert list(diag["t"]) == list(np.linspace(0.0, T, n_outputs + 1))
        per = steps // n_outputs
        for j, t_out in enumerate(diag["t"][:-1]):
            block = calls[j * per:(j + 1) * per]
            # times are t_start + i dt, not running sums of step sizes
            assert [t for t, _ in block] == [t_out + i * dt for i in range(per)]
            assert all(d == dt for _, d in block[:-1])
            assert block[-1][1] == diag["t"][j + 1] - block[-1][0]

    def test_zero_length_run_takes_no_steps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sv, "lsrk_step", lambda *a: calls.append(a))
        state, diag = sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                             sv.bessel_initial_condition, 0.0)
        assert calls == [] and state.t == 0.0 and len(diag["t"]) == 11

    def test_lands_exactly_on_T(self):
        m = mg.disk_mesh(0, 2)
        state, diag = sv.run(m, SolverConfig(N=2), sv.bessel_initial_condition,
                             0.777, n_outputs=3)
        assert state.t == pytest.approx(0.777, abs=1e-14)
        assert diag["t"][-1] == pytest.approx(0.777)


class TestExactSolution:
    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        assert abs(float(mpmath.besselj(0, sv.DISK_LAMBDA))) < 1e-15
        r = np.linspace(0.0, 1.0, 101)
        t = 0.3
        p = sv.bessel_pressure(r, np.zeros_like(r), t)
        u1, u2 = sv.bessel_velocity(r, np.zeros_like(r), t)
        lam = sv.DISK_LAMBDA
        for i, ri in enumerate(r):
            j0 = float(mpmath.besselj(0, lam * ri))
            j1 = float(mpmath.besselj(1, lam * ri))
            assert abs(p[i] - j0 * np.cos(lam * t)) <= 1e-12
            assert abs(u1[i] - j1 * np.sin(lam * t)) <= 1e-12
        assert np.all(u2 == 0.0)

    def test_pressure_vanishes_on_boundary(self):
        th = np.linspace(0, 2 * np.pi, 50)
        p = sv.bessel_pressure(np.cos(th), np.sin(th), 0.37)
        assert np.max(np.abs(p)) < 1e-10

    def test_satisfies_wave_system(self):
        # finite-difference residual of p_t + div u and u_t + grad p
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.6, 0.6, (40, 2))
        x, y = pts[:, 0], pts[:, 1]
        t, h = 0.4, 1e-5

        def div_u(t_):
            u1p, _ = sv.bessel_velocity(x + h, y, t_)
            u1m, _ = sv.bessel_velocity(x - h, y, t_)
            _, u2p = sv.bessel_velocity(x, y + h, t_)
            _, u2m = sv.bessel_velocity(x, y - h, t_)
            return (u1p - u1m + u2p - u2m) / (2 * h)

        p_t = (sv.bessel_pressure(x, y, t + h) - sv.bessel_pressure(x, y, t - h)) / (2 * h)
        assert np.max(np.abs(p_t + div_u(t))) < 1e-5

        u1p, u2p = sv.bessel_velocity(x, y, t + h)
        u1m, u2m = sv.bessel_velocity(x, y, t - h)
        px = (sv.bessel_pressure(x + h, y, t) - sv.bessel_pressure(x - h, y, t)) / (2 * h)
        py = (sv.bessel_pressure(x, y + h, t) - sv.bessel_pressure(x, y - h, t)) / (2 * h)
        assert np.max(np.abs((u1p - u1m) / (2 * h) + px)) < 1e-5
        assert np.max(np.abs((u2p - u2m) / (2 * h) + py)) < 1e-5


class TestValidation:
    def test_negative_penalty_rejected(self):
        with pytest.raises(sv.ConfigError):
            FluxParams(-0.1, 0.0)

    def test_nonpositive_wavespeed_rejected(self):
        m = mg.uniform_quad_mesh(2)
        with pytest.raises(sv.ConfigError):
            sv.Discretization(m, SolverConfig(N=2), sv.MediumField(-1.0))
