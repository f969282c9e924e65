from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from wadg import analysis as an
from wadg import cli
from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import operators as ops
from wadg import refelem as rf
from wadg import solver as sv
from wadg.solver import FluxParams, Formulation, MassMode, SolverConfig

from conftest import fit_slope, pairwise_slopes


FORMS = ["strong", "strong-weak"]


def random_state(disc, rng, scale=1.0):
    return scale * rng.standard_normal((3, disc.mesh.K, disc.ref.Np))


def heuristic_dt(disc, cfl):
    """Step of the earlier rule cfl * min_k h_k / (c_k (N+1)^2), which tests
    pass as dt= where their tolerance was set at that step size."""
    h = 2.0 * geom.element_areas(disc.geo) / geom.element_perimeters(disc.geo)
    return float(cfl * np.min(h / (disc.c_max * (disc.config.N + 1) ** 2)))


def energy_rate(q, disc):
    """d/dt of the weight-adjusted energy, from the premultiplied RHS."""
    pre = sv.rhs_pre_mass(q, disc)
    Mh = disc.ref.Mhat
    return sum(np.einsum("ki,ij,kj->", q[f], Mh, pre[f]) for f in range(3))


def wadg_energy(q, disc):
    """1/2 sum_f (Mhat q_f)^T M_w^-1 (Mhat q_f), M_w the mass matrix weighted
    by c^2/J (pressure) or 1/J (velocity) on the update rule: the norm in
    which the weight-adjusted scheme conserves energy exactly at tau = 0."""
    total = 0.0
    for qf, w in zip(q, (disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
        Mw = ops.weighted_mass_matrix(disc.ref_upd, w)
        z = qf @ disc.ref.Mhat
        total += 0.5 * np.sum(z * np.linalg.solve(Mw, z[..., None])[..., 0])
    return total


@pytest.fixture
def curved_mesh():
    return mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3)


@pytest.fixture(scope="module")
def disk_family_n3():
    """Disk meshes of levels 0..3 at N_geo = 3."""
    return [mg.disk_mesh(level, 3) for level in range(4)]


@lru_cache(maxsize=None)
def disk1_wadg(N, N_geo):
    """WADG Discretization of the strong form on the curved disk1 mesh with
    the radial_sine medium, shared by the parameter cases that read it."""
    return sv.Discretization(mg.disk_mesh(1, N_geo), SolverConfig(N=N),
                             cli.MEDIA["radial_sine"]())


class TestRHS:
    def test_constant_state_interior_zero(self):
        m = mg.uniform_quad_mesh(4)
        cfg = SolverConfig(N=2)
        disc = sv.Discretization(m, cfg)
        K, Np = m.K, disc.ref.Np
        st = np.zeros((3, K, Np))
        st[0] = 3.14
        d = sv.rhs_pre_mass(st, disc)
        interior = ~m.boundary_tags.any(axis=1)
        assert interior.sum() == 4
        for arr in d:
            assert np.max(np.abs(arr[interior])) < 1e-12

    def test_formulation_equivalence_sufficient_quadrature(self, rng):
        # at N_geo = 2 both forms get the 2N+1 rule, on which discrete
        # integration by parts is exact
        for m in (mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 2), mg.disk_mesh(1, 2)):
            for N in (1, 2, 3, 4):
                dS = sv.Discretization(m, SolverConfig(N=N, formulation=Formulation.Strong))
                dW = sv.Discretization(m, SolverConfig(N=N, formulation=Formulation.StrongWeak))
                for _ in range(5):
                    st = random_state(dS, rng)
                    a = sv.rhs_pre_mass(st, dS).copy()
                    b = sv.rhs_pre_mass(st, dW)
                    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    def test_single_curved_element_energy_rate_zero(self, rng):
        # tau = 0: volume terms cancel and the mirror boundary does no work
        nodes = rf.interpolation_nodes(2)
        fx = lambda r, s: r + 0.1 * r**2 * s
        fy = lambda r, s: s - 0.08 * r * s**2
        emn = np.stack([fx(nodes[:, 0], nodes[:, 1]),
                        fy(nodes[:, 0], nodes[:, 1])], axis=1)[None]
        m = mg.CurvedMesh2D(N_geo=2, elem_map_nodes=emn,
                            face_connectivity=np.full((1, 4, 2), -1, dtype=np.int64),
                            boundary_tags=np.ones((1, 4), dtype=np.int64),
                            h=2.0, provenance={})
        disc = sv.Discretization(m, SolverConfig(N=3, flux=FluxParams(0, 0)))
        st = random_state(disc, rng)
        assert abs(energy_rate(st, disc)) < 1e-10

    @pytest.mark.parametrize("form", FORMS)
    def test_energy_rate_equals_face_jump_dissipation(self, curved_mesh, rng, form):
        # tau >= 0: dE/dt = -1/2 sum_f int tau_p [p]^2 + tau_u ([u].n)^2
        tau_p, tau_u = 0.7, 1.3
        cfg = SolverConfig(N=3, formulation=Formulation(form),
                           flux=FluxParams(tau_p, tau_u))
        disc = sv.Discretization(curved_mesh, cfg)
        st = random_state(disc, rng)
        dE = energy_rate(st, disc)

        geo_ = disc.geo
        (pM, u1M, u2M), (pP, u1P, u2P) = disc.face_traces(st)
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



class TestQuadratureChoice:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    def test_rules_follow_the_formulation(self, N, N_geo, form, mode):
        disc = sv.Discretization(mg.disk_mesh(0, N_geo), SolverConfig(
            N=N, formulation=Formulation(form), mass_mode=MassMode(mode)))
        # strong: exact discrete integration by parts; strong-weak: 2N+1
        deg = 2 * N + N_geo - 1 if form == "strong" else 2 * N + 1
        odd = deg | 1   # Gauss rules are exact to odd degrees
        assert disc.ref.volume_quad.exactness_degree == odd
        assert disc.ref.face_quad_1d.exactness_degree == odd
        need = 2 * N + 1 if mode == "wadg" else 2 * N + 2 * N_geo
        assert disc.ref_upd.volume_quad.exactness_degree >= need

    @pytest.mark.parametrize("N, form, mode, degrees", [
        (6, "strong", "wadg", (17, 17, 13)),
        (2, "strong", "wadg", (5, 5, 5)),
        (4, "strong-weak", "exact", (9, 9, 17)),
    ], ids=["disk3-N6-strong-wadg", "disk5-N2-strong-wadg", "disk3-N4-sw-exact"])
    def test_benchmark_workload_rules(self, N, form, mode, degrees):
        # degrees depend on (N, N_geo, form, mode) only, so level 0 will do
        disc = sv.Discretization(mg.disk_mesh(0, N), SolverConfig(
            N=N, formulation=Formulation(form), mass_mode=MassMode(mode)))
        assert (disc.ref.volume_quad.exactness_degree,
                disc.ref.face_quad_1d.exactness_degree,
                disc.ref_upd.volume_quad.exactness_degree) == degrees


class TestMassInverse:
    def test_modes_agree_affine_unit_speed(self, rng):
        m = mg.uniform_quad_mesh(3)
        dW = sv.Discretization(m, SolverConfig(N=3, mass_mode=MassMode.WADG))
        dE = sv.Discretization(m, SolverConfig(N=3, mass_mode=MassMode.ExactCurvedMass))
        st = random_state(dW, rng)
        a = sv.rhs_full(st, dW)
        b = sv.rhs_full(st, dE)
        for x, y in zip(a, b):
            assert np.max(np.abs(x - y)) < 1e-10 * max(1, np.max(np.abs(y)))

    def test_wadg_mode_stores_no_dense_matrices(self, curved_mesh):
        disc = sv.Discretization(curved_mesh, SolverConfig(N=3))
        assert disc.mass_inv_p is None and disc.mass_inv_u is None
        # per-element update data is pointwise weights only
        assert disc.w_upd_p.shape == (curved_mesh.K, disc.ref_upd.Nq)
        assert disc.w_upd_u.shape == (curved_mesh.K, disc.ref_upd.Nq)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    def test_wadg_mass_rule_is_the_solution_nodes(self, N, N_geo):
        ref = disk1_wadg(N, N_geo).ref_upd
        assert np.array_equal(ref.volume_quad.points, disk1_wadg(N, N_geo).ref.nodes)
        assert np.max(np.abs(ref.Vq - np.eye(ref.Np))) <= 1e-13
        assert np.max(np.abs(ref.Pq - np.eye(ref.Np))) <= 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    def test_pointwise_scale_is_the_weight_adjusted_inverse(self, N, N_geo, rng):
        disc = disk1_wadg(N, N_geo)
        z = random_state(disc, rng)
        got = sv.apply_mass_inverse(z, disc)
        for f, w in enumerate((disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
            Mz = z[f] @ disc.ref_upd.Mhat.T
            expect = ops.apply_weight_adjusted_inverse(disc.ref_upd, w, Mz)
            assert np.max(np.abs(got[f] - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    @pytest.mark.parametrize("form", FORMS)
    def test_energy_is_the_mass_norm(self, curved_mesh, rng, form, mode):
        medium = cli.MEDIA["radial_sine"]()
        disc = sv.Discretization(curved_mesh, SolverConfig(
            N=3, formulation=Formulation(form), mass_mode=MassMode(mode)), medium)
        q = random_state(disc, rng)
        if mode == "wadg":
            expect = wadg_energy(q, disc)
        else:
            ref, g = disc.rule(disc.mass_deg)
            c2 = medium.values(g.xq, g.yq)
            expect = sum(0.5 * np.einsum("ki,kij,kj->", qf,
                                         ops.weighted_mass_matrix(ref, w), qf)
                         for qf, w in zip(q, (g.Jq / c2, g.Jq, g.Jq)))
        assert sv.energy(q, disc) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    def test_step_buffers_hold_four_field_arrays(self, curved_mesh, mode):
        disc = sv.Discretization(curved_mesh, SolverConfig(N=3, mass_mode=MassMode(mode)))
        shape = (3, curved_mesh.K, disc.ref.Np)
        fields = {name for name, a in vars(disc.buffers).items()
                  if isinstance(a, np.ndarray) and a.shape == shape}
        assert fields == {"scratch", "rhs_pre", "y", "res"}

    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    def test_wadg_run_forms_no_dense_element_matrix(self, monkeypatch, mode):
        # weighted_mass_matrix raises, and so does every linalg routine given
        # a stack of per-element matrices; the reference element's own
        # single-matrix solves stay allowed.  Exact mode must trip the guard.
        class DenseElementMatrix(Exception):
            pass

        def forbid(*args, **kwargs):
            raise DenseElementMatrix

        def unbatched(fn):
            def guarded(a, *args, **kwargs):
                if np.ndim(a) >= 3:
                    raise DenseElementMatrix
                return fn(a, *args, **kwargs)
            return guarded

        monkeypatch.setattr(ops, "weighted_mass_matrix", forbid)
        for name in ("solve", "inv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, unbatched(getattr(np.linalg, name)))
        cfg = SolverConfig(N=3, mass_mode=MassMode(mode))
        run = lambda: sv.run(mg.disk_mesh(2, 3), cfg, sv.bessel_initial_condition, 0.01,
                             exact_p=sv.bessel_pressure, n_outputs=1)
        if mode == "exact":
            with pytest.raises(DenseElementMatrix):
                run()
        else:
            _, diag = run()
            assert diag["l2_error_p"][-1] < 1e-3

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
            cfg = SolverConfig(N=3, mass_mode=mode)
            dt = heuristic_dt(sv.Discretization(m, cfg), cfl=1.0)
            _, diag = sv.run(m, cfg, sv.bessel_initial_condition, 1.0,
                             exact_p=sv.bessel_pressure, n_outputs=1, dt=dt)
            errs[mode] = diag["l2_error_p"][-1]
        ratio = errs[MassMode.WADG] / errs[MassMode.ExactCurvedMass]
        assert 0.99 <= ratio <= 1.01

    @staticmethod
    def _wadg_minus_exact(meshes, N, T, medium, exact_p=None):
        """Per mesh, ||p_WADG - p_exact|| at T, both modes at the WADG run's
        step, and the WADG run's diag."""
        ref = rf.build_reference_element(N, 2 * N + 4)
        diffs, diags = [], []
        for mesh in meshes:
            out, dt = [], None
            for mode in (MassMode.WADG, MassMode.ExactCurvedMass):
                out.append(sv.run(mesh, SolverConfig(N=N, mass_mode=mode),
                                  sv.bessel_initial_condition, T, medium=medium,
                                  exact_p=exact_p, n_outputs=1, dt=dt))
                dt = out[0][1]["dt"]
            (wadg, dw), (exact, de) = out
            assert de["steps"] == dw["steps"]
            geo = geom.compute_volume_geometry(mesh, ref)
            diffs.append(ops.global_l2_error(ref, geo, wadg.p - exact.p, lambda x, y: 0 * x))
            diags.append(dw)
        return diffs, diags

    def test_wadg_tracks_exact_mass_to_higher_order_on_disk(self, disk_family_n3):
        # on the disk family (bounded kappa~) the WADG error converges at
        # N + 1, and its distance to the exact-mass solution one order faster
        N = 3
        hs = [mesh.h for mesh in disk_family_n3]
        diffs, diags = self._wadg_minus_exact(disk_family_n3, N, 0.5, sv.MediumField(),
                                              exact_p=sv.bessel_pressure)
        errs = [d["l2_error_p"][-1] for d in diags]
        assert np.all(pairwise_slopes(hs, diffs) >= N + 2 - 0.3), pairwise_slopes(hs, diffs)
        assert abs(fit_slope(hs, errs) - (N + 1)) <= 0.35, fit_slope(hs, errs)

    def test_wadg_tracks_exact_mass_to_higher_order_in_heterogeneous_medium(
            self, disk_family_n3):
        # the same on the disk with c^2 = 1 + 0.5 sin(pi r^2): no exact
        # solution is needed to compare the two mass inverses
        N = 3
        hs = [mesh.h for mesh in disk_family_n3]
        diffs, _ = self._wadg_minus_exact(disk_family_n3, N, 0.5, cli.MEDIA["radial_sine"]())
        slopes = pairwise_slopes(hs, diffs)
        assert np.all(slopes[-2:] >= N + 2 - 0.3), slopes


class TestLSRK:
    def test_amplification_matches_exact_recurrence(self):
        """Scalar y' = lam y: one step must reproduce the degree-8 stability
        polynomial, its nested recurrence y <- 1 + (a_{j+1}/a_j) z y,
        j = 7..0, computed in exact rational arithmetic."""
        a = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
             Fraction(7.682414115158984e-3), Fraction(1.0421369945923574e-3),
             Fraction(9.523467634490214e-5), Fraction(3.996575874160688e-6)]
        yp = [Fraction(1)]
        for j in reversed(range(8)):
            yp = [Fraction(1)] + [a[j + 1] / a[j] * c for c in yp]   # 1 + b z y
        assert yp == a
        R = [float(c) for c in yp]
        # fourth order: agrees with exp through z^4
        assert R[:5] == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 24], abs=1e-15)
        assert R == pytest.approx(sv.STABILITY_POLYNOMIAL, rel=1e-15)

        lam, dt = -0.37, 0.21
        st = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
        out = sv.lsrk_step(st, dt, lambda q: lam * q)
        expect = sum(c * (lam * dt) ** k for k, c in enumerate(R))
        assert out[0, 0, 0] == pytest.approx(expect, abs=1e-14)

    def test_zero_rhs_unchanged(self, rng):
        st = rng.standard_normal((3, 2, 3))
        out = sv.lsrk_step(st, 0.5, np.zeros_like)
        assert np.array_equal(out, st) and out is not st

    def test_fourth_order_on_rotation(self):
        # (p, u1) rotate with angular velocity w; measure Richardson order
        w = 1.7

        def rhs(q):
            return np.stack((w * q[1], -w * q[0], 0 * q[2]))

        def advance(dt, T=1.0):
            st = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
            n = int(round(T / dt))
            for _ in range(n):
                st = sv.lsrk_step(st, dt, rhs)
            return st

        errs, dts = [], []
        for n in (20, 40, 80):
            dt = 1.0 / n
            st = advance(dt)
            err = np.hypot(st[0, 0, 0] - np.cos(w), st[1, 0, 0] + np.sin(w))
            errs.append(err)
            dts.append(dt)
        assert fit_slope(dts, errs, window=3) == pytest.approx(4.0, abs=0.1)


class TestStableDt:
    def test_formula_self_consistency(self):
        # N=1 uniform mesh, h = 0.5: per element area h^2, perimeter 4h ->
        # h_min = h/2; dt = cfl C_DT (h/2) / ((N+1)(N+2) max(c, tau_p c^2, tau_u))
        # = C_DT / (24 max(c, tau_p c^2, tau_u)) at cfl = 1
        m = mg.uniform_quad_mesh(4, domain=((0, 2), (0, 2)))
        assert sv.C_DT == 7.71
        for c2, tau_p, tau_u, rate in (
                (1.0, 1.0, 1.0, 1.0),      # all three are 1
                (4.0, 0.0, 0.0, 2.0),      # c = 2
                (1.0, 5.0, 5.0, 5.0),      # tau c^2 = tau = 5
                (4.0, 1.0, 1.0, 4.0),      # tau_p c^2 = 4
                (0.25, 1.0, 1.0, 1.0),     # tau_u = 1 > c = 0.5
                (0.25, 5.0, 5.0, 5.0),     # tau_u = 5 > tau_p c^2 = 1.25
                (0.25, 5.0, 0.0, 1.25),    # tau_p c^2 = 1.25
                (4.0, 0.0, 5.0, 5.0)):     # tau_u = 5 > c = 2
            cfg = SolverConfig(N=1, cfl=1.0, flux=FluxParams(tau_p, tau_u))
            dt = sv.stable_dt(sv.Discretization(m, cfg, sv.MediumField(c2)))
            assert dt == pytest.approx(7.71 / (24 * rate), rel=1e-12)

    def test_default_cfl_is_fraction_of_calibrated_limit(self):
        m = mg.disk_mesh(1, 2)
        disc = sv.Discretization(m, SolverConfig(N=2))
        full = sv.Discretization(m, SolverConfig(N=2, cfl=1.0))
        assert sv.stable_dt(disc) == pytest.approx(0.8 * sv.stable_dt(full), rel=1e-14)

    @staticmethod
    def _dt_ratio_doubling_c(tau):
        m = mg.disk_mesh(1, 2)
        cfg = SolverConfig(N=2, flux=FluxParams(tau, tau))
        dt1 = sv.stable_dt(sv.Discretization(m, cfg, sv.MediumField(1.0)))
        dt2 = sv.stable_dt(sv.Discretization(m, cfg, sv.MediumField(4.0)))
        return dt2 / dt1

    def test_doubling_wavespeed_halves_dt(self):
        # no penalty: dt ~ 1/c
        assert self._dt_ratio_doubling_c(0.0) == pytest.approx(0.5, rel=1e-12)

    def test_doubling_wavespeed_quarters_dt_with_penalty(self):
        # tau = 1 and c >= 1: the pressure penalty tau_p c^2 gives dt ~ 1/c^2
        assert self._dt_ratio_doubling_c(1.0) == pytest.approx(0.25, rel=1e-12)

    def test_invalid_cfl(self):
        # rejected with the config, before any set-up, also when a run
        # would be given dt=
        for cfl in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(sv.ConfigError, match="cfl"):
                SolverConfig(N=1, cfl=cfl)


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
            cfg = SolverConfig(N=N)
            _, diag = sv.run(m, cfg, init, 0.5, exact_p=p_ex, n_outputs=1,
                             dt=heuristic_dt(sv.Discretization(m, cfg), cfl=0.5))
            hs.append(m.h)
            errs.append(diag["l2_error_p"][-1])
        slope = fit_slope(hs, errs)
        assert N + 0.5 <= slope <= N + 1.5

    @pytest.mark.parametrize("form", FORMS)
    def test_energy_conservation_tau0(self, form):
        # at tau = 0 the recorded energy loses only the time step's dissipation,
        # O(1e-12) on this run, in both mass modes and media
        m = mg.disk_mesh(1, 3)
        for mode in MassMode:
            for name in ("constant", "radial_sine"):
                cfg = SolverConfig(N=3, formulation=Formulation(form),
                                   flux=FluxParams(0, 0), mass_mode=mode)
                medium = cli.MEDIA[name]()
                disc = sv.Discretization(m, cfg, medium)
                dt = heuristic_dt(disc, cfl=0.25)
                state, diag = sv.run(m, cfg, sv.bessel_initial_condition, 1.0,
                                     medium=medium, n_outputs=5, dt=dt)
                E = diag["energy"]
                case = (mode.value, name)
                assert np.all(np.diff(E) <= 1e-12 * E[0]), case
                assert np.max(np.abs(E - E[0])) / E[0] <= 1e-9, case
                if mode is MassMode.WADG:
                    # the weight-adjusted norm by dense solves
                    E0 = wadg_energy(sv.project_initial_condition(
                        disc, sv.bessel_initial_condition), disc)
                    assert abs(wadg_energy(state.q, disc) - E0) / E0 <= 1e-9, case

    def test_default_dt_error_within_one_percent_of_half_step(self):
        m = mg.disk_mesh(1, 3)
        cfg = SolverConfig(N=3)
        dt = sv.stable_dt(sv.Discretization(m, cfg))
        errs = []
        for step in (dt, 0.5 * dt):
            _, diag = sv.run(m, cfg, sv.bessel_initial_condition, 1.0,
                             exact_p=sv.bessel_pressure, n_outputs=4, dt=step)
            assert diag["energy"][-1] <= diag["energy"][0]
            errs.append(diag["l2_error_p"][-1])
        assert abs(errs[0] - errs[1]) <= 0.01 * errs[1]

    def test_spectral_limit_separates_stable_from_blowup(self):
        m = mg.disk_mesh(0, 2)
        cfg = SolverConfig(N=2)
        A = an.assemble_evolution_matrix(sv.Discretization(m, cfg))
        limit = an.lsrk_stable_dt(an.eigenspectrum(A).eigenvalues)
        rng = np.random.default_rng(0)
        # random data excites every mode, the fastest included
        noise = lambda x, y: tuple(rng.standard_normal(x.shape) for _ in range(3))
        _, diag = sv.run(m, cfg, noise, 200 * limit, dt=0.9 * limit, n_outputs=20)
        assert diag["energy"][-1] <= diag["energy"][0]
        with pytest.raises(sv.BlowUp):
            sv.run(m, cfg, noise, 200 * limit, dt=1.2 * limit, n_outputs=20)

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

        def counted(q, dt, rhs_fn):
            out = step(q, dt, rhs_fn)
            finite.append(bool(np.isfinite(out[0]).all()))
            return out

        monkeypatch.setattr(sv, "lsrk_step", counted)
        m = mg.disk_mesh(0, 2)
        with pytest.raises(sv.BlowUp, match="non-finite"):
            sv.run(m, SolverConfig(N=2), sv.bessel_initial_condition, 2000.0,
                   dt=0.5, n_outputs=1)
        first_bad = finite.index(False)
        assert len(finite) <= first_bad + sv.FINITE_CHECK_STEPS < 4000

    @pytest.mark.parametrize("T, dt, n_outputs, steps", [
        (1.0, 0.03, 4, 34),     # ceil(1 / 0.03) = 34 steps of 1/34
        (1.0, 0.125, 2, 8),     # exact multiple: no extra step
        (1.0, 0.3, 10, 4),      # fewer steps than samples: every step recorded
    ])
    def test_uniform_step_counts(self, monkeypatch, T, dt, n_outputs, steps):
        calls = []
        step = sv.lsrk_step

        def counted(q, dt_step, rhs_fn):
            calls.append(dt_step)
            return step(q, dt_step, rhs_fn)

        monkeypatch.setattr(sv, "lsrk_step", counted)
        zero = lambda x, y: (np.zeros_like(x),) * 3
        state, diag = sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1), zero, T,
                             dt=dt, n_outputs=n_outputs)
        h = T / steps
        assert len(calls) == steps == diag["steps"]
        assert all(d == h for d in calls) and diag["dt"] == h
        t = diag["t"]
        assert np.all(np.diff(t) > 0) and t[-1] == T and state.t == T
        assert len(t) == 1 + min(steps, n_outputs)
        # each record is at a step end i h, not a running sum of step sizes,
        # and lies within half a step of the sample time it stands for
        assert all(ti == round(ti / h) * h for ti in t[:-1])
        for k in range(1, n_outputs + 1):
            assert np.min(np.abs(t - k * T / n_outputs)) <= 0.5 * h + 1e-15

    @pytest.mark.parametrize("level, N, form, mode, T, steps", [
        (3, 6, "strong", "wadg", 0.012, 6),
        (5, 2, "strong", "wadg", 0.005, 3),
        (3, 4, "strong-weak", "exact", 0.04, 11),
    ], ids=["disk3-N6-strong-wadg", "disk5-N2-strong-wadg", "disk3-N4-sw-exact"])
    def test_benchmark_workload_step_counts(self, monkeypatch, level, N, form, mode,
                                            T, steps):
        # dt, not the default ten samples, sets the count: ceil(T / stable_dt)
        # of uniform steps; the step itself is stubbed out to keep this cheap
        calls, dts = [], []
        stable = sv.stable_dt
        monkeypatch.setattr(sv, "stable_dt", lambda disc: dts.append(stable(disc)) or dts[0])
        monkeypatch.setattr(sv, "lsrk_step", lambda q, dt, disc: calls.append(dt) or q)
        cfg = SolverConfig(N=N, formulation=Formulation(form), mass_mode=MassMode(mode))
        _, diag = sv.run(mg.disk_mesh(level, N), cfg, sv.bessel_initial_condition, T)
        assert len(calls) == diag["steps"] == steps == int(np.ceil(T / dts[0]))
        assert set(calls) == {diag["dt"]} and diag["dt"] <= dts[0]

    def test_zero_length_run_takes_no_steps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sv, "lsrk_step", lambda *a: calls.append(a))
        state, diag = sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                             sv.bessel_initial_condition, 0.0)
        assert calls == [] and state.t == 0.0 and len(diag["t"]) == 1

    @pytest.mark.parametrize("T, n_outputs", [(-0.1, 10), (0.1, 0), (np.inf, 10),
                                              (np.nan, 10)])
    def test_bad_run_length_rejected(self, T, n_outputs):
        with pytest.raises(sv.ConfigError, match=f"T = {T}"):
            sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                   sv.bessel_initial_condition, T, n_outputs=n_outputs)

    def test_step_count_capped_before_first_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sv, "lsrk_step", lambda q, dt, disc: calls.append(dt) or q)
        with pytest.raises(sv.ConfigError,
                           match=r"T = 1.0 at dt = 1.000e-08 takes 1.000e\+08 steps"):
            sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                   sv.bessel_initial_condition, 1.0, dt=1e-8)
        assert calls == []
        # the cap itself is allowed
        monkeypatch.setattr(sv, "MAX_STEPS", 5)
        sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1), sv.bessel_initial_condition, 1.0,
               dt=0.2)
        assert len(calls) == 5
        with pytest.raises(sv.ConfigError, match="MAX_STEPS = 5"):
            sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1), sv.bessel_initial_condition,
                   1.0, dt=0.19)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_bad_dt_rejected_before_setup(self, monkeypatch, dt):
        # checked before any set-up; dt = inf would otherwise take one step of T
        built = []
        monkeypatch.setattr(sv, "Discretization", lambda *a: built.append(a))
        with pytest.raises(sv.ConfigError, match="dt"):
            sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                   sv.bessel_initial_condition, 0.1, dt=dt)
        assert built == []

    def test_lands_exactly_on_T(self):
        m = mg.disk_mesh(0, 2)
        state, diag = sv.run(m, SolverConfig(N=2), sv.bessel_initial_condition,
                             0.777, n_outputs=3)
        assert state.t == 0.777
        assert diag["t"][-1] == 0.777


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

    @pytest.mark.parametrize("tau_p, tau_u, name", [
        (np.nan, 1.0, "tau_p"), (np.inf, 1.0, "tau_p"),
        (1.0, np.nan, "tau_u"), (0.0, -np.inf, "tau_u")])
    def test_nonfinite_penalty_rejected(self, tau_p, tau_u, name):
        with pytest.raises(sv.ConfigError, match=name):
            FluxParams(tau_p, tau_u)

    @pytest.mark.parametrize("c2", [np.nan, np.inf])
    def test_nonfinite_wavespeed_rejected(self, c2):
        x = np.array([-0.5, 0.5])
        for medium in (sv.MediumField(c2), sv.MediumField(lambda x, y: np.where(x > 0, c2, 1.0))):
            with pytest.raises(sv.ConfigError, match="finite"):
                medium.values(x, x)
            with pytest.raises(sv.ConfigError, match="finite"):
                sv.Discretization(mg.uniform_quad_mesh(2), SolverConfig(N=1), medium)

    def test_nonpositive_wavespeed_rejected(self):
        m = mg.uniform_quad_mesh(2)
        with pytest.raises(sv.ConfigError):
            sv.Discretization(m, SolverConfig(N=2), sv.MediumField(-1.0))
