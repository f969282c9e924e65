import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import operators as ops
from wadg import refelem as rf
from wadg import solver as sv

from conftest import fit_slope

SIN2D = staticmethod(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


def sin2d(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def make_geo(mesh, N, vdeg=None):
    ref = rf.build_reference_element(N, vdeg)
    return ref, geom.compute_geometric_data(mesh, ref)


@pytest.fixture
def warped():
    return mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3)


class TestWeightedMassMatrix:
    def test_unit_weight(self, warped):
        ref, g = make_geo(warped, 3)
        M = ops.weighted_mass_matrix(ref, np.ones((1, ref.Nq)))
        assert M.shape == (1, ref.Np, ref.Np)
        assert np.max(np.abs(M[0] - ref.Mhat)) < 1e-12

    def test_constant_weight_linearity(self, warped):
        ref, g = make_geo(warped, 3)
        M = ops.weighted_mass_matrix(ref, np.full((1, ref.Nq), 2.75))
        assert np.max(np.abs(M[0] - 2.75 * ref.Mhat)) < 1e-12

    def test_jacobian_weight_vs_oversampled_oracle(self, warped):
        # phi phi J has per-coordinate degree 2N + 2 N_geo - 1; assembled at
        # that exactness it matches the oversampled oracle
        N = 3
        ref, g = make_geo(warped, N, vdeg=2 * N + 2 * warped.N_geo - 1)
        M = ops.weighted_mass_matrix(ref, g.Jq)
        ref_o, g_o = make_geo(warped, N, vdeg=4 * warped.N_geo + 2 * N)
        M_oracle = ops.weighted_mass_matrix(ref_o, g_o.Jq)
        assert np.max(np.abs(M - M_oracle)) < 1e-8

    def test_not_spd(self, warped):
        ref, g = make_geo(warped, 2)
        w = np.ones((1, ref.Nq))
        w[0, 0] = -50.0
        with pytest.raises(ops.NotSPD):
            ops.weighted_mass_matrix(ref, w)


class TestWeightAdjustedInverse:
    def test_unit_weight_collapses(self, warped, rng):
        ref, g = make_geo(warped, 3)
        rhs = rng.standard_normal((1, ref.Np))
        out = ops.apply_weight_adjusted_inverse(ref, np.ones((1, ref.Nq)), rhs)
        assert np.max(np.abs(out - rhs @ ref.Mhat_inv.T)) < 1e-12

    def test_constant_weight(self, warped, rng):
        ref, g = make_geo(warped, 3)
        rhs = rng.standard_normal((1, ref.Np))
        out = ops.apply_weight_adjusted_inverse(ref, np.full((1, ref.Nq), 1 / 3.2), rhs)
        assert np.max(np.abs(out - (rhs @ ref.Mhat_inv.T) / 3.2)) < 1e-12

    def test_square_quadrature_degeneracy(self, warped, rng):
        """At an exactly (N+1)^2-point tensor rule Vq is square, and the
        weight-adjusted inverse coincides with the same-rule dense inverse
        for any weight."""
        ref, g = make_geo(warped, 3)  # default 2N+1: (N+1)^2 points
        assert ref.Nq == ref.Np
        rhs = rng.standard_normal((warped.K, ref.Np))
        wadg = ops.apply_weight_adjusted_inverse(ref, 1 / g.Jq, rhs)
        M = ops.weighted_mass_matrix(ref, g.Jq)
        dense = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        assert np.max(np.abs(wadg - dense)) < 1e-10 * np.max(np.abs(dense))

    def test_discrepancy_vs_oversampled_oracle_shrinks(self):
        """Against the true (oversampled) mass inverse the weight-adjusted
        solve differs, and the gap decays at rate >= N on a smooth family."""
        N = 3
        ref = rf.build_reference_element(N)
        hs, ds = [], []
        for lvl in range(4):
            m = mg.disk_mesh(lvl, N)
            g = geom.compute_geometric_data(m, ref)
            ref_m, g_m = make_geo(m, N, vdeg=2 * N + 2 * m.N_geo)
            f = lambda x, y: np.cos(2 * x) * np.sin(1.5 * y)
            load = (ref_m.wq[None, :] * g_m.Jq * f(g_m.xq, g_m.yq)) @ ref_m.Vq
            M = ops.weighted_mass_matrix(ref_m, g_m.Jq)
            exact_c = np.linalg.solve(M, load[:, :, None])[:, :, 0]
            approx = ops.apply_weight_adjusted_inverse(ref, 1 / g.Jq, load)
            zero = lambda x, y: 0.0 * x
            num = ops.global_l2_error(ref_m, g_m, approx - exact_c, zero)
            den = ops.global_l2_error(ref_m, g_m, exact_c, zero)
            hs.append(m.h)
            ds.append(num / den)
        assert ds[0] > 1e-6  # genuinely different from the dense solve
        assert fit_slope(hs, ds) >= N - 0.25

    def test_self_adjoint_positive(self, warped, rng):
        """The weight-adjusted mass inverse assembled column-by-column is a
        symmetric matrix with positive Rayleigh quotients (so the
        weight-adjusted mass matrix is symmetric positive definite)."""
        ref, g = make_geo(warped, 2)
        k = 3
        # row i is the inverse applied to unit vector i, all on element k
        w_inv = np.tile(1 / g.Jq[k], (ref.Np, 1))
        T = ops.apply_weight_adjusted_inverse(ref, w_inv, np.eye(ref.Np)).T
        assert np.max(np.abs(T - T.T)) < 1e-9 * np.max(np.abs(T))
        for _ in range(20):
            v = rng.standard_normal(ref.Np)
            assert v @ T @ v > 0


class TestProjections:
    def test_l2_reproduces_polynomials_affine(self, rng):
        N = 3
        m = mg.uniform_quad_mesh(2, N_geo=1)
        ref, g = make_geo(m, N)
        coeffs = rng.standard_normal(ref.Np)

        def poly(x, y):  # Q^N in physical coordinates (affine map keeps it)
            return sum(c * x**i * y**j for c, (i, j) in
                       zip(coeffs, [(i, j) for i in range(N + 1) for j in range(N + 1)]))

        c = ops.l2_project(ref, g, poly)
        assert ops.global_l2_error(ref, g, c, poly) < 1e-10

    def test_constant_on_curved(self, warped):
        ref, g = make_geo(warped, 3, vdeg=14)
        c = ops.l2_project(ref, g, lambda x, y: np.full_like(x, 2.5))
        assert ops.global_l2_error(ref, g, c, lambda x, y: np.full_like(x, 2.5)) < 1e-10

    def test_field_tuple_matches_single_fields(self, warped):
        ref, g = make_geo(warped, 3, vdeg=14)
        f = lambda x, y: np.exp(x) * np.cos(y)
        single = [ops.l2_project(ref, g, fn) for fn in (sin2d, f)]
        both = ops.l2_project(ref, g, lambda x, y: (sin2d(x, y), f(x, y)))
        for a, b in zip(single, both):
            assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(a))

    def test_l2_rate_uniform(self):
        N = 3
        hs, errs = [], []
        for K1D in (2, 4, 8, 16):
            m = mg.uniform_quad_mesh(K1D, N_geo=1)
            ref, g = make_geo(m, N, vdeg=2 * N + 6)
            errs.append(ops.global_l2_error(ref, g, ops.l2_project(ref, g, sin2d), sin2d))
            hs.append(m.h)
        assert 3.75 <= fit_slope(hs, errs) <= 4.25

    def test_pseudo_equals_l2_on_affine(self):
        m = mg.uniform_quad_mesh(3, N_geo=1)
        ref, g = make_geo(m, 3)
        a = ops.l2_project(ref, g, sin2d)
        b = ops.wadg_pseudo_project(ref, g, sin2d)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_pseudo_is_weight_adjusted_inverse_of_load(self, warped):
        ref, g = make_geo(warped, 3)
        load = (ref.wq[None, :] * g.Jq * sin2d(g.xq, g.yq)) @ ref.Vq
        direct = ops.apply_weight_adjusted_inverse(ref, 1 / g.Jq, load)
        assert np.max(np.abs(direct - ops.wadg_pseudo_project(ref, g, sin2d))) < 1e-14

    def test_exactness_collapse_constant_weight(self, rng):
        # constant J: pseudo-projection, L2 projection, and the square-root
        # weighted projection coincide
        m = mg.uniform_quad_mesh(2, N_geo=1)
        ref, g = make_geo(m, 3, vdeg=12)
        f = lambda x, y: np.exp(x) * np.cos(y)
        a = ops.l2_project(ref, g, f)
        b = ops.wadg_pseudo_project(ref, g, f)
        assert np.max(np.abs(a - b)) < 1e-10
        el2 = ops.global_l2_error(ref, g, a, f)
        elsc = float(np.sqrt(np.sum(ops.lsc_projection_error(ref, g, f) ** 2)))
        assert elsc == pytest.approx(el2, abs=1e-10)

    def test_polynomial_reproduction_uJ_in_QN(self):
        # u constant with J in Q^N (N_geo=2 mapping, N=3): P_N u = u exactly
        m = mg.random_perturbed_mesh(3, 2, 0.2, seed=2)
        ref, g = make_geo(m, 3, vdeg=12)
        one = lambda x, y: np.ones_like(x)
        c = ops.wadg_pseudo_project(ref, g, one)
        assert ops.global_l2_error(ref, g, c, one) < 1e-10

    def test_arnold_dichotomy_quick(self):
        # one-order loss for the pseudo-projection on trapezoid meshes
        N = 3
        hs, ew, el = [], [], []
        for level in range(4):
            m = mg.arnold_mesh(level)
            ref, g = make_geo(m, N, vdeg=2 * N + 5)
            hs.append(m.h)
            ew.append(ops.global_l2_error(ref, g, ops.wadg_pseudo_project(ref, g, sin2d), sin2d))
            el.append(ops.global_l2_error(ref, g, ops.l2_project(ref, g, sin2d), sin2d))
        assert fit_slope(hs, ew) == pytest.approx(3.0, abs=0.35)
        assert fit_slope(hs, el) == pytest.approx(4.0, abs=0.35)


PCG_MESHES = {
    "disk": lambda: mg.disk_mesh(1, 3),
    "arnold": lambda: mg.arnold_mesh(1),
    "warped": lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3),
    "random": lambda: mg.random_perturbed_mesh(4, 3, 0.2, seed=3),
}


@pytest.fixture(scope="module")
def pcg_meshes():
    return {name: make() for name, make in PCG_MESHES.items()}


def three_fields(x, y):
    return np.exp(x) * np.cos(2 * y), sin2d(x, y) + x * y, np.zeros_like(x)


class TestMatrixFreeProjection:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", list(PCG_MESHES))
    def test_equals_dense_solve(self, pcg_meshes, kind, N):
        # on the mass-exact rule, as the solver projects
        mesh = pcg_meshes[kind]
        ref = rf.build_reference_element(N, 2 * N + 2 * mesh.N_geo)
        g = geom.compute_volume_geometry(mesh, ref)
        M = ops.weighted_mass_matrix(ref, g.Jq)
        wJ = ref.wq * g.Jq
        got = ops.l2_project(ref, g, three_fields)
        for c, f in zip(got, three_fields(g.xq, g.yq)):
            expect = np.linalg.solve(M, ((wJ * f) @ ref.Vq)[..., None])[..., 0]
            assert np.max(np.abs(c - expect)) <= 1e-13 * max(np.max(np.abs(expect)), 1e-300)
        assert not got[2].any()

    def test_zero_fields_skip_load_and_solve(self, pcg_meshes, monkeypatch):
        # the Bessel start: a pressure and two identically zero velocities
        mesh = pcg_meshes["disk"]
        ref = rf.build_reference_element(3, 2 * 3 + 2 * mesh.N_geo)
        g = geom.compute_volume_geometry(mesh, ref)
        fn = lambda x, y: tuple(sv.bessel_initial_condition(x, y))
        # every field through a load and a solve, as before zero fields were skipped
        WVq = ref.wq[:, None] * ref.Vq
        scale = 1.0 / (np.diag(ref.Mhat) * (g.Jq @ ref.Pq.T))
        expect = [ops._pcg(ref.Vq, WVq, g.Jq, scale, (f * g.Jq) @ WVq)
                  for f in fn(g.xq, g.yq)]
        loads = []
        pcg = ops._pcg
        monkeypatch.setattr(ops, "_pcg", lambda *a: loads.append(a[-1]) or pcg(*a))
        got = ops.l2_project(ref, g, fn)
        assert len(loads) == 1 and loads[0].any()
        for c, e in zip(got, expect):
            assert np.array_equal(c, e) and np.array_equal(np.signbit(c), np.signbit(e))
        assert got[0].any() and not got[1].any() and not got[2].any()

    def test_peak_memory_below_half_a_dense_mass_array(self):
        N = 6
        mesh = mg.disk_mesh(2, N)
        ref = rf.build_reference_element(N, 4 * N)
        g = geom.compute_volume_geometry(mesh, ref)
        fn = lambda x, y: tuple(sv.bessel_initial_condition(x, y))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ops.l2_project(ref, g, fn)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        dense = mesh.K * ref.Np**2 * 8
        assert peak < 0.5 * dense, peak / dense

    @pytest.mark.parametrize("case", ["scattered-weight", "nan-load"])
    def test_unconverged_solve_raises(self, case):
        # a weight scattered over 4 decades at random, which no degree-N
        # projection follows, or a non-finite load: Np + 2 iterations fail
        ref = rf.build_reference_element(3, 8)
        g = geom.compute_volume_geometry(mg.uniform_quad_mesh(2), ref)
        fn = lambda x, y: np.cos(x + y)
        if case == "scattered-weight":
            J = 10.0 ** np.random.default_rng(0).uniform(-2, 2, g.Jq.shape)
            g = SimpleNamespace(xq=g.xq, yq=g.yq, Jq=J)
        else:
            fn = lambda x, y: np.where(x > 0.5, np.nan, 1.0)
        with pytest.raises(FloatingPointError, match="max residual .* after 18 iterations"):
            ops.l2_project(ref, g, fn)


class TestLSC:
    def test_affine_equals_l2_error(self):
        m = mg.uniform_quad_mesh(2, N_geo=1)
        ref, g = make_geo(m, 3, vdeg=12)
        el2 = ops.global_l2_error(ref, g, ops.l2_project(ref, g, sin2d), sin2d)
        elsc = float(np.sqrt(np.sum(ops.lsc_projection_error(ref, g, sin2d) ** 2)))
        assert elsc == pytest.approx(el2, abs=1e-10)

    def test_random_meshes_larger_error_than_wadg(self):
        # on freshly perturbed meshes the square-root-weighted error exceeds
        # the pseudo-projection error at every level and keeps decreasing
        # (unlike the hard stall on trapezoid meshes)
        N = 3
        meshes = mg.mesh_family("random", 5, N_geo=N, K1D=2, amplitude=0.15, seed=0)
        hs, ew, el = [], [], []
        for m in meshes:
            ref, g = make_geo(m, N, vdeg=4 * N + 4)
            hs.append(m.h)
            ew.append(ops.global_l2_error(ref, g, ops.wadg_pseudo_project(ref, g, sin2d), sin2d))
            el.append(float(np.sqrt(np.sum(ops.lsc_projection_error(ref, g, sin2d) ** 2))))
        assert all(l > w for l, w in zip(el, ew))
        assert el[-1] < el[0] / 2  # decreasing, not stalled
        assert fit_slope(hs, ew) > 2.0  # pseudo-projection keeps converging


class TestGlobalL2Error:
    def test_projection_of_polynomial_is_exact(self, rng):
        m = mg.uniform_quad_mesh(2, N_geo=1)
        ref, g = make_geo(m, 2)
        f = lambda x, y: 1.0 + x + 0.5 * y + 0.25 * x * y
        c = ops.l2_project(ref, g, f)
        assert ops.global_l2_error(ref, g, c, f) < 1e-12

    def test_zero_against_one_is_area_sqrt(self):
        m = mg.uniform_quad_mesh(3)
        ref, g = make_geo(m, 2)
        err = ops.global_l2_error(ref, g, np.zeros((m.K, ref.Np)),
                                  lambda x, y: np.ones_like(x))
        assert err == pytest.approx(2.0, abs=1e-12)

    def test_matches_oversampled_norm(self):
        from wadg import solver as sv
        N = 4
        m = mg.disk_mesh(1, N)
        ref, g = make_geo(m, N, vdeg=2 * N + 4)
        ref_o, g_o = make_geo(m, N, vdeg=4 * N + 6)
        f = lambda x, y: sv.bessel_pressure(x, y, 0.0)
        c = ops.l2_project(ref_o, g_o, f)
        a = ops.global_l2_error(ref, g, c, f)
        b = ops.global_l2_error(ref_o, g_o, c, f)
        assert abs(a - b) < 1e-8

    def test_deterministic(self, warped):
        ref, g = make_geo(warped, 3)
        c = ops.l2_project(ref, g, sin2d)
        assert (ops.global_l2_error(ref, g, c, sin2d)
                == ops.global_l2_error(ref, g, c, sin2d))


class TestConservation:
    def test_constant_weight_zero(self, warped, rng):
        ref, g = make_geo(warped, 2, vdeg=12)
        w = np.full_like(g.Jq, 1.7)
        err = ops.conservation_moment_error(ref, g, w, sin2d, 2)
        assert err < 1e-12

    def test_rate_on_smooth_family(self):
        # N=2, w=J, v=1: rate 2N+2 = 6 predicted; quadrature is oversampled
        # because the update-rule point set is exactly conservative
        N = 2
        ref = rf.build_reference_element(N, 4 * N + 6)
        hs, errs = [], []
        for lvl in (1, 2, 3):
            m = mg.disk_mesh(lvl, N + 1)
            g = geom.compute_geometric_data(m, ref)
            hs.append(m.h)
            errs.append(ops.conservation_moment_error(ref, g, g.Jq, sin2d, 0))
        assert fit_slope(hs, errs) >= 5.0

    def test_update_rule_exactly_conservative(self, warped):
        # on the (N+1)^2-point tensor rule the discrepancy vanishes for any
        # weight (the weight is point-equivalent to a Q^N polynomial)
        ref, g = make_geo(warped, 3)  # 2N+1 rule
        err = ops.conservation_moment_error(ref, g, g.Jq, sin2d, 0)
        assert err < 1e-13

    def test_projected_weight_restores_moment(self, warped):
        ref, g = make_geo(warped, 3, vdeg=14)
        f = lambda x, y: np.cos(x) * np.exp(0.3 * y)
        c = ops.wadg_pseudo_project(ref, g, f, project_weight=True)
        Jp = (g.Jq @ ref.Pq.T) @ ref.Vq.T
        lhs = np.sum(ref.wq[None, :] * g.Jq * f(g.xq, g.yq), axis=1)
        rhs = np.sum(ref.wq[None, :] * Jp * (c @ ref.Vq.T), axis=1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestRateDichotomy:
    def test_theorem_bound_consistency(self):
        """Measured kappa growth h^-a implies pseudo-projection slope at
        least N+1-a (within fit tolerance) on the omega=1 warped family."""
        N = 3
        hs, ks, es = [], [], []
        for l in range(4):
            m = mg.warped_arnold_mesh(mg.WarpParams(1.0, 4 * 2**l), N)
            ref, g = make_geo(m, N, vdeg=4 * N + 3)
            hs.append(m.h)
            ks.append(geom.kappa_tilde(m, N + 1))
            es.append(ops.global_l2_error(ref, g, ops.wadg_pseudo_project(ref, g, sin2d), sin2d))
        a = -fit_slope(hs, ks)
        assert fit_slope(hs, es) >= N + 1 - a - 0.25
