import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import refelem as rf
from wadg.refelem import ElementShape
from wadg.solver import sufficient_quadrature_degrees

from conftest import fit_slope

QUAD = ElementShape.Quadrilateral


def single_element_mesh(map_x, map_y, N_geo):
    """One-element quadrilateral mesh from explicit reference->physical maps."""
    nodes = rf.interpolation_nodes(QUAD, N_geo)
    emn = np.stack([map_x(nodes[:, 0], nodes[:, 1]),
                    map_y(nodes[:, 0], nodes[:, 1])], axis=1)[None, :, :]
    return mg.CurvedMesh2D(
        shape=QUAD, N_geo=N_geo, elem_map_nodes=emn,
        face_connectivity=np.full((1, 4, 2), -1, dtype=np.int64),
        boundary_tags=np.ones((1, 4), dtype=np.int64), h=2.0, provenance={})


class TestMetricData:
    def test_identity_map(self):
        m = mg.uniform_quad_mesh(1)
        ref = rf.build_reference_element(3, QUAD)
        g = geom.compute_geometric_data(m, ref)
        assert np.max(np.abs(g.Jq - 1)) < 1e-14
        assert np.max(np.abs(g.rxq - 1)) < 1e-14
        assert np.max(np.abs(g.syq - 1)) < 1e-14
        assert np.max(np.abs(g.ryq)) < 1e-14
        assert np.max(np.abs(g.sxq)) < 1e-14
        assert np.max(np.abs(g.Jfq - 1)) < 1e-14
        # axis-aligned outward normals per face (bottom, right, top, left)
        nfq = ref.nfq
        expect = [(0, -1), (1, 0), (0, 1), (-1, 0)]
        for f, (ex, ey) in enumerate(expect):
            sl = slice(f * nfq, (f + 1) * nfq)
            assert np.max(np.abs(g.nxq[0, sl] - ex)) < 1e-14
            assert np.max(np.abs(g.nyq[0, sl] - ey)) < 1e-14

    def test_uniform_scaling(self):
        h = 0.35
        m = mg.uniform_quad_mesh(1, domain=((0, h), (0, h)))
        ref = rf.build_reference_element(2, QUAD)
        g = geom.compute_geometric_data(m, ref)
        assert np.max(np.abs(g.Jq - h * h / 4)) < 1e-15

    def test_arnold_element_matches_bilinear_oracle(self):
        # trapezoid with vertical parallel edges: independent hand-derived
        # bilinear map Jacobian J(r,s) = (dx/2) * d(y)/ds
        x0, x1 = 0.0, 0.5
        y00, y10, y11, y01 = 0.0, 0.1, 0.62, 0.45  # bl, br, tr, tl heights
        def map_x(r, s):
            return x0 + (x1 - x0) * (r + 1) / 2
        def map_y(r, s):
            u, v = (r + 1) / 2, (s + 1) / 2
            return (1-u)*(1-v)*y00 + u*(1-v)*y10 + u*v*y11 + (1-u)*v*y01
        m = single_element_mesh(map_x, map_y, 1)
        ref = rf.build_reference_element(3, QUAD)
        g = geom.compute_geometric_data(m, ref)
        r = ref.volume_quad.points[:, 0]
        u = (r + 1) / 2
        dyds = 0.5 * ((1 - u) * (y01 - y00) + u * (y11 - y10))
        J_exact = 0.5 * (x1 - x0) / 2 * 2 * dyds
        assert np.max(np.abs(g.Jq[0] - J_exact)) < 1e-14

    def test_nonpositive_jacobian_raises(self):
        m = mg.uniform_quad_mesh(1)
        bad = m.elem_map_nodes.copy()
        bad[0, [0, 1]] = bad[0, [1, 0]]  # swap two corners: fold the element
        folded = mg.CurvedMesh2D(shape=QUAD, N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=m.face_connectivity,
                                 boundary_tags=m.boundary_tags, h=m.h, provenance={})
        ref = rf.build_reference_element(2, QUAD)
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.compute_geometric_data(folded, ref)
        assert exc.value.element == 0

    def test_validate_reports_folded_element(self):
        m = mg.uniform_quad_mesh(2)
        bad = m.elem_map_nodes.copy()
        bad[0, [0, 1]] = bad[0, [1, 0]]
        folded = mg.CurvedMesh2D(shape=QUAD, N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=m.face_connectivity,
                                 boundary_tags=m.boundary_tags, h=m.h, provenance={})
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.validate_positive_jacobian(folded)
        assert exc.value.element == 0 and exc.value.value <= 0

    def test_validate_checks_face_points(self):
        # lifting the bottom-edge midpoint of a degree-2 triangle by d gives
        # J = 1 - d (1 + r), smallest at the vertex (1, -1); choose d so that
        # J < 0 at the outermost face Gauss point but J > 0 at every volume
        # point (triangles have no dense grid, so only the face set sees it)
        TRI = ElementShape.Triangle
        nodes = rf.triangle_nodes(2)
        xi_max = rf.gauss_legendre_1d(6).points.max()     # quad degree 4 N_geo + 2
        mid = np.flatnonzero(np.all(np.isclose(nodes, [0.0, -1.0]), axis=1))
        nodes[mid, 1] += 1.0001 / (1.0 + xi_max)
        m = mg.CurvedMesh2D(shape=TRI, N_geo=2, elem_map_nodes=nodes[None],
                            face_connectivity=np.full((1, 3, 2), -1),
                            boundary_tags=np.ones((1, 3), dtype=np.int64))
        sets = geom.check_points(m)
        assert geom.jacobian_at(m, sets["volume"]).min() > 0
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.validate_positive_jacobian(m)
        assert exc.value.element == 0
        assert geom.jacobian_at(m, sets["face"])[0, exc.value.point] == exc.value.value

    @pytest.mark.parametrize("make", [lambda: mg.uniform_quad_mesh(3, N_geo=2)])
    def test_affine_mesh_constant_arrays(self, make):
        ref = rf.build_reference_element(3, QUAD)
        g = geom.compute_geometric_data(make(), ref)
        for arr in (g.Jq, g.rxq, g.ryq, g.sxq, g.syq):
            assert np.max(np.ptp(arr, axis=1)) < 1e-12

    def test_normals_unit_and_outward(self):
        m = mg.disk_mesh(1, 3)
        ref = rf.build_reference_element(3, QUAD)
        g = geom.compute_geometric_data(m, ref)
        assert np.max(np.abs(g.nxq**2 + g.nyq**2 - 1)) < 1e-12
        cx = g.xq.mean(axis=1)
        cy = g.yq.mean(axis=1)
        dot = (g.xfq - cx[:, None]) * g.nxq + (g.yfq - cy[:, None]) * g.nyq
        assert dot.min() > 0

    def test_jacobian_reinterpolation(self):
        # J is polynomial of per-coordinate degree <= 2 N_geo: interpolating
        # it at a degree-2 N_geo tensor grid reproduces quadrature values
        m = mg.disk_mesh(1, 3)
        ngeo = m.N_geo
        ref = rf.build_reference_element(3, QUAD, volume_quad_degree=9)
        g = geom.compute_geometric_data(m, ref)
        grid = rf.interpolation_nodes(QUAD, 2 * ngeo)
        Er, Es = rf.nodal_grad_matrices(QUAD, ngeo, grid)
        X, Y = m.elem_map_nodes[..., 0], m.elem_map_nodes[..., 1]
        Jg = (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)
        E_q = rf.nodal_eval_matrix(QUAD, 2 * ngeo, ref.volume_quad.points)
        # grid is the degree-2Ngeo node set, so nodal interpolation applies
        assert np.max(np.abs(Jg @ E_q.T - g.Jq)) < 1e-10


class TestDivergenceTheorem:
    @pytest.mark.parametrize("make", [
        lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3),
        lambda: mg.disk_mesh(1, 3),
    ])
    def test_discrete_divergence(self, make, rng):
        """Volume quadrature of div u equals face quadrature of u.n for
        u in (Q^N)^2 under the sufficiency-rule quadrature."""
        N = 3
        m = make()
        vdeg, fdeg = sufficient_quadrature_degrees(N, m.N_geo, m.shape)
        ref = rf.build_reference_element(N, QUAD, volume_quad_degree=vdeg,
                                         face_quad_degree=fdeg)
        g = geom.compute_geometric_data(m, ref)
        u1 = rng.standard_normal((m.K, ref.Np))
        u2 = rng.standard_normal((m.K, ref.Np))
        divJ = ((u1 @ ref.Drq.T) * (g.rxq * g.Jq) + (u1 @ ref.Dsq.T) * (g.sxq * g.Jq)
                + (u2 @ ref.Drq.T) * (g.ryq * g.Jq) + (u2 @ ref.Dsq.T) * (g.syq * g.Jq))
        vol = divJ @ ref.wq
        un = (u1 @ ref.Vfq.T) * g.nxq + (u2 @ ref.Vfq.T) * g.nyq
        surf = (un * g.Jfq) @ ref.wfq
        assert np.max(np.abs(vol - surf)) < 1e-10


class TestSobolevNorms:
    def test_jets_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        r, s = sympy.symbols("r s")
        xe = r + sympy.Rational(1, 10) * r**2 * s + sympy.Rational(1, 20) * s**2
        ye = s + sympy.Rational(1, 15) * r * s**2 - sympy.Rational(1, 30) * r**2
        Je = (sympy.diff(xe, r) * sympy.diff(ye, s)
              - sympy.diff(xe, s) * sympy.diff(ye, r))
        xr, xs = sympy.diff(xe, r), sympy.diff(xe, s)
        yr, ys = sympy.diff(ye, r), sympy.diff(ye, s)

        def Dx(f):
            return sympy.cancel((ys * sympy.diff(f, r) - yr * sympy.diff(f, s)) / Je)

        def Dy(f):
            return sympy.cancel((-xs * sympy.diff(f, r) + xr * sympy.diff(f, s)) / Je)

        order = 3
        fx = sympy.lambdify((r, s), xe, "numpy")
        fy = sympy.lambdify((r, s), ye, "numpy")
        m = single_element_mesh(fx, fy, 2)
        pts = geom._sample_grid(2 * 2 + 2)

        best = 0.0
        col = Je
        for p in range(order + 1):
            if p:
                col = Dx(col)
            gq = col
            for q in range(order + 1 - p):
                if q:
                    gq = Dy(gq)
                vals = sympy.lambdify((r, s), gq, "numpy")(pts[:, 0], pts[:, 1])
                best = max(best, float(np.max(np.abs(np.atleast_1d(vals)))))
        w_norm, inv_norm = geom.jacobian_sup_norms(m, order)
        assert w_norm[0] == pytest.approx(best, rel=1e-12)
        Jf = sympy.lambdify((r, s), Je, "numpy")
        assert inv_norm[0] == pytest.approx(
            float(np.max(1 / Jf(pts[:, 0], pts[:, 1]))), rel=1e-12)

    def test_affine_kappa_is_one(self):
        m = mg.uniform_quad_mesh(3)
        w, inv = geom.jacobian_sup_norms(m, 4)
        assert np.max(np.abs(w * inv - 1)) < 1e-12
        assert geom.kappa_tilde(m, 4) == pytest.approx(1.0, abs=1e-12)

    def test_arnold_growth_single_order(self):
        # ||1/J|| ||J||_{W^{N+1,inf}} grows like 1/h on the trapezoid family
        hs, ks = [], []
        for level in range(4):
            m = mg.arnold_mesh(level)
            hs.append(m.h)
            ks.append(geom.kappa_tilde(m, 4))
        assert fit_slope(hs, ks) == pytest.approx(-1.0, abs=0.1)

    def test_triangle_not_supported(self):
        m = mg.uniform_quad_mesh(2)
        object.__setattr__(m, "shape", ElementShape.Triangle)
        with pytest.raises(NotImplementedError):
            geom.jacobian_sup_norms(m, 2)
