import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import refelem as rf
from wadg.solver import Formulation, sufficient_quadrature_degree

from conftest import face_points, fit_slope


def single_element_mesh(map_x, map_y, N_geo):
    """One-element quadrilateral mesh from explicit reference->physical maps."""
    nodes = rf.interpolation_nodes(N_geo)
    emn = np.stack([map_x(nodes[:, 0], nodes[:, 1]),
                    map_y(nodes[:, 0], nodes[:, 1])], axis=1)[None, :, :]
    return mg.CurvedMesh2D(
        N_geo=N_geo, elem_map_nodes=emn,
        face_connectivity=np.full((1, 4, 2), -1, dtype=np.int64),
        boundary_tags=np.ones((1, 4), dtype=np.int64), h=2.0, provenance={})


class TestMetricData:
    def test_identity_map(self):
        m = mg.uniform_quad_mesh(1)
        ref = rf.build_reference_element(3)
        g = geom.compute_geometric_data(m, ref)
        assert np.max(np.abs(g.Jq - 1)) < 1e-14
        assert np.max(np.abs(g.rxJ - 1)) < 1e-14
        assert np.max(np.abs(g.syJ - 1)) < 1e-14
        assert np.max(np.abs(g.ryJ)) < 1e-14
        assert np.max(np.abs(g.sxJ)) < 1e-14
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
        ref = rf.build_reference_element(2)
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
        ref = rf.build_reference_element(3)
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
        folded = mg.CurvedMesh2D(N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=m.face_connectivity,
                                 boundary_tags=m.boundary_tags, h=m.h, provenance={})
        ref = rf.build_reference_element(2)
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.compute_geometric_data(folded, ref)
        assert exc.value.element == 0

    def test_validate_reports_folded_element(self):
        m = mg.uniform_quad_mesh(2)
        bad = m.elem_map_nodes.copy()
        bad[0, [0, 1]] = bad[0, [1, 0]]
        folded = mg.CurvedMesh2D(N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=m.face_connectivity,
                                 boundary_tags=m.boundary_tags, h=m.h, provenance={})
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.validate_positive_jacobian(folded)
        assert exc.value.element == 0 and exc.value.value <= 0

    @pytest.mark.parametrize("block", [4, 100])
    def test_validate_names_the_global_element_index(self, block, monkeypatch):
        # element 7 of 9 folds: in blocks of 4 it is the fourth of the second
        # block, and the message names 7
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", block)
        m = mg.uniform_quad_mesh(3)
        bad = m.elem_map_nodes.copy()
        bad[7, [0, 1]] = bad[7, [1, 0]]
        folded = mg.CurvedMesh2D(N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=m.face_connectivity,
                                 boundary_tags=m.boundary_tags, h=m.h, provenance={})
        with pytest.raises(geom.NonPositiveJacobian, match="on element 7 ") as exc:
            geom.validate_positive_jacobian(folded)
        J = geom.jacobian_at(folded, geom.check_points(folded)["volume"])
        assert exc.value.element == 7 and J[7, exc.value.point] == exc.value.value
        assert geom.validate_positive_jacobian(m) == pytest.approx(0.1111111111111111)

    @staticmethod
    def lifted_edge_mesh(d):
        """Degree-2 identity element with the bottom-edge midpoint node
        lifted by d: J = 1 + d (1 - r^2)(s - 1/2), smallest (1 - 3d/2) at
        that node, which the dense grid contains and the Gauss sets do not."""
        nodes = rf.interpolation_nodes(2)
        mid = np.flatnonzero(np.all(np.isclose(nodes, [0.0, -1.0]), axis=1))
        nodes[mid, 1] += d
        return mg.CurvedMesh2D(N_geo=2, elem_map_nodes=nodes[None],
                               face_connectivity=np.full((1, 4, 2), -1),
                               boundary_tags=np.ones((1, 4), dtype=np.int64))

    def test_validate_checks_face_points(self):
        # d = 0.72: J > 0 at every volume point (min +0.027) but < 0 at face
        # points (min -0.019), so the face set is the first to fail
        m = self.lifted_edge_mesh(0.72)
        sets = geom.check_points(m)
        assert geom.jacobian_at(m, sets["volume"]).min() > 0
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.validate_positive_jacobian(m)
        assert exc.value.element == 0
        assert geom.jacobian_at(m, sets["face"])[0, exc.value.point] == exc.value.value

    def test_validate_checks_grid_points(self):
        # d = 0.70: J > 0 at volume and face points, -0.05 on the dense grid
        m = self.lifted_edge_mesh(0.70)
        sets = geom.check_points(m)
        assert geom.jacobian_at(m, sets["volume"]).min() > 0
        assert geom.jacobian_at(m, sets["face"]).min() > 0
        with pytest.raises(geom.NonPositiveJacobian) as exc:
            geom.validate_positive_jacobian(m)
        assert exc.value.value == pytest.approx(-0.05, abs=1e-12)
        assert geom.jacobian_at(m, sets["grid"])[0, exc.value.point] == exc.value.value

    @pytest.mark.parametrize("make", [lambda: mg.uniform_quad_mesh(3, N_geo=2)])
    def test_affine_mesh_constant_arrays(self, make):
        ref = rf.build_reference_element(3)
        g = geom.compute_geometric_data(make(), ref)
        for arr in (g.Jq, g.rxJ, g.ryJ, g.sxJ, g.syJ):
            assert np.max(np.ptp(arr, axis=1)) < 1e-12

    def test_normals_unit_and_outward(self):
        m = mg.disk_mesh(1, 3)
        ref = rf.build_reference_element(3)
        g = geom.compute_geometric_data(m, ref)
        assert np.max(np.abs(g.nxq**2 + g.nyq**2 - 1)) < 1e-12
        cx = g.xq.mean(axis=1)
        cy = g.yq.mean(axis=1)
        xf, yf = face_points(m, ref)
        dot = (xf - cx[:, None]) * g.nxq + (yf - cy[:, None]) * g.nyq
        assert dot.min() > 0

    def test_jacobian_reinterpolation(self):
        # J is polynomial of per-coordinate degree <= 2 N_geo: interpolating
        # it at a degree-2 N_geo tensor grid reproduces quadrature values
        m = mg.disk_mesh(1, 3)
        ngeo = m.N_geo
        ref = rf.build_reference_element(3, 9)
        g = geom.compute_geometric_data(m, ref)
        grid = rf.interpolation_nodes(2 * ngeo)
        Er = rf.nodal_eval_matrix(ngeo, grid, 1, 0)
        Es = rf.nodal_eval_matrix(ngeo, grid, 0, 1)
        X, Y = m.elem_map_nodes[..., 0], m.elem_map_nodes[..., 1]
        Jg = (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)
        E_q = rf.nodal_eval_matrix(2 * ngeo, ref.volume_quad.points)
        # grid is the degree-2Ngeo node set, so nodal interpolation applies
        assert np.max(np.abs(Jg @ E_q.T - g.Jq)) < 1e-10


class TestExteriorFaceIndex:
    NFQ = 3

    @pytest.fixture(params=["uniform2", "disk1"])
    def index(self, request):
        """(connectivity, index, each point's own flat index, interior mask)."""
        mesh = mg.uniform_quad_mesh(2) if request.param == "uniform2" else mg.disk_mesh(1, 2)
        conn = mesh.face_connectivity
        idx = geom.exterior_face_index(conn, self.NFQ)
        assert idx.shape == (mesh.K, mesh.n_faces, self.NFQ)
        own = np.arange(idx.size).reshape(idx.shape)
        inner = np.broadcast_to(conn[..., :1] >= 0, idx.shape)
        assert inner.any() and not inner.all()
        return conn, idx, own, inner

    def test_interior_point_meets_reversed_neighbour_point(self, index):
        conn, idx, _, inner = index
        nf, nfq = conn.shape[1], self.NFQ
        i = np.arange(nfq)[None, None, :]
        expect = (conn[..., :1] * nf + conn[..., 1:]) * nfq + (nfq - 1 - i)
        assert np.array_equal(idx[inner], expect[inner])

    def test_involution_on_interior_points(self, index):
        _, idx, own, inner = index
        assert np.array_equal(idx.ravel()[idx[inner]], own[inner])

    def test_boundary_point_is_its_own_exterior(self, index):
        _, idx, own, inner = index
        assert np.array_equal(idx[~inner], own[~inner])


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
        ref = rf.build_reference_element(
            N, sufficient_quadrature_degree(N, m.N_geo, Formulation.Strong))
        g = geom.compute_geometric_data(m, ref)
        u1 = rng.standard_normal((m.K, ref.Np))
        u2 = rng.standard_normal((m.K, ref.Np))
        divJ = ((u1 @ ref.Drq.T) * g.rxJ + (u1 @ ref.Dsq.T) * g.sxJ
                + (u2 @ ref.Drq.T) * g.ryJ + (u2 @ ref.Dsq.T) * g.syJ)
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
        pts = rf.interpolation_nodes(2 * 2 + 1)

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


def deviation_from_bilinear(mesh):
    """Per element, the largest distance of a mapping node from the map of
    meshgen's own bilinear blend of the element's corners, and the element
    size (largest coordinate extent)."""
    X = mesh.elem_map_nodes
    lin = mg._bilinear(X[:, mg._corner_indices(mesh.N_geo)], mesh.N_geo)
    return np.abs(X - lin).max(axis=(1, 2)), np.ptp(X, axis=1).max(axis=1)


class TestBilinearElements:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_disk_elements_without_a_boundary_face(self, level):
        for N_geo in range(2, 7):
            mesh = mg.disk_mesh(level, N_geo)
            interior = ~mesh.boundary_tags.any(axis=1)
            assert np.array_equal(geom.bilinear_elements(mesh), interior)
            # a wide margin on both sides of the tolerance
            dev, size = deviation_from_bilinear(mesh)
            assert np.all(dev[interior] == 0.0)
            assert np.all(dev[~interior] >= 2e-3 * size[~interior])

    def test_straight_meshes_are_bilinear_and_warped_ones_curved(self):
        for mesh in (mg.uniform_quad_mesh(3, N_geo=3), mg.disk_mesh(2, 1), mg.arnold_mesh(1),
                     mg.random_perturbed_mesh(4, 1, 0.15, 0),
                     mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 1)):
            assert geom.bilinear_elements(mesh).all()
        assert not geom.bilinear_elements(mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3)).any()

    def test_subdivided_bilinear_elements_stay_bilinear(self):
        parent = mg.disk_mesh(2, 4)
        mesh = mg.subdivide(parent)
        lin = geom.bilinear_elements(mesh)
        # the children of element k are 4k .. 4k + 3
        assert lin.sum() == 640 and mesh.K == 768
        assert np.array_equal(lin, np.repeat(geom.bilinear_elements(parent), 4))
        dev, size = deviation_from_bilinear(mesh)
        assert np.all(dev[lin] <= 1e-13 * size[lin])

    def test_moved_interior_node_is_curved(self):
        mesh = mg.disk_mesh(1, 3)
        k = int(np.flatnonzero(~mesh.boundary_tags.any(axis=1))[0])
        size = np.ptp(mesh.elem_map_nodes[k], axis=0).max()
        mesh.elem_map_nodes[k, 5, 0] += 1e-9 * size      # node (1, 1) of the 4 x 4
        lin = geom.bilinear_elements(mesh)
        assert not lin[k] and lin.sum() == 31

    def test_save_load_keeps_the_classification(self, tmp_path):
        for mesh in (mg.disk_mesh(1, 4), mg.subdivide(mg.disk_mesh(1, 3))):
            mg.save_mesh(mesh, tmp_path / "m.json")
            assert np.array_equal(geom.bilinear_elements(mg.load_mesh(tmp_path / "m.json")),
                                  geom.bilinear_elements(mesh))


def full_check(mesh):
    """validate_positive_jacobian without the corner pass: J on every check
    set at every element, one element block at a time."""
    jmin = np.inf
    for points in geom.check_points(mesh).values():
        for blk in geom.element_blocks(mesh.K):
            J = geom.jacobian_at(mesh, points, blk)
            if not np.all(J > 0):
                k, q = np.argwhere(~(J > 0))[0]
                raise geom.NonPositiveJacobian(blk.start + int(k), int(q), float(J[k, q]))
            jmin = min(jmin, float(J.min()))
    return jmin


def check_outcome(check, mesh):
    """("ok", min J) or ("fail", element, point, value) of check(mesh)."""
    try:
        return "ok", check(mesh)
    except geom.NonPositiveJacobian as exc:
        return "fail", exc.element, exc.point, exc.value


def assert_check_agrees(mesh):
    """The corner-pass check against full_check: the same decision, the same
    failure, and min J within 1e-12 relative."""
    ref, new = check_outcome(full_check, mesh), check_outcome(geom.validate_positive_jacobian, mesh)
    if ref[0] == "ok":
        assert new[0] == "ok" and new[1] == pytest.approx(ref[1], rel=1e-12, abs=0)
    else:
        assert new == ref
    return ref


def with_nodes(nodes, N_geo):
    """Mesh of the (K, Npg, 2) mapping nodes; the check reads nothing else."""
    K = len(nodes)
    return mg.CurvedMesh2D(N_geo=N_geo, elem_map_nodes=np.ascontiguousarray(nodes),
                           face_connectivity=np.full((K, 4, 2), -1, dtype=np.int64),
                           boundary_tags=np.ones((K, 4), dtype=np.int64))


def sliver_nodes(t, N_geo):
    """Bilinear nodes of the rectangle [0, 1] x [0, t]: J = t / 4."""
    return mg._bilinear(np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, t], [0.0, t]]]), N_geo)


def count_check_rows(monkeypatch, mesh):
    """Per check set, the element rows on which jacobian_at evaluates it
    during validate_positive_jacobian(mesh)."""
    sets = geom.check_points(mesh)
    rows = {name: [] for name in sets}
    real = geom.jacobian_at

    def spy(m, points, elements=slice(None)):
        J = real(m, points, elements)
        for name, p in sets.items():
            if points is p:
                rows[name].extend(np.arange(m.K)[elements].tolist())
        return J
    with monkeypatch.context() as mp:
        mp.setattr(geom, "jacobian_at", spy)
        geom.validate_positive_jacobian(mesh)
    return rows


def folded_bilinear(mesh, k):
    """Copy of mesh whose element k is the bilinear map of its corners with
    bl and br swapped: still marked bilinear, and folded at its corners."""
    X = mesh.elem_map_nodes.copy()
    corners = X[k, mg._corner_indices(mesh.N_geo)][[1, 0, 2, 3]]
    X[k] = mg._bilinear(corners[None], mesh.N_geo)[0]
    return with_nodes(X, mesh.N_geo)


CHECK_MESHES = {
    "uniform": lambda: mg.uniform_quad_mesh(3, N_geo=2),
    "arnold": lambda: mg.arnold_mesh(2, N_geo=3),
    "random": lambda: mg.random_perturbed_mesh(4, 3, 0.2, seed=3),
    "warped": lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3),
    "warped-N1": lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 1),
    "disk-N3": lambda: mg.disk_mesh(1, 3),
    "disk-N6": lambda: mg.disk_mesh(2, 6),
    "subdivided-disk": lambda: mg.subdivide(mg.disk_mesh(1, 4)),
    "folded-uniform": lambda: folded_bilinear(mg.uniform_quad_mesh(3, N_geo=3), 5),
    "folded-disk": lambda: folded_bilinear(mg.disk_mesh(1, 2), 9),
}


class TestCornerCheck:
    @pytest.mark.parametrize("block", [4, geom.ELEMENT_BLOCK])
    @pytest.mark.parametrize("name", list(CHECK_MESHES))
    def test_agrees_with_the_full_evaluation(self, name, block, monkeypatch):
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", block)
        outcome = assert_check_agrees(CHECK_MESHES[name]())
        assert (outcome[0] == "fail") == name.startswith("folded")

    def test_folded_bilinear_element_is_marked_and_rejected(self):
        mesh = folded_bilinear(mg.uniform_quad_mesh(3, N_geo=3), 5)
        assert geom.bilinear_elements(mesh)[5]
        assert geom.jacobian_at(mesh, geom._CORNERS, [5]).min() < 0
        assert assert_check_agrees(mesh)[:2] == ("fail", 5)

    @pytest.mark.parametrize("lin", [False, True])
    def test_interior_node_folds_off_the_corners(self, lin):
        # the middle node of a degree-2 element, moved in y by d, adds
        # d (1 - r^2)(1 - s^2) to y: J is unchanged at the corners and falls
        # by d |s| (1 - r^2) elsewhere.  Above BILINEAR_RTOL on the unit
        # square (J = 1/4), below it on the sliver [0, 1] x [0, 1e-13]
        # (J = 2.5e-14), where a move of 0.9e-13 of its largest coordinate
        # still folds it
        nodes, d = (sliver_nodes(1e-13, 2), 0.9e-13) if lin else (sliver_nodes(1.0, 2), 0.4)
        nodes[0, 4, 1] += d
        mesh = with_nodes(nodes, 2)
        assert geom.bilinear_elements(mesh)[0] == lin
        assert geom.jacobian_at(mesh, geom._CORNERS).min() > 0
        outcome = assert_check_agrees(mesh)
        assert outcome[:2] == ("fail", 0) and outcome[3] < 0

    def test_bilinear_element_below_the_margin_is_evaluated(self, monkeypatch):
        # a unit square clears the margin; the sliver, bilinear and positive,
        # does not, so the check sets are evaluated on it alone
        mesh = with_nodes(np.concatenate([sliver_nodes(1.0, 3), sliver_nodes(1e-13, 3)]), 3)
        assert geom.bilinear_elements(mesh).all()
        Jc = geom.jacobian_at(mesh, geom._CORNERS).min(axis=1)
        margin = geom._corner_margin(*geom._blend_deviation(mesh, slice(None)), 3)
        assert Jc[0] > margin[0] and 0 < Jc[1] <= margin[1]
        assert all(r == [1] for r in count_check_rows(monkeypatch, mesh).values())
        assert assert_check_agrees(mesh)[1] == pytest.approx(2.5e-14, rel=1e-9)

    def test_disk_evaluates_the_check_sets_on_curved_elements_only(self, monkeypatch):
        mesh = mg.disk_mesh(3, 6)
        curved = np.flatnonzero(mesh.boundary_tags.any(axis=1))
        assert len(curved) == 64
        rows = count_check_rows(monkeypatch, mesh)
        assert list(rows) == ["volume", "face", "grid"]
        assert all(r == curved.tolist() for r in rows.values())

    def test_margin_covers_random_marked_elements(self, rng):
        # single elements with random corners, moved by up to BILINEAR_RTOL
        # of their largest coordinate, many of them slivers or nearly
        # folded: the decision and any failure agree with the full
        # evaluation, and a cleared element's min J lies within its margin
        for trial in range(120):
            N_geo = 2 + trial % 3
            corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
            corners = corners + rng.uniform(-0.6, 0.6, (4, 2))
            corners[:, 1] *= 10.0 ** rng.uniform(-14, 0)
            nodes = mg._bilinear(corners[None], N_geo)
            size = np.abs(nodes).max()
            nodes += rng.uniform(-1, 1, nodes.shape) * 10.0 ** rng.uniform(-17, -13) * size
            mesh = with_nodes(nodes, N_geo)
            ref = check_outcome(full_check, mesh)
            new = check_outcome(geom.validate_positive_jacobian, mesh)
            assert new[0] == ref[0]
            if ref[0] == "fail":
                assert new == ref
            else:
                margin = geom._corner_margin(*geom._blend_deviation(mesh, slice(None)), N_geo)
                assert abs(new[1] - ref[1]) <= margin[0]
