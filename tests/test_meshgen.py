import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import refelem as rf
from wadg.refelem import ElementShape

QUAD = ElementShape.Quadrilateral

ALL_FAMILIES = [
    lambda: mg.uniform_quad_mesh(3, N_geo=2),
    lambda: mg.arnold_mesh(1),
    lambda: mg.random_perturbed_mesh(4, 3, 0.2, seed=3),
    lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3),
    lambda: mg.disk_mesh(1, 3),
]


def geo_for(mesh, N=3, vdeg=None, fdeg=None):
    ref = rf.build_reference_element(max(N, mesh.N_geo), mesh.shape,
                                     volume_quad_degree=vdeg, face_quad_degree=fdeg)
    return ref, geom.compute_geometric_data(mesh, ref)


class TestUniform:
    def test_single_element_identity(self):
        m = mg.uniform_quad_mesh(1)
        assert m.K == 1
        _, g = geo_for(m)
        assert np.max(np.abs(g.Jq - 1.0)) < 1e-14

    def test_interior_faces_matched_once(self):
        m = mg.uniform_quad_mesh(2)
        assert m.K == 4
        interior = [(k, f) for k in range(4) for f in range(4)
                    if m.face_connectivity[k, f, 0] >= 0]
        assert len(interior) == 8  # 4 interior faces, each seen from 2 sides
        for k, f in interior:
            k2, f2 = m.face_connectivity[k, f]
            assert tuple(m.face_connectivity[k2, f2]) == (k, f)

    def test_area(self):
        _, g = geo_for(mg.uniform_quad_mesh(4))
        assert geom.element_areas(g).sum() == pytest.approx(4.0, abs=1e-12)

    def test_h(self):
        assert mg.uniform_quad_mesh(4).h == pytest.approx(np.sqrt(2) / 2)


class TestArnold:
    def test_level0(self):
        m = mg.arnold_mesh(0)
        assert m.h == 0.5
        assert m.K == 4
        # every element a trapezoid with parallel vertical edges
        n = m.N_geo + 1
        for k in range(m.K):
            nodes = m.elem_map_nodes[k].reshape(n, n, 2)
            assert np.ptp(nodes[:, 0, 0]) < 1e-14  # left edge: constant x
            assert np.ptp(nodes[:, -1, 0]) < 1e-14

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_area(self, level):
        _, g = geo_for(mg.arnold_mesh(level))
        assert geom.element_areas(g).sum() == pytest.approx(1.0, abs=1e-12)

    def test_jacobian_affine_in_r(self):
        ref, g = geo_for(mg.arnold_mesh(1))
        r = ref.volume_quad.points[:, 0]
        A = np.column_stack([np.ones_like(r), r])
        for k in range(g.K):
            resid = np.linalg.lstsq(A, g.Jq[k], rcond=None)[1]
            assert resid < 1e-24 if resid.size else True
            fit = A @ np.linalg.lstsq(A, g.Jq[k], rcond=None)[0]
            assert np.max(np.abs(fit - g.Jq[k])) < 1e-14


class TestRandomPerturbed:
    def test_zero_amplitude_is_uniform(self):
        m0 = mg.random_perturbed_mesh(3, 2, 0.0, seed=5)
        mu = mg.uniform_quad_mesh(3, domain=((0, 1), (0, 1)), N_geo=2)
        assert np.array_equal(m0.elem_map_nodes, mu.elem_map_nodes)

    def test_deterministic(self):
        a = mg.random_perturbed_mesh(4, 3, 0.2, seed=42)
        b = mg.random_perturbed_mesh(4, 3, 0.2, seed=42)
        assert np.array_equal(a.elem_map_nodes, b.elem_map_nodes)

    def test_positive_jacobian(self):
        m = mg.random_perturbed_mesh(8, 3, 0.1, seed=7)
        _, g = geo_for(m)
        assert g.Jq.min() > 0

    def test_boundary_nodes_fixed(self):
        m = mg.random_perturbed_mesh(4, 3, 0.2, seed=9)
        x = m.elem_map_nodes[..., 0].ravel()
        y = m.elem_map_nodes[..., 1].ravel()
        on_b = (np.abs(x) < 1e-13) | (np.abs(x - 1) < 1e-13)
        assert np.all((np.abs(y[on_b] * 0) == 0))  # x-boundary nodes keep x
        assert x.min() >= -1e-13 and x.max() <= 1 + 1e-13


class TestWarped:
    def test_omega_zero_is_uniform(self):
        m = mg.warped_arnold_mesh(mg.WarpParams(0.0, 4), 2)
        mu = mg.uniform_quad_mesh(4, N_geo=2)
        assert np.max(np.abs(m.elem_map_nodes - mu.elem_map_nodes)) < 1e-15

    def test_max_displacement(self):
        # amplitude omega/(K1D+1) = 2/3, attained at the cosine extremum
        m = mg.warped_arnold_mesh(mg.WarpParams(2.0, 2), 3)
        mu = mg.uniform_quad_mesh(2, N_geo=3)
        disp = np.abs(m.elem_map_nodes[..., 1] - mu.elem_map_nodes[..., 1])
        assert disp.max() == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert np.max(np.abs(m.elem_map_nodes[..., 0] - mu.elem_map_nodes[..., 0])) == 0

    def test_kappa_ordering(self):
        k_small = geom.kappa_tilde(mg.warped_arnold_mesh(mg.WarpParams(0.25, 8), 3), 4)
        k_big = geom.kappa_tilde(mg.warped_arnold_mesh(mg.WarpParams(2.0, 8), 3), 4)
        assert k_small < k_big

    def test_params_validation(self):
        with pytest.raises(ValueError):
            mg.WarpParams(2.5, 4)
        with pytest.raises(ValueError):
            mg.WarpParams(1.0, 0)


class TestDisk:
    def test_boundary_nodes_on_circle(self):
        m = mg.disk_mesh(1, 3)
        ref = rf.build_reference_element(3, QUAD)
        for k in range(m.K):
            for f in range(4):
                if not m.boundary_tags[k, f]:
                    continue
                idx = ref.face_nodes[f]
                xy = m.elem_map_nodes[k, idx, :]
                assert np.max(np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 1.0)) < 1e-12

    def test_area_superconvergence(self):
        errs = []
        for lvl in (0, 1, 2):
            _, g = geo_for(mg.disk_mesh(lvl, 3))
            errs.append(abs(geom.element_areas(g).sum() - np.pi))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8

    def test_interior_element_constant_jacobian(self):
        # center-block elements are axis-aligned rectangles
        m = mg.disk_mesh(2, 3)
        _, g = geo_for(m)
        assert np.ptp(g.Jq[0]) < 1e-14

    def test_base_vertex_off_circle_rejected(self):
        base = mg.disk_base_mesh(2)
        bad = base.elem_map_nodes.copy()
        k, f = np.argwhere(base.boundary_tags > 0)[0]
        idx = mg._QUAD_FACE_CORNERS[f][0]
        bad[k, mg._corner_indices(1)[idx], :] *= 1.01
        broken = mg.CurvedMesh2D(shape=base.shape, N_geo=1, elem_map_nodes=bad,
                                 face_connectivity=base.face_connectivity,
                                 boundary_tags=base.boundary_tags, h=base.h,
                                 provenance=base.provenance)
        with pytest.raises(ValueError):
            mg.gordon_hall_disk_mesh(broken, 3)


class TestRefine:
    def test_uniform_node_for_node(self):
        assert np.array_equal(mg.refine(mg.uniform_quad_mesh(2)).elem_map_nodes,
                              mg.uniform_quad_mesh(4).elem_map_nodes)

    def test_arnold_self_similarity(self):
        assert np.array_equal(mg.refine(mg.arnold_mesh(1)).elem_map_nodes,
                              mg.arnold_mesh(2).elem_map_nodes)

    def test_disk_nested(self):
        assert np.array_equal(mg.refine(mg.disk_mesh(1, 3)).elem_map_nodes,
                              mg.disk_mesh(2, 3).elem_map_nodes)

    def test_disk_family_matches_disk_mesh(self):
        fam = mg.mesh_family("disk", 3, N_geo=2)
        for level, m in enumerate(fam):
            ref = mg.disk_mesh(level, 2)
            assert np.array_equal(m.elem_map_nodes, ref.elem_map_nodes)
            assert np.array_equal(m.face_connectivity, ref.face_connectivity)
            assert m.provenance == ref.provenance

    def test_area_preserved(self):
        m = mg.arnold_mesh(0)
        _, g0 = geo_for(m)
        _, g1 = geo_for(mg.refine(m))
        assert geom.element_areas(g1).sum() == pytest.approx(
            geom.element_areas(g0).sum(), abs=1e-12)

    def test_h_halves(self):
        m = mg.arnold_mesh(0)
        assert mg.refine(m).h == pytest.approx(m.h / 2)


@pytest.mark.parametrize("make", ALL_FAMILIES)
def test_conformity(make):
    """Interior face quadrature coordinates coincide after CCW reversal."""
    m = make()
    ref, g = geo_for(m)
    nfq = ref.nfq
    worst = 0.0
    for k in range(m.K):
        for f in range(4):
            k2, f2 = m.face_connectivity[k, f]
            if k2 < 0:
                continue
            sl = slice(f * nfq, (f + 1) * nfq)
            sl2 = slice(f2 * nfq, (f2 + 1) * nfq)
            gap = np.hypot(g.xfq[k, sl] - g.xfq[k2, sl2][::-1],
                           g.yfq[k, sl] - g.yfq[k2, sl2][::-1])
            worst = max(worst, gap.max())
    assert worst < 1e-12


@pytest.mark.parametrize("make", ALL_FAMILIES)
def test_positivity_and_boundary_tags(make):
    m = make()
    _, g = geo_for(m)
    assert g.Jq.min() > 0 and g.Jfq.min() > 0
    boundary = m.face_connectivity[:, :, 0] < 0
    assert np.array_equal(boundary, m.boundary_tags > 0)
    assert boundary.any()


@pytest.mark.parametrize("make", ALL_FAMILIES)
def test_determinism(make):
    a, b = make(), make()
    assert np.array_equal(a.elem_map_nodes, b.elem_map_nodes)
    assert np.array_equal(a.face_connectivity, b.face_connectivity)


class TestMeshIO:
    def test_roundtrip(self, tmp_path):
        m = mg.disk_mesh(1, 2)
        path = tmp_path / "m.json"
        mg.save_mesh(m, path)
        m2 = mg.load_mesh(path)
        assert m2.shape == m.shape and m2.N_geo == m.N_geo and m2.K == m.K
        assert np.array_equal(m2.elem_map_nodes, m.elem_map_nodes)
        assert np.array_equal(m2.face_connectivity, m.face_connectivity)
        assert np.array_equal(m2.boundary_tags, m.boundary_tags)
        assert m2.h == m.h

    def test_version_check(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "wadg-mesh-v999"}))
        with pytest.raises(ValueError, match="version"):
            mg.load_mesh(path)

    def test_shape_validation(self, tmp_path):
        import json
        m = mg.uniform_quad_mesh(2)
        doc = {"version": mg.MESH_SCHEMA_VERSION, "shape": "quadrilateral",
               "N_geo": 1, "K": 4, "h": m.h,
               "elem_map_nodes": m.elem_map_nodes.tolist()[:2],  # wrong K
               "face_connectivity": m.face_connectivity.tolist(),
               "boundary_tags": m.boundary_tags.tolist()}
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="inconsistent"):
            mg.load_mesh(path)


def _corrupt(tmp_path, mesh, edit):
    """Save `mesh`, apply `edit` to its JSON document, return the path."""
    import json
    path = tmp_path / "bad.json"
    mg.save_mesh(mesh, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _set_conn(doc):
    doc["face_connectivity"][0][1] = [2, 1]      # (2, 1) points back to (3, 3)


def _tag_interior(doc):
    doc["boundary_tags"][0][1] = mg.BOUNDARY_DIRICHLET


def _tag_boundary_negative(doc):
    doc["boundary_tags"][0][0] = -1              # unmatched face, tag -1


def _fold(doc):
    nodes = doc["elem_map_nodes"][0]
    nodes[0], nodes[2] = nodes[2], nodes[0]      # swap bl and br corners


def _bend_face(doc):
    doc["elem_map_nodes"][0][5][0] += 1e-3      # midpoint of the right face


class TestLoadMeshValidation:
    @pytest.mark.parametrize("edit, message", [
        (_set_conn, "not an involution: element 0 face 1"),
        (_tag_interior, "boundary tags .* element 0 face 1"),
        (_tag_boundary_negative, "boundary tags .* element 0 face 0"),
        (_fold, "Jacobian not positive: .* element 0 "),
        (_bend_face, "do not match the neighbour's: element 0 face 1"),
    ])
    def test_corrupted_file_rejected(self, tmp_path, edit, message):
        path = _corrupt(tmp_path, mg.uniform_quad_mesh(2, N_geo=2), edit)
        with pytest.raises(ValueError, match=message):
            mg.load_mesh(path)

    def test_out_of_range_neighbour_rejected(self, tmp_path):
        def edit(doc):
            doc["face_connectivity"][0][0] = [7, 0]
        path = _corrupt(tmp_path, mg.uniform_quad_mesh(2), edit)
        with pytest.raises(ValueError, match="involution: element 0 face 0"):
            mg.load_mesh(path)

    @pytest.mark.parametrize("make", ALL_FAMILIES)
    def test_generated_meshes_pass(self, make):
        mg.validate_mesh(make())



# ---------------------------------------------------------------------------
# Bitwise oracles: the loop implementations the array code replaced

def ref_build_connectivity(elem_map_nodes, N_geo):
    K = elem_map_nodes.shape[0]
    corners = elem_map_nodes[:, mg._corner_indices(N_geo), :]
    keys = np.round(corners, 9)

    def vkey(k, c):
        return (keys[k, c, 0], keys[k, c, 1])

    conn = np.full((K, 4, 2), -1, dtype=np.int64)
    tags = np.zeros((K, 4), dtype=np.int64)
    seen = {}
    for k in range(K):
        for f, (ca, cb) in enumerate(mg._QUAD_FACE_CORNERS):
            key = frozenset((vkey(k, ca), vkey(k, cb)))
            if key in seen:
                k2, f2 = seen.pop(key)
                conn[k, f] = (k2, f2)
                conn[k2, f2] = (k, f)
            else:
                seen[key] = (k, f)
    for k, f in seen.values():
        tags[k, f] = mg.BOUNDARY_DIRICHLET
    return conn, tags


def ref_elements_from_global_grid(gx, gy, K1D, N_geo):
    n = N_geo + 1
    out = np.empty((K1D * K1D, n * n, 2))
    for ey in range(K1D):
        for ex in range(K1D):
            sl = (slice(ex * N_geo, ex * N_geo + n), slice(ey * N_geo, ey * N_geo + n))
            out[ey * K1D + ex, :, 0] = gx[sl].T.ravel()
            out[ey * K1D + ex, :, 1] = gy[sl].T.ravel()
    return out


def ref_bilinear_elements(VX, VY, K1D, N_geo):
    gll = rf.gauss_lobatto_1d(N_geo + 1).points
    u = 0.5 * (gll + 1.0)
    UI, UJ = np.meshgrid(u, u, indexing="ij")
    w00 = ((1 - UI) * (1 - UJ)).T.ravel()
    w10 = (UI * (1 - UJ)).T.ravel()
    w11 = (UI * UJ).T.ravel()
    w01 = ((1 - UI) * UJ).T.ravel()
    n = N_geo + 1
    out = np.empty((K1D * K1D, n * n, 2))
    for ey in range(K1D):
        for ex in range(K1D):
            k = ey * K1D + ex
            for arr, G in ((0, VX), (1, VY)):
                c00, c10 = G[ex, ey], G[ex + 1, ey]
                c11, c01 = G[ex + 1, ey + 1], G[ex, ey + 1]
                out[k, :, arr] = w00 * c00 + w10 * c10 + w11 * c11 + w01 * c01
    return out


def ref_bilinear_block_elements(BX, BY):
    n1, n2 = BX.shape[0] - 1, BX.shape[1] - 1
    out = np.empty((n1 * n2, 4, 2))
    for ej in range(n2):
        for ei in range(n1):
            k = ej * n1 + ei
            for arr, G in ((0, BX), (1, BY)):
                out[k, 0, arr] = G[ei, ej]
                out[k, 1, arr] = G[ei + 1, ej]
                out[k, 2, arr] = G[ei, ej + 1]
                out[k, 3, arr] = G[ei + 1, ej + 1]
    return out


def ref_arnold_mesh(level, N_geo=1):
    K1D = 2 ** (level + 1)
    h = 1.0 / K1D
    vx = np.arange(K1D + 1) * h
    VX, VY = np.meshgrid(vx, vx, indexing="ij")
    VY = VY.copy()
    for i in range(K1D + 1):
        for j in range(1, K1D):
            VY[i, j] += (-1.0) ** (i + j) * h / 4.0
    nodes = mg._bilinear_elements(VX, VY, K1D, N_geo)
    prov = {"kind": "arnold", "level": level, "N_geo": N_geo}
    return mg._assemble_quad_mesh(nodes, N_geo, h, prov, validate=False)


def ref_gordon_hall_disk_mesh(base, N_geo, _prov=None):
    corners = base.elem_map_nodes[:, mg._corner_indices(1), :]
    on_circle = np.abs(np.hypot(corners[..., 0], corners[..., 1]) - 1.0) < 1e-12
    for k in range(base.K):
        for f in range(4):
            if base.boundary_tags[k, f]:
                ca, cb = mg._QUAD_FACE_CORNERS[f]
                if not (on_circle[k, ca] and on_circle[k, cb]):
                    raise ValueError(
                        f"boundary vertex of element {k} face {f} off the unit circle")

    gll = rf.gauss_lobatto_1d(N_geo + 1).points
    u = 0.5 * (gll + 1.0)
    n = N_geo + 1

    def edge_curve(k, f, t):
        ca, cb = mg._QUAD_FACE_CORNERS[f]
        A, B = corners[k, ca], corners[k, cb]
        if base.boundary_tags[k, f]:
            th0 = np.arctan2(A[1], A[0])
            th1 = np.arctan2(B[1], B[0])
            dth = (th1 - th0 + np.pi) % (2.0 * np.pi) - np.pi
            th = th0 + dth * t
            return np.column_stack([np.cos(th), np.sin(th)])
        return (1.0 - t)[:, None] * A[None, :] + t[:, None] * B[None, :]

    UI, UJ = np.meshgrid(u, u, indexing="ij")
    Ul = UI.T.ravel()[:, None]
    Vl = UJ.T.ravel()[:, None]

    nodes = np.empty((base.K, n * n, 2))
    for k in range(base.K):
        if not base.boundary_tags[k].any():
            c = corners[k]
            nodes[k] = ((1 - Ul) * (1 - Vl) * c[0] + Ul * (1 - Vl) * c[1]
                        + Ul * Vl * c[2] + (1 - Ul) * Vl * c[3])
            continue
        B = edge_curve(k, 0, u)
        R = edge_curve(k, 1, u)
        T = edge_curve(k, 2, 1.0 - u)
        L = edge_curve(k, 3, 1.0 - u)
        c = corners[k]
        for j in range(n):
            for i in range(n):
                uu, vv = u[i], u[j]
                blend = ((1 - vv) * B[i] + vv * T[i]
                         + (1 - uu) * L[j] + uu * R[j]
                         - ((1 - uu) * (1 - vv) * c[0] + uu * (1 - vv) * c[1]
                            + uu * vv * c[2] + (1 - uu) * vv * c[3]))
                nodes[k, j * n + i] = blend
    corners_new = nodes[:, mg._corner_indices(N_geo), :]
    h = float(np.max(np.linalg.norm(corners_new - np.roll(corners_new, 2, axis=1), axis=2)))
    prov = _prov or {"kind": "disk", "n": base.provenance.get("n"),
                     "a": base.provenance.get("a", 0.5),
                     "radial": base.provenance.get("radial"), "N_geo": N_geo}
    return mg._assemble_quad_mesh(nodes, N_geo, h, prov)


def ref_validate_positive_jacobian(mesh):
    """The validator before the J-only rewrite: J at the volume points of a
    full reference element and geometry, then on the dense grid."""
    deg = 4 * mesh.N_geo + 2
    ref = rf.build_reference_element(max(1, mesh.N_geo), mesh.shape,
                                     volume_quad_degree=deg, face_quad_degree=deg)
    jmin = float(geom.compute_geometric_data(mesh, ref).Jq.min())
    if mesh.shape is QUAD:
        grid = geom._sample_grid(2 * mesh.N_geo + 3)
        Er, Es = rf.nodal_grad_matrices(mesh.shape, mesh.N_geo, grid)
        X, Y = mesh.elem_map_nodes[..., 0], mesh.elem_map_nodes[..., 1]
        Jg = (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)
        if np.any(Jg <= 0):
            k, q = np.argwhere(Jg <= 0)[0]
            raise geom.NonPositiveJacobian(int(k), int(q), float(Jg[k, q]))
        jmin = min(jmin, float(Jg.min()))
    return jmin


REFERENCE_IMPLS = {
    "_build_connectivity": ref_build_connectivity,
    "_elements_from_global_grid": ref_elements_from_global_grid,
    "_bilinear_elements": ref_bilinear_elements,
    "_bilinear_block_elements": ref_bilinear_block_elements,
    "arnold_mesh": ref_arnold_mesh,
    "gordon_hall_disk_mesh": ref_gordon_hall_disk_mesh,
}

ORACLE_CASES = (
    [pytest.param(make, id=f"family{i}") for i, make in enumerate(ALL_FAMILIES)]
    + [pytest.param(lambda i=i: mg.refine(ALL_FAMILIES[i]()), id=f"refine-family{i}")
       for i in range(len(ALL_FAMILIES))]
    + [pytest.param(lambda l=level, n=N_geo: mg.disk_mesh(l, n), id=f"disk{level}-Ngeo{N_geo}")
       for level in range(4) for N_geo in (1, 2, 3, 6)]
    + [pytest.param(lambda: mg.disk_mesh(1, 2, n0=3), id="disk1-Ngeo2-n0=3"),
       pytest.param(lambda: mg.disk_base_mesh(5, radial=3), id="disk_base5-radial3"),
       pytest.param(lambda: mg.refine(mg.disk_base_mesh(5, radial=3)), id="refine-disk_base5"),
       pytest.param(lambda: mg.random_perturbed_mesh(6, 2, 0.3, seed=3), id="random-retries")]
    # draws near the retry limit (4, 11 and 18 rejected draws)
    + [pytest.param(lambda a=args: mg.random_perturbed_mesh(*a[:3], seed=a[3]),
                    id="random-{}-{}-{}-seed{}".format(*args))
       for args in [(6, 2, 0.25, 4), (4, 2, 0.3, 5), (4, 3, 0.3, 3)]]
)


@pytest.mark.parametrize("make", ORACLE_CASES)
def test_bitwise_equal_to_loop_reference(make, monkeypatch):
    m = make()
    with monkeypatch.context() as mp:
        for name, fn in REFERENCE_IMPLS.items():
            mp.setattr(mg, name, fn)
        mp.setattr(geom, "validate_positive_jacobian", ref_validate_positive_jacobian)
        ref = make()
    assert np.array_equal(m.elem_map_nodes, ref.elem_map_nodes)
    assert np.array_equal(m.face_connectivity, ref.face_connectivity)
    assert np.array_equal(m.boundary_tags, ref.boundary_tags)
    assert m.face_connectivity.dtype == ref.face_connectivity.dtype
    assert m.boundary_tags.dtype == ref.boundary_tags.dtype
    assert m.h == ref.h
    assert m.provenance == ref.provenance


def test_draw_folded_at_face_points_rejected(monkeypatch):
    # The old validator never evaluated J at face points and accepted this
    # draw, whose map folds on a face; the current one retries past it.
    make = lambda: mg.random_perturbed_mesh(4, 3, 0.25, seed=1)
    with monkeypatch.context() as mp:
        mp.setattr(geom, "validate_positive_jacobian", ref_validate_positive_jacobian)
        old = make()
    new = make()
    sets = geom.check_points(old)
    assert geom.jacobian_at(old, sets["volume"]).min() > 0
    assert geom.jacobian_at(old, sets["face"]).min() < 0
    assert all(geom.jacobian_at(new, p).min() > 0 for p in sets.values())


def test_face_shared_by_three_elements_rejected():
    # two copies of the element right of x = 1 both claim the face it shares
    # with the unit square
    nodes = mg.uniform_quad_mesh(2, domain=((0, 2), (0, 1))).elem_map_nodes
    nodes = np.concatenate([nodes[:2], nodes[1:2]])
    with pytest.raises(ValueError, match="more than two faces"):
        mg._build_connectivity(nodes, 1)
    # the dict matcher silently left the third claimant as a boundary face
    assert ref_build_connectivity(nodes, 1)[1][2, 3] == mg.BOUNDARY_DIRICHLET
