import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import refelem as rf

from conftest import face_points

ALL_FAMILIES = [
    lambda: mg.uniform_quad_mesh(3, N_geo=2),
    lambda: mg.arnold_mesh(1),
    lambda: mg.random_perturbed_mesh(4, 3, 0.2, seed=3),
    lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3),
    lambda: mg.disk_mesh(1, 3),
]
# the same meshes as (kind, N_geo, params) of `mesh_family`
FAMILY_SPECS = [
    ("uniform", 2, {"K1D": 3}),
    ("arnold", 1, {"level": 1}),
    ("random", 3, {"K1D": 4, "amplitude": 0.2, "seed": 3}),
    ("warped", 3, {"omega": 1.0, "K1D": 4}),
    ("disk", 3, {"level": 1}),
]


def family(i, levels):
    kind, N_geo, params = FAMILY_SPECS[i]
    return mg.mesh_family(kind, levels, N_geo, **params)


def geo_for(mesh, N=3):
    ref = rf.build_reference_element(max(N, mesh.N_geo))
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
        # the longest diagonal spans a 1/2-wide column and a 5/8-tall side
        assert m.h == pytest.approx(np.hypot(0.5, 0.625), rel=1e-15)
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
        for k in range(len(g.Jq)):
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

    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_amplitude_02_always_invertible(self, N_geo, seed):
        # the range the docstring states: 0.2 never runs out of draws
        m = mg.random_perturbed_mesh(6, N_geo, 0.2, seed)
        assert geom.validate_positive_jacobian(m) > 0

    def test_amplitude_025_can_run_out_of_draws(self):
        with pytest.raises(geom.NonPositiveJacobian):
            mg.random_perturbed_mesh(6, 3, 0.25, seed=0)

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
        nodes = rf.interpolation_nodes(3)
        for k in range(m.K):
            for f, (mid, dvec) in enumerate(rf.FACES):
                if not m.boundary_tags[k, f]:
                    continue
                rel = nodes - mid
                on_face = np.abs(rel[:, 0] * dvec[1] - rel[:, 1] * dvec[0]) < 1e-12
                xy = m.elem_map_nodes[k, on_face, :]
                assert len(xy) == 4
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

    def test_one_connectivity_and_one_jacobian_check(self, monkeypatch):
        # the straight O-grid corners give the connectivity; only the final
        # curved mesh is checked
        calls = []
        for owner, name in ((mg, "_build_connectivity"), (geom, "validate_positive_jacobian")):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        mg.disk_mesh(2, 3)
        assert sorted(calls) == ["_build_connectivity", "validate_positive_jacobian"]


class TestRefine:
    """Member l + 1 of a `mesh_family` splits every element of member l in four."""

    def test_uniform_node_for_node(self):
        for l, m in enumerate(mg.mesh_family("uniform", 3, K1D=2)):
            assert np.array_equal(m.elem_map_nodes, mg.uniform_quad_mesh(2 * 2**l).elem_map_nodes)

    def test_arnold_self_similarity(self):
        for l, m in enumerate(mg.mesh_family("arnold", 3, level=1)):
            assert np.array_equal(m.elem_map_nodes, mg.arnold_mesh(1 + l).elem_map_nodes)

    def test_disk_nested(self):
        coarse, fine = mg.mesh_family("disk", 2, N_geo=3, level=1)
        assert np.array_equal(fine.elem_map_nodes, mg.disk_mesh(2, 3).elem_map_nodes)
        # every coarse vertex is a fine vertex
        vc = coarse.elem_map_nodes[:, mg._corner_indices(3)].reshape(-1, 1, 2)
        vf = fine.elem_map_nodes[:, mg._corner_indices(3)].reshape(1, -1, 2)
        assert np.abs(vc - vf).max(axis=-1).min(axis=1).max() < 1e-14

    def test_disk_family_matches_disk_mesh(self):
        fam = mg.mesh_family("disk", 3, N_geo=2)
        for level, m in enumerate(fam):
            ref = mg.disk_mesh(level, 2)
            assert np.array_equal(m.elem_map_nodes, ref.elem_map_nodes)
            assert np.array_equal(m.face_connectivity, ref.face_connectivity)
            assert m.provenance == ref.provenance

    def test_area_preserved(self):
        g0, g1 = (geo_for(m)[1] for m in mg.mesh_family("arnold", 2))
        assert geom.element_areas(g1).sum() == pytest.approx(
            geom.element_areas(g0).sum(), abs=1e-12)

    def test_h_halves(self):
        # exactly on the self-similar families; the largest diagonal of the
        # others (the warp amplitude omega/(K1D+1) is not self-similar)
        # shrinks by a factor between 1.7 and 2
        for i, (kind, _, _) in enumerate(FAMILY_SPECS):
            m0, m1 = family(i, 2)
            assert m1.K == 4 * m0.K
            if kind in ("uniform", "arnold"):
                assert m1.h == pytest.approx(m0.h / 2)
            else:
                assert 1.7 < m0.h / m1.h <= 2.0

    def test_h_is_the_longest_diagonal(self):
        for i in range(len(FAMILY_SPECS)):
            for m in family(i, 3):
                corners = m.elem_map_nodes[:, mg._corner_indices(m.N_geo), :]
                assert m.h == ref_max_diagonal(corners), (FAMILY_SPECS[i], m.h)

    def test_random_family_subdivides(self):
        m0, m1 = family(2, 2)
        assert np.array_equal(m1.elem_map_nodes, mg.subdivide(m0).elem_map_nodes)
        assert m1.provenance == {"kind": "subdivided", "parent": m0.provenance}

    def test_first_member_is_the_generator_mesh(self):
        for i, make in enumerate(ALL_FAMILIES):
            (m,) = family(i, 1)
            assert np.array_equal(m.elem_map_nodes, make().elem_map_nodes)

    @pytest.mark.parametrize("kind, levels", [("disk", 0), ("hexagon", 2)])
    def test_bad_family_rejected(self, kind, levels):
        with pytest.raises(ValueError):
            mg.mesh_family(kind, levels)


@pytest.mark.parametrize("make", ALL_FAMILIES)
def test_conformity(make):
    """Interior face quadrature coordinates coincide after CCW reversal."""
    m = make()
    ref, _ = geo_for(m)
    xf, yf = face_points(m, ref)
    nfq = ref.nfq
    worst = 0.0
    for k in range(m.K):
        for f in range(4):
            k2, f2 = m.face_connectivity[k, f]
            if k2 < 0:
                continue
            sl = slice(f * nfq, (f + 1) * nfq)
            sl2 = slice(f2 * nfq, (f2 + 1) * nfq)
            gap = np.hypot(xf[k, sl] - xf[k2, sl2][::-1],
                           yf[k, sl] - yf[k2, sl2][::-1])
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
        assert m2.N_geo == m.N_geo and m2.K == m.K
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

    def test_non_quadrilateral_shape_rejected(self, tmp_path):
        path = _corrupt(tmp_path, mg.uniform_quad_mesh(2),
                        lambda doc: doc.update(shape="triangle"))
        with pytest.raises(ValueError, match="'triangle'"):
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

def ref_build_connectivity(corners):
    K = corners.shape[0]
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


def ref_max_diagonal(corners):
    """Longest corner-to-opposite-corner distance, element by element."""
    return max(float(np.sqrt(np.sum((c[i] - c[i + 2]) ** 2)))
               for c in corners for i in (0, 1))


def ref_assemble(nodes, N_geo, prov):
    corners = nodes[:, mg._corner_indices(N_geo), :]
    conn, tags = ref_build_connectivity(corners)
    return mg.CurvedMesh2D(N_geo=N_geo, elem_map_nodes=nodes, face_connectivity=conn,
                           boundary_tags=tags, h=ref_max_diagonal(corners), provenance=prov)


def ref_arnold_mesh(level, N_geo=1):
    K1D = 2 ** (level + 1)
    h = 1.0 / K1D
    vx = np.arange(K1D + 1) * h
    VX, VY = np.meshgrid(vx, vx, indexing="ij")
    VY = VY.copy()
    for i in range(K1D + 1):
        for j in range(1, K1D):
            VY[i, j] += (-1.0) ** (i + j) * h / 4.0
    nodes = ref_bilinear_elements(VX, VY, K1D, N_geo)
    prov = {"kind": "arnold", "level": level, "N_geo": N_geo}
    return ref_assemble(nodes, N_geo, prov)


def ref_disk_corners(n, m, a=0.5):
    """O-grid corners (bl, br, tr, tl) element by element: the centre block,
    then the top ring block and its rotations by -90, -180, -270 degrees."""
    xe = np.linspace(-a, a, n + 1)
    theta = 0.75 * np.pi - 0.5 * np.pi * np.linspace(0.0, 1.0, n + 1)
    cos, sin = np.cos(theta), np.sin(theta)
    t = np.linspace(0.0, 1.0, m + 1)

    def vertex(block, i, j):
        if block == 0:
            return xe[i], xe[j]
        x = (1.0 - t[j]) * xe[i] + t[j] * cos[i]
        y = (1.0 - t[j]) * a + t[j] * sin[i]
        for _ in range(block - 1):
            x, y = y, -x
        return x, y

    corners = []
    for block in range(5):
        n2 = n if block == 0 else m
        for ej in range(n2):
            for ei in range(n):
                corners.append([vertex(block, ei + di, ej + dj)
                                for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))])
    return np.array(corners, dtype=float)


def ref_disk_mesh(level, N_geo):
    """Gordon-Hall blend of the O-grid with boundary faces read from the
    straight corners; the connectivity is recomputed from the curved nodes."""
    n, m = 2 * 2**level, 2**level
    corners = ref_disk_corners(n, m)
    tags = ref_build_connectivity(corners)[1]

    gll = rf.gauss_lobatto_1d(N_geo + 1).points
    u = 0.5 * (gll + 1.0)
    nq = N_geo + 1

    def edge_curve(k, f, t):
        ca, cb = mg._QUAD_FACE_CORNERS[f]
        A, B = corners[k, ca], corners[k, cb]
        if tags[k, f]:
            th0 = np.arctan2(A[1], A[0])
            th1 = np.arctan2(B[1], B[0])
            dth = (th1 - th0 + np.pi) % (2.0 * np.pi) - np.pi
            th = th0 + dth * t
            return np.column_stack([np.cos(th), np.sin(th)])
        return (1.0 - t)[:, None] * A[None, :] + t[:, None] * B[None, :]

    UI, UJ = np.meshgrid(u, u, indexing="ij")
    Ul = UI.T.ravel()[:, None]
    Vl = UJ.T.ravel()[:, None]

    nodes = np.empty((len(corners), nq * nq, 2))
    for k in range(len(corners)):
        if not tags[k].any():
            c = corners[k]
            nodes[k] = ((1 - Ul) * (1 - Vl) * c[0] + Ul * (1 - Vl) * c[1]
                        + Ul * Vl * c[2] + (1 - Ul) * Vl * c[3])
            continue
        B = edge_curve(k, 0, u)
        R = edge_curve(k, 1, u)
        T = edge_curve(k, 2, 1.0 - u)
        L = edge_curve(k, 3, 1.0 - u)
        c = corners[k]
        for j in range(nq):
            for i in range(nq):
                uu, vv = u[i], u[j]
                blend = ((1 - vv) * B[i] + vv * T[i]
                         + (1 - uu) * L[j] + uu * R[j]
                         - ((1 - uu) * (1 - vv) * c[0] + uu * (1 - vv) * c[1]
                            + uu * vv * c[2] + (1 - uu) * vv * c[3]))
                nodes[k, j * nq + i] = blend
    prov = {"kind": "disk", "n": n, "radial": m, "N_geo": N_geo, "level": level}
    return ref_assemble(nodes, N_geo, prov)


def ref_validate_positive_jacobian(mesh):
    """The validator before the J-only rewrite: J at the volume points of a
    full reference element and geometry, then on the dense grid."""
    deg = 4 * mesh.N_geo + 2
    ref = rf.build_reference_element(max(1, mesh.N_geo), deg)
    jmin = float(geom.compute_geometric_data(mesh, ref).Jq.min())
    grid = rf.interpolation_nodes(2 * mesh.N_geo + 2)
    Er = rf.nodal_eval_matrix(mesh.N_geo, grid, 1, 0)
    Es = rf.nodal_eval_matrix(mesh.N_geo, grid, 0, 1)
    X, Y = mesh.elem_map_nodes[..., 0], mesh.elem_map_nodes[..., 1]
    Jg = (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)
    if np.any(Jg <= 0):
        k, q = np.argwhere(Jg <= 0)[0]
        raise geom.NonPositiveJacobian(int(k), int(q), float(Jg[k, q]))
    return min(jmin, float(Jg.min()))


# whole-mesh references (arnold, disk) and the array helpers the other
# generators share, swapped in for the array code
REFERENCE_IMPLS = {
    "_build_connectivity": ref_build_connectivity,
    "_elements_from_global_grid": ref_elements_from_global_grid,
    "arnold_mesh": ref_arnold_mesh,
    "disk_mesh": ref_disk_mesh,
}

ORACLE_CASES = (
    [pytest.param(make, id=f"family{i}") for i, make in enumerate(ALL_FAMILIES)]
    + [pytest.param(lambda i=i: family(i, 2)[1], id=f"refine-family{i}")
       for i in range(len(ALL_FAMILIES))]
    + [pytest.param(lambda l=level, n=N_geo: mg.disk_mesh(l, n), id=f"disk{level}-Ngeo{N_geo}")
       for level in range(4) for N_geo in (1, 2, 3, 6)]
    + [pytest.param(lambda: mg.random_perturbed_mesh(6, 2, 0.3, seed=3), id="random-retries")]
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
    corners = nodes[:, mg._corner_indices(1), :]
    with pytest.raises(ValueError, match="more than two faces"):
        mg._build_connectivity(corners)
    # the dict matcher silently left the third claimant as a boundary face
    assert ref_build_connectivity(corners)[1][2, 3] == mg.BOUNDARY_DIRICHLET
