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
