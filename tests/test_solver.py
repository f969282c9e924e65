from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from wadg import analysis as an
from wadg import cli
from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import operators as ops
from wadg import refelem as rf
from wadg import solver as sv
from wadg.solver import FluxParams, Formulation, MassMode, SolverConfig

from conftest import clear_reference_caches, fit_slope, pairwise_slopes, premultiplied_rhs


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
    pre = premultiplied_rhs(q, disc)
    Mh = disc.ref.Mhat
    return sum(np.einsum("ki,ij,kj->", q[f], Mh, pre[f]) for f in range(3))


def wadg_energy(q, disc):
    """1/2 sum_f (Mhat q_f)^T M_w^-1 (Mhat q_f), M_w the mass matrix weighted
    by c^2/J (pressure) or 1/J (velocity) on the node rule: the norm in
    which the weight-adjusted scheme conserves energy exactly at tau = 0."""
    total = 0.0
    for qf, w in zip(q, (disc.w_node_p, disc.w_node_u, disc.w_node_u)):
        Mw = ops.weighted_mass_matrix(disc.ref_node, w)
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


@pytest.fixture(scope="module")
def warped_family_n3():
    """Warped omega = 1 meshes of levels 0..3 at N_geo = 3."""
    return [mg.warped_arnold_mesh(mg.WarpParams(1.0, 4 * 2**level), 3) for level in range(4)]


def cosine_mode(x, y, t):
    """Dirichlet standing mode of [-1, 1]^2,
    p = cos(pi x / 2) cos(pi y / 2) cos(pi t / sqrt 2)."""
    return np.cos(np.pi * x / 2) * np.cos(np.pi * y / 2) * np.cos(np.pi * t / np.sqrt(2))


def cosine_initial(x, y):
    p = cosine_mode(x, y, 0.0)
    return p, np.zeros_like(p), np.zeros_like(p)


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
        d = premultiplied_rhs(st, disc)
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
                    a = premultiplied_rhs(st, dS)
                    b = premultiplied_rhs(st, dW)
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
        # tau >= 0: dE/dt = -1/2 sum_f int tau_p [p]^2 + tau_u ([u].n)^2, on
        # the warped mesh, whose elements are all curved, and on a disk,
        # where the strong form takes the node rule on the bilinear ones
        tau_p, tau_u = 0.7, 1.3
        cfg = SolverConfig(N=3, formulation=Formulation(form),
                           flux=FluxParams(tau_p, tau_u))
        for mesh in (curved_mesh, mg.disk_mesh(1, 3)):
            disc = sv.Discretization(mesh, cfg)
            st = random_state(disc, rng)
            dE = energy_rate(st, disc)
            geo_ = disc.geo
            uf = disc.face_traces(st)
            pM, u1M, u2M = uf
            pP, u1P, u2P = uf.reshape(3, -1)[:, disc._gather_idx]
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

    @pytest.mark.parametrize("N", [2, 4])
    def test_zero_penalty_energy_rate_on_mixed_elements(self, rng, N):
        # tau = 0, strong form on a disk of bilinear elements (node-rule
        # volume terms) and curved ones (the 2N + N_geo - 1 rule): discrete
        # integration by parts holds on each, so the energy rate is
        # round-off of the terms it sums, element by element
        disc = sv.Discretization(mg.disk_mesh(1, 3), SolverConfig(N=N, flux=FluxParams(0, 0)))
        assert disc.vol_ref.Nq == disc.ref.Np < disc.ref.Nq
        st = random_state(disc, rng)
        pre = premultiplied_rhs(st, disc)
        terms = np.einsum("fki,ij,fkj->fki", st, disc.ref.Mhat, pre)
        assert abs(energy_rate(st, disc)) <= 1e-14 * np.sum(np.abs(terms))


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
        mass_rule = disc.ref_node if mode == "wadg" else disc.ref_mass
        assert mass_rule.volume_quad.exactness_degree >= need

    @pytest.mark.parametrize("N, form, mode, degrees", [
        (6, "strong", "wadg", (17, 17, 13)),
        (2, "strong", "wadg", (5, 5, 5)),
        (4, "strong-weak", "exact", (9, 9, 17)),
    ], ids=["disk3-N6-strong-wadg", "disk5-N2-strong-wadg", "disk3-N4-sw-exact"])
    def test_benchmark_workload_rules(self, N, form, mode, degrees):
        # degrees depend on (N, N_geo, form, mode) only, so level 0 will do
        disc = sv.Discretization(mg.disk_mesh(0, N), SolverConfig(
            N=N, formulation=Formulation(form), mass_mode=MassMode(mode)))
        mass_rule = disc.ref_node if mode == "wadg" else disc.ref_mass
        assert (disc.ref.volume_quad.exactness_degree,
                disc.ref.face_quad_1d.exactness_degree,
                mass_rule.volume_quad.exactness_degree) == degrees


class TestReferenceCache:
    def test_discretizations_on_different_meshes_share_reference_elements(self):
        cfg = SolverConfig(N=2, mass_mode=MassMode.ExactCurvedMass)
        a = sv.Discretization(mg.disk_mesh(0, 2), cfg)
        b = sv.Discretization(mg.warped_arnold_mesh(mg.WarpParams(1.0, 2), 2), cfg)
        assert a.ref is b.ref and a.ref_node is b.ref_node and a.ref_mass is b.ref_mass
        assert a.rule(2 * 2 + 4)[0] is b.rule(2 * 2 + 4)[0]

    @pytest.mark.parametrize("form", FORMS)
    def test_cold_build_matches_warm_bitwise(self, form, rng):
        mesh = mg.disk_mesh(1, 3)
        cfg = SolverConfig(N=3, formulation=Formulation(form))
        warm = sv.Discretization(mesh, cfg)
        q = random_state(warm, rng)
        expect = sv.rhs_full(q, warm).copy()
        clear_reference_caches()
        cold = sv.Discretization(mesh, cfg)
        assert cold.ref is not warm.ref
        assert np.array_equal(sv.rhs_full(q, cold), expect)

    def test_second_run_builds_no_reference_data(self, monkeypatch):
        # every reference operator and mapping matrix is built from
        # modal_deriv_eval, so a run whose reference data is all cached
        # calls it zero times, mesh generation and validation included
        cfg = SolverConfig(N=2, mass_mode=MassMode.ExactCurvedMass)
        calls = []
        modal = rf.modal_deriv_eval
        monkeypatch.setattr(rf, "modal_deriv_eval", lambda *a: calls.append(a) or modal(*a))

        def solve():
            calls.clear()
            sv.run(mg.disk_mesh(1, 2), cfg, sv.bessel_initial_condition, 0.02,
                   exact_p=sv.bessel_pressure)
            return len(calls)

        clear_reference_caches()
        assert solve() > 0
        assert solve() == 0


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
        assert disc.mass_inv_p is None and disc.mass_inv_u is None and disc.c2 is None
        assert len(disc.dense) == 0 and disc.ref_mass is None
        # per-element update data is pointwise weights only
        assert disc.w_node_p.shape == (curved_mesh.K, disc.ref_node.Nq)
        assert disc.w_node_u.shape == (curved_mesh.K, disc.ref_node.Nq)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    def test_wadg_mass_rule_is_the_solution_nodes(self, N, N_geo):
        ref = disk1_wadg(N, N_geo).ref_node
        assert np.array_equal(ref.volume_quad.points, disk1_wadg(N, N_geo).ref.nodes)
        assert np.max(np.abs(ref.Vq - np.eye(ref.Np))) <= 1e-13
        assert np.max(np.abs(ref.Pq - np.eye(ref.Np))) <= 1e-13

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("N_geo", [1, 2, 3])
    def test_pointwise_scale_is_the_weight_adjusted_inverse(self, N, N_geo, rng):
        disc = disk1_wadg(N, N_geo)
        z = random_state(disc, rng)
        blk, = geom.element_blocks(disc.mesh.K)
        got = sv.apply_mass_inverse(z.copy(), disc, blk)
        for f, w in enumerate((disc.w_node_p, disc.w_node_u, disc.w_node_u)):
            Mz = z[f] @ disc.ref_node.Mhat.T
            expect = ops.apply_weight_adjusted_inverse(disc.ref_node, w, Mz)
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
            ref = disc.rule(disc.mass_deg)[0]
            g = geom.compute_geometric_data(curved_mesh, ref)
            c2 = medium.values(g.xq, g.yq)
            expect = sum(0.5 * np.einsum("ki,kij,kj->", qf,
                                         ops.weighted_mass_matrix(ref, w), qf)
                         for qf, w in zip(q, (g.Jq / c2, g.Jq, g.Jq)))
        assert sv.energy(q, disc) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("medium", ["constant", "piecewise"])
    @pytest.mark.parametrize("form", FORMS)
    def test_energy_reads_the_node_rule_on_bilinear_elements(self, monkeypatch, rng, form,
                                                             medium):
        # c^2 constant on each element of a disk, in blocks of 40: exact
        # mode holds the mass-rule weights of the 32 curved elements only,
        # and `energy` takes diag(w J) / c^2 on the node rule of the 160
        # bilinear ones, which is their exact mass
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", 40)
        mesh = mg.disk_mesh(2, 3)
        med = sv.MediumField(2.25 if medium == "constant" else
                             lambda x, y: 1.0 + 3.0 * (x > 0))
        disc = sv.Discretization(mesh, SolverConfig(
            N=3, formulation=Formulation(form), mass_mode=MassMode.ExactCurvedMass), med)
        ref = disc.ref_mass
        assert disc.w_mass_p.shape == disc.w_mass_u.shape == (32, ref.Nq)
        assert np.array_equal(disc.dense, np.flatnonzero(mesh.boundary_tags.any(axis=1)))
        q = random_state(disc, rng)
        g = geom.compute_geometric_data(mesh, ref)
        c2 = med.values(g.xq, g.yq)
        expect = sum(0.5 * np.einsum("ki,kij,kj->", qf, ops.weighted_mass_matrix(ref, w), qf)
                     for qf, w in zip(q, (g.Jq / c2, g.Jq, g.Jq)))
        assert sv.energy(q, disc) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    def test_energy_is_the_norm_of_the_applied_mass_inverse(self, curved_mesh, rng, mode):
        # 1/2 sum_f q_f . (Mhat A_f^-1) q_f with A_f the per-element operator
        # apply_mass_inverse applies: one set of weights defines both.  With
        # a constant c^2, exact mode applies c^2 M_J^-1 Mhat to the pressure.
        # Exact mode holds the transpose of each A_f = M^-1 Mhat
        for medium in (cli.MEDIA["radial_sine"](), sv.MediumField(2.25)):
            disc = sv.Discretization(curved_mesh, SolverConfig(N=3, mass_mode=MassMode(mode)),
                                     medium)
            q = random_state(disc, rng)
            if mode == "wadg":
                w = (disc.w_node_p, disc.w_node_u, disc.w_node_u)
                A_inv_q = [qf / wf for qf, wf in zip(q, w)]
            else:
                A_u, A_p = (None if X is None else X.transpose(0, 2, 1)
                            for X in (disc.mass_inv_u, disc.mass_inv_p))
                A_inv_q = [np.linalg.solve(A_u, qf[..., None])[..., 0] for qf in q]
                if disc.c2 is None:
                    A_inv_q[0] = np.linalg.solve(A_p, q[0][..., None])[..., 0]
                else:
                    A_inv_q[0] /= disc.c2
            expect = 0.5 * sum(np.sum(qf * (z @ disc.ref.Mhat.T)) for qf, z in zip(q, A_inv_q))
            assert sv.energy(q, disc) == pytest.approx(expect, rel=1e-13)

    # (mesh, medium, mode) of each mass layout: the node scale alone
    # (WADG, or exact on an all-bilinear mesh, with no dense element), the
    # scale and one stack on the curved elements 20-23, 28-31, 36-39 and
    # 44-47 of the disk, whose 28-31 straddle the block edge at 30 in
    # blocks of 6, and the stacks alone on every element
    MASS_LAYOUTS = {
        "wadg": (lambda: mg.disk_mesh(1, 3), "radial_sine", "wadg"),
        "exact-mixed": (lambda: mg.disk_mesh(1, 3), "constant", "exact"),
        "exact-one-stack-all-dense": (
            lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3), "constant", "exact"),
        "exact-two-stacks": (lambda: mg.disk_mesh(1, 3), "radial_sine", "exact"),
        "exact-no-dense": (lambda: mg.uniform_quad_mesh(4, N_geo=3), "constant", "exact"),
    }

    @pytest.mark.parametrize("layout", list(MASS_LAYOUTS))
    def test_energy_polarizes_to_the_applied_mass_inverse(self, monkeypatch, rng, layout):
        # E(q) = 1/2 sum_f q_f^T M_f q_f, and apply_mass_inverse maps z to
        # r = M_f^-1 Mhat z_f: E(q + r) - E(q) - E(r) = sum_f q_f^T Mhat z_f
        make, medium, mode = self.MASS_LAYOUTS[layout]
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", 6)
        med = sv.MediumField(2.25) if medium == "constant" else cli.MEDIA[medium]()
        disc = sv.Discretization(make(), SolverConfig(N=3, mass_mode=MassMode(mode)), med)
        K = disc.mesh.K
        n_dense = {"wadg": 0, "exact-mixed": 16, "exact-no-dense": 0}.get(layout, K)
        assert len(disc.dense) == n_dense and len(geom.element_blocks(K)) > 1
        assert (disc.w_node_p is None) == (n_dense == K)
        q, z = random_state(disc, rng), random_state(disc, rng)
        r = np.empty_like(z)
        for blk in geom.element_blocks(K):
            r[:, blk] = sv.apply_mass_inverse(z[:, blk].copy(), disc, blk)
        E = lambda s: sv.energy(s, disc)
        q *= np.sqrt(E(r) / E(q))     # |q| ~ |r|, so E(q + r) cancels little
        expect = np.einsum("fki,ij,fkj->", q, disc.ref.Mhat, z)
        assert E(q + r) - E(q) - E(r) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("medium", ["constant", "piecewise"])
    @pytest.mark.parametrize("form", FORMS)
    def test_exact_equals_wadg_bitwise_without_a_curved_element(self, rng, form, medium):
        # every element bilinear and c^2 constant on each: no element is
        # dense, and exact mode's inverse is WADG's node scale, bit for bit
        mesh = mg.uniform_quad_mesh(4, N_geo=3)
        med = sv.MediumField(2.25 if medium == "constant" else
                             lambda x, y: 1.0 + 3.0 * (x > 0))
        wadg, exact = (sv.Discretization(mesh, SolverConfig(
            N=3, formulation=Formulation(form), mass_mode=mode), med) for mode in MassMode)
        assert len(exact.dense) == 0 and exact.c2.shape == (0, 1)
        q = random_state(wadg, rng)
        assert np.array_equal(sv.rhs_full(q, wadg), sv.rhs_full(q, exact))
        assert sv.energy(q, wadg) == sv.energy(q, exact)
        (a, diag_a), (b, diag_b) = (sv.run(mesh, disc.config, cosine_initial, 0.2, medium=med,
                                           n_outputs=2) for disc in (wadg, exact))
        assert diag_a["steps"] >= 5
        assert np.array_equal(a.q, b.q) and np.array_equal(diag_a["energy"], diag_b["energy"])

    @pytest.mark.parametrize("medium", ["constant", "radial_sine"])
    @pytest.mark.parametrize("form", FORMS)
    def test_exact_product_is_the_per_element_solve(self, monkeypatch, rng, form, medium):
        # a disk of 192 elements in blocks of 40: five blocks, the last one
        # short.  A constant c^2 other than 1 holds one stack, of the 32
        # curved elements (those with a boundary face), scales the bilinear
        # ones by 1/J and the pressure by c^2; radial_sine holds a stack
        # per weight on every element
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", 40)
        mesh = mg.disk_mesh(2, 3)
        med = sv.MediumField(2.25) if medium == "constant" else cli.MEDIA[medium]()
        disc = sv.Discretization(mesh, SolverConfig(
            N=3, formulation=Formulation(form), mass_mode=MassMode.ExactCurvedMass), med)
        assert (disc.mass_inv_p is None) == (medium == "constant")
        lin = ~mesh.boundary_tags.any(axis=1) & (medium == "constant")
        assert lin.sum() == (160 if medium == "constant" else 0)
        Mhat = disc.ref.Mhat
        # the mass-rule weights of every element; disc holds those of the
        # dense elements, the curved ones when some element is bilinear
        assert np.array_equal(disc.dense, np.flatnonzero(~lin))
        w_p, w_u, _ = sv._mass_weights(mesh, disc.ref_mass, med)
        assert np.array_equal(disc.w_mass_p, w_p[~lin])
        assert np.array_equal(disc.w_mass_u, w_u[~lin])
        M_p, M_u = (ops.weighted_mass_matrix(disc.ref_mass, 1.0 / w) for w in (w_p, w_u))
        # the held stacks: C-contiguous, the transpose of solve(M, Mhat)
        for held, M in ((disc.mass_inv_u, M_u[~lin]), (disc.mass_inv_p, M_p)):
            if held is not None:
                assert held.flags.c_contiguous and held.shape == (len(M), 16, 16)
                X = np.linalg.solve(M, Mhat)
                assert np.max(np.abs(held - X.transpose(0, 2, 1))) <= 1e-15 * np.max(np.abs(X))
        # on a bilinear element M_J^-1 Mhat is diag(1/J) at the nodes; the
        # dense solve on the mass rule reaches it only to its round-off
        J = geom.compute_geometric_data(mesh, disc.rule(2 * 3 + 1)[0]).Jq
        if lin.any():
            X = np.linalg.solve(M_u[lin], Mhat)
            closed = (1.0 / J[lin])[:, :, None] * np.eye(16)
            assert np.max(np.abs(X - closed)) <= 1e-12 * np.max(np.abs(closed))
        z = random_state(disc, rng)
        blocks = geom.element_blocks(mesh.K)
        assert len(blocks) == 5
        for blk in blocks:
            got = sv.apply_mass_inverse(z[:, blk].copy(), disc, blk)
            for f, M in enumerate((M_p, M_u, M_u)):
                expect = np.linalg.solve(M[blk], (z[f, blk] @ Mhat.T)[..., None])[..., 0]
                scale = 2.25 if f == 0 else 1.0
                expect[lin[blk]] = scale * z[f, blk][lin[blk]] / J[blk][lin[blk]]
                assert np.max(np.abs(got[f] - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("mode", ["wadg", "exact"])
    def test_step_buffers_hold_three_field_arrays(self, monkeypatch, rng, mode):
        # a warm disk Discretization of 192 elements in blocks of 8: the
        # step registers y and res and the interior traces are the only step
        # arrays as large as one (K, Np) array; the block-sized rest
        # together stays below one
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", 8)
        mesh = mg.disk_mesh(2, 3)
        disc = sv.Discretization(mesh, SolverConfig(N=3, mass_mode=MassMode(mode)))
        sv.lsrk_step(sv.lsrk_step(random_state(disc, rng), 1e-3, disc), 1e-3, disc)
        one = mesh.K * disc.ref.Np * 8
        arrays = vars(disc.buffers)
        large = {name for name, a in arrays.items() if a.nbytes >= one}
        assert large == {"traces", "y", "res"}
        assert sum(arrays[name].nbytes for name in large) == 6 * one + disc.buffers.traces.nbytes
        assert disc.nbytes()["buffers"] < 6 * one + disc.buffers.traces.nbytes + one

    def test_exact_mass_data_is_Np_times_wadg(self):
        media = {"radial_sine": cli.MEDIA["radial_sine"](), "constant": sv.MediumField()}

        def held(mesh, N):
            return {(name, mode): sv.Discretization(mesh, SolverConfig(N=N, mass_mode=mode),
                                                    medium).nbytes()
                    for name, medium in media.items() for mode in MassMode}

        for N in range(1, 9):
            Np = (N + 1) ** 2
            # every element curved (the warp's nodes at N_geo <= 2 lie on a
            # bilinear map): exact mode holds a dense matrix per element,
            # `dense` indexes all K of them, and no node weights are held
            mesh = mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), max(N, 3))
            assert not geom.bilinear_elements(mesh).any()
            K, by_mesh = mesh.K, held(mesh, N)
            for name in media:
                wadg, exact = by_mesh[name, MassMode.WADG], by_mesh[name, MassMode.ExactCurvedMass]
                assert wadg["mass"] == 2 * K * Np * 8
                # the two modes share the formulation rule and the face tables
                assert wadg["face"] == exact["face"]
            # radial_sine: M^-1 Mhat of both weights, Np times the WADG weights;
            # a constant c^2: one M_J^-1 Mhat stack and the (K, 1) c^2; each
            # with the (K,) index array `dense`
            dense = K * 8
            assert by_mesh["radial_sine", MassMode.ExactCurvedMass]["mass"] == (
                Np * 2 * K * Np * 8 + dense)
            assert by_mesh["constant", MassMode.ExactCurvedMass]["mass"] == (
                K * Np**2 * 8 + K * 8 + dense)

            # the disk (polygonal, every element bilinear, at N_geo = 1):
            # radial_sine as above; a constant c^2 holds the stack, c^2 and
            # indices of the Kc curved elements and both node weights
            mesh = mg.disk_mesh(1, N)
            K, Kc, by_mesh = mesh.K, 16 if N > 1 else 0, held(mesh, N)
            assert by_mesh["radial_sine", MassMode.WADG]["mass"] == 2 * K * Np * 8
            assert by_mesh["radial_sine", MassMode.ExactCurvedMass]["mass"] == (
                Np * 2 * K * Np * 8 + K * 8)
            assert by_mesh["constant", MassMode.ExactCurvedMass]["mass"] == (
                Kc * Np**2 * 8 + Kc * 8 + Kc * 8 + 2 * K * Np * 8)

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
        geo_node = geom.compute_geometric_data(curved_mesh, disc.ref_node)
        expect = c2(geo_node.xq, geo_node.yq) / geo_node.Jq
        assert np.max(np.abs(disc.w_node_p - expect)) < 1e-14

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
    def _wadg_minus_exact(meshes, N, T, medium, exact_p=None,
                          initial=sv.bessel_initial_condition):
        """Per mesh, ||p_WADG - p_exact|| at T, both modes at the WADG run's
        step, and the (WADG, exact) pair of the runs' diags."""
        ref = rf.build_reference_element(N, 2 * N + 4)
        diffs, diags = [], []
        for mesh in meshes:
            out, dt = [], None
            for mode in (MassMode.WADG, MassMode.ExactCurvedMass):
                out.append(sv.run(mesh, SolverConfig(N=N, mass_mode=mode),
                                  initial, T, medium=medium,
                                  exact_p=exact_p, n_outputs=1, dt=dt))
                dt = out[0][1]["dt"]
            (wadg, dw), (exact, de) = out
            assert de["steps"] == dw["steps"]
            geo = geom.compute_geometric_data(mesh, ref)
            diffs.append(ops.global_l2_error(ref, geo, wadg.p - exact.p, lambda x, y: 0 * x))
            diags.append((dw, de))
        return diffs, diags

    def test_wadg_tracks_exact_mass_to_higher_order_on_disk(self, disk_family_n3):
        # on the disk family (bounded kappa~) the WADG error converges at
        # N + 1, and its distance to the exact-mass solution one order faster
        N = 3
        hs = [mesh.h for mesh in disk_family_n3]
        diffs, diags = self._wadg_minus_exact(disk_family_n3, N, 0.5, sv.MediumField(),
                                              exact_p=sv.bessel_pressure)
        errs = [dw["l2_error_p"][-1] for dw, _ in diags]
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

    def test_both_modes_follow_the_projection_rate_on_warped_meshes(self, warped_family_n3):
        # the other side of the dichotomy: on the warped omega = 1 family
        # (kappa~ grows like h^-3) the L2 projection itself converges at
        # about 2, not N + 1.  Both mass modes follow it, and WADG no longer
        # tracks exact mass to higher order: their distance converges no
        # faster than h^N.  N = N_geo = 3, so the WADG rule does not
        # integrate the J-weighted mass exactly.
        N = 3
        meshes = warped_family_n3
        hs = [mesh.h for mesh in meshes]
        ref_m = rf.build_reference_element(N, 4 * N)        # 2N + 2N_geo
        ref_e = rf.build_reference_element(N, 2 * N + 4)
        p0 = lambda x, y: cosine_mode(x, y, 0.0)
        proj = [ops.global_l2_error(ref_e, mesh, ops.l2_project(ref_m, mesh, p0), p0)
                for mesh in meshes]
        diffs, diags = self._wadg_minus_exact(meshes, N, 0.5, sv.MediumField(),
                                              exact_p=cosine_mode, initial=cosine_initial)
        rate = pairwise_slopes(hs, proj)
        for mode, errs in zip(MassMode, zip(*[[d["l2_error_p"][-1] for d in pair]
                                             for pair in diags])):
            slopes = pairwise_slopes(hs, errs)
            assert np.all(np.abs(slopes - rate) <= 0.35), (mode, slopes, rate)
        assert np.all(pairwise_slopes(hs, diffs) <= N), pairwise_slopes(hs, diffs)

    @pytest.mark.parametrize("level, N", [(3, 6), (2, 3), (1, 4)])
    def test_node_weights_take_J_from_the_node_rule_metric(self, level, N, monkeypatch):
        # the strong form with N_geo = N >= 3 holds the node-rule metric on
        # a disk: the node weights read J from it, bit for bit jacobian_at's,
        # and never evaluate jacobian_at on the node rule
        mesh = mg.disk_mesh(level, N)
        node_points = rf.build_reference_element(N, 2 * N + 1).volume_quad.points
        calls = []
        real = geom.jacobian_at
        monkeypatch.setattr(geom, "jacobian_at",
                            lambda m, points, *a: calls.append(points) or real(m, points, *a))
        disc = sv.Discretization(mesh, SolverConfig(N=N))
        assert disc.vol_ref is disc.ref_node and disc.curved is not None
        assert not any(p.shape == node_points.shape and np.array_equal(p, node_points)
                       for p in calls)
        monkeypatch.undo()
        w_p, w_u, _ = sv._mass_weights(mesh, disc.ref_node, disc.medium)
        assert np.array_equal(disc.w_node_p, w_p) and np.array_equal(disc.w_node_u, w_u)

    def test_all_dense_block_is_read_in_place(self, monkeypatch, rng):
        # a disk of 48 elements in blocks of 4: elements 20-23 of each ring
        # block have a boundary face, so some blocks are wholly dense while
        # the node weights are held.  Their GEMMs read z itself, which the
        # node weights must not scale first
        monkeypatch.setattr(geom, "ELEMENT_BLOCK", 4)
        mesh = mg.disk_mesh(1, 3)
        disc = sv.Discretization(mesh, SolverConfig(
            N=3, formulation=Formulation.StrongWeak, mass_mode=MassMode.ExactCurvedMass))
        assert disc.w_node_p is not None and disc.c2 is not None
        dense = np.zeros(mesh.K, dtype=bool)
        dense[disc.dense] = True
        blocks = geom.element_blocks(mesh.K)
        assert sum(dense[blk].all() for blk in blocks) == 4
        z = random_state(disc, rng)
        for blk in blocks:
            got = sv.apply_mass_inverse(z[:, blk].copy(), disc, blk)
            for f, w in enumerate((disc.w_node_p, disc.w_node_u, disc.w_node_u)):
                expect = z[f, blk] * w[blk]
                for i in np.flatnonzero(dense[blk]):
                    d = np.searchsorted(disc.dense, blk.start + i)
                    expect[i] = z[f, blk.start + i] @ disc.mass_inv_u[d]
                    if f == 0:
                        expect[i] *= disc.c2[d]
                assert np.max(np.abs(got[f] - expect)) <= 1e-14 * np.max(np.abs(expect))


class TestLSRK:
    def test_amplification_matches_exact_recurrence(self):
        """The degree-8 stability polynomial is its nested recurrence
        y <- 1 + (a_{j+1}/a_j) z y, j = 7..0, the stages of lsrk_step,
        computed in exact rational arithmetic."""
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

    def test_step_leaves_q_and_returns_a_register(self, rng):
        disc = sv.Discretization(mg.disk_mesh(0, 2), SolverConfig(N=2))
        q = random_state(disc, rng)
        before = q.copy()
        out = sv.lsrk_step(q, sv.stable_dt(disc), disc)
        assert np.array_equal(q, before)
        assert out is not q and out is disc.buffers.y
        assert sv.lsrk_step(out, sv.stable_dt(disc), disc) is disc.buffers.res

    def test_fourth_order_on_rotation(self, rng):
        # at zero penalty the strong-weak operator A is skew in the energy
        # norm, so expm(T A) is a rotation in that norm; Richardson order of
        # the step against it
        disc = sv.Discretization(mg.disk_mesh(0, 2), SolverConfig(
            N=2, formulation=Formulation.StrongWeak, flux=FluxParams(0, 0)))
        A = an.assemble_evolution_matrix(disc)
        q0 = random_state(disc, rng)
        T = 0.5
        exact = expm(T * A) @ q0.ravel()
        errs, dts = [], []
        for n in (10, 20, 40):
            q = q0
            for _ in range(n):
                q = sv.lsrk_step(q, T / n, disc)
            errs.append(np.linalg.norm(q.ravel() - exact))
            dts.append(T / n)
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

        def counted(q, dt, disc):
            out = step(q, dt, disc)
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

        def counted(q, dt_step, disc):
            calls.append(dt_step)
            return step(q, dt_step, disc)

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

    @pytest.mark.parametrize("n_outputs", [2.5, True, "3"])
    def test_non_integer_n_outputs_rejected_before_setup(self, monkeypatch, n_outputs):
        built = []
        monkeypatch.setattr(sv, "Discretization", lambda *a: built.append(a))
        with pytest.raises(sv.ConfigError, match="n_outputs must be an integer"):
            sv.run(mg.disk_mesh(0, 1), SolverConfig(N=1),
                   sv.bessel_initial_condition, 0.1, n_outputs=n_outputs)
        assert built == []

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
    @pytest.mark.parametrize("N", [2.5, "3", True, None])
    def test_non_integer_degree_rejected(self, N):
        with pytest.raises(sv.ConfigError, match=f"N must be an integer, got {N!r}"):
            SolverConfig(N=N)

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
