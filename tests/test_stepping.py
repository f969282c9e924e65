"""The buffered three-field step against the per-field implementation it
replaced, and its allocation budget.

The reference functions below are the per-field right-hand side and mass
inverse as they were before the state became one (3, K, Np) array, the
nested step of the stability polynomial on that per-field state, and the
einsum assembly of weighted mass matrices.  They
compute their own whole-mesh geometry with geometry.compute_geometric_data
and read none of the solver's geometry.  They follow the operation order of the
Gauss-collocated basis: the WADG mass inverse is a pointwise scale at the
solution nodes, the strong-weak divergence applies the weak-derivative
matrices (w_q Dr) Mhat^-1 and (w_q Ds) Mhat^-1, and on the node rule,
whose points are the solution nodes, the volume terms apply neither Vq nor
Pq, both the identity there.  The volume terms take each element's rule
as the solver does: the formulation rule, except that the strong form off
the node rule evaluates its bilinear elements, read from the mesh family,
on the node rule, which integrates their volume term exactly.  Only the
storage differs, not the arithmetic, so the WADG right-hand side and steps
must agree bitwise.  With `per_element=False` every element takes the
formulation rule, the independent oracle of that choice.  Exact mass mode
uses the reassembled mass matrices, which agree to round-off, and, where
c^2 is constant on every element, the closed-form inverse diag(1/(w J))
of the bilinear elements on the node rule.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from wadg import geometry as geom
from wadg import meshgen as mg
from wadg import operators as ops
from wadg import solver as sv
from wadg.solver import Formulation, MassMode, SolverConfig

from conftest import premultiplied_rhs

SMOOTH_MEDIUM = sv.MediumField(lambda x, y: 1.0 + 0.5 * np.sin(np.pi * (x**2 + y**2)))


# ---------------------------------------------------------------------------
# Bitwise oracles: the per-field implementation the buffered step replaced

@dataclass
class RefState:
    p: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    def copy(self):
        return RefState(self.p.copy(), self.u1.copy(), self.u2.copy())


def ref_weighted_mass_matrix(ref, w):
    W = np.atleast_2d(w) * ref.wq[None, :]
    M = np.einsum("kq,qi,qj->kij", W, ref.Vq, ref.Vq, optimize=True)
    return 0.5 * (M + np.swapaxes(M, 1, 2))


def bilinear_by_construction(mesh):
    """(K,) bool of the elements whose map each generator builds bilinear:
    every element of a uniform mesh, a disk mesh's elements without a
    boundary face, none of a warped mesh.  Read from the mesh family, not
    from geometry.bilinear_elements."""
    kind = mesh.provenance["kind"]
    if kind == "uniform" or mesh.N_geo == 1:
        return np.ones(mesh.K, dtype=bool)
    if kind == "disk":
        return ~mesh.boundary_tags.any(axis=1)
    assert kind == "warped" and mesh.provenance["omega"] > 0, kind
    return np.zeros(mesh.K, dtype=bool)


def volume_rules(disc, per_element=True):
    """[(ref, geo, rows)]: each rule on which the volume terms of disc's
    fields are evaluated, its whole-mesh geometry, computed here, and the
    (K,) bool mask of the elements that take it.  Per element, the strong
    form off the node rule takes the node rule on the elements that
    bilinear_by_construction finds; else every element takes disc.ref."""
    ref, mesh = disc.ref, disc.mesh
    rich = geom.compute_geometric_data(mesh, ref)
    lin = np.zeros(mesh.K, dtype=bool)
    if per_element and disc.config.formulation is Formulation.Strong and ref.Nq != ref.Np:
        lin = bilinear_by_construction(mesh)
    if not lin.any():
        return [(ref, rich, ~lin)]
    ref_n = disc.rule(2 * ref.N + 1)[0]
    return [(ref_n, geom.compute_geometric_data(mesh, ref_n), lin), (ref, rich, ~lin)]


class RefOperators:
    """Fused face factors, the exterior-point gather, the volume rules of
    `volume_rules` and the mass weights (exact mode: the inverse mass
    matrices, in closed form on bilinear elements where c^2 is constant on
    every element), rebuilt from disc's reference elements and the
    whole-mesh geometry of the formulation rule, the mass rule and the node
    rule, computed here."""

    def __init__(self, disc, per_element=True):
        ref, mesh = disc.ref, disc.mesh
        self.disc = disc
        self.rules = volume_rules(disc, per_element)
        self.geo = geo = self.rules[-1][1]      # the formulation rule's
        self.Jf_half = 0.5 * geo.Jfq
        self.Jfnx_half = self.Jf_half * geo.nxq
        self.Jfny_half = self.Jf_half * geo.nyq
        idx = geom.exterior_face_index(mesh.face_connectivity, ref.nfq)
        self.gather = idx.reshape(mesh.K, mesh.n_faces * ref.nfq)
        self.bc = np.repeat(mesh.boundary_tags > 0, ref.nfq, axis=1)
        ref_m = disc.ref_node if disc.ref_mass is None else disc.ref_mass
        geo_m = geom.compute_geometric_data(mesh, ref_m)
        c2_m = disc.medium.values(geo_m.xq, geo_m.yq)
        self.w_p, self.w_u = c2_m / geo_m.Jq, 1.0 / geo_m.Jq
        if disc.config.mass_mode is MassMode.ExactCurvedMass:
            self.mass_inv_p = np.linalg.inv(ref_weighted_mass_matrix(ref_m, geo_m.Jq / c2_m))
            self.mass_inv_u = np.linalg.inv(ref_weighted_mass_matrix(ref_m, geo_m.Jq))
            if np.all(c2_m == c2_m[:, :1]):
                # c^2 constant on every element: on a bilinear element the
                # closed form M^-1 = diag(1 / (w J)) on the node rule, in
                # place of the dense inverse's round-off of about 3e-13
                lin = bilinear_by_construction(mesh)
                ref_n = disc.rule(2 * ref.N + 1)[0]
                d = 1.0 / (ref_n.wq * geom.compute_geometric_data(mesh, ref_n).Jq[lin])
                self.mass_inv_u[lin] = d[:, :, None] * np.eye(ref.Np)
                self.mass_inv_p[lin] = (c2_m[lin, :1] * d)[:, :, None] * np.eye(ref.Np)

    def face_traces(self, u):
        uf = u @ self.disc.ref.Vfq.T
        return uf, uf.ravel()[self.gather]


def ref_surface_terms(state, ops_, strong_weak):
    disc = ops_.disc
    ref, flux, geo, bc = disc.ref, disc.flux, ops_.geo, ops_.bc
    pM, pP = ops_.face_traces(state.p)
    u1M, u1P = ops_.face_traces(state.u1)
    u2M, u2P = ops_.face_traces(state.u2)
    pP[bc] = -pM[bc]
    u1P[bc] = u1M[bc]
    u2P[bc] = u2M[bc]
    dp = pP - pM
    dUn = (u1P - u1M) * geo.nxq
    dUn += (u2P - u2M) * geo.nyq
    if strong_weak:
        fp = (u1P + u1M) * geo.nxq
        fp += (u2P + u2M) * geo.nyq
        fp -= flux.tau_p * dp
    else:
        fp = dUn - flux.tau_p * dp
    fu = dp - flux.tau_u * dUn
    Pf = ref.Pfq.T
    return (-((fp * ops_.Jf_half) @ Pf), -((fu * ops_.Jfnx_half) @ Pf),
            -((fu * ops_.Jfny_half) @ Pf))


def ref_volume_terms(state, ref, geo, strong_weak):
    # on the node rule, the degree 2N+1 Gauss rule whose points are the
    # solution nodes, Vq = Pq = I is not applied
    node_rule = ref.Nq == ref.Np

    def minus_Pq(x):
        return -x if node_rule else -(x @ ref.Pq.T)

    pq_r = state.p @ ref.Drq.T
    pq_s = state.p @ ref.Dsq.T
    pxJ = pq_r * geo.rxJ
    pxJ += pq_s * geo.sxJ
    pyJ = pq_r * geo.ryJ
    pyJ += pq_s * geo.syJ
    ru1 = minus_Pq(pxJ)
    ru2 = minus_Pq(pyJ)
    if strong_weak:
        assert node_rule     # the strong-weak form's rule
        u1q, u2q = state.u1, state.u2
        weak_r = (ref.wq[:, None] * ref.Drq) @ ref.Mhat_inv
        weak_s = (ref.wq[:, None] * ref.Dsq) @ ref.Mhat_inv
        Fr = geo.rxJ * u1q + geo.ryJ * u2q
        Fs = geo.sxJ * u1q + geo.syJ * u2q
        rp = Fr @ weak_r + Fs @ weak_s
    else:
        divJ = (state.u1 @ ref.Drq.T) * geo.rxJ
        divJ += (state.u1 @ ref.Dsq.T) * geo.sxJ
        divJ += (state.u2 @ ref.Drq.T) * geo.ryJ
        divJ += (state.u2 @ ref.Dsq.T) * geo.syJ
        rp = minus_Pq(divJ)
    return rp, ru1, ru2


def ref_rhs_pre_mass(state, ops_):
    sw = ops_.disc.config.formulation is Formulation.StrongWeak
    vol = np.empty((3, *state.p.shape))
    for ref, geo, rows in ops_.rules:
        vol[:, rows] = np.stack(ref_volume_terms(state, ref, geo, sw))[:, rows]
    sp, su1, su2 = ref_surface_terms(state, ops_, sw)
    return RefState(vol[0] + sp, vol[1] + su1, vol[2] + su2)


def ref_apply_mass_inverse(rhs_pre, ops_):
    disc = ops_.disc
    if disc.config.mass_mode is MassMode.WADG:
        # Vq = Pq = I on the mass rule, whose points are the solution nodes
        return RefState(ops_.w_p * rhs_pre.p, ops_.w_u * rhs_pre.u1,
                        ops_.w_u * rhs_pre.u2)
    Mh = disc.ref.Mhat
    return RefState(np.einsum("kij,kj->ki", ops_.mass_inv_p, rhs_pre.p @ Mh),
                    np.einsum("kij,kj->ki", ops_.mass_inv_u, rhs_pre.u1 @ Mh),
                    np.einsum("kij,kj->ki", ops_.mass_inv_u, rhs_pre.u2 @ Mh))


def ref_nested_step(state, dt, rhs_fn):
    """y <- q, then y <- q + (a_{j+1}/a_j) dt L(y) for j = 7..0."""
    a = sv.STABILITY_POLYNOMIAL
    y = state
    for j in reversed(range(len(a) - 1)):
        d = rhs_fn(y)
        c = a[j + 1] / a[j] * dt
        y = RefState(state.p + c * d.p, state.u1 + c * d.u1, state.u2 + c * d.u2)
    return y


# ---------------------------------------------------------------------------

def make_disc(form, mode, level=2, N=3):
    cfg = SolverConfig(N=N, formulation=Formulation(form), mass_mode=MassMode(mode))
    return sv.Discretization(mg.disk_mesh(level, N), cfg, SMOOTH_MEDIUM)


def random_fields(disc, rng):
    return [rng.standard_normal((disc.mesh.K, disc.ref.Np)) for _ in range(3)]


def stacked(s):
    return np.stack([s.p, s.u1, s.u2])


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


FORMS = ["strong", "strong-weak"]


@pytest.mark.parametrize("form", FORMS)
def test_wadg_rhs_bitwise_equal_to_reference(form, rng):
    disc = make_disc(form, "wadg")
    ops_ = RefOperators(disc)
    for _ in range(2):
        fields = random_fields(disc, rng)
        pre = ref_rhs_pre_mass(RefState(*fields), ops_)
        full = ref_apply_mass_inverse(pre, ops_)
        q = np.stack(fields)
        assert np.array_equal(premultiplied_rhs(q, disc), stacked(pre))
        assert np.array_equal(sv.rhs_full(q, disc), stacked(full))
        assert np.array_equal(q, np.stack(fields))   # input untouched


@pytest.mark.parametrize("form", FORMS)
def test_wadg_steps_bitwise_equal_to_reference(form, rng):
    disc = make_disc(form, "wadg")
    ops_ = RefOperators(disc)
    fields = random_fields(disc, rng)
    dt = sv.stable_dt(disc)
    expect = RefState(*fields)
    initial = q = np.stack(fields)
    for i in range(3):
        expect = ref_nested_step(expect, dt, lambda s: ref_apply_mass_inverse(
            ref_rhs_pre_mass(s, ops_), ops_))
        q = sv.lsrk_step(q, dt, disc)
        assert np.array_equal(initial, np.stack(fields))   # read, not advanced
        # the result alternates between the two registers
        assert q is (disc.buffers.y, disc.buffers.res)[i % 2]
        assert np.array_equal(q, stacked(expect))


def assert_agrees_with_reference(disc, rng):
    """rhs_full and three steps of disc within 1e-14 of the reference."""
    ops_ = RefOperators(disc)
    fields = random_fields(disc, rng)
    full = ref_apply_mass_inverse(ref_rhs_pre_mass(RefState(*fields), ops_), ops_)
    assert rel_diff(sv.rhs_full(np.stack(fields), disc), stacked(full)) <= 1e-14
    dt = sv.stable_dt(disc)
    expect, q = RefState(*fields), np.stack(fields)
    for _ in range(3):
        expect = ref_nested_step(expect, dt, lambda s: ref_apply_mass_inverse(
            ref_rhs_pre_mass(s, ops_), ops_))
        q = sv.lsrk_step(q, dt, disc)
    assert rel_diff(q, stacked(expect)) <= 1e-14


# media whose c^2 is constant on every element of the disk meshes, where
# exact mode holds the one stack M_J^-1 Mhat and scales the pressure by c^2:
# a constant other than 1, so that a missing scale shows, and a piecewise
# constant aligned with the elements, so that a mixed-up element shows
ELEMENTWISE_MEDIA = {
    "constant": sv.MediumField(2.25),
    "piecewise": sv.MediumField(lambda x, y: 1.0 + 3.0 * (x > 0)),
}


def counted_mass_matrices(monkeypatch):
    """A list that gains one entry per weighted_mass_matrix call."""
    calls, build = [], ops.weighted_mass_matrix

    def counted(*args):
        calls.append(None)
        return build(*args)

    monkeypatch.setattr(ops, "weighted_mass_matrix", counted)
    return calls


def held_mass_stacks(disc):
    return sum(a is not None for a in (disc.mass_inv_p, disc.mass_inv_u))


@pytest.mark.parametrize("form", FORMS)
def test_exact_mass_mode_agrees_with_reference(form, rng, monkeypatch):
    calls = counted_mass_matrices(monkeypatch)
    disc = make_disc(form, "exact")
    # c^2 varies within elements: a mass inverse per weight
    assert len(calls) == held_mass_stacks(disc) == 2 and disc.c2 is None
    assert_agrees_with_reference(disc, rng)


@pytest.mark.parametrize("medium", list(ELEMENTWISE_MEDIA))
@pytest.mark.parametrize("form", FORMS)
def test_exact_mass_shares_one_stack_where_c2_is_constant_per_element(
        form, medium, rng, monkeypatch):
    calls = counted_mass_matrices(monkeypatch)
    cfg = SolverConfig(N=3, formulation=Formulation(form), mass_mode=MassMode.ExactCurvedMass)
    disc = sv.Discretization(mg.disk_mesh(2, 3), cfg, ELEMENTWISE_MEDIA[medium])
    assert len(calls) == held_mass_stacks(disc) == 1 and disc.mass_inv_p is None
    assert disc.c2.shape == (len(disc.dense), 1)
    expect = {"constant": {2.25}, "piecewise": {1.0, 4.0}}[medium]
    assert set(np.unique(disc.c2)) == expect
    assert_agrees_with_reference(disc, rng)


# mesh and ELEMENT_BLOCK: K = 1, K below the block, K not a multiple of
# the block (48 = 4 x 10 + 8) and K = 2 x 12 + 1
BLOCK_EDGES = {
    "K1": (lambda: mg.uniform_quad_mesh(1, N_geo=3), 4, 1),
    "K-below-block": (lambda: mg.disk_mesh(1, 3), 64, 1),
    "K-not-a-multiple": (lambda: mg.disk_mesh(1, 3), 10, 5),
    "K-two-blocks-and-one": (lambda: mg.warped_arnold_mesh(mg.WarpParams(1.0, 5), 3), 12, 3),
}


@pytest.mark.parametrize("mode", ["wadg", "exact"])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("edge", list(BLOCK_EDGES))
def test_element_blocks_agree_with_reference(edge, form, mode, rng, monkeypatch):
    """rhs_full and steps evaluated over blocks of ELEMENT_BLOCK elements
    against the whole-mesh reference.  Within 1e-14, not bitwise: BLAS may
    round a row differently at another row count (a one-row block goes
    through gemv), by up to 7e-16 relative here, while an element skipped
    or mixed up at a block edge is an O(1) error.  With K within one block
    the WADG cases are bitwise equal, as the tests above check."""
    make, block, n_blocks = BLOCK_EDGES[edge]
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", block)
    cfg = SolverConfig(N=3, formulation=Formulation(form), mass_mode=MassMode(mode))
    disc = sv.Discretization(make(), cfg, SMOOTH_MEDIUM)
    assert len(geom.element_blocks(disc.mesh.K)) == n_blocks
    assert_agrees_with_reference(disc, rng)


# the piecewise medium is constant per element on the disk edges only
SHARED_STACK_BLOCK_CASES = [("constant", edge) for edge in BLOCK_EDGES] + [
    ("piecewise", "K-below-block"), ("piecewise", "K-not-a-multiple")]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("medium, edge", SHARED_STACK_BLOCK_CASES)
def test_element_blocks_agree_with_reference_on_one_mass_stack(edge, medium, form, rng,
                                                               monkeypatch):
    """The exact cases above with one held mass stack, whose per-element c2
    each block must read at its own elements."""
    make, block, n_blocks = BLOCK_EDGES[edge]
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", block)
    cfg = SolverConfig(N=3, formulation=Formulation(form), mass_mode=MassMode.ExactCurvedMass)
    disc = sv.Discretization(make(), cfg, ELEMENTWISE_MEDIA[medium])
    assert len(geom.element_blocks(disc.mesh.K)) == n_blocks
    assert held_mass_stacks(disc) == 1 and disc.c2 is not None
    assert_agrees_with_reference(disc, rng)


def gemm_volume_terms(q, disc):
    """Volume terms of the (3, K, Np) state q with every GEMM of the
    formula applied: the fields at the rule's points as u @ Vq.T and the
    projections as -c @ Pq.T, whatever the rule, each element on its rule
    of `volume_rules`."""
    p, u1, u2 = q
    out = np.empty_like(q)
    for ref, geo, rows in volume_rules(disc):
        pr, ps = p @ ref.Drq.T, p @ ref.Dsq.T
        ru1 = -((pr * geo.rxJ + ps * geo.sxJ) @ ref.Pq.T)
        ru2 = -((pr * geo.ryJ + ps * geo.syJ) @ ref.Pq.T)
        if disc.config.formulation is Formulation.StrongWeak:
            u1q, u2q = u1 @ ref.Vq.T, u2 @ ref.Vq.T
            weak_r, weak_s = ((ref.wq[:, None] * D) @ ref.Mhat_inv for D in (ref.Drq, ref.Dsq))
            rp = ((geo.rxJ * u1q + geo.ryJ * u2q) @ weak_r
                  + (geo.sxJ * u1q + geo.syJ * u2q) @ weak_s)
        else:
            divJ = ((u1 @ ref.Drq.T) * geo.rxJ + (u1 @ ref.Dsq.T) * geo.sxJ
                    + (u2 @ ref.Drq.T) * geo.ryJ + (u2 @ ref.Dsq.T) * geo.syJ)
            rp = -(divJ @ ref.Pq.T)
        out[:, rows] = np.stack([rp, ru1, ru2])[:, rows]
    return out


# (form, N, N_geo): the strong-weak form, and the strong form at N_geo <= 2,
# run on the node rule; the strong form at N_geo = 3 on a richer rule
NODE_RULE_CASES = ([("strong-weak", N, 3) for N in range(1, 7)]
                   + [("strong", N, N_geo) for N in (1, 3, 6) for N_geo in (1, 2)])


@pytest.mark.parametrize("form, N, N_geo", NODE_RULE_CASES + [("strong", 3, 3)])
def test_node_rule_volume_terms_skip_identity_gemms(form, N, N_geo, rng):
    """On the node rule, where Vq = Pq = I to round-off, _volume_terms
    applies neither and agrees with the full GEMM formula; elsewhere it
    applies Pq.  On the disk at N_geo = 3 the strong form takes the node
    rule on its bilinear elements, and the formulation rule on the rest."""
    cfg = SolverConfig(N=N, formulation=Formulation(form))
    disc = sv.Discretization(mg.disk_mesh(1, N_geo), cfg, SMOOTH_MEDIUM)
    ref = disc.ref
    node_rule = (form, N, N_geo) in NODE_RULE_CASES
    assert (disc._mPq is None) == node_rule == (ref.Nq == ref.Np)
    if node_rule:
        assert np.array_equal(ref.volume_quad.points, ref.nodes)
    else:
        assert np.array_equal(disc._mPq, -ref.Pq)
        assert disc.vol_ref.Nq == ref.Np and len(disc.curved) == 16
    q = rng.standard_normal((3, disc.mesh.K, ref.Np))
    blk, = geom.element_blocks(disc.mesh.K)
    got = np.empty_like(q)
    sv._volume_terms(q, disc, blk, form == "strong-weak", got)
    assert rel_diff(got, gemm_volume_terms(q, disc)) <= 1e-14


@pytest.mark.parametrize("mode", ["wadg", "exact"])
@pytest.mark.parametrize("N", [2, 4])
@pytest.mark.parametrize("N_geo", [3, 4])
def test_rhs_full_matches_the_rich_rule_oracle(N_geo, N, mode, rng):
    """The strong form on a disk, of bilinear and curved elements, takes the
    node rule on the bilinear ones: rhs_full within 1e-12 of the oracle
    that evaluates every element on the formulation rule, and within 1e-14
    of the per-element one, three steps included.  Exact mode with a
    constant c^2 splits its mass inverse by the same elements."""
    medium = ELEMENTWISE_MEDIA["constant"] if mode == "exact" else SMOOTH_MEDIUM
    cfg = SolverConfig(N=N, mass_mode=MassMode(mode))
    disc = sv.Discretization(mg.disk_mesh(1, N_geo), cfg, medium)
    assert disc.vol_ref.Nq == disc.ref.Np < disc.ref.Nq
    assert np.array_equal(disc.curved, np.flatnonzero(~bilinear_by_construction(disc.mesh)))
    assert np.array_equal(disc.dense, disc.curved if mode == "exact" else [])
    ops_ = RefOperators(disc, per_element=False)
    fields = random_fields(disc, rng)
    full = ref_apply_mass_inverse(ref_rhs_pre_mass(RefState(*fields), ops_), ops_)
    assert rel_diff(sv.rhs_full(np.stack(fields), disc), stacked(full)) <= 1e-12
    assert_agrees_with_reference(disc, rng)


@pytest.mark.parametrize("mode", ["wadg", "exact"])
def test_no_bilinear_element_keeps_one_volume_rule(mode, rng):
    """A warped mesh has no bilinear element: every element takes the
    formulation rule with geo's metric of every element, one pass per
    block, as before the split; WADG is bitwise equal to the reference."""
    mesh = mg.warped_arnold_mesh(mg.WarpParams(1.0, 4), 3)
    disc = sv.Discretization(mesh, SolverConfig(N=3, mass_mode=MassMode(mode)), SMOOTH_MEDIUM)
    geo = disc.geo
    assert disc.curved is None and geo.metric_elements is None and disc.vol_ref is disc.ref
    assert all(a is b for a, b in zip(disc.vol_metric, (geo.rxJ, geo.ryJ, geo.sxJ, geo.syJ)))
    assert geo.rxJ.shape == (mesh.K, disc.ref.Nq)
    ops_ = RefOperators(disc, per_element=False)
    fields = random_fields(disc, rng)
    full = stacked(ref_apply_mass_inverse(ref_rhs_pre_mass(RefState(*fields), ops_), ops_))
    got = sv.rhs_full(np.stack(fields), disc)
    if mode == "wadg":
        assert np.array_equal(got, full)
    else:
        assert rel_diff(got, full) <= 1e-14


# (mesh, ELEMENT_BLOCK, blocks, volume passes): every element of the uniform
# mesh is bilinear, so a block takes no curved pass; the disk's curved
# elements 20-23, 28-31, 36-39 and 44-47 fall in five of its eight blocks of
# six, and 28-31 straddle the block edge at 30
SPLIT_CASES = {
    "all-bilinear": (lambda: mg.uniform_quad_mesh(4, N_geo=3), 1024, 1, 1),
    "curved-across-block-edges": (lambda: mg.disk_mesh(1, 3), 6, 8, 13),
}


@pytest.mark.parametrize("mode", ["wadg", "exact"])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_curved_pass_per_block(case, mode, rng, monkeypatch):
    """A block takes one pass on the node rule over all its elements, and a
    second on the formulation rule over its curved elements, if any."""
    make, block, n_blocks, n_passes = SPLIT_CASES[case]
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", block)
    passes, kernel = [], sv._volume_pass

    def counted(q, disc, ref, *args):
        passes.append((q.shape[1], ref.Nq))
        return kernel(q, disc, ref, *args)

    monkeypatch.setattr(sv, "_volume_pass", counted)
    cfg = SolverConfig(N=3, mass_mode=MassMode(mode))
    disc = sv.Discretization(make(), cfg, ELEMENTWISE_MEDIA["constant"])
    K, Np, Nq = disc.mesh.K, disc.ref.Np, disc.ref.Nq
    assert len(geom.element_blocks(K)) == n_blocks
    ops_ = RefOperators(disc, per_element=False)
    fields = random_fields(disc, rng)
    full = ref_apply_mass_inverse(ref_rhs_pre_mass(RefState(*fields), ops_), ops_)
    assert rel_diff(sv.rhs_full(np.stack(fields), disc), stacked(full)) <= 1e-12
    assert len(disc.curved) == K - bilinear_by_construction(disc.mesh).sum()
    assert len(passes) == n_passes
    # per block: all its elements on the node rule, then its curved ones
    assert [n for n, nq in passes if nq == Np] == [b.stop - b.start for b in
                                                   geom.element_blocks(K)]
    assert sum(n for n, nq in passes if nq == Nq) == len(disc.curved)
    assert_agrees_with_reference(disc, rng)


def test_weighted_mass_matrix_matches_einsum_and_is_symmetric():
    disc = make_disc("strong", "wadg")
    ref_m = disc.rule(disc.mass_deg)[0]
    geo_m = geom.compute_geometric_data(disc.mesh, ref_m)
    w = geo_m.Jq / SMOOTH_MEDIUM.values(geo_m.xq, geo_m.yq)
    M = ops.weighted_mass_matrix(ref_m, w)
    expect = ref_weighted_mass_matrix(ref_m, w)
    assert rel_diff(M, expect) <= 1e-14
    assert np.array_equal(M, np.swapaxes(M, 1, 2))


def test_auxiliary_rules_carry_volume_geometry_only(monkeypatch):
    """Another rule carries its points and J only, evaluated block by block
    from the mesh that `rule` returns, equal to the whole-mesh metric
    evaluation bitwise."""
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", 64)
    disc = make_disc("strong", "exact")
    assert len(geom.element_blocks(disc.mesh.K)) == 3
    for degree in (2 * disc.config.N + 1, disc.mass_deg):
        ref, source = disc.rule(degree)
        assert source is disc.mesh
        K, blocks = geom.volume_blocks(source, ref)
        xq, yq, Jq = (np.concatenate(a) for a in zip(*(b[1:] for b in blocks)))
        full = geom.compute_geometric_data(disc.mesh, ref)
        assert K == disc.mesh.K
        for name, a in (("xq", xq), ("yq", yq), ("Jq", Jq)):
            assert np.array_equal(a, getattr(full, name))


def test_only_the_formulation_rule_is_held():
    """The formulation rule's geometry is held, its metric on the 16 curved
    elements only, and the node rule's metric of every element, which the
    volume terms read on the bilinear ones; nothing of another rule."""
    disc = make_disc("strong", "exact", level=1)
    held = disc.nbytes()["geometry"]
    K, Kc, Np, Nq = disc.mesh.K, 16, disc.ref.Np, disc.ref.Nq
    assert disc.geo.metric_elements is disc.curved and len(disc.curved) == Kc
    assert disc.geo.rxJ.shape == (Kc, Nq) and disc.geo.Jq.shape == (K, Nq)
    assert disc.vol_ref is disc.rule(2 * 3 + 1)[0]
    assert all(a.shape == (K, Np) for a in disc.vol_metric)
    # c^2 varies within elements: exact mode holds the mass-rule weights of
    # every element, and `curved` counts as geometry
    assert disc.w_node_p is None and disc.w_node_u is None
    nf = disc.geo.Jfq.shape[1]
    assert held == 8 * (3 * K * Nq + 4 * Kc * Nq + 4 * K * Np + 3 * K * nf + K
                        + 2 * K * disc.ref_mass.Nq + Kc)
    form_deg = sv.sufficient_quadrature_degree(3, 3, Formulation.Strong)
    ref_f, geo_f = disc.rule(form_deg)
    assert ref_f is disc.ref and geo_f is disc.geo
    # another rule is the same cached reference element each time, and its
    # source is the mesh: nothing of it is held
    ref_m, source = disc.rule(disc.mass_deg)
    assert disc.rule(disc.mass_deg)[0] is ref_m is disc.ref_mass
    assert source is disc.mesh
    assert disc.nbytes()["geometry"] == held


@pytest.mark.parametrize("form, mode", [("strong", "wadg"), ("strong-weak", "wadg"),
                                        ("strong-weak", "exact"), ("strong", "exact")])
def test_warm_step_allocates_nothing_field_sized(form, mode, monkeypatch):
    """Every step of `run` after the first two stays below one (K, Np)
    array of traced allocation above its entry level.  The strong form at
    N_geo = 3 gathers the curved elements of its volume terms into
    `buffers.work`, and exact mode with c^2 = 1 those of its mass inverse."""
    peaks = []
    step = sv.lsrk_step

    def traced(q, dt, disc):
        if len(peaks) < 2:
            peaks.append(None)
            return step(q, dt, disc)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step(q, dt, disc)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(sv, "lsrk_step", traced)
    N = 3
    cfg = SolverConfig(N=N, formulation=Formulation(form), mass_mode=MassMode(mode))
    mesh = mg.disk_mesh(2, N)
    # a fixed dt: 10 steps, whatever step size stable_dt would choose
    sv.run(mesh, cfg, sv.bessel_initial_condition, 0.02, n_outputs=1, dt=0.002)
    warm = peaks[2:]
    assert len(warm) >= 3
    field_bytes = mesh.K * (N + 1) ** 2 * 8
    assert max(warm) < field_bytes, warm


def test_record_allocates_less_than_one_error_array(monkeypatch):
    """A record of `run`, energy and then the pressure error on the 2N + 4
    rule, stays below one (K, Nq) array of that rule above its entry level
    when K spans several element blocks."""
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", 64)
    energy, error = sv.energy, ops.global_l2_error
    entry, peaks = [], []

    def traced_energy(q, disc):
        tracemalloc.start()
        entry.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return energy(q, disc)

    def traced_error(*args):
        try:
            return error(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - entry[-1])
            tracemalloc.stop()

    monkeypatch.setattr(sv, "energy", traced_energy)
    monkeypatch.setattr(ops, "global_l2_error", traced_error)
    N = 2
    mesh = mg.disk_mesh(3, N)      # K = 768: 12 blocks
    sv.run(mesh, SolverConfig(N=N), sv.bessel_initial_condition, 0.004,
           exact_p=sv.bessel_pressure, n_outputs=2, dt=0.002)
    assert len(peaks) == 3
    error_array = mesh.K * (N + 3) ** 2 * 8
    assert max(peaks) < error_array, [p / error_array for p in peaks]


def test_run_holds_little_more_than_its_data(monkeypatch):
    """A whole `run` on 12 element blocks, set-up, projection, records and
    steps, stays below the data it must hold, the Discretization's arrays
    by nbytes() (operator data, face tables and step buffers) and the mesh,
    plus one (K, Np) array of traced allocation above its entry level.  The
    mesh is built before, and the reference data by a warm-up run, so the
    mesh's share bounds the block-sized scratch of the run."""
    monkeypatch.setattr(geom, "ELEMENT_BLOCK", 64)
    N = 2
    cfg = SolverConfig(N=N)

    def solve(mesh):
        return sv.run(mesh, cfg, sv.bessel_initial_condition, 0.004,
                      exact_p=sv.bessel_pressure, n_outputs=2, dt=0.002)

    solve(mg.disk_mesh(1, N))
    mesh = mg.disk_mesh(3, N)      # K = 768
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve(mesh)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    held = sum(sv.Discretization(mesh, cfg).nbytes().values())
    held += sum(a.nbytes for a in vars(mesh).values() if isinstance(a, np.ndarray))
    one = mesh.K * (N + 1) ** 2 * 8
    assert peak < held + one, (peak - held) / one
