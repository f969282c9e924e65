"""The buffered three-field step against the per-field implementation it
replaced, and its allocation budget.

The reference functions below are the per-field right-hand side and mass
inverse as they were before the state became one (3, K, Np) array, the
nested step of the stability polynomial on that per-field state, and the
einsum assembly of weighted mass matrices.  Both
read the scaled metric geo.rxJ... of the formulation rule.  They follow
the operation order of the Gauss-collocated basis: the WADG mass inverse
is a pointwise scale at the solution nodes, and the strong-weak
divergence applies the weak-derivative matrices (w_q Dr) Mhat^-1 and
(w_q Ds) Mhat^-1.  Only the storage differs, not the arithmetic, so the
WADG right-hand side and steps must agree bitwise.  Exact mass mode uses
the reassembled mass matrices, which agree to round-off.
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


class RefOperators:
    """Fused face factors and the exterior-point gather, rebuilt from
    disc's reference element and geometry only."""

    def __init__(self, disc):
        ref, geo, mesh = disc.ref, disc.geo, disc.mesh
        self.disc = disc
        self.Jf_half = 0.5 * geo.Jfq
        self.Jfnx_half = self.Jf_half * geo.nxq
        self.Jfny_half = self.Jf_half * geo.nyq
        idx = geom.exterior_face_index(mesh.face_connectivity, ref.nfq)
        self.gather = idx.reshape(mesh.K, mesh.n_faces * ref.nfq)
        self.bc = np.repeat(mesh.boundary_tags > 0, ref.nfq, axis=1)
        if disc.config.mass_mode is MassMode.ExactCurvedMass:
            ref_m, geo_m = disc.rule(disc.mass_deg)
            c2_m = disc.medium.values(geo_m.xq, geo_m.yq)
            self.mass_inv_p = np.linalg.inv(ref_weighted_mass_matrix(ref_m, geo_m.Jq / c2_m))
            self.mass_inv_u = np.linalg.inv(ref_weighted_mass_matrix(ref_m, geo_m.Jq))

    def face_traces(self, u):
        uf = u @ self.disc.ref.Vfq.T
        return uf, uf.ravel()[self.gather]


def ref_surface_terms(state, ops_, strong_weak):
    disc = ops_.disc
    ref, flux, geo, bc = disc.ref, disc.flux, disc.geo, ops_.bc
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


def ref_volume_terms(state, ops_, strong_weak):
    ref, geo = ops_.disc.ref, ops_.disc.geo
    pq_r = state.p @ ref.Drq.T
    pq_s = state.p @ ref.Dsq.T
    pxJ = pq_r * geo.rxJ
    pxJ += pq_s * geo.sxJ
    pyJ = pq_r * geo.ryJ
    pyJ += pq_s * geo.syJ
    ru1 = -(pxJ @ ref.Pq.T)
    ru2 = -(pyJ @ ref.Pq.T)
    if strong_weak:
        u1q = state.u1 @ ref.Vq.T
        u2q = state.u2 @ ref.Vq.T
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
        rp = -(divJ @ ref.Pq.T)
    return rp, ru1, ru2


def ref_rhs_pre_mass(state, ops_):
    sw = ops_.disc.config.formulation is Formulation.StrongWeak
    vp, vu1, vu2 = ref_volume_terms(state, ops_, sw)
    sp, su1, su2 = ref_surface_terms(state, ops_, sw)
    return RefState(vp + sp, vu1 + su1, vu2 + su2)


def ref_apply_mass_inverse(rhs_pre, ops_):
    disc = ops_.disc
    if disc.config.mass_mode is MassMode.WADG:
        # Vq = Pq = I on the mass rule, whose points are the solution nodes
        return RefState(disc.w_upd_p * rhs_pre.p, disc.w_upd_u * rhs_pre.u1,
                        disc.w_upd_u * rhs_pre.u2)
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
        assert np.array_equal(sv.rhs_pre_mass(q, disc), stacked(pre))
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


@pytest.mark.parametrize("form", FORMS)
def test_exact_mass_mode_agrees_with_reference(form, rng):
    disc = make_disc(form, "exact")
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


def test_weighted_mass_matrix_matches_einsum_and_is_symmetric():
    disc = make_disc("strong", "wadg")
    ref_m, geo_m = disc.rule(disc.mass_deg)
    w = geo_m.Jq / SMOOTH_MEDIUM.values(geo_m.xq, geo_m.yq)
    M = ops.weighted_mass_matrix(ref_m, w)
    expect = ref_weighted_mass_matrix(ref_m, w)
    assert rel_diff(M, expect) <= 1e-14
    assert np.array_equal(M, np.swapaxes(M, 1, 2))


def test_callable_step_matches_closure_step(rng):
    # the registers are the only difference between the two paths
    disc = make_disc("strong", "wadg", level=1)
    fields = random_fields(disc, rng)
    a = sv.lsrk_step(np.stack(fields), 0.01, disc)
    b = sv.lsrk_step(np.stack(fields), 0.01, lambda q: sv.rhs_full(q, disc).copy())
    assert np.array_equal(a, b)


def test_auxiliary_rules_carry_volume_geometry_only():
    disc = make_disc("strong", "exact")
    assert type(disc.geo) is geom.GeometricData
    for degree in (2 * disc.config.N + 1, disc.mass_deg):
        _, g = disc.rule(degree)
        assert type(g) is geom.VolumeGeometry
        full = geom.compute_geometric_data(disc.mesh, g.ref)
        for name in ("xq", "yq", "Jq"):
            assert np.array_equal(getattr(g, name), getattr(full, name))


@pytest.mark.parametrize("form, mode", [("strong", "wadg"), ("strong-weak", "wadg"),
                                        ("strong-weak", "exact")])
def test_warm_step_allocates_nothing_field_sized(form, mode, monkeypatch):
    """Every step of `run` after the first two stays below one (K, Np)
    array of traced allocation above its entry level."""
    peaks = []
    step = sv.lsrk_step

    def traced(q, dt, rhs_fn):
        if len(peaks) < 2:
            peaks.append(None)
            return step(q, dt, rhs_fn)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = step(q, dt, rhs_fn)
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
