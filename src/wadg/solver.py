"""Time-domain DG solver for the first-order acoustic wave system
(p_t / c^2 + div u = 0, u_t + grad p = 0) on curved quadrilateral meshes,
with strong and strong-weak formulations, penalty fluxes, homogeneous
Dirichlet pressure boundaries, a weight-adjusted or exact curved mass
inverse, and low-storage five-stage RK4 time stepping.

Right-hand sides follow the fused convention: volume and surface kernels
return the Mhat^-1-premultiplied load, and the mass-inverse application
supplies the remaining weight-adjusted (or exact) factor per field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import geometry, operators, refelem


class BlowUp(Exception):
    """Energy exceeded 1e6 x initial or a field went non-finite; the run is
    unstable."""


class ConfigError(ValueError):
    """Invalid solver configuration."""


class Formulation(enum.Enum):
    Strong = "strong"
    StrongWeak = "strong-weak"


class MassMode(enum.Enum):
    WADG = "wadg"
    ExactCurvedMass = "exact"


@dataclass(frozen=True)
class FluxParams:
    tau_p: float = 1.0
    tau_u: float = 1.0

    def __post_init__(self):
        if self.tau_p < 0 or self.tau_u < 0:
            raise ConfigError("penalty parameters must be nonnegative")


@dataclass(frozen=True)
class MediumField:
    """Squared wavespeed, constant or a callable c2(x, y); density is 1."""

    c2: object = 1.0

    def values(self, x, y):
        if callable(self.c2):
            v = np.broadcast_to(np.asarray(self.c2(x, y), dtype=float), x.shape).copy()
        else:
            v = np.full_like(x, float(self.c2))
        if np.any(v <= 0):
            raise ConfigError("wavespeed squared must be positive")
        return v


@dataclass(frozen=True)
class SolverConfig:
    N: int
    formulation: Formulation = Formulation.Strong
    mass_mode: MassMode = MassMode.WADG
    flux: FluxParams = field(default_factory=FluxParams)
    cfl: float = 0.5
    volume_quad_degree: int | None = None   # default: formulation rule
    face_quad_degree: int | None = None
    unsafe_quadrature: bool = False         # allow under-integrated strong form


def sufficient_quadrature_degrees(N, N_geo):
    """Volume/face quadrature degrees that make discrete integration by
    parts (hence strong = strong-weak) exact for degree-N_geo mappings.

    Degrees are per coordinate: the volume integrand u_r (r_x J) v and the
    face integrand both reach 2N + N_geo - 1 in each coordinate.
    """
    return 2 * N + N_geo - 1, 2 * N + N_geo - 1


@dataclass
class FieldState:
    """Pressure and velocity coefficients, (K, Np) each, at time t."""

    p: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    t: float = 0.0

    def copy(self):
        return FieldState(self.p.copy(), self.u1.copy(), self.u2.copy(), self.t)


class Discretization:
    """Prepared operator data for one (mesh, config, medium) triple.

    The only owner of reference elements and their geometry: `rule` builds
    each distinct Gauss rule once.  Holds the volume/face rule of the
    formulation (`ref`, `geo`), the degree-(2N+1) update rule of the
    weight-adjusted mass inverse (`ref_upd`), face-trace gather tables, and
    (in exact mass mode only) the J-weighted mass matrix and dense
    per-element mass inverses on the mass-exact rule.
    """

    def __init__(self, mesh, config, medium=MediumField()):
        N = config.N
        vol_deg, face_deg = sufficient_quadrature_degrees(N, mesh.N_geo)
        if config.formulation is Formulation.StrongWeak:
            vol_deg, face_deg = 2 * N + 1, 2 * N + 1
        if config.volume_quad_degree is not None:
            vol_deg = config.volume_quad_degree
        if config.face_quad_degree is not None:
            face_deg = config.face_quad_degree
        if config.formulation is Formulation.Strong and not config.unsafe_quadrature:
            need = sufficient_quadrature_degrees(N, mesh.N_geo)
            if vol_deg < need[0] or face_deg < need[1]:
                raise ConfigError(
                    f"strong form needs volume/face quadrature degrees {need}; "
                    f"got ({vol_deg}, {face_deg}); set unsafe_quadrature to override")

        self.mesh = mesh
        self.config = config
        self.medium = medium
        self.flux = config.flux
        self.mass_deg = 2 * N + 2 * mesh.N_geo   # mass-exact rule
        self._face_deg = face_deg
        self._rules = {}
        self.ref, self.geo = self.rule(vol_deg)
        self.ref_upd, geo_upd = self.rule(2 * N + 1)
        c2_upd = medium.values(geo_upd.xq, geo_upd.yq)
        self.c2q = medium.values(self.geo.xq, self.geo.yq)
        self.c_max = np.sqrt(self.c2q.max(axis=1))

        # update weights: pressure gets c^2/J, velocity 1/J
        self.w_upd_p = c2_upd / geo_upd.Jq
        self.w_upd_u = 1.0 / geo_upd.Jq

        self.mass_J = self.mass_inv_p = self.mass_inv_u = None
        if config.mass_mode is MassMode.ExactCurvedMass:
            ref_m, geo_m = self.rule(self.mass_deg)
            c2_m = medium.values(geo_m.xq, geo_m.yq)
            Mp = operators.weighted_mass_matrix(ref_m, geo_m.Jq / c2_m)
            self.mass_J = operators.weighted_mass_matrix(ref_m, geo_m.Jq)
            self.mass_inv_p = np.linalg.inv(Mp)
            self.mass_inv_u = np.linalg.inv(self.mass_J)

        # fused geometric factors, (K, Nq) and flat (K, n_faces*nfq)
        geo = self.geo
        self._rxJ = geo.rxq * geo.Jq
        self._ryJ = geo.ryq * geo.Jq
        self._sxJ = geo.sxq * geo.Jq
        self._syJ = geo.syq * geo.Jq
        self._wJ = self.ref.wq[None, :] * geo.Jq
        self._Jf_half = 0.5 * geo.Jfq
        self._Jfnx_half = self._Jf_half * geo.nxq
        self._Jfny_half = self._Jf_half * geo.nyq
        self._build_face_gather()

    def rule(self, degree):
        """(ReferenceElement, GeometricData) of the Gauss rule exact to
        `degree` (floored at 2N), with the formulation's face rule.  Keyed
        by the 1D point count, so degrees landing on one rule share it."""
        N = self.config.N
        n1d = (max(degree, 2 * N) + 2) // 2
        if n1d not in self._rules:
            ref = refelem.build_reference_element(
                N, volume_quad_degree=2 * n1d - 1,
                face_quad_degree=self._face_deg)
            self._rules[n1d] = (ref, geometry.compute_geometric_data(self.mesh, ref))
        return self._rules[n1d]

    def _build_face_gather(self):
        mesh, nfq = self.mesh, self.ref.nfq
        idx = geometry.exterior_face_index(mesh.face_connectivity, nfq)
        self._gather_idx = idx.reshape(mesh.K, mesh.n_faces * nfq)
        self.bc_mask = np.repeat(mesh.boundary_tags > 0, nfq, axis=1)

    def face_traces(self, u):
        """Interior and exterior traces at face quadrature points, flat
        (K, n_faces*nfq).  Exterior values on boundary faces return the
        interior trace (callers apply the mirror condition)."""
        uf = u @ self.ref.Vfq.T
        up = uf.ravel()[self._gather_idx]
        return uf, up

    def interp(self, u):
        return u @ self.ref.Vq.T


def _surface_terms(state, disc, strong_weak):
    ref, flux = disc.ref, disc.flux
    bc = disc.bc_mask

    pM, pP = disc.face_traces(state.p)
    u1M, u1P = disc.face_traces(state.u1)
    u2M, u2P = disc.face_traces(state.u2)
    # Dirichlet mirror: p+ = -p-, u+ = u-
    pP[bc] = -pM[bc]
    u1P[bc] = u1M[bc]
    u2P[bc] = u2M[bc]

    geo = disc.geo
    dp = pP - pM
    dUn = (u1P - u1M) * geo.nxq
    dUn += (u2P - u2M) * geo.nyq

    if strong_weak:
        # pressure flux 1/2 (2{u}.n - tau_p [p])
        fp = (u1P + u1M) * geo.nxq
        fp += (u2P + u2M) * geo.nyq
        fp -= flux.tau_p * dp
    else:
        fp = dUn - flux.tau_p * dp
    # velocity flux 1/2 ([p] - tau_u [u].n)
    fu = dp - flux.tau_u * dUn

    Pf = ref.Pfq.T
    rp = -((fp * disc._Jf_half) @ Pf)
    ru1 = -((fu * disc._Jfnx_half) @ Pf)
    ru2 = -((fu * disc._Jfny_half) @ Pf)
    return rp, ru1, ru2


def _volume_terms(state, disc, strong_weak):
    ref = disc.ref
    pq_r = state.p @ ref.Drq.T
    pq_s = state.p @ ref.Dsq.T
    pxJ = pq_r * disc._rxJ
    pxJ += pq_s * disc._sxJ
    pyJ = pq_r * disc._ryJ
    pyJ += pq_s * disc._syJ
    ru1 = -(pxJ @ ref.Pq.T)
    ru2 = -(pyJ @ ref.Pq.T)

    if strong_weak:
        u1q = disc.interp(state.u1)
        u2q = disc.interp(state.u2)
        wq = ref.wq[None, :]
        Fr = wq * (disc._rxJ * u1q + disc._ryJ * u2q)
        Fs = wq * (disc._sxJ * u1q + disc._syJ * u2q)
        rp = (Fr @ ref.Drq + Fs @ ref.Dsq) @ ref.Mhat_inv
    else:
        divJ = (state.u1 @ ref.Drq.T) * disc._rxJ
        divJ += (state.u1 @ ref.Dsq.T) * disc._sxJ
        divJ += (state.u2 @ ref.Drq.T) * disc._ryJ
        divJ += (state.u2 @ ref.Dsq.T) * disc._syJ
        rp = -(divJ @ ref.Pq.T)
    return rp, ru1, ru2


def rhs_pre_mass(state, disc):
    """DG right-hand side of the configured formulation, Mhat^-1-premultiplied
    (no mass weighting applied yet).  The strong-weak form integrates the
    pressure equation by parts once."""
    sw = disc.config.formulation is Formulation.StrongWeak
    vp, vu1, vu2 = _volume_terms(state, disc, sw)
    sp, su1, su2 = _surface_terms(state, disc, sw)
    return FieldState(vp + sp, vu1 + su1, vu2 + su2, state.t)


def apply_mass_inverse(rhs_pre, disc):
    """Complete the mass solve on a premultiplied right-hand side.

    WADG mode scales pointwise by c^2/J (pressure) and 1/J (velocity)
    between interpolation and projection on the update quadrature; exact
    mode applies stored dense inverses of the weighted mass matrices.
    """
    if disc.config.mass_mode is MassMode.WADG:
        ref = disc.ref_upd
        p = operators.apply_weight_adjusted_inverse(ref, disc.w_upd_p, rhs_pre.p)
        u1 = operators.apply_weight_adjusted_inverse(ref, disc.w_upd_u, rhs_pre.u1)
        u2 = operators.apply_weight_adjusted_inverse(ref, disc.w_upd_u, rhs_pre.u2)
    else:
        Mh = disc.ref.Mhat
        p = np.einsum("kij,kj->ki", disc.mass_inv_p, rhs_pre.p @ Mh)
        u1 = np.einsum("kij,kj->ki", disc.mass_inv_u, rhs_pre.u1 @ Mh)
        u2 = np.einsum("kij,kj->ki", disc.mass_inv_u, rhs_pre.u2 @ Mh)
    return FieldState(p, u1, u2, rhs_pre.t)


def rhs_full(state, disc):
    return apply_mass_inverse(rhs_pre_mass(state, disc), disc)


def energy(state, disc):
    """Discrete energy 1/2 int (p^2/c^2 + |u|^2) by volume quadrature."""
    pq = disc.interp(state.p)
    u1q = disc.interp(state.u1)
    u2q = disc.interp(state.u2)
    dens = pq**2 / disc.c2q + u1q**2 + u2q**2
    return 0.5 * float(np.sum(disc._wJ * dens))


# Carpenter-Kennedy low-storage five-stage fourth-order coefficients
LSRK4A = (
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
)
LSRK4B = (
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
)
LSRK4C = (
    0.0,
    1432997174477.0 / 9575080441755.0,
    2526269341429.0 / 6820363962896.0,
    2006345519317.0 / 3224310063776.0,
    2802321613138.0 / 2924317926251.0,
)


def lsrk_step(state, dt, rhs_fn):
    """One five-stage low-storage RK4 step; two field-sized registers."""
    y = state.copy()
    res = FieldState(np.zeros_like(y.p), np.zeros_like(y.u1), np.zeros_like(y.u2))
    t0 = state.t
    for a, b, c in zip(LSRK4A, LSRK4B, LSRK4C):
        y.t = t0 + c * dt
        d = rhs_fn(y)
        res.p = a * res.p + dt * d.p
        res.u1 = a * res.u1 + dt * d.u1
        res.u2 = a * res.u2 + dt * d.u2
        y.p += b * res.p
        y.u1 += b * res.u1
        y.u2 += b * res.u2
    y.t = t0 + dt
    return y


def stable_dt(disc):
    """dt = cfl * min_k h_k / (c_max,k (N+1)^2) with h_k = 2 area/perimeter,
    measured on the formulation's rule."""
    cfl = disc.config.cfl
    if cfl <= 0:
        raise ConfigError("cfl must be positive")
    area = geometry.element_areas(disc.geo)
    perim = geometry.element_perimeters(disc.geo)
    hmin = 2.0 * area / perim
    return float(cfl * np.min(hmin / (disc.c_max * (disc.config.N + 1) ** 2)))


def project_initial_condition(disc, initial_fn):
    """L2-project (p, u1, u2) at t = 0 on the mass-exact rule: initial_fn is
    evaluated once and all three fields share one J-weighted mass matrix
    (the exact-mass one, when there is one) and its factorization."""
    ref, geo = disc.rule(disc.mass_deg)
    p, u1, u2 = operators.l2_project(
        ref, geo, lambda x, y: tuple(initial_fn(x, y)), mass=disc.mass_J)
    return FieldState(p, u1, u2, 0.0)


FINITE_CHECK_STEPS = 10


def run(mesh, config, initial_fn, T, medium=MediumField(), exact_p=None,
        n_outputs=10, dt=None):
    """Advance the projected initial condition to time T.

    Records (t, energy) at n_outputs+1 evenly spaced sample times (and the
    pressure L2 error when exact_p(x, y, t) is given).  Each output interval
    takes a precomputed number of steps of dt, the last one shortened to
    land on the sample time.  Raises BlowUp when the energy at a sample time
    exceeds 1e6 x its initial value, or when a field holds non-finite values
    (checked every FINITE_CHECK_STEPS steps).  Raises ConfigError, before
    any setup, for T < 0 or n_outputs < 1; T = 0 projects and records the
    initial state only.
    """
    if T < 0 or n_outputs < 1:
        raise ConfigError(f"need T >= 0 and n_outputs >= 1, got T = {T}, "
                          f"n_outputs = {n_outputs}")
    disc = Discretization(mesh, config, medium)
    state = project_initial_condition(disc, initial_fn)
    if dt is None:
        dt = stable_dt(disc)

    rhs_fn = lambda s: rhs_full(s, disc)
    sample_ts = np.linspace(0.0, T, n_outputs + 1)
    diag = {"t": [], "energy": [], "l2_error_p": []}

    ref_err = geo_err = None
    if exact_p is not None:
        # degree 2N+1 Gauss rules are blind to the leading P_{N+1} error
        # mode (its roots are the quadrature points); use a richer rule
        ref_err, geo_err = disc.rule(2 * config.N + 4)

    def record(s):
        e = energy(s, disc)
        diag["t"].append(s.t)
        diag["energy"].append(e)
        if exact_p is not None:
            err = operators.global_l2_error(
                ref_err, geo_err, s.p, lambda x, y: exact_p(x, y, s.t))
            diag["l2_error_p"].append(err)
        return e

    e0 = record(state)
    steps = 0
    for target in sample_ts[1:]:
        # n - 1 steps of dt, then one that lands on the target
        t_start = state.t
        n = int(np.ceil((target - t_start) / dt - 1e-9))
        for i in range(n):
            state.t = t_start + i * dt
            state = lsrk_step(state, dt if i < n - 1 else target - state.t, rhs_fn)
            steps += 1
            if steps % FINITE_CHECK_STEPS == 0 and not all(
                    np.isfinite(f).all() for f in (state.p, state.u1, state.u2)):
                raise BlowUp(f"non-finite field values at t = {state.t:.4f} "
                             f"(step {steps})")
        state.t = target
        e = record(state)
        if not np.isfinite(e) or (e0 > 0 and e > 1e6 * e0):
            raise BlowUp(f"energy {e:.3e} at t = {state.t:.4f} (initial {e0:.3e})")
    diag = {k: np.asarray(v) for k, v in diag.items()}
    return state, diag


# ---------------------------------------------------------------------------
# Exact disk solution

# second zero of J0; Dirichlet eigenvalue of the disk pressure mode
DISK_LAMBDA = float(special.jn_zeros(0, 2)[1])


def bessel_pressure(x, y, t, lam=DISK_LAMBDA):
    """Standing pressure mode of the unit disk, p = J0(lam r) cos(lam t)."""
    r = np.hypot(x, y)
    return special.j0(lam * r) * np.cos(lam * t)


def bessel_velocity(x, y, t, lam=DISK_LAMBDA):
    """Velocity of the standing mode, u = J1(lam r) sin(lam t) r_hat."""
    r = np.hypot(x, y)
    mag = special.j1(lam * r) * np.sin(lam * t)
    with np.errstate(invalid="ignore", divide="ignore"):
        cx = np.where(r > 0, x / np.where(r > 0, r, 1.0), 0.0)
        cy = np.where(r > 0, y / np.where(r > 0, r, 1.0), 0.0)
    return mag * cx, mag * cy


def bessel_initial_condition(x, y):
    p = bessel_pressure(x, y, 0.0)
    return p, np.zeros_like(p), np.zeros_like(p)
