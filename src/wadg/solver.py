"""Time-domain DG solver for the first-order acoustic wave system
(p_t / c^2 + div u = 0, u_t + grad p = 0) on curved quadrilateral meshes,
with strong and strong-weak formulations, penalty fluxes, homogeneous
Dirichlet pressure boundaries, a weight-adjusted or exact curved mass
inverse, and low-storage five-stage RK4 time stepping.

A state is one (3, K, Np) array q whose rows are the nodal coefficients
of p, u1 and u2; the step functions take and return that bare array.  The
semi-discrete system is autonomous, so no step function takes a time:
only `run` keeps the clock, and it returns a FieldState pairing the final
array with its time.

Right-hand sides follow the fused convention: volume and surface kernels
return the Mhat^-1-premultiplied load, and the mass-inverse application
supplies the rest per field, from one mass rule per mode that `energy`
also reads.  Every array a time step writes belongs to the Discretization,
so a warm step allocates no field-sized array.
"""

from __future__ import annotations

import enum
import functools
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
    cfl: float = 0.8                        # fraction of the calibrated limit
    volume_quad_degree: int | None = None   # default: formulation rule
    face_quad_degree: int | None = None
    unsafe_quadrature: bool = False         # allow under-integrated strong form

    def __post_init__(self):
        if not (self.N >= 1 and self.cfl > 0):
            raise ConfigError(f"need N >= 1 and cfl > 0, got N = {self.N}, cfl = {self.cfl}")


def sufficient_quadrature_degrees(N, N_geo):
    """Volume/face quadrature degrees that make discrete integration by
    parts (hence strong = strong-weak) exact for degree-N_geo mappings.

    Degrees are per coordinate: the volume integrand u_r (r_x J) v and the
    face integrand both reach 2N + N_geo - 1 in each coordinate.
    """
    return 2 * N + N_geo - 1, 2 * N + N_geo - 1


@dataclass
class FieldState:
    """What `run` returns: the (3, K, Np) field array `q` at time `t`, whose
    rows p, u1, u2 are (K, Np) views."""

    q: np.ndarray
    t: float

    @property
    def p(self):
        return self.q[0]

    @property
    def u1(self):
        return self.q[1]

    @property
    def u2(self):
        return self.q[2]


class StepBuffers:
    """Every array that rhs_pre_mass, apply_mass_inverse and lsrk_step write
    for one Discretization, reused by every step; `scratch` holds the surface
    lift, then the mass-inverse result."""

    def __init__(self, disc):
        K, Np, Nq = disc.mesh.K, disc.ref.Np, disc.ref.Nq
        face = disc._gather_idx.shape
        fields = (3, K, Np)
        self.volume = np.empty((4, K, Nq))
        self.traces = np.empty((2, 3) + face)      # interior, exterior
        self.sw_flux = self.wq = None
        if disc.config.formulation is Formulation.StrongWeak:
            self.sw_flux = np.empty((2,) + face)
            # weights repeated per element: an in-place product with a
            # broadcast (Nq,) operand makes numpy allocate an iteration buffer
            self.wq = np.tile(disc.ref.wq, (K, 1))
        self.scratch = np.empty(fields)
        self.rhs_pre = np.empty(fields)
        self.update = (np.empty((K, disc.ref_upd.Nq))
                       if disc.config.mass_mode is MassMode.WADG else None)
        self.y = np.empty(fields)       # LSRK registers
        self.res = np.empty(fields)


class Discretization:
    """Prepared operator data for one (mesh, config, medium) triple.

    The only owner of reference elements and their geometry: `rule` builds
    each distinct Gauss rule once.  Holds the volume/face rule of the
    formulation (`ref`, `geo`, the only rule with metric terms and face
    geometry), the mass rule `ref_upd` (degree 2N+1 for WADG, `mass_deg` for
    exact mass) with the weights `w_upd_p` = c^2/J and `w_upd_u` = 1/J,
    face-trace gather tables, (exact mode only) `mass_J` and M^-1 Mhat on
    the mass rule, and the `buffers` every time step writes.

    Calling a Discretization on a (3, K, Np) array evaluates `rhs_full`.
    The right-hand sides and the arrays `lsrk_step` returns are those
    buffers, each valid until the next call that writes it.
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
        self.ref, self.geo = self._rule(vol_deg, geometry.compute_geometric_data)
        self.c_max = np.sqrt(medium.values(self.geo.xq, self.geo.yq).max(axis=1))
        exact = config.mass_mode is MassMode.ExactCurvedMass
        self.ref_upd, geo_upd = self.rule(self.mass_deg if exact else 2 * N + 1)
        c2 = medium.values(geo_upd.xq, geo_upd.yq)
        # mass weights: pressure gets c^2/J, velocity 1/J
        self.w_upd_p = c2 / geo_upd.Jq
        self.w_upd_u = 1.0 / geo_upd.Jq

        self.mass_J = self.mass_inv_p = self.mass_inv_u = None
        if exact:
            Mp = operators.weighted_mass_matrix(self.ref_upd, geo_upd.Jq / c2)
            self.mass_J = operators.weighted_mass_matrix(self.ref_upd, geo_upd.Jq)
            self.mass_inv_p = np.linalg.solve(Mp, self.ref.Mhat)   # M^-1 Mhat
            self.mass_inv_u = np.linalg.solve(self.mass_J, self.ref.Mhat)

        # fused factors, (K, Nq) and flat (K, n_faces*nfq); the projections
        # carry the minus sign of every volume and lift term
        geo = self.geo
        self._Jf_half = 0.5 * geo.Jfq
        self._Jfnx_half = self._Jf_half * geo.nxq
        self._Jfny_half = self._Jf_half * geo.nyq
        self._mPq = -self.ref.Pq
        self._mPf = -self.ref.Pfq
        self._build_face_gather()

    def rule(self, degree):
        """(ReferenceElement, VolumeGeometry) of the Gauss rule exact to
        `degree` (floored at 2N), with the formulation's face rule.  Keyed
        by the 1D point count, so degrees landing on one rule share it; only
        the formulation's rule carries metric terms and face geometry."""
        return self._rule(degree, geometry.compute_volume_geometry)

    def _rule(self, degree, evaluate):
        N = self.config.N
        n1d = (max(degree, 2 * N) + 2) // 2
        if n1d not in self._rules:
            ref = refelem.build_reference_element(
                N, volume_quad_degree=2 * n1d - 1,
                face_quad_degree=self._face_deg)
            self._rules[n1d] = (ref, evaluate(self.mesh, ref))
        return self._rules[n1d]

    def _build_face_gather(self):
        mesh, nfq = self.mesh, self.ref.nfq
        nf = mesh.n_faces * nfq
        self.bc_mask = np.repeat(mesh.boundary_tags > 0, nfq, axis=1)
        idx = geometry.exterior_face_index(mesh.face_connectivity, nfq)
        # a boundary point is its own exterior point: the velocity mirror
        # u+ = u- is then the gather itself, and the pressure mirror
        # p+ = -p- a sign flip at _bc_points
        own = np.arange(mesh.K * nf).reshape(mesh.K, nf)
        self._gather_idx = np.where(self.bc_mask, own, idx.reshape(mesh.K, nf))
        self._bc_points = np.flatnonzero(self.bc_mask)

    @functools.cached_property
    def buffers(self):
        """The StepBuffers of this discretization, allocated at first use,
        after set-up has freed its temporaries."""
        return StepBuffers(self)

    def __call__(self, q):
        return rhs_full(q, self)

    def face_traces(self, u, out=None):
        """Interior and exterior traces at face quadrature points of a field
        (K, Np) or of stacked fields (n, K, Np), each (..., K, n_faces*nfq):
        one GEMM call and one gather for all fields.  The exterior value of
        a boundary point is its own interior trace (callers apply the mirror
        condition).  `out` is an optional pair of arrays to fill."""
        K, nf = self._gather_idx.shape
        if out is None:
            shape = u.shape[:-1] + (nf,)
            out = (np.empty(shape), np.empty(shape))
        uf, up = out
        np.matmul(u, self.ref.Vfq.T, out=uf)
        np.take(uf.reshape(-1, K * nf), self._gather_idx, axis=1, mode="clip",
                out=up.reshape(-1, K, nf))
        return uf, up


def _surface_terms(q, disc, strong_weak, out):
    """Lifted penalty-flux terms of the three fields into out (3, K, Np)."""
    flux, geo = disc.flux, disc.geo
    M, P = disc.face_traces(q, out=disc.buffers.traces)
    np.negative.at(P[0].reshape(-1), disc._bc_points)   # Dirichlet p+ = -p-
    if strong_weak:
        # pressure flux 1/2 (2{u}.n - tau_p [p]): the sum part, before the
        # exterior traces turn into jumps
        fp, tmp = disc.buffers.sw_flux
        np.add(P[1], M[1], out=fp)
        fp *= geo.nxq
        np.add(P[2], M[2], out=tmp)
        tmp *= geo.nyq
        fp += tmp
    P -= M                                  # [p], [u1], [u2]
    dp, du1, du2 = P
    dUn = np.multiply(du1, geo.nxq, out=M[0])
    dUn += np.multiply(du2, geo.nyq, out=M[1])
    tau_dp = np.multiply(dp, flux.tau_p, out=M[1])
    if strong_weak:
        fp -= tau_dp
    else:
        fp = np.subtract(dUn, tau_dp, out=M[1])
    # velocity flux 1/2 ([p] - tau_u [u].n)
    fu = np.multiply(dUn, flux.tau_u, out=M[2])
    np.subtract(dp, fu, out=fu)

    np.multiply(fp, disc._Jf_half, out=P[0])
    np.multiply(fu, disc._Jfnx_half, out=P[1])
    np.multiply(fu, disc._Jfny_half, out=P[2])
    np.matmul(P, disc._mPf.T, out=out)


def _volume_terms(q, disc, strong_weak, out):
    """Volume terms of the three fields into out (3, K, Np)."""
    ref, geo = disc.ref, disc.geo
    p, u1, u2 = q
    buf = disc.buffers
    a, b, c, d = buf.volume
    # velocity rows: -Pq (grad p J), grad p J = p_r (rx, ry) J + p_s (sx, sy) J
    np.matmul(p, ref.Drq.T, out=a)
    np.matmul(p, ref.Dsq.T, out=b)
    for row, rJ, sJ in ((1, geo.rxJ, geo.sxJ), (2, geo.ryJ, geo.syJ)):
        np.multiply(a, rJ, out=c)
        c += np.multiply(b, sJ, out=d)
        np.matmul(c, disc._mPq.T, out=out[row])

    if strong_weak:
        # weak divergence of u J, then Mhat^-1
        u1q = np.matmul(u1, ref.Vq.T, out=a)
        u2q = np.matmul(u2, ref.Vq.T, out=b)
        Fr = np.multiply(geo.rxJ, u1q, out=c)
        Fr += np.multiply(geo.ryJ, u2q, out=d)
        Fr *= buf.wq
        Fs = np.multiply(u1q, geo.sxJ, out=a)
        Fs += np.multiply(u2q, geo.syJ, out=b)
        Fs *= buf.wq
        s0, s1 = buf.scratch[0], buf.scratch[1]
        np.matmul(Fr, ref.Drq, out=s0)
        s0 += np.matmul(Fs, ref.Dsq, out=s1)
        np.matmul(s0, ref.Mhat_inv, out=out[0])
    else:
        # -Pq (div u J), summed in the order u1_r, u1_s, u2_r, u2_s
        divJ = np.multiply(np.matmul(u1, ref.Drq.T, out=a), geo.rxJ, out=c)
        for u, D, G in ((u1, ref.Dsq, geo.sxJ), (u2, ref.Drq, geo.ryJ),
                        (u2, ref.Dsq, geo.syJ)):
            divJ += np.multiply(np.matmul(u, D.T, out=a), G, out=a)
        np.matmul(divJ, disc._mPq.T, out=out[0])


def rhs_pre_mass(q, disc):
    """DG right-hand side of the (3, K, Np) state q in the configured
    formulation, Mhat^-1-premultiplied (no mass weighting applied yet).  The
    strong-weak form integrates the pressure equation by parts once.  The
    result is a buffer of disc."""
    sw = disc.config.formulation is Formulation.StrongWeak
    buf = disc.buffers
    _volume_terms(q, disc, sw, buf.rhs_pre)
    _surface_terms(q, disc, sw, buf.scratch)
    buf.rhs_pre += buf.scratch
    return buf.rhs_pre


def apply_mass_inverse(z, disc):
    """Complete the mass solve on a premultiplied right-hand side z.

    WADG mode scales pointwise by c^2/J (pressure) and 1/J (velocity)
    between interpolation and projection on the mass rule; exact mode
    applies the stored per-element M^-1 Mhat.  The result is the buffer
    `scratch` of disc, so z must be another array.
    """
    buf = disc.buffers
    out = buf.scratch
    if disc.config.mass_mode is MassMode.WADG:
        for f, w in enumerate((disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
            operators.apply_weight_adjusted_inverse(
                disc.ref_upd, w, z[f], out=out[f], work=buf.update)
    else:
        for f, Minv in enumerate((disc.mass_inv_p, disc.mass_inv_u, disc.mass_inv_u)):
            np.einsum("kij,kj->ki", Minv, z[f], out=out[f])
    return out


def rhs_full(q, disc):
    return apply_mass_inverse(rhs_pre_mass(q, disc), disc)


def energy(q, disc):
    """1/2 sum_f sum_q w_q (Vq q_f)^2 / w_f of the (3, K, Np) state q on the
    mass rule: 1/2 sum_f q_f^T M_f q_f with M_f the mass apply_mass_inverse
    inverts (Mhat M_{w_f}^-1 Mhat in WADG mode, as Vq is square there), the
    energy that the scheme conserves at zero penalty."""
    total = 0.0
    for qf, w in zip(q, (disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
        fq = qf @ disc.ref_upd.Vq.T
        fq *= fq
        total += np.sum(np.divide(fq, w, out=fq) @ disc.ref_upd.wq)
    return 0.5 * float(total)


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


def lsrk_step(q, dt, rhs_fn):
    """Advance the (3, K, Np) state q by one five-stage low-storage RK4 step
    with two field-sized registers, and return the advanced array.

    rhs_fn maps a state array to its time derivative, which the step then
    scales in place; the system is autonomous, so no stage time is passed.
    When rhs_fn is a Discretization, the registers are its buffers `y` and
    `res`, a warm step allocates no field-sized array, and the result is
    `y`, which the next step advances.  Otherwise the registers are
    allocated here.  q itself changes only when it is `y`.
    """
    if isinstance(rhs_fn, Discretization):
        y, res = rhs_fn.buffers.y, rhs_fn.buffers.res
        if y is not q:
            np.copyto(y, q)
    else:
        y, res = q.copy(), np.empty_like(q)
    res.fill(0.0)
    for a, b in zip(LSRK4A, LSRK4B):
        d = rhs_fn(y)
        res *= a
        d *= dt
        res += d
        y += np.multiply(res, b, out=d)
    return y


# Calibration constant of stable_dt.  Over 900 dense spectra (uniform,
# disk, Arnold, random and warped meshes, N = 1, 3, 6, both forms, six
# media with c between 0.5 and 2, (tau_p, tau_u) in {(0, 0), (1, 1),
# (5, 5), (0, 5), (5, 0)}), the LSRK4A/B spectral limit
# (analysis.lsrk_stable_dt) lies between 4.29 and 10.64 times the bound
# with C_DT = 1 (BENCH_dt.json).  Arnoldi upper estimates on the three
# benchmark disk meshes give 5.5 to 6.0.
C_DT = 4.0


def stable_dt(disc):
    """dt = cfl * C_DT * min_k h_k / ((N+1)(N+2) max(c_k, tau_p c_k^2, tau_u)).

    h_k = 2 area/perimeter and c_k = max c of element k, both on the
    formulation's rule.  The form follows the trace-inequality argument of
    Hesthaven & Warburton, Nodal DG Methods (2008), sec. 4.8.  With
    (N+1)(N+2) the ratio of spectral limit to bound does not drift with N,
    as it did with (N+1)^2.  The wave eigenvalues grow like c; the nearly
    real penalty eigenvalues grow like tau_p c^2 (the pressure update is
    weighted by c^2/J) and like tau_u (the velocity update by 1/J).  cfl
    is the fraction of the calibrated limit: cfl = 1 stays below the
    spectral limit on every calibration case.
    """
    N = disc.config.N
    area = geometry.element_areas(disc.geo)
    perim = geometry.element_perimeters(disc.geo)
    hmin = 2.0 * area / perim
    c = disc.c_max
    rate = np.maximum(np.maximum(c, disc.flux.tau_p * c**2), disc.flux.tau_u)
    bound = np.min(hmin / rate)
    return float(disc.config.cfl * C_DT * bound / ((N + 1) * (N + 2)))


def project_initial_condition(disc, initial_fn):
    """(3, K, Np) L2 projection of (p, u1, u2) at t = 0 on the mass-exact
    rule: initial_fn is evaluated once and all three fields share one
    J-weighted mass matrix (the exact-mass one, when there is one) and its
    factorization."""
    ref, geo = disc.rule(disc.mass_deg)
    return np.stack(operators.l2_project(
        ref, geo, lambda x, y: tuple(initial_fn(x, y)), mass=disc.mass_J))


FINITE_CHECK_STEPS = 10


def run(mesh, config, initial_fn, T, medium=MediumField(), exact_p=None,
        n_outputs=10, dt=None):
    """Advance the projected initial condition to time T.

    Records (t, energy) at n_outputs+1 evenly spaced sample times (and the
    pressure L2 error when exact_p(x, y, t) is given), "dt" and "steps".
    Each output interval takes a precomputed number of steps of dt, the last
    one shortened to land on the sample time.  Raises BlowUp when the energy
    at a sample time exceeds 1e6 x its initial value, or when a field holds
    non-finite values (checked every FINITE_CHECK_STEPS steps).  Raises
    ConfigError, before any setup, for T < 0 or n_outputs < 1; T = 0
    projects and records the initial state only.
    """
    if T < 0 or n_outputs < 1:
        raise ConfigError(f"need T >= 0 and n_outputs >= 1, got T = {T}, "
                          f"n_outputs = {n_outputs}")
    disc = Discretization(mesh, config, medium)
    q = project_initial_condition(disc, initial_fn)
    if dt is None:
        dt = stable_dt(disc)

    sample_ts = np.linspace(0.0, T, n_outputs + 1)
    diag = {"t": [], "energy": [], "l2_error_p": []}

    ref_err = geo_err = None
    if exact_p is not None:
        # degree 2N+1 Gauss rules are blind to the leading P_{N+1} error
        # mode (its roots are the quadrature points); use a richer rule
        ref_err, geo_err = disc.rule(2 * config.N + 4)

    def record(q, t):
        e = energy(q, disc)
        diag["t"].append(t)
        diag["energy"].append(e)
        if exact_p is not None:
            err = operators.global_l2_error(
                ref_err, geo_err, q[0], lambda x, y: exact_p(x, y, t))
            diag["l2_error_p"].append(err)
        return e

    t = 0.0
    e0 = record(q, t)
    steps = 0
    for target in sample_ts[1:]:
        # n - 1 steps of dt, then one that lands on the target; step i
        # starts at t + i dt, not at a running sum of step sizes
        n = int(np.ceil((target - t) / dt - 1e-9))
        for i in range(n):
            t_i = t + i * dt
            h = dt if i < n - 1 else target - t_i
            q = lsrk_step(q, h, disc)
            steps += 1
            if steps % FINITE_CHECK_STEPS == 0 and not np.isfinite(q).all():
                raise BlowUp(f"non-finite field values at t = {t_i + h:.4f} "
                             f"(step {steps})")
        t = target
        e = record(q, t)
        if not np.isfinite(e) or (e0 > 0 and e > 1e6 * e0):
            raise BlowUp(f"energy {e:.3e} at t = {t:.4f} (initial {e0:.3e})")
    diag = {k: np.asarray(v) for k, v in diag.items()}
    diag["dt"], diag["steps"] = dt, steps
    return FieldState(q, t), diag


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
