"""Time-domain DG solver for the first-order acoustic wave system
(p_t / c^2 + div u = 0, u_t + grad p = 0) on curved quadrilateral meshes,
with strong and strong-weak formulations, penalty fluxes, homogeneous
Dirichlet pressure boundaries, a weight-adjusted or exact curved mass
inverse, and an eight-stage fourth-order time step whose stability
polynomial is fitted to the DG spectra.

A state is one (3, K, Np) array q whose rows are the nodal coefficients
of p, u1 and u2; the step functions take and return that bare array.  The
semi-discrete system is autonomous, so no step function takes a time:
only `run` keeps the clock, and it returns a FieldState pairing the final
array with its time.

Right-hand sides follow the fused convention: volume and surface kernels
return the Mhat^-1-premultiplied load, and the mass-inverse application
supplies the rest per field, from one mass rule per mode that `energy`
also reads; the nodes are the points of the WADG mass rule, which makes
its mass inverse a pointwise scale.  Every array a time step writes
belongs to the Discretization, so a warm step allocates no field-sized
array.
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
        for name, tau in (("tau_p", self.tau_p), ("tau_u", self.tau_u)):
            if not (tau >= 0 and np.isfinite(tau)):
                raise ConfigError(f"penalty {name} must be finite and >= 0, got {tau!r}")


@dataclass(frozen=True)
class MediumField:
    """Squared wavespeed, constant or a callable c2(x, y); density is 1."""

    c2: object = 1.0

    def values(self, x, y):
        if callable(self.c2):
            v = np.broadcast_to(np.asarray(self.c2(x, y), dtype=float), x.shape).copy()
        else:
            v = np.full_like(x, float(self.c2))
        if not np.all((v > 0) & np.isfinite(v)):
            raise ConfigError("wavespeed squared must be positive and finite")
        return v


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one solver run.  The quadrature is not a setting:
    Discretization takes it from sufficient_quadrature_degree."""

    N: int
    formulation: Formulation = Formulation.Strong
    mass_mode: MassMode = MassMode.WADG
    flux: FluxParams = field(default_factory=FluxParams)
    cfl: float = 0.8                        # fraction of the calibrated limit

    def __post_init__(self):
        if not (self.N >= 1 and self.cfl > 0 and np.isfinite(self.cfl)):
            raise ConfigError(f"need N >= 1 and finite cfl > 0, got N = {self.N}, cfl = {self.cfl}")


def sufficient_quadrature_degree(N, N_geo, formulation):
    """Degree of the volume and face rule on which the formulation is energy
    stable for degree-N_geo mappings.

    The strong form needs discrete integration by parts (hence strong =
    strong-weak) to be exact: per coordinate, the volume integrand
    u_r (r_x J) v and the face integrand both reach 2N + N_geo - 1.  The
    strong-weak form is stable on the degree 2N+1 rule.
    """
    if formulation is Formulation.StrongWeak:
        return 2 * N + 1
    return 2 * N + N_geo - 1


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
    lift and a weak-divergence term, then the mass-inverse result."""

    def __init__(self, disc):
        K, Np, Nq = disc.mesh.K, disc.ref.Np, disc.ref.Nq
        face = disc._gather_idx.shape
        fields = (3, K, Np)
        self.volume = np.empty((4, K, Nq))
        self.traces = np.empty((2, 3) + face)      # interior, exterior
        self.sw_flux = (np.empty((2,) + face)
                        if disc.config.formulation is Formulation.StrongWeak else None)
        self.scratch = np.empty(fields)
        self.rhs_pre = np.empty(fields)
        self.y = np.empty(fields)       # step registers
        self.res = np.empty(fields)


class Discretization:
    """Prepared operator data for one (mesh, config, medium) triple.

    The only owner of reference elements and their geometry: `rule` builds
    each distinct Gauss rule once.  Holds the volume/face rule of the
    formulation (`ref`, `geo`, of degree `sufficient_quadrature_degree`;
    the only rule with metric terms and face geometry), the mass rule
    `ref_upd` (degree 2N+1 for WADG, whose points are the nodes, or
    `mass_deg`) with the weights `w_upd_p` = c^2/J and `w_upd_u` = 1/J,
    face-trace gather tables, (exact mode only) M^-1 Mhat on the mass rule,
    and the `buffers` every time step writes.  No dense per-element matrix
    is held in WADG mode.

    Calling a Discretization on a (3, K, Np) array evaluates `rhs_full`.
    The right-hand sides and the arrays `lsrk_step` returns are those
    buffers, each valid until the next call that writes it.
    """

    def __init__(self, mesh, config, medium=MediumField()):
        N = config.N
        self.mesh = mesh
        self.config = config
        self.medium = medium
        self.flux = config.flux
        self.mass_deg = 2 * N + 2 * mesh.N_geo   # mass-exact rule
        self._rules = {}
        self.ref, self.geo = self._rule(
            sufficient_quadrature_degree(N, mesh.N_geo, config.formulation),
            geometry.compute_geometric_data)
        self.c_max = np.sqrt(medium.values(self.geo.xq, self.geo.yq).max(axis=1))
        exact = config.mass_mode is MassMode.ExactCurvedMass
        self.ref_upd, geo_upd = self.rule(self.mass_deg if exact else 2 * N + 1)
        c2 = medium.values(geo_upd.xq, geo_upd.yq)
        # mass weights: pressure gets c^2/J, velocity 1/J
        self.w_upd_p = c2 / geo_upd.Jq
        self.w_upd_u = 1.0 / geo_upd.Jq

        self.mass_inv_p = self.mass_inv_u = None
        if exact:   # M^-1 Mhat
            self.mass_inv_p, self.mass_inv_u = (
                np.linalg.solve(operators.weighted_mass_matrix(self.ref_upd, w), self.ref.Mhat)
                for w in (geo_upd.Jq / c2, geo_upd.Jq))

        # fused factors, (K, Nq) and flat (K, n_faces*nfq); the projections
        # carry the minus sign of every volume and lift term
        ref, geo = self.ref, self.geo
        self._Jf_half = 0.5 * geo.Jfq
        self._Jfnx_half = self._Jf_half * geo.nxq
        self._Jfny_half = self._Jf_half * geo.nyq
        self._mPq = -ref.Pq
        self._mPf = -ref.Pfq
        # weak derivatives (w_q D) Mhat^-1, (Nq, Np), of the strong-weak form
        self._weak_r, self._weak_s = ((ref.wq[:, None] * D) @ ref.Mhat_inv
                                      for D in (ref.Drq, ref.Dsq))
        self._build_face_gather()

    def rule(self, degree):
        """(ReferenceElement, VolumeGeometry) of the Gauss rule exact to
        `degree` (floored at 2N).  Keyed by the 1D point count, so degrees
        landing on one rule share it; only the formulation's rule carries
        metric terms and face geometry."""
        return self._rule(degree, geometry.compute_volume_geometry)

    def _rule(self, degree, evaluate):
        N = self.config.N
        n1d = (max(degree, 2 * N) + 2) // 2
        if n1d not in self._rules:
            ref = refelem.build_reference_element(N, 2 * n1d - 1)
            self._rules[n1d] = (ref, evaluate(self.mesh, ref))
        return self._rules[n1d]

    def _build_face_gather(self):
        mesh, nfq = self.mesh, self.ref.nfq
        self.bc_mask = np.repeat(mesh.boundary_tags > 0, nfq, axis=1)
        # a boundary point is its own exterior point, so the velocity mirror
        # u+ = u- is the gather itself, and the pressure mirror p+ = -p- a
        # sign flip at _bc_points
        idx = geometry.exterior_face_index(mesh.face_connectivity, nfq)
        self._gather_idx = idx.reshape(mesh.K, -1)
        self._bc_points = np.flatnonzero(self.bc_mask)

    @functools.cached_property
    def buffers(self):
        """The StepBuffers of this discretization, allocated at first use,
        after set-up has freed its temporaries."""
        return StepBuffers(self)

    def __call__(self, q):
        return rhs_full(q, self)

    def face_traces(self, q):
        """Interior and exterior traces of the (3, K, Np) state q at the face
        quadrature points, each (3, K, n_faces*nfq), written into
        `buffers.traces`: one GEMM call and one gather for all fields.  The
        exterior value of a boundary point is its own interior trace
        (callers apply the mirror condition)."""
        K, nf = self._gather_idx.shape
        uf, up = self.buffers.traces
        np.matmul(q, self.ref.Vfq.T, out=uf)
        np.take(uf.reshape(-1, K * nf), self._gather_idx, axis=1, mode="clip",
                out=up.reshape(-1, K, nf))
        return uf, up


def _surface_terms(q, disc, strong_weak, out):
    """Lifted penalty-flux terms of the three fields into out (3, K, Np)."""
    flux, geo = disc.flux, disc.geo
    M, P = disc.face_traces(q)
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
        # weak divergence of u J, weighted and premultiplied by Mhat^-1
        u1q = np.matmul(u1, ref.Vq.T, out=a)
        u2q = np.matmul(u2, ref.Vq.T, out=b)
        Fr = np.multiply(geo.rxJ, u1q, out=c)
        Fr += np.multiply(geo.ryJ, u2q, out=d)
        Fs = np.multiply(u1q, geo.sxJ, out=a)
        Fs += np.multiply(u2q, geo.syJ, out=b)
        np.matmul(Fr, disc._weak_r, out=out[0])
        out[0] += np.matmul(Fs, disc._weak_s, out=buf.scratch[0])
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

    WADG mode applies Pq diag(w) Vq on the mass rule, whose points are the
    nodes: a pointwise scale by c^2/J (pressure) and 1/J (velocity).  Exact
    mode applies the stored per-element M^-1 Mhat as batched GEMMs, one for
    the pressure and one for both velocity fields.  The result is the
    buffer `scratch` of disc, so z must be another array.
    """
    out = disc.buffers.scratch
    if disc.config.mass_mode is MassMode.WADG:
        for f, w in enumerate((disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
            np.multiply(z[f], w, out=out[f])
    else:
        # (K, Np, Np) @ (K, Np, n): the fields of z stacked as columns
        np.matmul(disc.mass_inv_p, z[0, :, :, None], out=out[0, :, :, None])
        np.matmul(disc.mass_inv_u, z[1:].transpose(1, 2, 0),
                  out=out[1:].transpose(1, 2, 0))
    return out


def rhs_full(q, disc):
    return apply_mass_inverse(rhs_pre_mass(q, disc), disc)


def energy(q, disc):
    """1/2 sum_f sum_q w_q (Vq q_f)^2 / w_f of the (3, K, Np) state q on the
    mass rule: 1/2 sum_f q_f^T M_f q_f with M_f the mass apply_mass_inverse
    inverts, the energy that the scheme conserves at zero penalty.  In WADG
    mode Vq = I and M_f = diag(w_q / w_f) = Mhat M_{w_f}^-1 Mhat."""
    total = 0.0
    for qf, w in zip(q, (disc.w_upd_p, disc.w_upd_u, disc.w_upd_u)):
        fq = qf @ disc.ref_upd.Vq.T
        fq *= fq
        total += np.sum(np.divide(fq, w, out=fq) @ disc.ref_upd.wq)
    return 0.5 * float(total)


# Coefficients a_0..a_8 of the stability polynomial R(z) = sum_j a_j z^j of
# one step, z = dt lambda: a_j = 1/j! through j = 4 (fourth order), and
# a_5..a_8 from a linear programme that maximizes the smallest spectral
# limit over stable_dt's rule across the calibration spectra, tau = 0
# included (BENCH_poly.json).  Its reach is 5.098 on the imaginary axis
# and 8.978 on the negative real axis.
STABILITY_POLYNOMIAL = (
    1.0, 1.0, 1 / 2, 1 / 6, 1 / 24,
    7.682414115158984e-3, 1.0421369945923574e-3, 9.523467634490214e-5,
    3.996575874160688e-6,
)
# the factors a_{j+1}/a_j, j = 7..0, of the nested form
_NESTED = tuple(STABILITY_POLYNOMIAL[j + 1] / STABILITY_POLYNOMIAL[j]
                for j in reversed(range(len(STABILITY_POLYNOMIAL) - 1)))


def lsrk_step(q, dt, rhs_fn):
    """Advance the (3, K, Np) state q by one step y = R(dt L) q of the
    eight-stage fourth-order STABILITY_POLYNOMIAL, and return the advanced
    array.

    R is evaluated in nested (Horner) form, one rhs evaluation per stage:
    y <- q, then y <- q + (a_{j+1}/a_j) dt L(y) for j = 7..0.  For a linear,
    autonomous rhs, as here, that is R(dt L) q exactly; a source term or
    time-dependent boundary data would need a genuine low-storage RK
    realization of the same R.  rhs_fn maps a state array to its time
    derivative, which the step then scales in place, so that array must not
    share memory with q; no stage time is passed.  The two
    registers are q and y: when rhs_fn is a Discretization, y is whichever
    of its buffers `y` and `res` q is not, and a warm step allocates no
    field-sized array; otherwise y is a new array.  The result is y; q
    itself never changes.
    """
    if isinstance(rhs_fn, Discretization):
        buf = rhs_fn.buffers
        y = buf.res if q is buf.y else buf.y
    else:
        y = np.empty_like(q)
    stage = q
    for b in _NESTED:
        d = rhs_fn(stage)
        d *= b * dt
        stage = np.add(q, d, out=y)
    return y


# Calibration constant of stable_dt.  Over 900 dense spectra (uniform,
# disk, Arnold, random and warped meshes, N = 1, 3, 6, both forms, six
# media with c between 0.5 and 2, (tau_p, tau_u) in {(0, 0), (1, 1),
# (5, 5), (0, 5), (5, 0)}; BENCH_dt.json), the spectral limit of
# STABILITY_POLYNOMIAL (analysis.lsrk_stable_dt) lies between 8.27 and
# 20.5 times the bound with C_DT = 1 (BENCH_poly.json).  C_DT is that
# minimum times 4 / 4.29, rounded down: the margin below the smallest
# limit that the calibration has kept since BENCH_dt.json.  Arnoldi upper
# estimates on the three benchmark disk meshes give 10.6 to 11.6.
C_DT = 7.71


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
    rule: initial_fn is evaluated once, and operators.l2_project solves
    for each field matrix-free, in both mass modes."""
    ref, geo = disc.rule(disc.mass_deg)
    return np.stack(operators.l2_project(ref, geo, lambda x, y: tuple(initial_fn(x, y))))


FINITE_CHECK_STEPS = 10
MAX_STEPS = 10**7    # days of stepping even at K = 768


def run(mesh, config, initial_fn, T, medium=MediumField(), exact_p=None,
        n_outputs=10, dt=None):
    """Advance the projected initial condition to time T.

    Takes n = ceil(T/dt) uniform steps of h = T/n <= dt, dt defaulting to
    stable_dt; step i ends at i h.  Records (t, energy), and the pressure L2
    error when exact_p(x, y, t) is given, at t = 0 and at the step nearest
    each of n_outputs evenly spaced sample times: every step when n <
    n_outputs.  diag["t"] holds the recorded times, ending at T exactly;
    diag["dt"] is h and diag["steps"] n.  Raises BlowUp when the energy at a
    record exceeds 1e6 x its initial value, or when a field holds non-finite
    values (checked every FINITE_CHECK_STEPS steps).  Raises ConfigError,
    before any setup, for T not finite and >= 0, n_outputs < 1 or dt not
    finite and > 0, and before the first step when n exceeds MAX_STEPS;
    T = 0 projects and records the initial state only, once.
    """
    if not 0 <= T < np.inf or n_outputs < 1:
        raise ConfigError(f"need finite T >= 0 and n_outputs >= 1, got T = {T}, "
                          f"n_outputs = {n_outputs}")
    if dt is not None and not (dt > 0 and np.isfinite(dt)):
        raise ConfigError(f"dt must be finite and > 0, got {dt!r}")
    disc = Discretization(mesh, config, medium)
    q = project_initial_condition(disc, initial_fn)
    if dt is None:
        dt = stable_dt(disc)
    # an exact multiple of dt adds no step; any T > 0 takes at least one
    steps = np.ceil(T / dt - 1e-9)
    if steps > MAX_STEPS:
        raise ConfigError(f"T = {T} at dt = {dt:.3e} takes {steps:.3e} steps, "
                          f"more than MAX_STEPS = {MAX_STEPS}")
    n = max(int(steps), int(T > 0))

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

    e0 = record(q, 0.0)
    h = T / n if n else dt
    samples = {round(k * n / n_outputs) for k in range(1, n_outputs + 1)}
    for i in range(1, n + 1):
        q = lsrk_step(q, h, disc)
        t = T if i == n else i * h
        if i % FINITE_CHECK_STEPS == 0 and not np.isfinite(q).all():
            raise BlowUp(f"non-finite field values at t = {t:.4f} (step {i})")
        if i in samples:
            e = record(q, t)
            if not np.isfinite(e) or (e0 > 0 and e > 1e6 * e0):
                raise BlowUp(f"energy {e:.3e} at t = {t:.4f} (initial {e0:.3e})")
    diag = {k: np.asarray(v) for k, v in diag.items()}
    diag["dt"], diag["steps"] = h, n
    return FieldState(q, T), diag


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
