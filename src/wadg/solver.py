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
array with its time.  A step has one path: each stage of `lsrk_step` is
one `rhs_full` pass, which hands every element block of `rhs_pre_mass` to
`apply_mass_inverse` and adds it to a register.

Right-hand sides follow the fused convention: volume and surface kernels
return the Mhat^-1-premultiplied load, and `apply_mass_inverse` supplies
the rest per field.  In both mass modes that is first the paper's
weight-adjusted inverse, a pointwise scale of each field by c^2/J
(pressure) or 1/J (velocity) at the nodes, the points of the node rule,
where Pq diag(w) Vq = diag(w).  Exact mode then overwrites its `dense`
elements with a per-element (M^-1 Mhat)^T GEMM, M the mass of weight
1/w on the 2N + 2N_geo rule: every element, unless c^2 is constant on
each element, where M_{J/c^2}^-1 = c^2 M_J^-1 and only the curved
elements are dense.  A bilinear element's J is affine in each reference
coordinate, so there the node rule integrates the mass exactly and the
scale is its exact inverse.  `energy` sums the same weights, on the
node rule and on the dense elements' mass rule.

The strong-weak form always, and the strong form when N_geo <= 2, uses the
node rule, the 2N+1 Gauss rule whose points are the nodes: there
Vq = Pq = I, so the volume kernel applies neither.  The strong form with
N_geo >= 3 needs its 2N + N_geo - 1 rule on the faces and on the volume of
curved elements only: a bilinear element's metric is affine in each
reference coordinate, so the node rule integrates its strong volume term
exactly, and each element's volume metric is held once, on its own rule.
A stage, the mass weights, the projection and the records work one element
block at a time, so a run holds the formulation rule's geometry, the
volume metric, the operator data, the interior face traces and two step
registers as mesh-sized arrays, and a warm step allocates no field-sized
array.
"""

from __future__ import annotations

import enum
import functools
import math
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


def _is_int(value):
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_int(self.N):
            raise ConfigError(f"N must be an integer, got {self.N!r}")
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
    """Every array that a stage of lsrk_step writes for one Discretization,
    reused by every step.  Mesh-sized: the interior face `traces` and the
    step registers `y` (the given array, if any) and `res`.  Sized by one
    element block of geometry.ELEMENT_BLOCK at allocation: `rhs`, the
    block's right-hand side; the `exterior` traces; and `work`, which holds
    the volume terms' point values (of the pass over the block, then of the
    curved pass, behind which its gathered fields and result lie), then the
    fluxes and the surface lift, and then the block's gathered `dense`
    elements and behind them their GEMM result, 6 Np min(B, len(dense))
    entries.  The block arrays are flat; `_view` shapes them."""

    def __init__(self, disc, y=None):
        K, Np, Nq = disc.mesh.K, disc.ref.Np, disc.ref.Nq
        nf = disc._gather_idx.shape[1]
        B = min(K, geometry.ELEMENT_BLOCK)
        self.traces = np.empty((3, K, nf))
        self.rhs = np.empty(3 * B * Np)
        self.exterior = np.empty(3 * B * nf)
        # the block's pass on vol_ref, the fluxes and lift; a curved pass,
        # its gathered fields and result; the gathered dense elements and
        # their result
        c = 0 if disc.curved is None else min(B, len(disc.curved))
        self.work = np.empty(max(B * max(4 * disc.vol_ref.Nq, 5 * nf, 3 * Np),
                                 c * (4 * Nq + 6 * Np), 6 * Np * min(B, len(disc.dense))))
        self.y = np.empty((3, K, Np)) if y is None else y     # step registers
        self.res = np.empty((3, K, Np))


def _view(flat, *shape):
    """The leading entries of the flat array `flat`, as an array of `shape`."""
    return flat[:math.prod(shape)].reshape(shape)


def _mass_weights(source, ref, medium, metric=None):
    """The mass weights c^2/J (pressure) and 1/J (velocity) at the points of
    ref's rule, (K, Nq) each, filled one element block at a time from
    geometry.volume_blocks(source, ref, metric), and the (K, 1) c^2 of each
    element when c^2 is exactly equal across the points of every element;
    else None."""
    K, blocks = geometry.volume_blocks(source, ref, metric)
    w_p, w_u = (np.empty((K, ref.Nq)) for _ in range(2))
    c2 = np.empty((K, 1))
    for blk, xq, yq, Jq in blocks:
        c2_q = medium.values(xq, yq)
        if c2 is not None:
            c2[blk] = c2_q[:, :1]
            if not np.all(c2_q == c2[blk]):
                c2 = None
        np.divide(c2_q, Jq, out=w_p[blk])
        np.divide(1.0, Jq, out=w_u[blk])
    return w_p, w_u, c2


class Discretization:
    """Prepared operator data for one (mesh, config, medium) triple.

    Holds the geometry of one rule, the volume/face rule of the formulation
    (`ref`, `geo`, of degree `sufficient_quadrature_degree`, with points, J,
    metric terms and face geometry); `rule` reaches any other.  The volume
    terms read `vol_metric` = (rxJ, ryJ, sxJ, syJ) of every element on
    `vol_ref`: geo's own arrays, or, in the strong form off the node rule
    on a mesh with a bilinear element, the (K, Np) metric on the node rule,
    which integrates a bilinear element's strong volume term exactly; geo's
    metric then holds the rows of the `curved` elements only.  `curved`
    holds, in order, the indices of the elements that
    geometry.bilinear_elements, called once, finds curved, when the volume
    terms or exact mode split by it and some element is bilinear; else None.

    The mass inverse and `energy` read: the node rule `ref_node` (degree
    2N+1, whose points are the nodes) with the weights `w_node_p` = c^2/J
    and `w_node_u` = 1/J at its points, (K, Np) each, or None when every
    element is dense; and `dense`, the sorted indices of the elements whose
    inverse is a dense GEMM, empty in WADG mode.  Exact mode holds, for
    the dense elements in that order, the mass rule `ref_mass` (degree
    `mass_deg`) with its weights `w_mass_p` and `w_mass_u`, (len(dense),
    Nq) each, and the C-contiguous stacks (M^-1 Mhat)^T, M of weight 1/w on
    that rule: `mass_inv_u` of 1/J and `mass_inv_p` of c^2/J, or, where c^2
    is constant on every element, the per-element (len(dense), 1) `c2` in
    place of `mass_inv_p`; all None in WADG mode.  Also holds the
    face-trace gather tables and the `buffers` every time step writes.
    `_mPq` = -Pq is None when the formulation rule is the node rule, where
    Pq = I.  The arrays `lsrk_step` returns are the step registers, each
    valid until the next step that writes it.
    """

    def __init__(self, mesh, config, medium=MediumField()):
        N = config.N
        self.mesh = mesh
        self.config = config
        self.medium = medium
        self.flux = config.flux
        self.mass_deg = 2 * N + 2 * mesh.N_geo   # mass-exact rule
        self.ref = ref = refelem.build_reference_element(
            N, sufficient_quadrature_degree(N, mesh.N_geo, config.formulation))
        exact = config.mass_mode is MassMode.ExactCurvedMass
        # fused factors, (Np, Nq) and (Np, n_faces*nfq): the minus sign of
        # every volume and lift term, and the 1/2 of the penalty fluxes.  On
        # the node rule, the 2N+1 Gauss rule whose points are the nodes,
        # Vq = Pq = I: _mPq is None and _volume_terms skips those GEMMs
        self._mPq = None if ref.Nq == ref.Np else -ref.Pq
        self._mPf = -0.5 * ref.Pfq
        # the one bilinear mask: the strong form off the node rule splits
        # its volume terms by it, and exact mode its mass
        lin = geometry.bilinear_elements(mesh) if exact or self._mPq is not None else None
        self.curved = np.flatnonzero(~lin) if lin is not None and lin.any() else None
        split_volume = self._mPq is not None and self.curved is not None
        self.geo = geometry.compute_geometric_data(mesh, ref, self.curved if split_volume else None)
        self.c_max = np.sqrt(medium.values(self.geo.xq, self.geo.yq).max(axis=1))
        self.ref_node, node_source = self.rule(2 * N + 1)

        self.dense = np.empty(0, dtype=np.intp)
        self.ref_mass = self.w_mass_p = self.w_mass_u = None
        self.mass_inv_p = self.mass_inv_u = self.c2 = None
        if exact:
            self.ref_mass, source = self.rule(self.mass_deg)
            w_p, w_u, c2 = _mass_weights(source, self.ref_mass, medium)
            # M_{J/c^2}^-1 = c^2 M_J^-1, and on a bilinear element M_J^-1
            # Mhat = diag(1/J) at the nodes, the node rule's scale
            self.dense = np.arange(mesh.K) if c2 is None or self.curved is None else self.curved
            if len(self.dense) < mesh.K:
                w_p, w_u, c2 = w_p[self.dense], w_u[self.dense], c2[self.dense]
            self.w_mass_p, self.w_mass_u, self.c2 = w_p, w_u, c2

            # (M^-1 Mhat)^T = Mhat M^-1 (both symmetric), and Mhat is
            # diagonal in the Gauss-collocated basis: M^-1 with row i scaled
            # by Mhat_ii, in place, so set-up holds no second stack
            def mass_inv(w):
                X = np.linalg.inv(operators.weighted_mass_matrix(self.ref_mass, 1.0 / w))
                X *= np.diag(ref.Mhat)[:, None]
                return X
            self.mass_inv_u = mass_inv(w_u)
            if c2 is None:
                self.mass_inv_p = mass_inv(w_p)
        # split, the node rule integrates the strong volume term of a
        # bilinear element exactly, and geo's metric holds the curved rows
        self.vol_ref = ref
        self.vol_metric = (self.geo.rxJ, self.geo.ryJ, self.geo.sxJ, self.geo.syJ)
        if split_volume:
            self.vol_ref = self.ref_node
            self.vol_metric = geometry.scaled_metric(mesh, self.ref_node)
        self.w_node_p = self.w_node_u = None
        if len(self.dense) < mesh.K:
            # J from the node-rule metric where it is held
            self.w_node_p, self.w_node_u, _ = _mass_weights(
                node_source, self.ref_node, medium, self.vol_metric if split_volume else None)
        # weak derivatives (w_q D) Mhat^-1, (Nq, Np), of the strong-weak form
        self._weak_r, self._weak_s = ((ref.wq[:, None] * D) @ ref.Mhat_inv
                                      for D in (ref.Drq, ref.Dsq))
        self._build_face_gather()

    def rule(self, degree):
        """(ReferenceElement, source for geometry.volume_blocks) of the Gauss
        rule exact to `degree` (floored at 2N): the formulation's own and its
        held geometry when they share a 1D point count, else the mesh, whose
        geometry is then evaluated one block at a time and not held."""
        ref = refelem.build_reference_element(self.config.N, degree)
        if ref.face_quad_1d.n_points == self.ref.face_quad_1d.n_points:
            return self.ref, self.geo
        return ref, self.mesh

    def _build_face_gather(self):
        mesh, nfq = self.mesh, self.ref.nfq
        self.bc_mask = np.repeat(mesh.boundary_tags > 0, nfq, axis=1)
        # a boundary point is its own exterior point, so the velocity mirror
        # u+ = u- is the gather itself, and the pressure mirror p+ = -p- a
        # sign flip where bc_mask is set
        idx = geometry.exterior_face_index(mesh.face_connectivity, nfq)
        self._gather_idx = idx.reshape(mesh.K, -1)

    def nbytes(self):
        """Bytes of the per-element arrays held, by component, each array
        once, in the first component that names it: `mass`, what
        apply_mass_inverse reads (the node weights, `dense`, the stacks and
        c2, each where held); `geometry`, the formulation rule's geometry,
        the volume metric, c_max, `curved` and the mass-rule weights that
        `energy` reads; `face`, the gather tables; `buffers`, the
        StepBuffers, allocated here if no step has run.  The process-wide
        reference elements and the mesh are not counted."""
        parts = {
            "mass": [self.w_node_p, self.w_node_u, self.dense,
                     self.mass_inv_p, self.mass_inv_u, self.c2],
            "geometry": [*vars(self.geo).values(), *self.vol_metric, self.c_max, self.curved,
                         self.w_mass_p, self.w_mass_u],
            "face": [self._gather_idx, self.bc_mask],
            "buffers": list(vars(self.buffers).values()),
        }
        seen = set()
        held = {name: [a for a in arrays if isinstance(a, np.ndarray)
                       and not (id(a) in seen or seen.add(id(a)))]
                for name, arrays in parts.items()}
        return {name: sum(a.nbytes for a in arrays) for name, arrays in held.items()}

    @functools.cached_property
    def buffers(self):
        """The StepBuffers of this discretization, allocated at first use,
        after set-up has freed its temporaries."""
        return StepBuffers(self)

    def face_traces(self, q):
        """Interior traces of the (3, K, Np) state q at the face quadrature
        points, (3, K, n_faces*nfq), written into `buffers.traces`: one GEMM
        call for all fields and the whole mesh.  rhs_pre_mass gathers the
        exterior traces from them one element block at a time."""
        return np.matmul(q, self.ref.Vfq.T, out=self.buffers.traces)


def _surface_terms(uf, disc, blk, strong_weak):
    """Lifted penalty-flux terms of the three fields of the elements `blk`,
    from the interior traces uf of the whole mesh; returns a (3, n, Np)
    view of `buffers.work`."""
    flux, geo, buf = disc.flux, disc.geo, disc.buffers
    nf = uf.shape[2]
    n = blk.stop - blk.start
    M = uf[:, blk]
    P = _view(buf.exterior, 3, n, nf)
    # exterior traces; a boundary point is its own exterior point
    np.take(uf.reshape(3, -1), disc._gather_idx[blk], axis=1, mode="clip", out=P)
    np.negative(P[0], out=P[0], where=disc.bc_mask[blk])   # Dirichlet p+ = -p-
    nx, ny = geo.nxq[blk], geo.nyq[blk]
    s = _view(buf.work, 5 if strong_weak else 3, n, nf)
    if strong_weak:
        # pressure flux 1/2 (2{u}.n - tau_p [p]): the sum part, before the
        # exterior traces turn into jumps
        fp = np.add(P[1], M[1], out=s[3])
        fp *= nx
        tmp = np.add(P[2], M[2], out=s[4])
        tmp *= ny
        fp += tmp
    P -= M                                  # [p], [u1], [u2]
    dp, du1, du2 = P
    dUn = np.multiply(du1, nx, out=s[0])
    dUn += np.multiply(du2, ny, out=s[1])
    tau_dp = np.multiply(dp, flux.tau_p, out=s[1])
    if strong_weak:
        fp -= tau_dp
    else:
        fp = np.subtract(dUn, tau_dp, out=s[1])
    # velocity flux 1/2 ([p] - tau_u [u].n)
    fu = np.multiply(dUn, flux.tau_u, out=s[2])
    np.subtract(dp, fu, out=fu)

    Jf = geo.Jfq[blk]           # times nx and ny into s[0], spent after dUn
    np.multiply(fp, Jf, out=P[0])
    np.multiply(fu, np.multiply(Jf, nx, out=s[0]), out=P[1])
    np.multiply(fu, np.multiply(Jf, ny, out=s[0]), out=P[2])
    return np.matmul(P, disc._mPf.T, out=_view(buf.work, 3, n, disc.ref.Np))


def _volume_pass(q, disc, ref, metric, mPq, strong_weak, out):
    """Volume terms of the (3, n, Np) fields q on ref's rule, with the scaled
    metric (rxJ, ryJ, sxJ, syJ), (n, ref.Nq) each, into out (3, n, Np),
    through the leading 4 n Nq entries of `buffers.work`.  On the node rule,
    which the strong-weak form always uses, mPq is None: Vq = Pq = I and
    neither is applied, and -Pq is a negation."""
    p, u1, u2 = q
    rxJ, ryJ, sxJ, syJ = metric
    n = q.shape[1]
    a, b, c, d = _view(disc.buffers.work, 4, n, ref.Nq)
    # velocity rows: -Pq (grad p J), grad p J = p_r (rx, ry) J + p_s (sx, sy) J
    np.matmul(p, ref.Drq.T, out=a)
    np.matmul(p, ref.Dsq.T, out=b)
    for row, rJ, sJ in ((1, rxJ, sxJ), (2, ryJ, syJ)):
        np.multiply(a, rJ, out=c)
        c += np.multiply(b, sJ, out=d)
        if mPq is None:
            np.negative(c, out=out[row])
        else:
            np.matmul(c, mPq.T, out=out[row])

    if strong_weak:
        # weak divergence of u J, weighted and premultiplied by Mhat^-1; u
        # at the points of the node rule is u itself
        Fr = np.multiply(rxJ, u1, out=c)
        Fr += np.multiply(ryJ, u2, out=d)
        Fs = np.multiply(u1, sxJ, out=a)
        Fs += np.multiply(u2, syJ, out=b)
        np.matmul(Fr, disc._weak_r, out=out[0])
        out[0] += np.matmul(Fs, disc._weak_s, out=_view(d.reshape(-1), n, ref.Np))
    else:
        # -Pq (div u J), summed in the order u1_r, u1_s, u2_r, u2_s
        divJ = np.multiply(np.matmul(u1, ref.Drq.T, out=a), rxJ, out=c)
        for u, D, G in ((u1, ref.Dsq, sxJ), (u2, ref.Drq, ryJ), (u2, ref.Dsq, syJ)):
            divJ += np.multiply(np.matmul(u, D.T, out=a), G, out=a)
        if mPq is None:
            np.negative(divJ, out=out[0])
        else:
            np.matmul(divJ, mPq.T, out=out[0])


def _volume_terms(q, disc, blk, strong_weak, out):
    """Volume terms of the three fields of the elements `blk` of the state q
    into out (3, n, Np), through `buffers.work`: every element on
    `disc.vol_ref` with `vol_metric`.  Where that is the node rule and the
    formulation's is not (the strong form with N_geo >= 3 on a mesh with a
    bilinear element), the block's curved elements are then gathered behind
    the scratch of their pass, run on the formulation rule with geo's rows
    of their metric, and overwrite their rows of out."""
    ref, geo, work = disc.ref, disc.geo, disc.buffers.work
    split = disc.vol_ref is not ref
    _volume_pass(q[:, blk], disc, disc.vol_ref, [m[blk] for m in disc.vol_metric],
                 None if split else disc._mPq, strong_weak, out)
    if not split:
        return
    lo, hi, local = geometry.block_rows(disc.curved, blk)
    if hi == lo:        # no curved element in the block
        return
    n = hi - lo
    qc = _view(work[4 * n * ref.Nq:], 3, n, ref.Np)
    oc = _view(work[4 * n * ref.Nq + qc.size:], 3, n, ref.Np)
    np.take(q[:, blk], local, axis=1, out=qc, mode="clip")
    metric = [m[lo:hi] for m in (geo.rxJ, geo.ryJ, geo.sxJ, geo.syJ)]
    _volume_pass(qc, disc, ref, metric, disc._mPq, False, oc)
    out[:, local] = oc


def rhs_pre_mass(y, disc, finish):
    """DG right-hand side of the (3, K, Np) state y in the configured
    formulation, Mhat^-1-premultiplied (no mass weighting applied yet).  The
    strong-weak form integrates the pressure equation by parts once.

    One face_traces call gives the interior traces of the whole mesh; then
    the volume terms and the lifted fluxes are summed one element block at
    a time into `buffers.rhs`, handed to finish(blk, rhs), which must
    consume the block before the next one overwrites it."""
    sw = disc.config.formulation is Formulation.StrongWeak
    uf = disc.face_traces(y)
    for blk in geometry.element_blocks(disc.mesh.K):
        rhs = _view(disc.buffers.rhs, 3, blk.stop - blk.start, disc.ref.Np)
        _volume_terms(y, disc, blk, sw, rhs)
        rhs += _surface_terms(uf, disc, blk, sw)
        finish(blk, rhs)


def apply_mass_inverse(z, disc, blk):
    """Complete the mass solve on the premultiplied right-hand side z,
    (3, n, Np), of the elements blk, at most one element block, in place,
    and return z.

    The block's `dense` elements are gathered into `buffers.work`; z is
    scaled by the node weights c^2/J (pressure) and 1/J (velocity), where
    held: Pq diag(w) Vq on the node rule, the whole WADG inverse and the
    exact one of a bilinear element; then the dense elements' rows are
    overwritten by batched GEMMs of their fields, as rows, against their
    C-contiguous (M^-1 Mhat)^T, the layout in which matmul reaches BLAS
    speed: one GEMM per stack, and with one stack the pressure times c2.
    Where every row of the block is dense, the GEMMs read z itself, which
    is neither gathered nor scaled, and one slice copies their result back.
    """
    lo, hi, local = geometry.block_rows(disc.dense, blk)
    whole = hi - lo == z.shape[1]       # every row dense: the GEMMs read z
    zd = z
    if lo < hi and not whole:
        zd = _view(disc.buffers.work, 3, hi - lo, z.shape[2])
        np.take(z, local, axis=1, out=zd, mode="clip")
    if disc.w_node_p is not None and not whole:
        for f, w in enumerate((disc.w_node_p, disc.w_node_u, disc.w_node_u)):
            z[f] *= w[blk]
    if hi > lo:
        out = _view(disc.buffers.work[zd.size:], *zd.shape)
        zt, out_t = zd.transpose(1, 0, 2), out.transpose(1, 0, 2)
        if disc.c2 is None:
            np.matmul(zt[:, :1], disc.mass_inv_p[lo:hi], out=out_t[:, :1])
            np.matmul(zt[:, 1:], disc.mass_inv_u[lo:hi], out=out_t[:, 1:])
        else:
            np.matmul(zt, disc.mass_inv_u[lo:hi], out=out_t)
            out[0] *= disc.c2[lo:hi]    # its ufunc buffer is block-sized at most
        z[:, slice(None) if whole else local] = out
    return z


def rhs_full(y, disc, q=None, c=1.0, out=None):
    """q + c M^-1 L(y) of the (3, K, Np) state y (q = 0 by default), into
    `out`, a new array by default; with q and c = b dt one stage of
    lsrk_step.  Each block from rhs_pre_mass is mass-inverted in place,
    scaled and added to q at once.  out may be y itself: other elements of
    y are read only through the traces taken before the first block."""
    if out is None:
        out = np.empty_like(y)

    def finish(blk, rhs):
        rhs = apply_mass_inverse(rhs, disc, blk)
        if q is None:
            np.multiply(rhs, c, out=out[:, blk])
        else:
            rhs *= c
            np.add(q[:, blk], rhs, out=out[:, blk])

    rhs_pre_mass(y, disc, finish)
    return out


def energy(q, disc):
    """1/2 sum_f q_f^T M_f q_f of the (3, K, Np) state q, M_f the mass that
    apply_mass_inverse inverts: the energy that the scheme conserves at
    zero penalty.  Per element, 1/2 sum_f sum_q w_q (Vq q_f)^2 / w_f: on
    the node rule, where Vq = I, with the node weights w_f = c^2/J
    (pressure) or 1/J, where held, and on each dense element, in its place,
    on the mass rule with the mass-rule weights."""
    total = 0.0
    for blk in geometry.element_blocks(disc.mesh.K):
        lo, hi, local = geometry.block_rows(disc.dense, blk)
        e = np.zeros(blk.stop - blk.start)
        if disc.w_node_p is not None:
            for qf, w in zip(q[:, blk], (disc.w_node_p, disc.w_node_u, disc.w_node_u)):
                fq = qf * qf
                e += np.divide(fq, w[blk], out=fq) @ disc.ref_node.wq
        if hi > lo:
            e[local] = 0.0
            for qf, w in zip(q[:, blk][:, local], (disc.w_mass_p, disc.w_mass_u, disc.w_mass_u)):
                fq = qf @ disc.ref_mass.Vq.T
                fq *= fq
                e[local] += np.divide(fq, w[lo:hi], out=fq) @ disc.ref_mass.wq
        total += np.sum(e)
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


def lsrk_step(q, dt, disc):
    """Advance the (3, K, Np) state q by one step y = R(dt L) q of the
    eight-stage fourth-order STABILITY_POLYNOMIAL, L the DG operator of the
    Discretization disc, and return the advanced array.

    R is evaluated in nested (Horner) form, one rhs_full pass per stage:
    y <- q, then y <- q + (a_{j+1}/a_j) dt L(y) for j = 7..0.  For a linear,
    autonomous operator, as here, that is R(dt L) q exactly; a source term
    or time-dependent boundary data would need a genuine low-storage RK
    realization of the same R.  The two registers are q and y, whichever of
    the buffers `y` and `res` q is not, so a warm step allocates no
    field-sized array.  The result is y; q itself never changes.
    """
    buf = disc.buffers
    y = buf.res if q is buf.y else buf.y
    stage = q
    for b in _NESTED:
        stage = rhs_full(stage, disc, q, b * dt, out=y)
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
    rule, per element block by operators.l2_project, in both mass modes.
    The result is the register `y` of new StepBuffers of disc, allocated
    once the projection's temporaries are freed."""
    q = operators.l2_project(*disc.rule(disc.mass_deg),
                             lambda x, y: tuple(initial_fn(x, y)))
    disc.buffers = StepBuffers(disc, q)
    return q


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
    before any setup, for T not finite and >= 0, n_outputs not an integer
    >= 1 (a bool is not one) or dt not finite and > 0, and before the first
    step when n exceeds MAX_STEPS; T = 0 projects and records the initial
    state only, once.
    """
    if not _is_int(n_outputs):
        raise ConfigError(f"n_outputs must be an integer, got {n_outputs!r}")
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
        # mode (its roots are the quadrature points); use a richer rule,
        # whose geometry each record evaluates per block unless disc holds it
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
