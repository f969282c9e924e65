"""Isoparametric mapping evaluation: Jacobians, geometric factors, surface
Jacobians, outward normals, and sup-norm estimates of Jacobian derivatives.

Mappings are nodal: each element stores physical coordinates of the
degree-N_geo reference node set, and the map is the Lagrange interpolant of
those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb

import numpy as np

from . import refelem


class NonPositiveJacobian(Exception):
    """Mapping Jacobian fails to be positive at a checked point."""

    def __init__(self, element, point, value):
        self.element = element
        self.point = point
        self.value = value
        super().__init__(
            f"J = {value:.3e} <= 0 on element {element} at quadrature point {point}")


@dataclass
class GeometricData:
    """Mapped points, Jacobian and scaled metric at one rule's volume points,
    (K, Nq), and the face geometry, (K, n_faces * nfq) with faces stacked in
    CCW order: what the DG volume and surface terms read.

    The scaled metric is the cofactor form rxJ = r_x J = y_s, ryJ = -x_s,
    sxJ = -y_r, syJ = x_r (Hesthaven & Warburton, Nodal DG Methods, 2008):
    polynomial in the reference coordinates, so no division by J.  Its rows
    are those of the sorted element indices `metric_elements`, or of every
    element when that is None."""

    ref: refelem.ReferenceElement = field(repr=False)
    xq: np.ndarray = field(repr=False)
    yq: np.ndarray = field(repr=False)
    Jq: np.ndarray = field(repr=False)
    rxJ: np.ndarray = field(repr=False)
    ryJ: np.ndarray = field(repr=False)
    sxJ: np.ndarray = field(repr=False)
    syJ: np.ndarray = field(repr=False)
    Jfq: np.ndarray = field(repr=False)
    nxq: np.ndarray = field(repr=False)
    nyq: np.ndarray = field(repr=False)
    metric_elements: np.ndarray | None = field(default=None, repr=False)


def _check_jacobian(Jq, offset):     # Jq of the elements from offset on
    bad = ~(Jq > 0)
    if bad.any():
        k, q = np.argwhere(bad)[0]
        raise NonPositiveJacobian(offset + int(k), int(q), float(Jq[k, q]))


def _volume_block(mesh, ref, blk):
    """Mapped points and Jacobian (xq, yq, Jq) of the elements blk at the
    volume quadrature points of ref."""
    points = ref.volume_quad.points
    E = refelem.nodal_eval_matrix(mesh.N_geo, points)
    Jq = jacobian_at(mesh, points, blk)
    _check_jacobian(Jq, blk.start)
    return mesh.elem_map_nodes[blk, :, 0] @ E.T, mesh.elem_map_nodes[blk, :, 1] @ E.T, Jq


def volume_blocks(geo, ref):
    """(K, blocks): the element count of `geo` and, per element block in
    order, (blk, xq, yq, Jq) on ref's volume rule.  `geo` holds those arrays
    (that rule's GeometricData), or is a mesh, whose geometry is then
    evaluated one block at a time and not kept."""
    if hasattr(geo, "elem_map_nodes"):
        return geo.K, ((blk, *_volume_block(geo, ref, blk)) for blk in element_blocks(geo.K))
    K = len(geo.Jq)
    return K, ((blk, geo.xq[blk], geo.yq[blk], geo.Jq[blk]) for blk in element_blocks(K))


def compute_geometric_data(mesh, ref, metric=None):
    """Evaluate the mapping metric of `mesh` at the volume and face
    quadrature points of `ref`, one element block at a time.  The scaled
    metric covers the sorted element indices `metric`, in order, or every
    element by default; the points, J and the face geometry every element.

    Raises NonPositiveJacobian identifying the first offending element and
    quadrature point.
    """
    K, Nq, nf = mesh.K, ref.Nq, ref.n_faces * ref.nfq
    Km = K if metric is None else len(metric)
    geo = GeometricData(ref, *(np.empty((K, Nq)) for _ in range(3)),
                        *(np.empty((Km, Nq)) for _ in range(4)),
                        *(np.empty((K, nf)) for _ in range(3)), metric)
    E = refelem.nodal_eval_matrix(mesh.N_geo, ref.volume_quad.points)
    # tangent along the CCW face parameter; outward normal is (y', -x') / Jf
    dr, ds = np.repeat([d for _, d in refelem.FACES], ref.nfq, axis=0).T
    held = (geo.rxJ, geo.ryJ, geo.sxJ, geo.syJ)
    for blk in element_blocks(K):
        np.matmul(mesh.elem_map_nodes[blk, :, 0], E.T, out=geo.xq[blk])
        np.matmul(mesh.elem_map_nodes[blk, :, 1], E.T, out=geo.yq[blk])
        rxJ, ryJ, sxJ, syJ = _scaled_metric(mesh, ref.volume_quad.points, blk,
                                            [a[blk] for a in held] if metric is None else None)
        # J = x_r y_s - x_s y_r
        Jq = np.subtract(syJ * rxJ, ryJ * sxJ, out=geo.Jq[blk])
        _check_jacobian(Jq, blk.start)
        if metric is not None:
            lo, hi, local = block_rows(metric, blk)
            for a, m in zip(held, (rxJ, ryJ, sxJ, syJ)):
                np.take(m, local, axis=0, out=a[lo:hi])

        xfr, xfs, yfr, yfs = _mapping_derivatives(mesh, ref.face_quad_points, blk)
        tx = xfr * dr + xfs * ds
        ty = yfr * dr + yfs * ds
        Jfq = np.hypot(tx, ty, out=geo.Jfq[blk])
        np.divide(ty, Jfq, out=geo.nxq[blk])
        np.divide(-tx, Jfq, out=geo.nyq[blk])
    return geo


def scaled_metric(mesh, ref):
    """(rxJ, ryJ, sxJ, syJ) of every element at the volume points of ref,
    (K, Nq) each, one element block at a time: the metric alone, without
    the points, J and face geometry of compute_geometric_data."""
    metric = [np.empty((mesh.K, ref.Nq)) for _ in range(4)]
    for blk in element_blocks(mesh.K):
        _scaled_metric(mesh, ref.volume_quad.points, blk, [a[blk] for a in metric])
    return tuple(metric)


def element_areas(geo):
    return geo.Jq @ geo.ref.wq


def element_perimeters(geo):
    wf = geo.ref.wfq
    return geo.Jfq @ wf


def _mapping_derivatives(mesh, points, elements, out=(None,) * 4):
    """(x_r, x_s, y_r, y_s) of the `elements` at reference `points`, each
    (n_elements, n_points), into the arrays of `out` where given."""
    Er = refelem.nodal_eval_matrix(mesh.N_geo, points, 1, 0)
    Es = refelem.nodal_eval_matrix(mesh.N_geo, points, 0, 1)
    X, Y = mesh.elem_map_nodes[elements, :, 0], mesh.elem_map_nodes[elements, :, 1]
    return tuple(np.matmul(Z, D.T, out=o)
                 for (Z, D), o in zip(((X, Er), (X, Es), (Y, Er), (Y, Es)), out))


def _scaled_metric(mesh, points, elements, out=None):
    """(rxJ, ryJ, sxJ, syJ) = (y_s, -x_s, -y_r, x_r) of the `elements` at
    reference `points`, into the four arrays of `out` where given: the
    derivatives go straight into the metric, and two signs follow."""
    rxJ, ryJ, sxJ, syJ = out or (None,) * 4
    syJ, ryJ, sxJ, rxJ = _mapping_derivatives(mesh, points, elements, (syJ, ryJ, sxJ, rxJ))
    np.negative(ryJ, out=ryJ)
    np.negative(sxJ, out=sxJ)
    return rxJ, ryJ, sxJ, syJ


def jacobian_at(mesh, points, elements=slice(None)):
    """Mapping Jacobian J = x_r y_s - x_s y_r of the `elements` (default
    all) at reference `points`, shape (n_elements, n_points)."""
    Er = refelem.nodal_eval_matrix(mesh.N_geo, points, 1, 0)
    Es = refelem.nodal_eval_matrix(mesh.N_geo, points, 0, 1)
    X, Y = mesh.elem_map_nodes[elements, :, 0], mesh.elem_map_nodes[elements, :, 1]
    # product by product, so that only three (n, n_points) arrays are live
    return (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)


# Elements per block of every mesh-wide pipeline: the stage, the projection,
# the records, the mapped geometry, the mesh checks and the jets of the sup
# norms.  Temporaries then scale with the block, not with K.
ELEMENT_BLOCK = 1024


def element_blocks(K):
    """Slices of at most ELEMENT_BLOCK consecutive elements, in order,
    covering range(K)."""
    return [slice(lo, min(lo + ELEMENT_BLOCK, K)) for lo in range(0, K, ELEMENT_BLOCK)]


def block_rows(index, blk):
    """(lo, hi, local) of the sorted element indices `index` and the element
    block `blk`: index[lo:hi] are the block's elements among them, and
    `local` their positions within the block."""
    lo, hi = np.searchsorted(index, (blk.start, blk.stop))
    return lo, hi, index[lo:hi] - blk.start


def check_points(mesh):
    """Reference point sets at which a mesh is checked: the Gauss volume rule
    and the stacked per-face Gauss rules exact to degree 4 N_geo + 2, and a
    dense corner-including Gauss-Lobatto grid, where near-degenerate
    bilinear maps take their extremes.  The arrays are cached per N_geo and
    read-only."""
    return dict(zip(("volume", "face", "grid"), _check_point_sets(mesh.N_geo)))


@cache
def _check_point_sets(N_geo):
    degree = 4 * N_geo + 2
    vol = refelem.build_quadrature(degree).points
    xi = refelem.gauss_legendre_1d((degree + 2) // 2).points
    face = np.vstack([refelem.face_points(f, xi) for f in range(refelem.N_FACES)])
    sets = (vol, face, refelem.interpolation_nodes(2 * N_geo + 2))
    for a in sets:
        a.flags.writeable = False
    return sets


def validate_positive_jacobian(mesh):
    """Check J > 0 at the volume and face quadrature points and the dense
    grid of `check_points`, in that order.
    Raises NonPositiveJacobian for the first element failing in the first
    failing set, with the point's index within that set; returns min J.
    J is evaluated one element block at a time."""
    jmin = np.inf
    for points in check_points(mesh).values():
        for blk in element_blocks(mesh.K):
            J = jacobian_at(mesh, points, blk)
            _check_jacobian(J, blk.start)
            jmin = min(jmin, float(J.min()))
    return jmin


# Tolerance of `bilinear_elements`, relative to an element's largest
# |coordinate|: the round-off of mapping nodes computed from a bilinear map,
# such as the children of `meshgen.subdivide`, is a few ulps of it
BILINEAR_RTOL = 1e-13


def bilinear_elements(mesh):
    """(K,) bool, True where an element's mapping nodes equal the bilinear
    interpolant of its four corner nodes to BILINEAR_RTOL of its largest
    |coordinate|.  There J is affine in each reference coordinate, so the
    degree 2N+1 Gauss rule integrates J phi_i phi_j exactly: in the
    Gauss-collocated basis the J-weighted mass is diag(w_q J_q)."""
    n = mesh.N_geo + 1
    u, v = (0.5 * (refelem.interpolation_nodes(mesh.N_geo) + 1.0)).T
    # bilinear hats of the corners bl, br, tr, tl at the nodes, (Npg, 4)
    hats = np.column_stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v])
    X = mesh.elem_map_nodes
    corners = X[:, [0, n - 1, n * n - 1, n * (n - 1)]]
    deviation = np.abs(X - hats @ corners).max(axis=(1, 2))
    return deviation <= BILINEAR_RTOL * np.abs(X).max(axis=(1, 2))


def exterior_face_index(face_connectivity, nfq):
    """Flat index, shape (K, n_faces, nfq), of the exterior value of each
    face point in an array of face values laid out (K, n_faces, nfq).  Point
    i of a face meets point nfq-1-i of its neighbour's face (conforming CCW
    reversal); a boundary face (neighbour -1) indexes its own points.
    """
    K, nf = face_connectivity.shape[:2]
    nk, nfc = face_connectivity[..., 0], face_connectivity[..., 1]
    own = np.arange(K * nf * nfq).reshape(K, nf, nfq)
    rev = np.arange(nfq)[::-1]
    ext = (nk[:, :, None] * (nf * nfq) + nfc[:, :, None] * nfq
           + rev[None, None, :])
    return np.where((nk >= 0)[:, :, None], ext, own)


# ---------------------------------------------------------------------------
# Sup norms of physical Jacobian derivatives
#
# J is polynomial on each reference element.  Physical derivatives
# D_x = rx d/dr + sx d/ds are applied exactly through a jet (truncated
# Taylor-data) calculus: each quantity carries its reference-derivative
# values up to a fixed order at every sample point, and products/quotients
# combine jets by Leibniz rules.  Sup norms are estimated over a tensor
# Gauss-Lobatto sample grid, which includes element corners and edges.

def _jet_mul(u, v, order):
    out = np.zeros_like(u)
    S = u.shape[0]
    for a in range(min(order + 1, S)):
        for b in range(min(order + 1 - a, S)):
            acc = np.zeros_like(u[0, 0])
            for i in range(a + 1):
                for j in range(b + 1):
                    acc += (comb(a, i) * comb(b, j)) * u[i, j] * v[a - i, b - j]
            out[a, b] = acc
    return out


def _jet_div(u, v, order):
    """Jet of u / v (v[0, 0] nonzero)."""
    out = np.zeros_like(u)
    S = u.shape[0]
    v00 = v[0, 0]
    idx = sorted(
        [(a, b) for a in range(min(order + 1, S)) for b in range(min(order + 1 - a, S))],
        key=lambda ab: (ab[0] + ab[1], ab[0]))
    for a, b in idx:
        acc = u[a, b].copy()
        for i in range(a + 1):
            for j in range(b + 1):
                if (i, j) == (a, b):
                    continue
                acc -= (comb(a, i) * comb(b, j)) * out[i, j] * v[a - i, b - j]
        out[a, b] = acc / v00
    return out


def _jet_shift(g, axis):
    out = np.zeros_like(g)
    if axis == 0:
        out[:-1, :] = g[1:, :]
    else:
        out[:, :-1] = g[:, 1:]
    return out


def jacobian_sup_norms(mesh, order):
    """Per-element sup-norm estimates (||J||_{W^{order,inf}}, ||1/J||_{inf}).

    The W norm is the max of |D^alpha J| over all physical multi-indices
    |alpha| <= order; both maxima are taken over a tensor Gauss-Lobatto
    sample grid of quadrature degree >= 4 N_geo (corners included).  A jet
    is an (S, S, n, P) array: its coefficient [a, b] is the contiguous
    (n elements, P points) array of d^(a+b)/dr^a ds^b.
    """
    ngeo = mesh.N_geo
    pts = refelem.interpolation_nodes(2 * ngeo + 1)  # GLL degree 4 N_geo + 1
    # J has per-coordinate degree <= 2 N_geo, so its values at the degree
    # 2 N_geo mapping nodes interpolate it exactly
    jgrid = refelem.interpolation_nodes(2 * ngeo)
    M = order
    S = M + 2
    orders = [(a, b) for a in range(S) for b in range(S - a)]

    K = mesh.K
    w_norm = np.zeros(K)
    inv_norm = np.zeros(K)
    for blk in element_blocks(K):
        X = mesh.elem_map_nodes[blk, :, 0]
        Y = mesh.elem_map_nodes[blk, :, 1]
        Jg = jacobian_at(mesh, jgrid, blk)
        jet_x, jet_y, jet_J = (np.zeros((S, S, len(X), len(pts))) for _ in range(3))
        for a, b in orders:
            E = refelem.nodal_eval_matrix(ngeo, pts, a, b)
            jet_x[a, b] = X @ E.T
            jet_y[a, b] = Y @ E.T
            jet_J[a, b] = Jg @ refelem.nodal_eval_matrix(2 * ngeo, pts, a, b).T

        inv_norm[blk] = (1.0 / jet_J[0, 0]).max(axis=1)

        jrx = _jet_div(_jet_shift(jet_y, 1), jet_J, M)   # rx = y_s / J
        jsx = _jet_div(-_jet_shift(jet_y, 0), jet_J, M)  # sx = -y_r / J
        jry = _jet_div(-_jet_shift(jet_x, 1), jet_J, M)  # ry = -x_s / J
        jsy = _jet_div(_jet_shift(jet_x, 0), jet_J, M)   # sy = x_r / J

        def ddx(g, rem):
            return (_jet_mul(jrx, _jet_shift(g, 0), rem)
                    + _jet_mul(jsx, _jet_shift(g, 1), rem))

        def ddy(g, rem):
            return (_jet_mul(jry, _jet_shift(g, 0), rem)
                    + _jet_mul(jsy, _jet_shift(g, 1), rem))

        best = np.abs(jet_J[0, 0]).max(axis=1)
        # lattice of D_x^p D_y^q J, built column by column in p
        col = jet_J
        for p in range(M + 1):
            if p > 0:
                col = ddx(col, M - p)
            g = col
            for q in range(M - p + 1):
                if q > 0:
                    g = ddy(g, M - p - q)
                if p + q > 0:
                    best = np.maximum(best, np.abs(g[0, 0]).max(axis=1))
        w_norm[blk] = best
    return w_norm, inv_norm


def kappa_tilde(mesh, order):
    """max over elements of ||1/J||_inf * ||J||_{W^{order,inf}}."""
    w_norm, inv_norm = jacobian_sup_norms(mesh, order)
    return float(np.max(w_norm * inv_norm))
