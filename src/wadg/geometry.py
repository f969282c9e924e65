"""Isoparametric mapping evaluation: Jacobians, geometric factors, surface
Jacobians, outward normals, and sup-norm estimates of Jacobian derivatives.

Mappings are nodal: each element stores physical coordinates of the
degree-N_geo reference node set, and the map is the Lagrange interpolant of
those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
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


def _check_jacobian(Jq, elements):   # Jq of the elements, row by row
    bad = ~(Jq > 0)
    if bad.any():
        k, q = np.argwhere(bad)[0]
        raise NonPositiveJacobian(int(elements[k]), int(q), float(Jq[k, q]))


def _volume_block(mesh, ref, blk, metric):
    """Mapped points and Jacobian (xq, yq, Jq) of the elements blk at the
    volume quadrature points of ref; J from the rows blk of `metric` where
    given."""
    points = ref.volume_quad.points
    E = refelem.nodal_eval_matrix(mesh.N_geo, points)
    if metric is None:
        Jq = jacobian_at(mesh, points, blk)
    else:
        rxJ, ryJ, sxJ, syJ = (a[blk] for a in metric)
        Jq = syJ * rxJ - ryJ * sxJ
    _check_jacobian(Jq, range(blk.start, blk.stop))
    return mesh.elem_map_nodes[blk, :, 0] @ E.T, mesh.elem_map_nodes[blk, :, 1] @ E.T, Jq


def volume_blocks(geo, ref, metric=None):
    """(K, blocks): the element count of `geo` and, per element block in
    order, (blk, xq, yq, Jq) on ref's volume rule.  `geo` holds those arrays
    (that rule's GeometricData), or is a mesh, whose geometry is then
    evaluated one block at a time and not kept; its J then comes from
    `metric` where given, the (rxJ, ryJ, sxJ, syJ) of every element on that
    rule from `scaled_metric`: J = rxJ syJ - ryJ sxJ is jacobian_at's J
    bit for bit, without its four derivative GEMMs."""
    if hasattr(geo, "elem_map_nodes"):
        return geo.K, ((blk, *_volume_block(geo, ref, blk, metric))
                       for blk in element_blocks(geo.K))
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
        _check_jacobian(Jq, range(blk.start, blk.stop))
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

    For the corner blend B of an element the r s terms of x_r y_s - x_s y_r
    cancel, so J_B is affine in (r, s) and its minimum over the element is
    at a corner.  Every element of a block holding a marked element costs J
    at its four corners.  The check sets are evaluated, one block of such
    elements at a time, only on the elements that `bilinear_elements` does
    not mark and on those whose smallest corner J does not exceed
    `_corner_margin`: twice a bound, from the element's measured node
    deviation from B, on |J - J_B| at every check point and corner, plus
    the round-off of computing J.  A cleared
    element then has J > 0 at every check point, and its smallest corner J
    stands in for its min J, to within that margin.  A failure is evaluated
    again on its whole element block, so that the reported value is bit
    for bit that of evaluating every element.
    """
    K = mesh.K
    jmin = np.inf
    checked = np.empty(K, dtype=bool)
    for blk in element_blocks(K):
        deviation, scale = _blend_deviation(mesh, blk)
        clear = deviation <= BILINEAR_RTOL * scale
        if clear.any():
            # the minimum over 4 columns as 3 ufunc calls: .min(axis=1) is slower
            Jc = reduce(np.minimum, jacobian_at(mesh, _CORNERS, blk).T)
            clear &= Jc > _corner_margin(deviation, scale, mesh.N_geo)
            jmin = min(jmin, float(Jc[clear].min(initial=np.inf)))
        checked[blk] = ~clear
    rows = np.flatnonzero(checked)
    for points in check_points(mesh).values():
        for sub in element_blocks(len(rows)):
            J = jacobian_at(mesh, points, rows[sub])
            if not np.all(J > 0):
                k = int(rows[sub][np.argwhere(~(J > 0))[0, 0]])
                blk = element_blocks(K)[k // ELEMENT_BLOCK]
                _check_jacobian(jacobian_at(mesh, points, blk), range(blk.start, blk.stop))
                _check_jacobian(J, rows[sub])
            jmin = min(jmin, float(J.min()))
    return jmin


# Reference corners bl, br, tr, tl
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_CORNERS.flags.writeable = False


def _corner_hats(points):
    """Bilinear hats of the corners bl, br, tr, tl at reference `points`,
    (n, 4) each: their values and their r and s derivatives."""
    u, v = (0.5 * (points + 1.0)).T
    return (np.column_stack([(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v]),
            0.5 * np.column_stack([v - 1, 1 - v, v, -v]),
            0.5 * np.column_stack([u - 1, -u, u, 1 - u]))


@cache
def _blend_matrix(N_geo):
    """kron(hats.T, I2), (8, 2 Npg), hats the corner hats at the mapping
    nodes: an element's corners as one row (x, y of bl, br, tr, tl) times it
    are their bilinear blend, laid out as the element's mapping nodes."""
    M = np.kron(_corner_hats(refelem.interpolation_nodes(N_geo))[0].T, np.eye(2))
    M.flags.writeable = False
    return M


def _blend_deviation(mesh, blk):
    """(deviation, scale) of the elements blk: the largest |mapping node -
    bilinear blend of the corner nodes|, from one GEMM, and the largest
    |coordinate|.  Both are reduced over the leading axis of (2 Npg, n)
    arrays, as a reduction over a short last axis is several times slower."""
    X = mesh.elem_map_nodes[blk]
    n = mesh.N_geo + 1
    corners = np.take(X, [0, n - 1, n * n - 1, n * (n - 1)], axis=1).reshape(len(X), 8)
    Xt = X.reshape(len(X), -1).T.copy()     # a copy: it is overwritten below
    dev = _blend_matrix(mesh.N_geo).T @ corners.T
    np.abs(np.subtract(Xt, dev, out=dev), out=dev)
    return dev.max(axis=0), np.abs(Xt, out=Xt).max(axis=0)


@cache
def _margin_constants(N_geo):
    """(L, eH, g) of `_corner_margin` at degree N_geo, over the rows p of the
    r and s derivative matrices E that `jacobian_at` uses at every check set
    and at the corners: L bounds sum_i |E_pi|, the derivative's Lebesgue
    constant there; eH bounds sum_c |(E hats)_pc - (corner hat c)'(p)|, the
    error with which E differentiates a bilinear map, as measured plus the
    round-off of measuring it; g = n eps / (1 - n eps), n = Npg, bounds the
    relative round-off of an n-term sum."""
    n = (N_geo + 1) ** 2
    eps = np.finfo(float).eps
    g = n * eps / (1 - n * eps)
    hats = _corner_hats(refelem.interpolation_nodes(N_geo))[0]
    L = eH = 0.0
    for points in (*_check_point_sets(N_geo), _CORNERS):
        _, dr, ds = _corner_hats(points)
        for (a, b), dhats in (((1, 0), dr), ((0, 1), ds)):
            E = refelem.nodal_eval_matrix(N_geo, points, a, b)
            L = max(L, float(np.abs(E).sum(axis=1).max()))
            eH = max(eH, float(np.abs(E @ hats - dhats).sum(axis=1).max()))
    L *= 1 + g
    return L, eH + 8 * g * L, g


def _corner_margin(deviation, scale, N_geo):
    """Margin that an element's smallest corner J must exceed for J > 0 at
    every check point, given its node `deviation` from the corner blend B,
    at most BILINEAR_RTOL of `scale`, its largest |coordinate|.  In the
    notation of `_margin_constants`, at every check point and corner: each
    mapping derivative is at most G = L scale, and differs from B's by at
    most d = L (deviation + 32 eps scale) + eH scale, 32 eps scale bounding
    the round-off of the measured blend; so J in exact arithmetic differs
    from the affine J_B by at most 2 d (2 G + d), and the computed J from
    that by at most 4 G e + 2 e^2 + 4 eps (G + e)^2, e = g G the round-off
    of one derivative.  The margin is twice their sum: once for the corner,
    once for the check point."""
    L, eH, g = _margin_constants(N_geo)
    eps = np.finfo(float).eps
    G = L * scale
    d = L * (deviation + 32 * eps * scale) + eH * scale
    e = g * G
    return 2 * (2 * d * (2 * G + d) + 4 * G * e + 2 * e * e + 4 * eps * (G + e) ** 2)


# Tolerance of `bilinear_elements`, relative to an element's largest
# |coordinate|: the round-off of mapping nodes computed from a bilinear map,
# such as the children of `meshgen.subdivide`, is a few ulps of it
BILINEAR_RTOL = 1e-13


def bilinear_elements(mesh):
    """(K,) bool, True where an element's mapping nodes equal the bilinear
    blend of its four corner nodes to BILINEAR_RTOL of its largest
    |coordinate|, from one corner-to-node GEMM per element block.  For that
    blend the r s terms of x_r y_s - x_s y_r cancel, so J is affine in
    (r, s) and the degree 2N+1 Gauss rule integrates J phi_i phi_j exactly:
    in the Gauss-collocated basis the J-weighted mass is diag(w_q J_q)."""
    lin = np.empty(mesh.K, dtype=bool)
    for blk in element_blocks(mesh.K):
        deviation, scale = _blend_deviation(mesh, blk)
        lin[blk] = deviation <= BILINEAR_RTOL * scale
    return lin


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
