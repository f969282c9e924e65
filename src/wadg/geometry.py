"""Isoparametric mapping evaluation: Jacobians, geometric factors, surface
Jacobians, outward normals, and sup-norm estimates of Jacobian derivatives.

Mappings are nodal: each element stores physical coordinates of the
degree-N_geo reference node set, and the map is the Lagrange interpolant of
those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import refelem
from .refelem import ElementShape


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
    """Per-element metric data evaluated at the quadrature points of one
    reference element.  Volume arrays are (K, Nq); face arrays are
    (K, n_faces * nfq) with faces stacked in CCW order."""

    ref: refelem.ReferenceElement = field(repr=False)
    xq: np.ndarray = field(repr=False)
    yq: np.ndarray = field(repr=False)
    Jq: np.ndarray = field(repr=False)
    rxq: np.ndarray = field(repr=False)
    ryq: np.ndarray = field(repr=False)
    sxq: np.ndarray = field(repr=False)
    syq: np.ndarray = field(repr=False)
    xfq: np.ndarray = field(repr=False)
    yfq: np.ndarray = field(repr=False)
    Jfq: np.ndarray = field(repr=False)
    nxq: np.ndarray = field(repr=False)
    nyq: np.ndarray = field(repr=False)

    @property
    def K(self):
        return self.Jq.shape[0]


def compute_geometric_data(mesh, ref):
    """Evaluate the mapping metric of `mesh` at the volume and face
    quadrature points of `ref`.

    Raises NonPositiveJacobian identifying the first offending element and
    quadrature point.
    """
    shape = mesh.shape
    ngeo = mesh.N_geo
    X = mesh.elem_map_nodes[:, :, 0]
    Y = mesh.elem_map_nodes[:, :, 1]

    E = refelem.nodal_eval_matrix(shape, ngeo, ref.volume_quad.points)
    Er, Es = refelem.nodal_grad_matrices(shape, ngeo, ref.volume_quad.points)
    xq, yq = X @ E.T, Y @ E.T
    xr, xs = X @ Er.T, X @ Es.T
    yr, ys = Y @ Er.T, Y @ Es.T
    Jq = xr * ys - xs * yr
    if np.any(Jq <= 0):
        k, q = np.argwhere(Jq <= 0)[0]
        raise NonPositiveJacobian(int(k), int(q), float(Jq[k, q]))
    rxq, ryq = ys / Jq, -xs / Jq
    sxq, syq = -yr / Jq, xr / Jq

    Ef = refelem.nodal_eval_matrix(shape, ngeo, ref.face_quad_points)
    Efr, Efs = refelem.nodal_grad_matrices(shape, ngeo, ref.face_quad_points)
    xfq, yfq = X @ Ef.T, Y @ Ef.T
    xfr, xfs = X @ Efr.T, X @ Efs.T
    yfr, yfs = Y @ Efr.T, Y @ Efs.T

    # tangent along the CCW face parameter; outward normal is (y', -x') / Jf
    dirs = refelem.face_parametrizations(shape)
    nfq = ref.nfq
    tx = np.empty_like(xfq)
    ty = np.empty_like(xfq)
    for f in range(shape.n_faces):
        cols = slice(f * nfq, (f + 1) * nfq)
        dr, ds = dirs[f][1]
        tx[:, cols] = xfr[:, cols] * dr + xfs[:, cols] * ds
        ty[:, cols] = yfr[:, cols] * dr + yfs[:, cols] * ds
    Jfq = np.hypot(tx, ty)
    nxq = ty / Jfq
    nyq = -tx / Jfq

    return GeometricData(ref=ref, xq=xq, yq=yq, Jq=Jq,
                         rxq=rxq, ryq=ryq, sxq=sxq, syq=syq,
                         xfq=xfq, yfq=yfq, Jfq=Jfq, nxq=nxq, nyq=nyq)


def element_areas(geo):
    return geo.Jq @ geo.ref.wq


def element_perimeters(geo):
    wf = geo.ref.wfq
    return geo.Jfq @ wf


def jacobian_at(mesh, points):
    """Mapping Jacobian J = x_r y_s - x_s y_r of every element at reference
    `points`, shape (K, n_points)."""
    Er, Es = refelem.nodal_grad_matrices(mesh.shape, mesh.N_geo, points)
    X, Y = mesh.elem_map_nodes[..., 0], mesh.elem_map_nodes[..., 1]
    return (X @ Er.T) * (Y @ Es.T) - (X @ Es.T) * (Y @ Er.T)


def check_points(mesh):
    """Reference point sets at which a mesh is checked: the Gauss volume rule
    and the stacked per-face Gauss rules exact to degree 4 N_geo + 2, plus,
    for quadrilaterals, a dense corner-including Gauss-Lobatto grid, where
    near-degenerate bilinear maps take their extremes."""
    degree = 4 * mesh.N_geo + 2
    vol = refelem.build_quadrature(mesh.shape, degree)
    xi = refelem.gauss_legendre_1d((degree + 2) // 2).points
    face = np.vstack([refelem.face_points(mesh.shape, f, xi)
                      for f in range(mesh.shape.n_faces)])
    sets = {"volume": vol.points, "face": face}
    if mesh.shape is ElementShape.Quadrilateral:
        sets["grid"] = _sample_grid(2 * mesh.N_geo + 3)
    return sets


def validate_positive_jacobian(mesh):
    """Check J > 0 at the volume and face quadrature points and (for
    quadrilaterals) the dense grid of `check_points`, in that order.
    Raises NonPositiveJacobian for the first element failing in the first
    failing set, with the point's index within that set; returns min J."""
    jmin = np.inf
    for points in check_points(mesh).values():
        J = jacobian_at(mesh, points)
        bad = ~(J > 0)
        if bad.any():
            k, q = np.argwhere(bad)[0]
            raise NonPositiveJacobian(int(k), int(q), float(J[k, q]))
        jmin = min(jmin, float(J.min()))
    return jmin


def exterior_face_index(face_connectivity, nfq):
    """Flat index, shape (K, n_faces, nfq), of the exterior value of each
    face point in an array of face values laid out (K, n_faces, nfq).  Point
    i of a face meets point nfq-1-i of its neighbour's face (conforming CCW
    reversal); boundary faces (neighbour -1) index their own reversed points.
    """
    K, nf = face_connectivity.shape[:2]
    nk, nfc = face_connectivity[..., 0], face_connectivity[..., 1]
    ext_k = np.where(nk >= 0, nk, np.arange(K)[:, None])
    ext_f = np.where(nk >= 0, nfc, np.arange(nf)[None, :])
    rev = np.arange(nfq)[::-1]
    return (ext_k[:, :, None] * (nf * nfq) + ext_f[:, :, None] * nfq
            + rev[None, None, :])


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
    S = u.shape[-1]
    for a in range(min(order + 1, S)):
        for b in range(min(order + 1 - a, S)):
            acc = np.zeros_like(u[..., 0, 0])
            for i in range(a + 1):
                for j in range(b + 1):
                    acc += (comb(a, i) * comb(b, j)) * u[..., i, j] * v[..., a - i, b - j]
            out[..., a, b] = acc
    return out


def _jet_div(u, v, order):
    """Jet of u / v (v[...,0,0] nonzero)."""
    out = np.zeros_like(u)
    S = u.shape[-1]
    v00 = v[..., 0, 0]
    idx = sorted(
        [(a, b) for a in range(min(order + 1, S)) for b in range(min(order + 1 - a, S))],
        key=lambda ab: (ab[0] + ab[1], ab[0]))
    for a, b in idx:
        acc = u[..., a, b].copy()
        for i in range(a + 1):
            for j in range(b + 1):
                if (i, j) == (a, b):
                    continue
                acc -= (comb(a, i) * comb(b, j)) * out[..., i, j] * v[..., a - i, b - j]
        out[..., a, b] = acc / v00
    return out


def _jet_shift(g, axis):
    out = np.zeros_like(g)
    if axis == 0:
        out[..., :-1, :] = g[..., 1:, :]
    else:
        out[..., :, :-1] = g[..., :, 1:]
    return out


def _tensor_modal_deriv_eval(Ndeg, points, a, b):
    """Evaluation matrix of d^(a+b)/dr^a ds^b of the Q^Ndeg Legendre tensor
    modal basis at `points`, shape (P, (Ndeg+1)^2)."""
    r, s = points[:, 0], points[:, 1]
    A = np.column_stack([refelem.grad_jacobi_p(i, 0, 0, r, order=a) for i in range(Ndeg + 1)])
    B = np.column_stack([refelem.grad_jacobi_p(j, 0, 0, s, order=b) for j in range(Ndeg + 1)])
    return np.einsum("pi,pj->pij", A, B).reshape(points.shape[0], -1)


def _sample_grid(n1d):
    g = refelem.gauss_lobatto_1d(n1d).points
    r, s = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([r.ravel(), s.ravel()])


def jacobian_sup_norms(mesh, order, samples_per_dir=None, chunk_size=1024):
    """Per-element sup-norm estimates (||J||_{W^{order,inf}}, ||1/J||_{inf}).

    The W norm is the max of |D^alpha J| over all physical multi-indices
    |alpha| <= order; both maxima are taken over a tensor Gauss-Lobatto
    sample grid of quadrature degree >= 4 N_geo (corners included).
    Quadrilateral meshes only.
    """
    if mesh.shape is not ElementShape.Quadrilateral:
        raise NotImplementedError("sup-norm sampling implemented for quadrilaterals")
    ngeo = mesh.N_geo
    if samples_per_dir is None:
        samples_per_dir = 2 * ngeo + 2  # GLL degree 2n-3 >= 4 N_geo
    pts = _sample_grid(samples_per_dir)
    P = pts.shape[0]
    M = order

    nodes = refelem.interpolation_nodes(ElementShape.Quadrilateral, ngeo)
    Vg = refelem.eval_modal_basis(ElementShape.Quadrilateral, ngeo, nodes)
    # J is a polynomial of per-coordinate degree <= 2 ngeo; interpolate it
    # exactly on a degree-2 ngeo GLL grid
    nj = 2 * ngeo + 1
    jgrid = _sample_grid(nj)
    Vj = refelem.eval_modal_basis(ElementShape.Quadrilateral, 2 * ngeo, jgrid)
    Egr, Egs = refelem.nodal_grad_matrices(ElementShape.Quadrilateral, ngeo, jgrid)

    S = M + 2
    Exy = {(a, b): _tensor_modal_deriv_eval(ngeo, pts, a, b)
           for a in range(S) for b in range(S - a)}
    EJ = {(a, b): _tensor_modal_deriv_eval(2 * ngeo, pts, a, b)
          for a in range(S) for b in range(S - a)}

    K = mesh.K
    w_norm = np.zeros(K)
    inv_norm = np.zeros(K)
    for lo in range(0, K, chunk_size):
        hi = min(lo + chunk_size, K)
        X = mesh.elem_map_nodes[lo:hi, :, 0]
        Y = mesh.elem_map_nodes[lo:hi, :, 1]
        cx = np.linalg.solve(Vg, X.T)  # modal coefficients, (Npg, k)
        cy = np.linalg.solve(Vg, Y.T)
        Jg = (X @ Egr.T) * (Y @ Egs.T) - (X @ Egs.T) * (Y @ Egr.T)
        cJ = np.linalg.solve(Vj, Jg.T)

        k = hi - lo
        jet_x = np.zeros((k, P, S, S))
        jet_y = np.zeros((k, P, S, S))
        jet_J = np.zeros((k, P, S, S))
        for (a, b), E in Exy.items():
            jet_x[..., a, b] = (E @ cx).T
            jet_y[..., a, b] = (E @ cy).T
        for (a, b), E in EJ.items():
            jet_J[..., a, b] = (E @ cJ).T

        inv_norm[lo:hi] = (1.0 / jet_J[..., 0, 0]).max(axis=1)

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

        best = np.abs(jet_J[..., 0, 0]).max(axis=1)
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
                    best = np.maximum(best, np.abs(g[..., 0, 0]).max(axis=1))
        w_norm[lo:hi] = best
    return w_norm, inv_norm


def kappa_tilde(mesh, order, **kw):
    """max over elements of ||1/J||_inf * ||J||_{W^{order,inf}}."""
    w_norm, inv_norm = jacobian_sup_norms(mesh, order, **kw)
    return float(np.max(w_norm * inv_norm))
