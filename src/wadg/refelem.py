"""Reference elements: orthonormal bases, nodal sets, quadrature rules, and
the dense operator matrices (interpolation, projection, differentiation,
face trace) that the mesh, operator, and solver layers consume.

Conventions
-----------
* The reference element is the quadrilateral [-1, 1]^2; every element of
  a mesh is a quadrilateral.
* The approximation space is Q^N (degree N in each coordinate), with the
  orthonormal Legendre tensor-product modal basis (numpy.polynomial.legendre),
  a nodal solution basis at the points of the degree 2N+1 Gauss rule (there
  Vq = Pq = I and Mhat is diagonal), and tensor Gauss-Lobatto nodes for the
  degree-N_geo element mappings.
* Quadrature exactness is per-coordinate degree.
* Faces are ordered counterclockwise and parametrized by xi in [-1, 1];
  the outward normal direction is (y', -x') along the parametrization.

All matrices are dense; intended for N <= 8.

Reference data is process-wide and read-only.  The 1D Gauss and
Gauss-Lobatto rules are built once per point count, a ReferenceElement
once per (N, 1D point count) of its Gauss rule, and the mapping-node
matrices of nodal_eval_matrix, the values and derivatives of the mapping
nodes' Lagrange basis, once per (N, derivative orders, point set); every
cached array has writeable = False, so a caller that needs to modify one
takes a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.polynomial import legendre as leg


class SingularNodalBasis(Exception):
    """Raised when an interpolation node set fails to be unisolvent."""


def basis_dimension(N):
    return (N + 1) ** 2


# Face parametrizations: (midpoint, direction d(r,s)/dxi), traversed CCW.
FACES = (
    (np.array([0.0, -1.0]), np.array([1.0, 0.0])),   # bottom
    (np.array([1.0, 0.0]), np.array([0.0, 1.0])),    # right
    (np.array([0.0, 1.0]), np.array([-1.0, 0.0])),   # top
    (np.array([-1.0, 0.0]), np.array([0.0, -1.0])),  # left
)
N_FACES = len(FACES)


def face_points(face, xi):
    """Map 1D parameters xi to reference coordinates on the given face."""
    mid, dvec = FACES[face]
    xi = np.asarray(xi, dtype=float)
    return mid[None, :] + xi[:, None] * dvec[None, :]


# ---------------------------------------------------------------------------
# 1D building blocks

@dataclass(frozen=True)
class QuadratureRule:
    """Points, positive weights, and the attained exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    @property
    def n_points(self):
        return self.weights.shape[0]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


@cache
def gauss_legendre_1d(n):
    """Gauss-Legendre rule with n points on [-1, 1], exact to degree 2n-1."""
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    x, w = leg.leggauss(n)
    _read_only(x, w)
    return QuadratureRule(points=x, weights=w, exactness_degree=2 * n - 1)


@cache
def gauss_lobatto_1d(n):
    """Gauss-Lobatto points/weights with n >= 2 points, exact to degree 2n-3.

    The interior points are the roots of P'_{n-1}, polished by two Newton
    steps."""
    if n < 2:
        raise ValueError(f"need at least two points, got n={n}")
    p = np.eye(n)[n - 1]                  # P_{n-1} in the Legendre basis
    d1 = leg.legder(p)
    d2 = leg.legder(d1)
    xi = leg.legroots(d1)
    for _ in range(2):
        xi = xi - leg.legval(xi, d1) / leg.legval(xi, d2)
    x = np.concatenate(([-1.0], xi, [1.0]))
    # weights w_i = 2 / (n(n-1) P_{n-1}(x_i)^2)
    w = 2.0 / (n * (n - 1) * leg.legval(x, p)**2)
    _read_only(x, w)
    return QuadratureRule(points=x, weights=w, exactness_degree=2 * n - 3)


# ---------------------------------------------------------------------------
# Volume quadrature

def build_quadrature(degree):
    """Tensor-product Gauss-Legendre rule on [-1, 1]^2 exact to (at least)
    per-coordinate `degree`."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    rule = gauss_legendre_1d(max(1, (degree + 2) // 2))  # 2n-1 >= degree
    r, s = np.meshgrid(rule.points, rule.points, indexing="ij")
    w = np.outer(rule.weights, rule.weights)
    return QuadratureRule(
        points=np.column_stack([r.ravel(), s.ravel()]),
        weights=w.ravel(),
        exactness_degree=rule.exactness_degree,
    )


# ---------------------------------------------------------------------------
# Orthonormal modal basis: Legendre tensor products, mode (i, j) in column
# i (N+1) + j

def _legendre_deriv(N, x, order):
    """order-th derivative of the orthonormal Legendre polynomials
    sqrt(i + 1/2) P_i, i = 0..N, at x, shape (len(x), N+1); orders above N
    give exact zeros."""
    C = leg.legder(np.diag(np.sqrt(np.arange(N + 1) + 0.5)), order)
    return leg.legvander(x, C.shape[0] - 1) @ C


def modal_deriv_eval(N, points, a=0, b=0):
    """d^(a+b)/dr^a ds^b of the Q^N orthonormal modal basis at `points`,
    shape (n_points, (N+1)^2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    A = _legendre_deriv(N, pts[:, 0], a)
    B = _legendre_deriv(N, pts[:, 1], b)
    return np.einsum("pi,pj->pij", A, B).reshape(pts.shape[0], -1)


# ---------------------------------------------------------------------------
# Interpolation nodes

def interpolation_nodes(N):
    """Tensor Gauss-Lobatto mapping nodes on [-1, 1]^2, r varies fastest."""
    if N < 1:
        raise ValueError("N must be >= 1")
    g = gauss_lobatto_1d(N + 1).points
    r, s = np.meshgrid(g, g, indexing="xy")
    return np.column_stack([r.ravel(), s.ravel()])


def nodal_vandermonde(N, nodes):
    """Modal Vandermonde at the nodes; raises if numerically singular."""
    V = modal_deriv_eval(N, nodes)
    if V.shape[0] != V.shape[1]:
        raise SingularNodalBasis(
            f"{V.shape[0]} nodes cannot be unisolvent for dimension {V.shape[1]}")
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularNodalBasis(f"nodal basis condition number {cond:.3e}")
    return V, cond


@cache
def _cached_nodal_basis(N, solution=False):
    """Nodes, Vandermonde and condition number of the mapping nodes, or of
    the solution nodes: the points of build_quadrature(2N+1), s fastest."""
    nodes = build_quadrature(2 * N + 1).points if solution else interpolation_nodes(N)
    V, cond = nodal_vandermonde(N, nodes)
    _read_only(nodes, V)
    return nodes, V, cond


@cache
def _mapping_matrix(N, a, b, shape, data):
    """nodal_eval_matrix at the points whose float64 bytes are `data`."""
    _, V, _ = _cached_nodal_basis(N)
    M = modal_deriv_eval(N, np.frombuffer(data).reshape(shape), a, b)
    E = np.linalg.solve(V.T, M.T).T
    _read_only(E)
    return E


def nodal_eval_matrix(N, points, a=0, b=0):
    """d^(a+b)/dr^a ds^b of the Lagrange basis of the mapping nodes
    (interpolation_nodes(N)) at `points`, one row per point: the matrix
    mapping nodal values to that derivative at the points.  Cached per
    (N, a, b, point values), read-only."""
    pts = np.ascontiguousarray(points, dtype=float)
    return _mapping_matrix(N, a, b, pts.shape, pts.tobytes())


# ---------------------------------------------------------------------------
# Reference element

@dataclass(frozen=True)
class ReferenceElement:
    """Degree-N discretization data on the reference quadrilateral.

    One instance per (N, 1D point count) of its Gauss rule in a process,
    from build_reference_element, shared by every mesh and Discretization:
    its fields cannot be rebound and its arrays are read-only.
    """

    N: int
    nodes: np.ndarray          # (Np, 2) Gauss solution nodes (not the GLL mapping nodes)
    volume_quad: QuadratureRule
    Vq: np.ndarray             # (Nq, Np) nodal interpolation to quad points
    Pq: np.ndarray             # (Np, Nq) quadrature projection Mhat^-1 Vq^T W
    Drq: np.ndarray            # (Nq, Np) d/dr at quad points
    Dsq: np.ndarray            # (Nq, Np)
    Mhat: np.ndarray           # (Np, Np) reference mass matrix
    Mhat_inv: np.ndarray
    face_quad_1d: QuadratureRule
    Vfq: np.ndarray = field(repr=False)    # (n_faces*nfq, Np) face traces
    Pfq: np.ndarray = field(repr=False)    # (Np, n_faces*nfq)
    wfq: np.ndarray = field(repr=False)    # stacked face quad weights
    face_quad_points: np.ndarray = field(repr=False)  # (n_faces*nfq, 2)
    cond_nodal: float = 0.0

    @property
    def Np(self):
        return self.nodes.shape[0]

    @property
    def Nq(self):
        return self.volume_quad.n_points

    n_faces = N_FACES

    @property
    def nfq(self):
        return self.face_quad_1d.n_points

    @property
    def wq(self):
        return self.volume_quad.weights


def build_reference_element(N, degree=None):
    """The :class:`ReferenceElement` whose volume rule and face rules are
    Gauss rules exact to `degree` (default 2N+1).  The degree is floored at
    2N so the reference mass matrix is assembled exactly.  Degrees that land
    on one Gauss rule return the same cached, read-only element.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    degree = max(2 * N + 1 if degree is None else degree, 2 * N)
    return _reference_element(N, (degree + 2) // 2)


@cache
def _reference_element(N, n1d):
    """Assemble the degree-N element on the n1d-point Gauss rule."""
    degree = 2 * n1d - 1
    nodes, Vmodal, cond = _cached_nodal_basis(N, solution=True)
    quad = build_quadrature(degree)

    def to_nodal(M):
        return np.linalg.solve(Vmodal.T, M.T).T

    Vq = to_nodal(modal_deriv_eval(N, quad.points))
    Mr, Ms = modal_deriv_eval(N, quad.points, 1, 0), modal_deriv_eval(N, quad.points, 0, 1)
    Drq, Dsq = to_nodal(Mr), to_nodal(Ms)

    wq = quad.weights
    Mhat = Vq.T @ (wq[:, None] * Vq)
    Mhat = 0.5 * (Mhat + Mhat.T)
    Mhat_inv = np.linalg.inv(Mhat)
    Pq = Mhat_inv @ (Vq.T * wq[None, :])

    nf1d = gauss_legendre_1d(n1d)
    fq_pts = []
    Vf_blocks = []
    wf_blocks = []
    for f in range(N_FACES):
        pts = face_points(f, nf1d.points)
        fq_pts.append(pts)
        Vf_blocks.append(to_nodal(modal_deriv_eval(N, pts)))
        wf_blocks.append(nf1d.weights)
    Vfq = np.vstack(Vf_blocks)
    wfq = np.concatenate(wf_blocks)
    Pfq = Mhat_inv @ (Vfq.T * wfq[None, :])
    face_quad_points = np.vstack(fq_pts)

    ref = ReferenceElement(
        N=N, nodes=nodes, volume_quad=quad,
        Vq=Vq, Pq=Pq, Drq=Drq, Dsq=Dsq, Mhat=Mhat, Mhat_inv=Mhat_inv,
        face_quad_1d=nf1d, Vfq=Vfq, Pfq=Pfq,
        wfq=wfq, face_quad_points=face_quad_points, cond_nodal=cond,
    )
    _validate_reference_element(ref)
    _read_only(quad.points, quad.weights, Vq, Pq, Drq, Dsq, Mhat, Mhat_inv,
               Vfq, Pfq, wfq, face_quad_points)
    return ref


def _validate_reference_element(ref):
    Np = ref.Np
    if Np != basis_dimension(ref.N):
        raise SingularNodalBasis("node count does not match basis dimension")
    eye = np.eye(Np)
    if np.max(np.abs(ref.Pq @ ref.Vq - eye)) > 1e-10:
        raise FloatingPointError("Pq Vq deviates from identity")
    if np.max(np.abs(ref.Mhat_inv @ ref.Mhat - eye)) > 1e-10:
        raise FloatingPointError("Mhat inverse inaccurate")
    # SPD check; cholesky fails iff not positive definite
    np.linalg.cholesky(ref.Mhat)
