"""Mesh generators: uniform quadrilateral grids, trapezoidal (asymptotically
non-affine) meshes, randomly perturbed curvilinear meshes, cosine-warped
curvilinear meshes, and Gordon-Hall blended disk meshes.

All meshes are isoparametric: each element stores the physical positions of
a degree-N_geo tensor Gauss-Lobatto node set and the element map is the
Lagrange interpolant of those positions.  Generators are pure functions of
their arguments and build each mesh in one pass; `mesh_family` builds level
l of a family from the generator's own resolution argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import geometry, refelem

MESH_SCHEMA_VERSION = "wadg-mesh-v1"
MESH_SHAPE = "quadrilateral"   # the one element shape of wadg-mesh-v1 files

BOUNDARY_NONE = 0
BOUNDARY_DIRICHLET = 1


@dataclass
class WarpParams:
    """Cosine warp magnitude and mesh resolution for the curved trapezoid
    analogue family."""

    omega: float
    K1D: int

    def __post_init__(self):
        if not 0.0 <= self.omega <= 2.0:
            raise ValueError(f"omega must lie in [0, 2], got {self.omega}")
        if self.K1D < 1:
            raise ValueError("K1D must be >= 1")


@dataclass
class CurvedMesh2D:
    """Conforming isoparametric mesh of quadrilaterals.

    elem_map_nodes: (K, Npg, 2) physical mapping-node coordinates.
    face_connectivity: (K, 4, 2) of (neighbor element, neighbor face),
        (-1, -1) on boundary faces.
    boundary_tags: (K, 4); positive entries mark Dirichlet faces,
        zero entries interior faces.
    h: the longest element diagonal (corner to opposite corner) for every
        generated mesh.
    """

    N_geo: int
    elem_map_nodes: np.ndarray = field(repr=False)
    face_connectivity: np.ndarray = field(repr=False)
    boundary_tags: np.ndarray = field(repr=False)
    h: float = 0.0
    provenance: dict = field(default_factory=dict)

    @property
    def K(self):
        return self.elem_map_nodes.shape[0]

    n_faces = refelem.N_FACES


def _corner_indices(N_geo):
    n = N_geo + 1
    return np.array([0, N_geo, n * n - 1, N_geo * n])  # bl, br, tr, tl


_QUAD_FACE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0))
_FACE_FROM, _FACE_TO = np.array(_QUAD_FACE_CORNERS).T


def _build_connectivity(corners):
    """Match quadrilateral faces by shared corner vertices.

    corners: (K, 4, 2) element corners, ordered bl, br, tr, tl.  Corners
    equal after rounding to 9 decimals are one vertex; faces with the same
    (min, max) vertex pair are neighbours, and unmatched faces are Dirichlet
    boundary.  Raises ValueError if more than two faces share a vertex pair."""
    K = corners.shape[0]
    # each rounded (x, y) as one complex number: np.unique sorts those
    # lexicographically, as it would rows with axis=0, but five times faster
    keys = np.round(corners, 9).reshape(-1, 2).view(np.complex128)[:, 0]
    vid = np.unique(keys, return_inverse=True)[1].reshape(K, 4)

    a, b = vid[:, _FACE_FROM], vid[:, _FACE_TO]
    face_key = (np.minimum(a, b) * (vid.max() + 1) + np.maximum(a, b)).ravel()
    order = np.argsort(face_key, kind="stable")
    same = face_key[order[1:]] == face_key[order[:-1]]
    if np.any(same[1:] & same[:-1]):
        k, f = divmod(int(order[np.argmax(same[1:] & same[:-1])]), 4)
        raise ValueError(f"face {f} of element {k} is shared by more than two faces")
    first = order[:-1][same]
    second = order[1:][same]
    conn = np.full((K * 4, 2), -1, dtype=np.int64)
    conn[first] = np.column_stack(divmod(second, 4))
    conn[second] = np.column_stack(divmod(first, 4))
    conn = conn.reshape(K, 4, 2)
    tags = np.where(conn[:, :, 0] < 0, BOUNDARY_DIRICHLET, BOUNDARY_NONE).astype(np.int64)
    return conn, tags


def _assemble_quad_mesh(elem_map_nodes, N_geo, provenance, validate=True):
    """Mesh of the given mapping nodes, with h its longest element diagonal."""
    corners = elem_map_nodes[:, _corner_indices(N_geo), :]
    conn, tags = _build_connectivity(corners)
    mesh = CurvedMesh2D(
        N_geo=N_geo, elem_map_nodes=np.ascontiguousarray(elem_map_nodes),
        face_connectivity=conn, boundary_tags=tags, h=_max_diagonal(corners),
        provenance=provenance)
    if validate:
        geometry.validate_positive_jacobian(mesh)
    return mesh


def _max_diagonal(corners):
    """Longest element diagonal of corners (K, 4, 2)."""
    return float(np.max(np.linalg.norm(corners - np.roll(corners, 2, axis=1), axis=2)))


def _unit_nodes(N_geo):
    """Gauss-Lobatto points u on [0, 1] and the local coordinates (U, V),
    each (Npg, 1), of tensor node j*(N_geo+1) + i = (u_i, u_j)."""
    u = 0.5 * (refelem.gauss_lobatto_1d(N_geo + 1).points + 1.0)
    UI, UJ = np.meshgrid(u, u, indexing="ij")
    return u, UI.T.ravel()[:, None], UJ.T.ravel()[:, None]


def _bilinear(corners, N_geo):
    """Bilinear map of corners (K, 4, 2), ordered bl, br, tr, tl, at the
    degree-N_geo tensor Gauss-Lobatto nodes: (K, Npg, 2), the sum
    w0 c0 + w1 c1 + w2 c2 + w3 c3 of the corners' hat weights w times the
    corners, in that order.  Its r s terms cancel in J, which is then affine
    in (r, s) (see geometry.bilinear_elements).  The sum runs on (Npg, 2, K)
    arrays, element index innermost, into one array and one temporary, which
    then receives it transposed to (K, Npg, 2)."""
    _, U, V = _unit_nodes(N_geo)
    weights = ((1 - U) * (1 - V), U * (1 - V), U * V, (1 - U) * V)   # (Npg, 1) each
    c = np.ascontiguousarray(corners.transpose(1, 2, 0))             # (4, 2, K)
    out = np.multiply(weights[0][:, :, None], c[0])
    tmp = np.empty_like(out)
    for w, ci in zip(weights[1:], c[1:]):
        out += np.multiply(w[:, :, None], ci, out=tmp)
    nodes = tmp.reshape(len(corners), -1, 2)
    np.copyto(nodes, out.transpose(2, 0, 1))
    return nodes


def _grid_corners(G):
    """Corners (n1*n2, 4, 2), ordered bl, br, tr, tl, of the cells of an
    (n1+1, n2+1, 2) vertex grid; cell (i, j) is element j*n1 + i."""
    cells = (G[:-1, :-1], G[1:, :-1], G[1:, 1:], G[:-1, 1:])
    return np.stack([c.transpose(1, 0, 2).reshape(-1, 2) for c in cells], axis=1)


def _grid_1d(x0, x1, K1D, N_geo):
    """Global 1D mapping-node coordinates: K1D spans of Gauss-Lobatto points
    with shared endpoints; length K1D*N_geo + 1."""
    gll = refelem.gauss_lobatto_1d(N_geo + 1).points
    dx = (x1 - x0) / K1D
    t = np.empty(K1D * N_geo + 1)
    for e in range(K1D):
        t[e * N_geo:(e + 1) * N_geo + 1] = x0 + dx * (e + 0.5 * (gll + 1.0))
    t[-1] = x1
    return t


def _elements_from_global_grid(gx, gy, K1D, N_geo):
    """Scatter a global tensor grid (gx, gy of shape (M, M)) into per-element
    node arrays; element k = ey*K1D + ex, node index j*(N_geo+1) + i."""
    n = N_geo + 1
    start = N_geo * np.arange(K1D)
    # local (i, j) of element (ex, ey) -> global (ex*N_geo+i, ey*N_geo+j)
    gi = start[None, :, None, None] + np.arange(n)[None, None, None, :]
    gj = start[:, None, None, None] + np.arange(n)[None, None, :, None]
    out = np.stack([gx[gi, gj], gy[gi, gj]], axis=-1)
    return out.reshape(K1D * K1D, n * n, 2)


def uniform_quad_mesh(K1D, domain=((-1.0, 1.0), (-1.0, 1.0)), N_geo=1):
    """K1D x K1D affine quadrilateral mesh of an axis-aligned box."""
    if K1D < 1:
        raise ValueError("K1D must be >= 1")
    (x0, x1), (y0, y1) = domain
    tx = _grid_1d(x0, x1, K1D, N_geo)
    ty = _grid_1d(y0, y1, K1D, N_geo)
    gx, gy = np.meshgrid(tx, ty, indexing="ij")
    nodes = _elements_from_global_grid(gx, gy, K1D, N_geo)
    prov = {"kind": "uniform", "K1D": K1D, "domain": domain, "N_geo": N_geo}
    return _assemble_quad_mesh(nodes, N_geo, prov, validate=False)


def arnold_mesh(level, N_geo=1):
    """Trapezoidal mesh of [0, 1]^2 that stays non-affine under refinement.

    Vertical grid lines are straight; interior horizontal vertices are
    offset by +-dx/4 (dx = 1/K1D) in a checkerboard pattern, so every
    element is a trapezoid with parallel vertical edges (side ratio 1:3
    away from the top/bottom rows) and an elementwise-linear Jacobian.  Refinement is
    self-similar: level l+1 is the same pattern at half the spacing.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    K1D = 2 ** (level + 1)
    dx = 1.0 / K1D
    # bilinear vertex grid
    vx = np.arange(K1D + 1) * dx
    VX, VY = np.meshgrid(vx, vx, indexing="ij")
    VY = VY.copy()
    sign = np.where(np.add.outer(np.arange(K1D + 1), np.arange(1, K1D)) % 2, -1.0, 1.0)
    VY[:, 1:K1D] += sign * dx / 4.0
    nodes = _bilinear(_grid_corners(np.stack([VX, VY], axis=-1)), N_geo)
    prov = {"kind": "arnold", "level": level, "N_geo": N_geo}
    return _assemble_quad_mesh(nodes, N_geo, prov, validate=False)


_RANDOM_MESH_RETRIES = 20


def random_perturbed_mesh(K1D, N_geo, amplitude, seed,
                          domain=((0.0, 1.0), (0.0, 1.0))):
    """Uniform mesh with interior mapping nodes displaced by uniform random
    offsets of size <= amplitude * (element spacing).

    Shared-face nodes move identically on both sides (the perturbation acts
    on the global node grid), boundary nodes stay put, and the result is
    deterministic in `seed`.  Offsets are drawn uniformly within
    amplitude * (smallest mapping-node gap), which keeps them below
    amplitude * (element spacing).  A draw whose map folds is replaced by a
    fresh one, up to 20 draws; then NonPositiveJacobian is raised.  Scanned
    over K1D 4 and 6, N_geo 1-3 and seeds 0-7 (48 sets): amplitude 0.2
    always finds an invertible map, 0.25 runs out of draws on 5 sets and
    0.3 on 18.
    """
    (x0, x1), (y0, y1) = domain
    tx = _grid_1d(x0, x1, K1D, N_geo)
    ty = _grid_1d(y0, y1, K1D, N_geo)
    gap = min(np.diff(tx).min(), np.diff(ty).min())
    gx0, gy0 = np.meshgrid(tx, ty, indexing="ij")
    interior_x = (gx0 > x0 + 1e-12) & (gx0 < x1 - 1e-12)
    interior_y = (gy0 > y0 + 1e-12) & (gy0 < y1 - 1e-12)
    rng = np.random.default_rng(seed)
    prov = {"kind": "random", "K1D": K1D, "N_geo": N_geo,
            "amplitude": amplitude, "seed": seed, "domain": domain}
    last_exc = None
    for _ in range(_RANDOM_MESH_RETRIES):
        gx = gx0 + np.where(interior_x, rng.uniform(-amplitude * gap, amplitude * gap, gx0.shape), 0.0)
        gy = gy0 + np.where(interior_y, rng.uniform(-amplitude * gap, amplitude * gap, gy0.shape), 0.0)
        nodes = _elements_from_global_grid(gx, gy, K1D, N_geo)
        try:
            return _assemble_quad_mesh(nodes, N_geo, prov)
        except geometry.NonPositiveJacobian as exc:
            last_exc = exc
    raise last_exc


def warp_displacement(omega, K1D, x):
    """Vertical mesh-line displacement of the warped trapezoid-analogue
    family: amplitude omega/(K1D+1), quarter period per element."""
    return omega / (K1D + 1) * np.cos(0.5 * K1D * np.pi * (np.asarray(x) + 1.0))


def warped_arnold_mesh(params, N_geo):
    """Curvilinear analogue of the trapezoid family on [-1, 1]^2.

    Every other interior horizontal mesh line is displaced vertically by
    `warp_displacement` sampled at the mapping nodes; the displacement is
    blended linearly (a triangle wave in y, peaking on the displaced lines
    and vanishing on the others and on the boundary).  Every element row is
    then equally non-affine, and the corner value of the Jacobian
    approaches its positivity limit as omega -> 2.
    """
    omega, K1D = params.omega, params.K1D
    t = _grid_1d(-1.0, 1.0, K1D, N_geo)
    gx, gy = np.meshgrid(t, t, indexing="ij")
    hy = 2.0 / K1D
    # triangle wave: 1 on odd mesh lines, 0 on even lines and the boundary
    ty = (gy + 1.0) / hy
    blend = 1.0 - np.abs(np.mod(ty, 2.0) - 1.0)
    gy = gy + blend * warp_displacement(omega, K1D, gx)
    nodes = _elements_from_global_grid(gx, gy, K1D, N_geo)
    prov = {"kind": "warped", "omega": omega, "K1D": K1D, "N_geo": N_geo}
    return _assemble_quad_mesh(nodes, N_geo, prov, validate=omega > 0)


# ---------------------------------------------------------------------------
# Disk meshes

DISK_BLOCK_CELLS = 2        # cells along a central block edge at level 0
DISK_BLOCK_HALF_WIDTH = 0.5


def _disk_corners(n, m):
    """Corners (K, 4, 2) of the straight-sided O-grid of the unit disk: an
    n x n central square block plus four ring blocks of n tangential x m
    radial cells, each blending a square edge to a quarter arc.  Every
    boundary vertex lies on the unit circle."""
    a = DISK_BLOCK_HALF_WIDTH
    xe = np.linspace(-a, a, n + 1)
    blocks = [np.stack(np.meshgrid(xe, xe, indexing="ij"), axis=-1)]
    sp = np.linspace(0.0, 1.0, n + 1)
    t = np.linspace(0.0, 1.0, m + 1)
    theta = 0.75 * np.pi - 0.5 * np.pi * sp
    P = np.column_stack([xe, np.full(n + 1, a)])
    Q = np.column_stack([np.cos(theta), np.sin(theta)])
    T = (1.0 - t[None, :, None]) * P[:, None, :] + t[None, :, None] * Q[:, None, :]
    for _ in range(4):      # the top block, then exact -90 degree rotations
        blocks.append(T)
        T = np.stack([T[..., 1], -T[..., 0]], axis=-1)
    return np.concatenate([_grid_corners(G) for G in blocks], axis=0)


def disk_mesh(level, N_geo):
    """Gordon-Hall disk mesh at nested refinement `level`: block resolution
    DISK_BLOCK_CELLS * 2^level and radial resolution 2^level, so successive
    levels are 4-way element splits.

    Boundary faces of the straight O-grid are replaced by the exact arc
    sampled at N_geo+1 Gauss-Lobatto points; element interiors are filled by
    transfinite (Gordon-Hall) interpolation of the four edge curves.
    Elements with no boundary face keep their straight bilinear map.
    """
    if level < 0:
        raise ValueError(f"disk mesh level must be >= 0, got {level}")
    n, m = DISK_BLOCK_CELLS * 2**level, 2**level
    corners = _disk_corners(n, m)
    conn, tags = _build_connectivity(corners)
    tagged = tags > 0
    u, U, V = _unit_nodes(N_geo)
    nodes = _bilinear(corners, N_geo)

    # transfinite blend on every element touching the boundary
    kb = np.flatnonzero(tagged.any(axis=1))
    cbnd = corners[kb]                                    # (Kb, 4, 2)

    def edge_curve(f, t):
        """Edge f of the boundary elements at parameters t (n, 1) in [0, 1],
        CCW orientation: the arc where the face is tagged, else the segment;
        shape (Kb, n, 2)."""
        A, B = cbnd[:, None, _FACE_FROM[f]], cbnd[:, None, _FACE_TO[f]]   # (Kb, 1, 2)
        th0 = np.arctan2(A[..., 1], A[..., 0])
        th1 = np.arctan2(B[..., 1], B[..., 0])
        dth = (th1 - th0 + np.pi) % (2.0 * np.pi) - np.pi
        th = th0 + dth * t[:, 0]
        arc = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return np.where(tagged[kb, f, None, None], arc, (1.0 - t) * A + t * B)

    I = np.tile(np.arange(N_geo + 1), N_geo + 1)      # node j*n + i -> i
    J = np.repeat(np.arange(N_geo + 1), N_geo + 1)    # node j*n + i -> j
    t = u[:, None]
    B = edge_curve(0, t)[:, I]            # bottom, left -> right
    R = edge_curve(1, t)[:, J]            # right, bottom -> top
    T = edge_curve(2, 1.0 - t)[:, I]      # top re-parametrized left -> right
    L = edge_curve(3, 1.0 - t)[:, J]      # left re-parametrized bottom -> top
    nodes[kb] = ((1 - V) * B + V * T + (1 - U) * L + U * R) - nodes[kb]
    h = _max_diagonal(nodes[:, _corner_indices(N_geo), :])
    prov = {"kind": "disk", "n": n, "radial": m, "N_geo": N_geo, "level": level}
    mesh = CurvedMesh2D(N_geo=N_geo, elem_map_nodes=nodes, face_connectivity=conn,
                        boundary_tags=tags, h=h, provenance=prov)
    geometry.validate_positive_jacobian(mesh)
    return mesh


# ---------------------------------------------------------------------------
# Refinement and families

def subdivide(mesh):
    """Geometric 4-way split: each child map is the parent map restricted to
    a quadrant of the reference element (exact for polynomial maps), so the
    curved geometry is fixed while the resolution doubles."""
    N_geo = mesh.N_geo
    ref_nodes = refelem.interpolation_nodes(N_geo)
    evals = []
    for cj in range(2):
        for ci in range(2):
            pts = 0.5 * (ref_nodes + [2 * ci - 1, 2 * cj - 1])
            evals.append(refelem.nodal_eval_matrix(N_geo, pts))
    K = mesh.K
    npg = ref_nodes.shape[0]
    nodes = np.empty((4 * K, npg, 2))
    for c, E in enumerate(evals):
        nodes[c::4] = np.einsum("pi,kid->kpd", E, mesh.elem_map_nodes)
    prov = {"kind": "subdivided", "parent": mesh.provenance}
    return _assemble_quad_mesh(nodes, N_geo, prov, validate=False)


def mesh_family(kind, levels, N_geo=1, **params):
    """List of `levels` meshes of the requested family, each splitting the
    elements of the one before in four.  Member l is its generator at
    resolution raised by l (K1D * 2^l, or level + l), so self-similar
    families stay self-similar; a randomly perturbed mesh keeps its curved
    geometry fixed and is split by `subdivide`."""
    if levels < 1:
        raise ValueError(f"need levels >= 1, got {levels}")
    level = params.get("level", 0)
    if kind == "uniform":
        domain = params.get("domain", ((-1, 1), (-1, 1)))
        build = lambda l: uniform_quad_mesh(params.get("K1D", 2) * 2**l, domain, N_geo)
    elif kind == "arnold":
        build = lambda l: arnold_mesh(level + l, N_geo)
    elif kind == "warped":
        build = lambda l: warped_arnold_mesh(
            WarpParams(params["omega"], params.get("K1D", 4) * 2**l), N_geo)
    elif kind == "disk":
        build = lambda l: disk_mesh(level + l, N_geo)
    elif kind == "random":
        out = [random_perturbed_mesh(params.get("K1D", 2), N_geo,
                                     params.get("amplitude", 0.15), params.get("seed", 0))]
        for _ in range(levels - 1):
            out.append(subdivide(out[-1]))
        return out
    else:
        raise ValueError(f"unknown mesh family {kind!r}")
    return [build(l) for l in range(levels)]


# ---------------------------------------------------------------------------
# Mesh file interchange

def save_mesh(mesh, path):
    doc = {
        "version": MESH_SCHEMA_VERSION,
        "shape": MESH_SHAPE,
        "N_geo": mesh.N_geo,
        "K": mesh.K,
        "h": mesh.h,
        "elem_map_nodes": mesh.elem_map_nodes.tolist(),
        "face_connectivity": mesh.face_connectivity.tolist(),
        "boundary_tags": mesh.boundary_tags.tolist(),
        "provenance": mesh.provenance,
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def validate_mesh(mesh):
    """Check a mesh before it reaches the solver.

    In order: the face connectivity is an involution, boundary tags are
    positive on unmatched faces and zero elsewhere (the solver's rule), J > 0 (`validate_positive_jacobian`),
    and the face quadrature points of each interior face coincide with its
    neighbour's after CCW reversal, to 1e-10 of the element size.  Raises
    ValueError naming the failed check and the first bad element and face.
    """
    K, nf = mesh.K, mesh.n_faces
    nk, nfc = mesh.face_connectivity[..., 0], mesh.face_connectivity[..., 1]
    inner = nk >= 0
    ok = np.where(inner, (nk < K) & (nfc >= 0) & (nfc < nf), (nk == -1) & (nfc == -1))
    k_ext, f_ext = np.where(ok & inner, nk, 0), np.where(ok & inner, nfc, 0)
    ok &= ~inner | ((nk[k_ext, f_ext] == np.arange(K)[:, None])
                    & (nfc[k_ext, f_ext] == np.arange(nf)[None, :]))
    _fail_at(~ok, "face connectivity is not an involution")
    tags = mesh.boundary_tags
    _fail_at(np.where(inner, tags != BOUNDARY_NONE, tags <= 0),
             "boundary tags are not positive exactly on unmatched faces")
    try:
        geometry.validate_positive_jacobian(mesh)
    except geometry.NonPositiveJacobian as exc:
        raise ValueError(f"mesh check failed, Jacobian not positive: {exc}") from None

    face = geometry.check_points(mesh)["face"]
    E = refelem.nodal_eval_matrix(mesh.N_geo, face)
    xf = (E @ mesh.elem_map_nodes).reshape(K, nf, -1, 2)     # (K, nf, nfq, 2)
    ext = geometry.exterior_face_index(mesh.face_connectivity, xf.shape[2])
    gap = np.linalg.norm(xf - xf.reshape(-1, 2)[ext], axis=-1).max(axis=-1)
    size = np.ptp(mesh.elem_map_nodes, axis=1).max(axis=-1)
    _fail_at(~(gap <= 1e-10 * size[:, None]),
             "face quadrature points do not match the neighbour's")


def _fail_at(bad, check):
    if bad.any():
        k, f = np.argwhere(bad)[0]
        raise ValueError(f"mesh check failed, {check}: element {k} face {f}")


def load_mesh(path):
    """Read a wadg-mesh-v1 JSON file and validate it (see `validate_mesh`),
    after checking its keys, their types and shapes, and that every mapping
    node is finite."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"a mesh file must hold a JSON object, got a {type(doc).__name__!r}")
    if doc.get("version") != MESH_SCHEMA_VERSION:
        raise ValueError(f"unsupported mesh schema version {doc.get('version')!r}")
    if doc.get("shape") != MESH_SHAPE:
        raise ValueError(f"unsupported element shape {doc.get('shape')!r}; "
                         f"only {MESH_SHAPE!r} meshes are supported")
    for key in ("K", "N_geo", "h", "elem_map_nodes", "face_connectivity", "boundary_tags"):
        if key not in doc:
            raise ValueError(f"mesh file lacks the key {key!r}")
    for key in ("K", "N_geo"):
        if type(doc[key]) is not int or doc[key] < 1:
            raise ValueError(f"mesh key {key!r} must be an integer >= 1, got {doc[key]!r}")
    # a bool is not a number here, though Python counts it as an int
    if type(doc["h"]) not in (int, float) or not (np.isfinite(doc["h"]) and doc["h"] > 0):
        raise ValueError(f"mesh key 'h' must be a finite number > 0, got {doc['h']!r}")
    nodes = np.asarray(doc["elem_map_nodes"], dtype=float)
    conn = np.asarray(doc["face_connectivity"], dtype=np.int64)
    tags = np.asarray(doc["boundary_tags"], dtype=np.int64)
    npg = refelem.basis_dimension(doc["N_geo"])
    if nodes.shape != (doc["K"], npg, 2):
        raise ValueError("elem_map_nodes shape inconsistent with K and N_geo")
    bad = ~np.isfinite(nodes).all(axis=2)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise ValueError(f"mapping node {i} of element {k} is not finite: {nodes[k, i].tolist()}")
    nf = refelem.N_FACES
    if conn.shape != (doc["K"], nf, 2) or tags.shape != (doc["K"], nf):
        raise ValueError("connectivity arrays inconsistent with K")
    mesh = CurvedMesh2D(N_geo=doc["N_geo"], elem_map_nodes=nodes,
                        face_connectivity=conn, boundary_tags=tags,
                        h=float(doc["h"]), provenance=doc.get("provenance", {}))
    validate_mesh(mesh)
    return mesh
