"""Weighted mass matrices, matrix-free weight-adjusted inverses, L2 and
weight-adjusted projections, the square-root-weighted projection error, and
moment (local conservation) diagnostics.

The L2 projection is matrix-free too: conjugate gradients preconditioned by
the weight-adjusted inverse, so neither the solver nor the convergence
studies assemble a J-weighted mass matrix to project; only exact-mass mode
and the moment diagnostic form dense per-element matrices.

Element fields are coefficient arrays in the nodal basis of a
ReferenceElement; weights live at that element's volume quadrature points.
Every function takes batched (K, Np) / (K, Nq) arrays, one row per element.
"""

from __future__ import annotations

import numpy as np

from . import geometry


class NotSPD(Exception):
    """A weighted mass matrix failed to be symmetric positive definite."""


def _check_weight(w):
    if np.any(~np.isfinite(w)) or np.any(w <= 0):
        raise NotSPD(f"weight must be positive and finite, min = {np.min(w):.3e}")


def weighted_mass_matrix(ref, w):
    """Mass matrices int phi_i phi_j w, one per row of the (K, Nq) weights w,
    shape (K, Np, Np).

    Assembled with ref's volume quadrature; requires exactness >= 2N for w
    constant in P^0 to be exact.  One GEMM of the weights against the table
    B[q, i Np + j] = Vq[q, i] Vq[q, j]: columns ij and ji of B are equal, so
    every matrix is exactly symmetric.  Raises NotSPD if any matrix fails a
    Cholesky factorization.
    """
    W = np.asarray(w, dtype=float) * ref.wq[None, :]
    Np = ref.Np
    B = (ref.Vq[:, :, None] * ref.Vq[:, None, :]).reshape(ref.Nq, Np * Np)
    M = (W @ B).reshape(-1, Np, Np)
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"weighted mass matrix not positive definite: {exc}") from exc
    return M


def apply_weight_adjusted_inverse(ref, w_inv, rhs):
    """Matrix-free application of Mhat^-1 M_{1/w} Mhat^-1 to the (K, Np) rhs:
    Pq diag(w_inv) Vq Mhat^-1 rhs.

    `w_inv` holds values of 1/w at ref's volume quadrature points, (K, Nq).
    Only reference matrices and the pointwise weight values are touched; no
    per-element matrix is formed.  On the degree 2N+1 rule, whose points
    are the solution nodes, Vq = Pq = I and this is the pointwise scale the
    solver applies directly.
    """
    z = np.asarray(rhs, dtype=float) @ ref.Mhat_inv.T
    return ((z @ ref.Vq.T) * w_inv) @ ref.Pq.T


def l2_project(ref, geo, exact_fn):
    """Per-element coefficients of the J-weighted L2 projection of exact_fn.

    Solves M_J c = Vq^T diag(w J) f by conjugate gradients batched over
    elements, one element block and one field at a time, without forming
    M_J: each product is ((c Vq^T) J) diag(w) Vq on ref's rule, whose degree
    sets the accuracy of M_J.  `geo` is that rule's GeometricData, or the
    mesh, whose points and J are then evaluated per block and not kept.
    The preconditioner is the weight-adjusted inverse
    Mhat^-1 M_{1/J~} Mhat^-1, in the Gauss-collocated basis the pointwise
    scale 1/(diag(Mhat) J~) with J~ the nodal values of J's degree-N
    projection.  It approximates M_J^-1 to high order, so a few iterations
    reach max|r| <= PCG_RTOL max|b|, maxima over one element block.
    exact_fn is evaluated once per block, straight into the loads; a field
    zero on a block is zero there without a load or a solve.  Raises
    FloatingPointError when Np + 2 iterations do not reach that residual.
    When exact_fn returns a tuple of fields, the coefficients are one
    (n_fields, K, Np) array.
    """
    K, blocks = geometry.volume_blocks(geo, ref)
    WVq = ref.wq[:, None] * ref.Vq
    out = None
    for blk, xq, yq, Jq in blocks:
        fq = exact_fn(xq, yq)
        single = not isinstance(fq, tuple)
        fq = (fq,) if single else fq
        if out is None:
            out = np.empty((len(fq), K, ref.Np))
        # a load and a solve only where the field is nonzero
        loads = [np.matmul(f * Jq, WVq) if f.any() else None for f in fq]
        del fq, xq, yq      # the point values are not needed by the solves
        scale = 1.0 / (np.diag(ref.Mhat) * (Jq @ ref.Pq.T))
        for b, c in zip(loads, out):
            c[blk] = 0.0 if b is None else _pcg(ref.Vq, WVq, Jq, scale, b)
    return out[0] if single else out


PCG_RTOL = 1e-15


def _dot(a, b):
    return np.einsum("ki,ki->k", a, b)[:, None]


def _ratio(a, b):
    """a / b, 0 where b = 0: an element whose residual vanished stays put."""
    return np.divide(a, b, out=np.zeros_like(a), where=b != 0)


def _pcg(Vq, WVq, J, scale, b):
    """Solve (Vq^T diag(J_k) WVq) x_k = b_k for every row k of b by conjugate
    gradients preconditioned by the pointwise `scale`."""
    tol = PCG_RTOL * np.max(np.abs(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = rz = None
    max_iter = b.shape[1] + 2
    for it in range(max_iter + 1):
        res = np.max(np.abs(r))
        if res <= tol:
            return x
        if it == max_iter:
            break
        z = scale * r
        rz, rz_old = _dot(r, z), rz
        p = z if p is None else z + _ratio(rz, rz_old) * p
        Ap = p @ Vq.T
        Ap *= J
        Ap = Ap @ WVq
        alpha = _ratio(rz, _dot(p, Ap))
        x += alpha * p
        r -= alpha * Ap
    raise FloatingPointError(
        f"projection CG: max residual {res:.3e} after {max_iter} iterations, "
        f"above {PCG_RTOL:g} x max load {np.max(np.abs(b)):.3e}")


def wadg_pseudo_project(ref, geo, exact_fn, project_weight=False):
    """Weight-adjusted approximation of the J-weighted L2 projection:
    the composition of reference L2 projections u -> P(1/J * P(u J)).

    With project_weight=True the inverse-weight values are taken from the
    degree-N reference L2 projection of J (the load keeps the true J), which
    makes the projected-J moment of the output match the true J-moment of u
    exactly, restoring local conservation.
    """
    fq = exact_fn(geo.xq, geo.yq)
    load = (ref.wq[None, :] * geo.Jq * fq) @ ref.Vq
    Jq = geo.Jq
    if project_weight:
        Jq = (Jq @ ref.Pq.T) @ ref.Vq.T
    return apply_weight_adjusted_inverse(ref, 1.0 / Jq, load)


def lsc_projection_error(ref, geo, exact_fn):
    """Per-element J-weighted L2 error of the square-root-weighted
    projection u -> (1/sqrt(J)) P(u sqrt(J)); diagnostic only."""
    fq = exact_fn(geo.xq, geo.yq)
    sq = np.sqrt(geo.Jq)
    c = (fq * sq) @ ref.Pq.T
    resid = fq - (c @ ref.Vq.T) / sq
    return np.sqrt(np.sum(ref.wq[None, :] * geo.Jq * resid**2, axis=1))


def global_l2_error(ref, geo, coeffs, exact_fn):
    """sqrt(sum_k sum_q w_q J_q (u_h - u)^2), with exact_fn evaluated and
    the terms summed one element block at a time, in a fixed order; `geo`
    as in l2_project."""
    total = 0.0
    for blk, xq, yq, Jq in geometry.volume_blocks(geo, ref)[1]:
        d = coeffs[blk] @ ref.Vq.T
        d -= exact_fn(xq, yq)
        d *= d
        d *= ref.wq[None, :] * Jq
        total += np.sum(d)
    return float(np.sqrt(total))


def _monomials(M, points):
    cols = []
    for a in range(M + 1):
        for b in range(M + 1 - a):
            cols.append(points[:, 0] ** a * points[:, 1] ** b)
    return np.column_stack(cols)


def conservation_moment_error(ref, geo, w, u_fn, M):
    """Worst moment discrepancy of the weight-adjusted inner product.

    max over elements and test monomials v in P^M of
    |(w u, v)_ref - (T_{1/w}^{-1} u, v)_ref|, with all inner products under
    ref's volume quadrature.
    """
    _check_weight(w)
    uq = u_fn(geo.xq, geo.yq)
    Vm = _monomials(M, ref.volume_quad.points)  # (Nq, n_mono)
    Minv = weighted_mass_matrix(ref, 1.0 / w)
    load = (ref.wq[None, :] * uq) @ ref.Vq
    z = np.linalg.solve(Minv, load[:, :, None])[:, :, 0]
    zq = z @ ref.Vq.T
    lhs = (ref.wq[None, :] * w * uq) @ Vm
    rhs = (ref.wq[None, :] * zq) @ Vm
    return float(np.max(np.abs(lhs - rhs)))
