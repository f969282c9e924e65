"""Experiment harness: h-convergence studies for projections and the wave
solver, evolution-operator spectra and their stable step,
Jacobian-constant growth studies, and moment-conservation rate studies.

Every study returns a ConvergenceRecord (or SpectrumResult) and can emit
machine-readable CSV; reruns with identical arguments reproduce results
bitwise (all computations are deterministic, fixed-order numpy).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator

from . import geometry, meshgen, operators, refelem, solver
from .solver import MassMode, MediumField, SolverConfig


class SizeCapExceeded(Exception):
    """Operator assembly would exceed the configured unknown cap."""


class EigenSolveFailure(Exception):
    """Dense eigenvalue solve did not converge."""


@dataclass
class ConvergenceRecord:
    """(h, error) series with a least-squares log-log slope over a window
    of the finest levels (default 3).  A window of one level has no
    slope: fitted_slope and fit_residual are then NaN."""

    h: np.ndarray
    errors: np.ndarray
    fitted_slope: float = 0.0
    fit_residual: float = 0.0
    window: int = 3
    label: str = ""

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.errors = np.asarray(self.errors, dtype=float)
        if np.any(np.diff(self.h) >= 0):
            raise ValueError("h must be strictly decreasing")
        if np.any(self.errors <= 0):
            raise ValueError("errors must be positive")
        w = min(self.window, len(self.h))
        if w < 2:
            self.fitted_slope = self.fit_residual = float("nan")
            return
        lh, le = np.log(self.h[-w:]), np.log(self.errors[-w:])
        coef = np.polyfit(lh, le, 1)
        self.fitted_slope = float(coef[0])
        self.fit_residual = float(np.sqrt(np.mean((np.polyval(coef, lh) - le) ** 2)))

    def to_csv(self, path):
        w = min(self.window, len(self.h))
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["h", "error", "slope_window_flag"])
            for i, (h, e) in enumerate(zip(self.h, self.errors)):
                out.writerow([repr(h), repr(e), int(i >= len(self.h) - w)])


@dataclass
class SpectrumResult:
    """Eigenvalues of the time-evolution operator, |lambda|-descending."""

    eigenvalues: np.ndarray = field(repr=False)
    max_real_part: float = 0.0

    def __post_init__(self):
        order = np.argsort(-np.abs(self.eigenvalues))
        self.eigenvalues = self.eigenvalues[order]
        self.max_real_part = float(self.eigenvalues.real.max())

    @property
    def spectral_radius(self):
        return float(np.abs(self.eigenvalues[0]))

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["re", "im"])
            for lam in self.eigenvalues:
                out.writerow([repr(lam.real), repr(lam.imag)])


def evolution_operator(disc):
    """The semi-discrete evolution operator of disc, q -> rhs_full(q) (mass
    inverse included), as a LinearOperator on vectors ordered in (p, u1, u2)
    blocks of K*Np each."""
    shape = (3, disc.mesh.K, disc.ref.Np)
    n = int(np.prod(shape))

    def matvec(x):
        # rhs_full returns a buffer that the next call overwrites
        return solver.rhs_full(np.reshape(x, shape), disc).ravel().copy()

    return LinearOperator((n, n), matvec=matvec, dtype=float)


def assemble_evolution_matrix(disc, cap=6000):
    """Dense matrix of evolution_operator(disc): column j is the operator
    applied to unit vector e_j."""
    op = evolution_operator(disc)
    n = op.shape[0]
    if n > cap:
        raise SizeCapExceeded(f"{n} unknowns exceed cap {cap}")
    A = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = op.matvec(e)
        e[j] = 0.0
    return A


# |z| at which |R(z)| > 1 in every direction (min |R| on |z| = 12 is
# about 143; the largest reach over the closed left half-plane is 8.978,
# on the negative real axis), the radial grid step, and the growth of |R|
# above 1 that counts as leaving the stability region
_RAY_MAX, _RAY_STEP, _RAY_TOL = 12.0, 1e-2, 1e-12


def lsrk_stable_dt(eigenvalues):
    """Largest dt for which dt * lambda stays inside the stability region
    {|R(z)| <= 1} of solver.STABILITY_POLYNOMIAL for every eigenvalue
    lambda and every smaller step: the minimum over lambda of the first
    radius at which the ray through lambda leaves the region, over
    |lambda|.  The reach is 5.098 on the imaginary axis and 8.978 on the
    negative real axis.  Positive real parts are taken as round-off of an
    energy-stable operator and clipped to zero; zero eigenvalues set no
    limit.
    """
    lam = np.asarray(eigenvalues, dtype=complex).ravel()
    lam = np.minimum(lam.real, 0.0) + 1j * lam.imag
    lam = lam[lam != 0]
    if lam.size == 0:
        return float("inf")
    mag = np.abs(lam)
    R = np.polynomial.Polynomial(solver.STABILITY_POLYNOMIAL)
    radii = np.arange(1, int(round(_RAY_MAX / _RAY_STEP)) + 1) * _RAY_STEP
    dt = float("inf")
    for start in range(0, lam.size, 256):
        u = lam[start:start + 256] / mag[start:start + 256]
        outside = np.abs(R(u[:, None] * radii)) > 1.0 + _RAY_TOL
        first = outside.argmax(axis=1)
        # bisect between the last grid radius inside and the first outside
        lo, hi = radii[first] - _RAY_STEP, radii[first]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            out = np.abs(R(u * mid)) > 1.0 + _RAY_TOL
            lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
        dt = min(dt, float(np.min(lo / mag[start:start + 256])))
    return dt


def eigenspectrum(matrix):
    """All eigenvalues of the assembled evolution matrix."""
    try:
        lam = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailure(str(exc)) from exc
    if np.any(~np.isfinite(lam)):
        raise EigenSolveFailure("non-finite eigenvalues")
    return SpectrumResult(eigenvalues=lam)


# ---------------------------------------------------------------------------
# Studies

def default_exact_fn(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


PROJECTION_METHODS = ("l2", "wadg", "lsc")


def projection_convergence_study(meshes, N, method):
    """Global L2 error of the chosen projection of default_exact_fn on each
    mesh of a family.

    method: 'l2' (weighted L2 projection), 'wadg' (weight-adjusted
    pseudo-projection), or 'lsc' (square-root-weighted projection error).
    Quadrature degree 2N + 2 N_geo + 4 approximates the exact integration
    used in the reference results.
    """
    if len(meshes) < 4:
        raise ValueError("need at least 4 refinement levels")
    if method not in PROJECTION_METHODS:
        raise ValueError(f"unknown method {method!r}")
    f = default_exact_fn
    hs, errs = [], []
    for mesh in meshes:
        deg = 2 * N + 2 * mesh.N_geo + 4
        ref = refelem.build_reference_element(N, deg)
        geo = geometry.compute_volume_geometry(mesh, ref)
        if method == "l2":
            err = operators.global_l2_error(ref, geo, operators.l2_project(ref, geo, f), f)
        elif method == "wadg":
            err = operators.global_l2_error(ref, geo, operators.wadg_pseudo_project(ref, geo, f), f)
        else:
            err = float(np.sqrt(np.sum(operators.lsc_projection_error(ref, geo, f) ** 2)))
        hs.append(mesh.h)
        errs.append(err)
    return ConvergenceRecord(hs, errs, label=f"projection-{method}-N{N}")


def kappa_growth_study(omega, N, levels=5):
    """Growth of max_k ||1/J|| * ||J||_{W^{N+1,inf}} on the cosine-warped
    family, 4 * 2^l elements a side at level l, N_geo = N; fitted slope is
    negative for growing constants."""
    if levels < 4:
        raise ValueError("need at least 4 refinement levels")
    hs, ks = [], []
    for l in range(levels):
        mesh = meshgen.warped_arnold_mesh(meshgen.WarpParams(omega, 4 * 2**l), N)
        hs.append(mesh.h)
        ks.append(geometry.kappa_tilde(mesh, N + 1))
    return ConvergenceRecord(hs, ks, label=f"kappa-omega{omega}-N{N}")


def conservation_rate_study(N=2, levels=(1, 2, 3, 4)):
    """Zeroth-moment discrepancy of the weight-adjusted inner product with
    w = J and u = default_exact_fn on nested disk meshes.

    Uses a quadrature much richer than the (N+1)^2-point update rule: on
    exactly that tensor rule any weight is point-equivalent to a Q^N
    polynomial and the discrete operator is exactly conservative, so the
    continuous-operator rate is only visible on finer rules.  N_geo is
    N+1 since one-curved-edge isoparametric Jacobians of degree N stay
    inside Q^N.  Raises ValueError for an empty `levels`.
    """
    if len(levels) < 1:
        raise ValueError(f"need at least 1 refinement level, got {len(levels)}")
    ref = refelem.build_reference_element(N, 4 * N + 6)
    hs, errs = [], []
    for l in levels:
        mesh = meshgen.disk_mesh(l, N + 1)
        geo = geometry.compute_volume_geometry(mesh, ref)
        hs.append(mesh.h)
        errs.append(operators.conservation_moment_error(ref, geo, geo.Jq, default_exact_fn, 0))
    return ConvergenceRecord(hs, errs, label=f"conservation-N{N}")


def wave_convergence_study(meshes, N, config=None, T=1.0, medium=MediumField(),
                           mass_modes=(MassMode.WADG,), dt_check=False):
    """Final-time pressure L2 error of the disk standing mode per mesh, from
    runs at n_outputs = 1.

    Returns {mass_mode: ConvergenceRecord}.  With dt_check=True the coarsest
    level is rerun at half the time step that `run` uses there and the
    relative error change is stored in record.label (must be < 1% for the
    spatial error to dominate).  Raises ValueError for no meshes.
    """
    if len(meshes) < 1:
        raise ValueError(f"need at least 1 refinement level, got {len(meshes)}")
    if config is None:
        config = SolverConfig(N=N)
    out = {}
    for mode in mass_modes:
        cfg = replace(config, N=N, mass_mode=mode)
        diags = [solver.run(mesh, cfg, solver.bessel_initial_condition, T,
                            medium=medium, exact_p=solver.bessel_pressure,
                            n_outputs=1)[1] for mesh in meshes]
        hs = [mesh.h for mesh in meshes]
        errs = [d["l2_error_p"][-1] for d in diags]
        label = f"wave-N{N}-{mode.value}"
        if dt_check:
            _, diag2 = solver.run(meshes[0], cfg, solver.bessel_initial_condition, T,
                                  medium=medium, exact_p=solver.bessel_pressure,
                                  n_outputs=1, dt=0.5 * diags[0]["dt"])
            rel = abs(diag2["l2_error_p"][-1] - errs[0]) / errs[0]
            label += f"-dtcheck{rel:.2e}"
        out[mode] = ConvergenceRecord(hs, errs, label=label)
    return out
