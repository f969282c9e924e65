import numpy as np
import pytest
from fractions import Fraction

from wadg import geometry as geom
from wadg import refelem as rf
from wadg import solver as sv


def fit_slope(h, e, window=3):
    h, e = np.asarray(h, dtype=float), np.asarray(e, dtype=float)
    return float(np.polyfit(np.log(h[-window:]), np.log(e[-window:]), 1)[0])


def pairwise_slopes(h, e):
    h, e = np.asarray(h, dtype=float), np.asarray(e, dtype=float)
    return np.diff(np.log(e)) / np.diff(np.log(h))


def exact_monomial_integral(a, b):
    """Exact integral of r^a s^b over [-1, 1]^2, as a float: the product of
    the two 1D integrals in rational arithmetic."""
    ia = Fraction(2, a + 1) if a % 2 == 0 else Fraction(0)
    ib = Fraction(2, b + 1) if b % 2 == 0 else Fraction(0)
    return float(ia * ib)


def face_points(mesh, ref):
    """Physical coordinates (x, y) of ref's face quadrature points on every
    element of mesh, each (K, n_faces * nfq) in the layout of the face
    geometry."""
    E = rf.nodal_eval_matrix(mesh.N_geo, ref.face_quad_points)
    return mesh.elem_map_nodes[..., 0] @ E.T, mesh.elem_map_nodes[..., 1] @ E.T


def clear_reference_caches():
    """Empty the process-wide caches of the reference layer, every functools
    cache in refelem and geometry, so the next build takes the cold path
    whatever the tests before it built."""
    for mod in (rf, geom):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()


def premultiplied_rhs(y, disc):
    """The Mhat^-1-premultiplied right-hand side of the (3, K, Np) state y
    as a new array: sv.rhs_pre_mass with a finish that copies each block."""
    out = np.empty_like(y)
    sv.rhs_pre_mass(y, disc, lambda blk, rhs: np.copyto(out[:, blk], rhs))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
