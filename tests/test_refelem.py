import os
import subprocess
import sys
from math import factorial, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import wadg
from wadg import refelem as rf

from conftest import exact_monomial_integral

# Quadrilateral cases keep the ids they carried while the suite also covered
# triangles, so each case keeps one name across the history of the suite.
QUAD = "ElementShape.Quadrilateral"


def quad_ids(values):
    return [f"{v}-{QUAD}" for v in values]


class TestGaussLegendre:
    def test_midpoint_rule(self):
        r = rf.gauss_legendre_1d(1)
        assert r.points == pytest.approx([0.0])
        assert r.weights == pytest.approx([2.0])
        assert r.exactness_degree == 1

    def test_two_point_rule(self):
        r = rf.gauss_legendre_1d(2)
        assert np.sort(r.points) == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert r.weights == pytest.approx([1.0, 1.0])

    def test_x8_integral(self):
        # int_-1^1 x^8 dx = 2/9 needs 5 points (degree 9 rule)
        r = rf.gauss_legendre_1d(5)
        assert np.sum(r.weights * r.points**8) == pytest.approx(2 / 9, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_symmetry_and_positivity(self, n):
        r = rf.gauss_legendre_1d(n)
        assert np.all(r.weights > 0)
        assert np.max(np.abs(np.sort(r.points) + np.sort(r.points)[::-1])) < 1e-14

    def test_invalid(self):
        with pytest.raises(ValueError):
            rf.gauss_legendre_1d(0)


class TestGaussLobatto:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_rule(self, n):
        r = rf.gauss_lobatto_1d(n)
        x = r.points
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0) and np.all(r.weights > 0)
        assert np.max(np.abs(x + x[::-1])) <= 2.3e-16
        assert r.exactness_degree == 2 * n - 3
        for k in range(2 * n - 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(r.weights @ x**k - exact) < 1e-14, k
        # the interior points are the roots of the Jacobi polynomial
        # P^(1,1)_{n-2}, i.e. of P'_{n-1}
        if n > 2:
            roots = np.sort(special.roots_jacobi(n - 2, 1.0, 1.0)[0])
            assert np.max(np.abs(x[1:-1] - roots)) <= 4.5e-16


class TestBuildQuadrature:
    def test_quad_degree3_is_tensor_two_point(self):
        q = rf.build_quadrature(3)
        assert q.n_points == 4
        assert q.weights.sum() == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 8, 11],
                             ids=quad_ids([0, 1, 2, 3, 5, 8, 11]))
    def test_exactness_and_positivity(self, degree):
        q = rf.build_quadrature(degree)
        assert q.exactness_degree >= degree
        assert np.all(q.weights > 0)
        assert q.weights.sum() == pytest.approx(4.0, abs=1e-12)
        degs = range(degree + 1)
        for a, b in [(a, b) for a in degs for b in degs]:
            num = np.sum(q.weights * q.points[:, 0] ** a * q.points[:, 1] ** b)
            ex = exact_monomial_integral(a, b)
            assert abs(num - ex) <= 1e-12 * max(1.0, abs(ex)), (a, b)


class TestModalBasis:
    def test_constant_mode_quad(self):
        V = rf.modal_deriv_eval(2, np.array([[0.3, -0.2]]))
        assert V[0, 0] == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("N", [1, 3, 5], ids=quad_ids([1, 3, 5]))
    def test_gram_identity(self, N):
        q = rf.build_quadrature(2 * N)
        V = rf.modal_deriv_eval(N, q.points)
        G = V.T @ (q.weights[:, None] * V)
        assert np.max(np.abs(G - np.eye(V.shape[1]))) < 1e-10

    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_derivatives_above_degree_vanish_exactly(self, N):
        pts = np.array([[0.1, -0.3], [-1.0, 1.0], [0.7, 0.9]])
        for a, b in [(N + 1, 0), (0, N + 1), (N + 1, 2), (N + 2, N + 3)]:
            assert not np.any(rf.modal_deriv_eval(N, pts, a, b)), (a, b)

    @pytest.mark.parametrize("N", [1, 2, 4, 8])
    def test_top_derivative_of_top_mode(self, N):
        # d^N/dr^N of sqrt(N + 1/2) P_N is sqrt(N + 1/2) (2N)! / (2^N N!),
        # a constant; mode (N, 0) carries the factor P_0 = 1/sqrt(2) in s
        pts = np.array([[0.1, -0.3], [-1.0, 1.0], [0.7, 0.9]])
        V = rf.modal_deriv_eval(N, pts, N, 0)
        top = sqrt(N + 0.5) * factorial(2 * N) / (2**N * factorial(N)) / sqrt(2)
        assert V[:, N * (N + 1)] == pytest.approx(np.full(3, top), rel=1e-14)

    @pytest.mark.parametrize("N", [4], ids=[QUAD])
    def test_gradient_matches_finite_differences(self, N):
        pts = np.array([[0.1, -0.3], [-0.5, -0.2], [0.0, -0.9], [-0.8, 0.5]])
        h = 1e-6
        Vr, Vs = rf.modal_deriv_eval(N, pts, 1, 0), rf.modal_deriv_eval(N, pts, 0, 1)
        Vr_fd = (rf.modal_deriv_eval(N, pts + [h, 0])
                 - rf.modal_deriv_eval(N, pts - [h, 0])) / (2 * h)
        Vs_fd = (rf.modal_deriv_eval(N, pts + [0, h])
                 - rf.modal_deriv_eval(N, pts - [0, h])) / (2 * h)
        assert np.max(np.abs(Vr - Vr_fd)) < 1e-8
        assert np.max(np.abs(Vs - Vs_fd)) < 1e-8


class TestReferenceElement:
    def test_n1_quad_mass_sum(self):
        # sum_ij Mhat_ij = int (sum_j l_j)^2-free identity: int 1 = 4
        ref = rf.build_reference_element(1)
        assert ref.nodes.shape == (4, 2)
        # the solution nodes are the 2x2 Gauss points, so Mhat is diagonal
        assert np.array_equal(ref.nodes, rf.build_quadrature(3).points)
        assert np.max(np.abs(np.abs(ref.nodes) - 1 / np.sqrt(3))) < 1e-15
        assert np.max(np.abs(ref.Mhat - np.diag(np.diag(ref.Mhat)))) < 1e-15
        assert ref.Mhat.sum() == pytest.approx(4.0, abs=1e-12)

    def test_projection_reproduces_interpolation(self):
        ref = rf.build_reference_element(4, 9)
        assert np.max(np.abs(ref.Pq @ ref.Vq - np.eye(ref.Np))) <= 1e-10

    @pytest.mark.parametrize("N", [1, 2, 4, 8], ids=quad_ids([1, 2, 4, 8]))
    def test_invariants(self, N):
        ref = rf.build_reference_element(N)
        assert ref.Np == rf.basis_dimension(N)
        assert np.isfinite(ref.cond_nodal) and ref.cond_nodal < 1e12
        assert np.max(np.abs(ref.Mhat - ref.Mhat.T)) < 1e-14
        np.linalg.cholesky(ref.Mhat)  # SPD
        assert np.max(np.abs(ref.Mhat_inv @ ref.Mhat - np.eye(ref.Np))) < 1e-10
        assert np.max(np.abs(ref.Pq @ ref.Vq - np.eye(ref.Np))) < 1e-10

    @pytest.mark.parametrize("N", [4], ids=[QUAD])
    def test_interpolation_reproduction(self, N, rng):
        ref = rf.build_reference_element(N)
        coeffs = rng.standard_normal(ref.Np)
        nodal = rf.modal_deriv_eval(N, ref.nodes) @ coeffs
        direct = rf.modal_deriv_eval(N, ref.volume_quad.points) @ coeffs
        assert np.max(np.abs(ref.Vq @ nodal - direct)) < 1e-10

    @pytest.mark.parametrize("N", [4], ids=[QUAD])
    def test_derivative_consistency(self, N, rng):
        ref = rf.build_reference_element(N)
        coeffs = rng.standard_normal(ref.Np)
        nodal = rf.modal_deriv_eval(N, ref.nodes) @ coeffs
        h = 1e-6
        p = ref.volume_quad.points
        fr = (rf.modal_deriv_eval(N, p + [h, 0])
              - rf.modal_deriv_eval(N, p - [h, 0])) @ coeffs / (2 * h)
        fs = (rf.modal_deriv_eval(N, p + [0, h])
              - rf.modal_deriv_eval(N, p - [0, h])) @ coeffs / (2 * h)
        assert np.max(np.abs(ref.Drq @ nodal - fr)) < 1e-6
        assert np.max(np.abs(ref.Dsq @ nodal - fs)) < 1e-6

    @pytest.mark.parametrize("N", [3], ids=[QUAD])
    def test_face_nodes_lie_on_faces(self, N):
        # each face holds N + 1 of the tensor GLL nodes, spanning it end to end
        nodes = rf.interpolation_nodes(N)
        assert len(rf.FACES) == rf.N_FACES == 4
        for mid, dvec in rf.FACES:
            rel = nodes - mid
            perp = rel[:, 0] * dvec[1] - rel[:, 1] * dvec[0]
            on = np.abs(perp) < 1e-12
            assert on.sum() == N + 1
            xi = np.sort(rel[on] @ dvec)
            assert xi[0] == pytest.approx(-1.0, abs=1e-14)
            assert xi[-1] == pytest.approx(1.0, abs=1e-14)

    def test_singular_nodal_basis(self):
        nodes = rf.interpolation_nodes(2).copy()
        nodes[1] = nodes[0]  # duplicate -> singular Vandermonde
        with pytest.raises(rf.SingularNodalBasis):
            rf.nodal_vandermonde(2, nodes)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            rf.build_reference_element(0)


class TestReferenceCache:
    def test_degrees_on_one_gauss_rule_share_one_element(self):
        # at N = 3, degrees 8 and 9 land on the 5-point Gauss rule, and the
        # default 2N + 1 and the floor 2N on the 4-point one
        ref = rf.build_reference_element(3, 9)
        assert rf.build_reference_element(3, 8) is ref
        assert rf.build_reference_element(3, 10) is not ref
        assert rf.build_reference_element(3) is rf.build_reference_element(3, 2)
        assert rf.build_reference_element(3).Nq == 16

    def test_cached_arrays_are_read_only(self):
        ref = rf.build_reference_element(2)
        with pytest.raises(ValueError):
            ref.Vq[0, 0] = 1.0
        arrays = [v for v in vars(ref).values() if isinstance(v, np.ndarray)]
        arrays += [ref.volume_quad.points, ref.volume_quad.weights,
                   ref.face_quad_1d.points, rf.gauss_lobatto_1d(4).points,
                   rf.nodal_eval_matrix(2, ref.face_quad_points),
                   rf.nodal_eval_matrix(2, ref.volume_quad.points, 1, 0),
                   rf.nodal_eval_matrix(2, ref.volume_quad.points, 0, 1)]
        assert len(arrays) == 18 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(AttributeError):
            ref.Vq = np.zeros_like(ref.Vq)

    def test_mapping_matrices_are_keyed_by_point_values(self):
        pts = rf.build_quadrature(5).points
        E = rf.nodal_eval_matrix(2, pts)
        assert rf.nodal_eval_matrix(2, pts.copy()) is E
        assert rf.nodal_eval_matrix(3, pts) is not E
        moved = pts.copy()
        moved[0, 0] = 0.5
        assert not np.array_equal(rf.nodal_eval_matrix(2, moved)[0], E[0])


def test_run_imports_no_scipy_linalg():
    """Mesh generation, set-up and stepping in a fresh interpreter leave
    scipy.linalg unimported: its cold import costs tens of milliseconds."""
    src = str(Path(wadg.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from wadg import meshgen, solver\n"
        "mesh = meshgen.disk_mesh(1, 3)\n"
        "solver.run(mesh, solver.SolverConfig(N=3), solver.bessel_initial_condition,\n"
        "           0.01, exact_p=solver.bessel_pressure)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
