import csv

import numpy as np
import pytest

from wadg import analysis as an
from wadg import cli
from wadg import meshgen as mg
from wadg import solver as sv
from wadg.solver import FluxParams, Formulation, MassMode, MediumField, SolverConfig


class TestConvergenceRecord:
    def test_exact_power_fit(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        rec = an.ConvergenceRecord(h, 3.7 * h**2.5)
        assert rec.fitted_slope == pytest.approx(2.5, abs=1e-12)
        assert rec.fit_residual < 1e-12

    def test_single_level_has_no_slope(self):
        rec = an.ConvergenceRecord([0.5], [1e-3])
        assert np.isnan(rec.fitted_slope)
        assert np.isnan(rec.fit_residual)

    def test_validation(self):
        with pytest.raises(ValueError):
            an.ConvergenceRecord([0.1, 0.2], [1.0, 1.0])
        with pytest.raises(ValueError):
            an.ConvergenceRecord([0.2, 0.1], [1.0, -1.0])

    def test_csv_schema(self, tmp_path):
        rec = an.ConvergenceRecord([0.4, 0.2, 0.1, 0.05], [1, 0.1, 0.01, 0.001])
        path = tmp_path / "r.csv"
        rec.to_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["h", "error", "slope_window_flag"]
        assert len(rows) == 5
        assert [r[2] for r in rows[1:]] == ["0", "1", "1", "1"]


class TestEvolutionMatrix:
    def test_linearity(self, rng):
        m = mg.disk_mesh(0, 2)
        cfg = SolverConfig(N=2, flux=FluxParams(1, 1))
        disc = sv.Discretization(m, cfg)
        A = an.assemble_evolution_matrix(disc)
        x = rng.standard_normal(A.shape[0])
        K, Np = m.K, disc.ref.Np
        direct = sv.rhs_full(x.reshape(3, K, Np), disc).ravel()
        assert np.max(np.abs(A @ x - direct)) < 1e-12 * max(1, np.max(np.abs(direct)))
        y = A @ (2.5 * x)
        assert np.max(np.abs(y - 2.5 * (A @ x))) < 1e-12 * np.max(np.abs(y))

    def test_size_cap(self):
        m = mg.disk_mesh(2, 3)
        with pytest.raises(an.SizeCapExceeded):
            an.assemble_evolution_matrix(sv.Discretization(m, SolverConfig(N=3)), cap=100)

    def test_single_affine_element_skew(self):
        # one element with mirror boundaries, central flux: purely imaginary
        m = mg.uniform_quad_mesh(1)
        cfg = SolverConfig(N=3, formulation=Formulation.StrongWeak,
                           flux=FluxParams(0, 0))
        spec = an.eigenspectrum(an.assemble_evolution_matrix(sv.Discretization(m, cfg)))
        assert spec.max_real_part <= 1e-8 * spec.spectral_radius

    def test_conjugate_pairing(self):
        m = mg.uniform_quad_mesh(2)
        cfg = SolverConfig(N=2, formulation=Formulation.StrongWeak,
                           flux=FluxParams(0, 0))
        spec = an.eigenspectrum(an.assemble_evolution_matrix(sv.Discretization(m, cfg)))
        lam = spec.eigenvalues
        for v in lam[:40]:
            assert np.min(np.abs(lam - np.conj(v))) < 1e-8 * spec.spectral_radius


class TestEvolutionOperator:
    def test_matrix_columns_are_rhs_of_unit_states(self):
        m = mg.disk_mesh(0, 2)
        cfg = SolverConfig(N=2, formulation=Formulation.StrongWeak)
        disc = sv.Discretization(m, cfg)
        A = an.assemble_evolution_matrix(disc)
        assert A.shape == (3 * m.K * disc.ref.Np,) * 2
        z = np.zeros((3, m.K, disc.ref.Np))
        for j in range(A.shape[0]):
            z.flat[j] = 1.0
            assert np.array_equal(A[:, j], sv.rhs_full(z, disc).ravel())
            z.flat[j] = 0.0


class TestLSRKStability:
    def test_amplification_is_one_step(self, rng):
        # one step is R(dt A) q = sum_j a_j (dt A)^j q, A the evolution matrix
        mesh = mg.disk_mesh(0, 2)
        for form in Formulation:
            for mode in MassMode:
                disc = sv.Discretization(mesh, SolverConfig(N=2, formulation=form,
                                                            mass_mode=mode))
                A = an.assemble_evolution_matrix(disc)
                dt = sv.stable_dt(disc)
                q = rng.standard_normal((3, mesh.K, disc.ref.Np))
                v, expect = q.ravel(), np.zeros(q.size)
                for a in sv.STABILITY_POLYNOMIAL:
                    expect += a * v
                    v = dt * (A @ v)
                got = sv.lsrk_step(q, dt, disc).ravel()
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), \
                    (form, mode)

    def test_reach_on_the_axes(self):
        assert an.lsrk_stable_dt([1j, -1j]) == pytest.approx(5.098, abs=5e-4)
        assert an.lsrk_stable_dt([-1.0]) == pytest.approx(8.978, abs=5e-4)
        # the limit scales as 1/|lambda| and the smallest ray limit wins
        assert an.lsrk_stable_dt([-2.0, 10j]) == pytest.approx(
            an.lsrk_stable_dt([1j]) / 10, rel=1e-12)

    def test_limit_is_the_region_boundary(self):
        lam = np.array([-1 + 3j, -0.2 + 1j, -4 + 0.5j, 2j])
        dt = an.lsrk_stable_dt(lam)
        R = np.polynomial.Polynomial(sv.STABILITY_POLYNOMIAL)
        assert np.abs(R(dt * lam)).max() == pytest.approx(1.0, abs=1e-9)
        for s in np.linspace(0.01, 1.0, 100):
            assert np.abs(R(s * dt * lam)).max() <= 1.0 + 1e-12
        assert np.abs(R(1.001 * dt * lam)).max() > 1.0

    def test_zero_and_roundoff_eigenvalues(self):
        assert an.lsrk_stable_dt([0.0]) == float("inf")
        assert an.lsrk_stable_dt([1e-15 + 1j, 0.0]) == an.lsrk_stable_dt([1j])
        assert an.lsrk_stable_dt([1e-15]) == float("inf")


# Small meshes, N = 1..3, both forms, four media and tau in {0, 1, 5}:
# every (medium, tau) pair appears, and each mesh meets each N.  With
# c2 = 0.25 the velocity penalty tau_u, which does not scale with c, sets
# the bound.
CALIBRATION_MEDIA = {
    "c2=1": MediumField(1.0),
    "c2=4": MediumField(4.0),
    "c2=0.25": MediumField(0.25),
    "radial_sine": cli.MEDIA["radial_sine"](),
}
CALIBRATION_CASES = [
    # mesh, N, form, medium, tau
    ("disk", 1, "strong", "c2=1", 0.0),
    ("disk", 2, "strong-weak", "c2=4", 5.0),
    ("disk", 3, "strong", "radial_sine", 1.0),
    ("disk", 3, "strong-weak", "c2=4", 1.0),
    ("arnold", 1, "strong-weak", "c2=4", 0.0),
    ("arnold", 2, "strong", "radial_sine", 5.0),
    ("arnold", 3, "strong-weak", "c2=1", 1.0),
    ("random", 1, "strong", "radial_sine", 0.0),
    ("random", 2, "strong-weak", "c2=1", 5.0),
    ("random", 3, "strong", "c2=4", 1.0),
    ("uniform", 1, "strong-weak", "c2=4", 1.0),
    ("uniform", 2, "strong", "c2=1", 0.0),
    ("uniform", 3, "strong-weak", "radial_sine", 5.0),
    ("disk", 2, "strong", "c2=0.25", 1.0),
    ("arnold", 3, "strong", "c2=0.25", 5.0),
    ("random", 1, "strong-weak", "c2=0.25", 0.0),
    ("uniform", 2, "strong-weak", "c2=0.25", 5.0),
]


def calibration_mesh(kind, N):
    if kind == "disk":
        return mg.disk_mesh(1 if N == 1 else 0, N)
    if kind == "arnold":
        return mg.arnold_mesh(1)
    if kind == "random":
        return mg.random_perturbed_mesh(4, 1, 0.2, 0)
    return mg.uniform_quad_mesh(4)


class TestStableDtCalibration:
    @pytest.mark.parametrize("kind, N, form, medium, tau", CALIBRATION_CASES)
    def test_default_dt_within_spectral_limit(self, kind, N, form, medium, tau):
        mesh = calibration_mesh(kind, N)
        cfg = SolverConfig(N=N, formulation=Formulation(form), flux=FluxParams(tau, tau))
        medium = CALIBRATION_MEDIA[medium]
        disc = sv.Discretization(mesh, cfg, medium)
        A = an.assemble_evolution_matrix(disc, cap=1200)
        limit = an.lsrk_stable_dt(an.eigenspectrum(A).eigenvalues)
        dt = sv.stable_dt(disc)
        assert 0.3 * limit <= dt <= 0.8 * limit


class TestEigenspectrum:
    def test_zero_matrix(self):
        spec = an.eigenspectrum(np.zeros((12, 12)))
        assert np.max(np.abs(spec.eigenvalues)) == 0.0

    def test_failure_on_nonfinite(self):
        with pytest.raises(an.EigenSolveFailure):
            an.eigenspectrum(np.full((4, 4), np.nan))

    def test_sorted_by_magnitude(self):
        spec = an.eigenspectrum(np.diag([1.0, -3.0, 2.0]))
        assert np.abs(spec.eigenvalues[0]) == pytest.approx(3.0)
        assert spec.max_real_part == pytest.approx(2.0)

    def test_csv(self, tmp_path):
        spec = an.eigenspectrum(np.diag([1.0, -2.0]))
        path = tmp_path / "s.csv"
        spec.to_csv(path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["re", "im"]
        assert len(rows) == 3

    def test_dissipative_flux_spectrum(self):
        m = mg.disk_mesh(0, 3)
        cfg = SolverConfig(N=3, formulation=Formulation.StrongWeak,
                           flux=FluxParams(1, 1))
        spec = an.eigenspectrum(an.assemble_evolution_matrix(sv.Discretization(m, cfg)))
        assert spec.max_real_part <= 1e-8 * spec.spectral_radius
        assert spec.eigenvalues.real.min() < -1e-6 * spec.spectral_radius


class TestStudies:
    def test_projection_study_requires_levels(self):
        meshes = [mg.arnold_mesh(l) for l in range(3)]
        with pytest.raises(ValueError):
            an.projection_convergence_study(meshes, 3, "l2")

    def test_projection_study_unknown_method(self):
        meshes = [mg.arnold_mesh(l) for l in range(4)]
        with pytest.raises(ValueError):
            an.projection_convergence_study(meshes, 3, "bogus")

    def test_affine_family_methods_coincide(self):
        meshes = mg.mesh_family("uniform", 4, N_geo=1, K1D=2)
        recs = {m: an.projection_convergence_study(meshes, 2, m)
                for m in an.PROJECTION_METHODS}
        for m in an.PROJECTION_METHODS:
            assert recs[m].fitted_slope == pytest.approx(3.0, abs=0.25)
        for a, b in zip(recs["l2"].errors, recs["wadg"].errors):
            assert a == pytest.approx(b, rel=1e-9)
        for a, b in zip(recs["l2"].errors, recs["lsc"].errors):
            assert a == pytest.approx(b, rel=1e-9)

    def test_kappa_study_affine_flat(self):
        # omega = 0 keeps the family affine: kappa == 1, slope 0
        rec = an.kappa_growth_study(0.0, 2, levels=4)
        assert np.max(np.abs(rec.errors - 1.0)) < 1e-10
        assert abs(rec.fitted_slope) < 1e-8

    def test_deterministic_rerun(self):
        meshes = [mg.arnold_mesh(l) for l in range(4)]
        a = an.projection_convergence_study(meshes, 2, "wadg")
        b = an.projection_convergence_study(meshes, 2, "wadg")
        assert np.array_equal(a.errors, b.errors)

    def test_wave_study_dt_check(self):
        meshes = [mg.disk_mesh(l, 2) for l in range(4)]
        recs = an.wave_convergence_study(meshes, 2, dt_check=True)
        rec = recs[MassMode.WADG]
        assert len(rec.h) == 4
        rel = float(rec.label.split("dtcheck")[-1])
        assert rel < 0.01
        # the check reruns the coarsest level at half the step its run took
        cfg = SolverConfig(N=2)
        _, ref = sv.run(meshes[0], cfg, sv.bessel_initial_condition, 1.0,
                        exact_p=sv.bessel_pressure, n_outputs=1)
        _, diag = sv.run(meshes[0], cfg, sv.bessel_initial_condition, 1.0,
                         exact_p=sv.bessel_pressure, n_outputs=1, dt=0.5 * ref["dt"])
        e0 = rec.errors[0]
        assert e0 == ref["l2_error_p"][-1]
        assert rec.label == f"wave-N2-wadg-dtcheck{abs(diag['l2_error_p'][-1] - e0) / e0:.2e}"
