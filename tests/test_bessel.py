import numpy as np
import pytest

from wadg import solver as sv


def bessel_of_exact_solution(nu, x):
    """J_nu(x) as the disk standing mode evaluates it.

    At t = 0 the pressure is J0(lam r); at lam t = pi/2 the radial velocity
    along the positive x-axis is J1(lam r). Taking r = x / lam reads the
    Bessel functions back off the exact solution at the argument x.
    """
    lam = sv.DISK_LAMBDA
    r = np.asarray(x, dtype=float) / lam
    if nu == 0:
        return sv.bessel_pressure(r, np.zeros_like(r), 0.0, lam=lam)
    u1, _ = sv.bessel_velocity(r, np.zeros_like(r), 0.5 * np.pi / lam, lam=lam)
    return u1


class TestAgainstMpmath:
    @pytest.mark.parametrize("nu,fn", [(0, "j0"), (1, "j1")])
    def test_accuracy_working_interval(self, nu, fn):
        mpmath = pytest.importorskip("mpmath")
        xs = np.linspace(0.0, 12.0, 241)
        vals = bessel_of_exact_solution(nu, xs)
        worst = max(abs(v - float(mpmath.besselj(nu, float(x)))) for x, v in zip(xs, vals))
        assert worst < 1e-10, f"{fn}: worst error {worst:.2e}"
