"""Time-to-solution benchmark of the WADG solver on the unit-disk Bessel
standing mode.

Run from the repository root:

    python3 perfbench/run.py --workload disk3-N6-strong-wadg --seed 0 \\
        --seconds 35 --trace 0

Each workload builds its mesh with ``meshgen.disk_mesh`` and calls
``solver.run`` to the workload's end time with constant wavespeed and
penalty 1.  ``--trace 0`` times the unmodified program and reports the
end-to-end metrics; ``--trace 1`` alternates untraced runs with runs whose
layer functions are wrapped from outside (see tracer.py) and reports the
per-layer metrics.  Every run's output is checked; the last stdout line is
one JSON object with keys correct, attempted, failed and metrics.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# J0 zeros the seed chooses from; the mode's eigenvalue is the wavenumber.
MODES = (2, 3, 4)
SETUP_SHARE = 0.2       # share of --seconds spent on repeated set-up
MIN_REPEATS = 3
ENERGY_RTOL = 1e-12     # round-off allowance on energy growth, relative to E(0)


@dataclass(frozen=True)
class Workload:
    name: str
    level: int              # disk_mesh level; K = 12 * 4**level
    N: int                  # polynomial degree, also the geometry degree
    formulation: str
    mass_mode: str
    T: float
    ref_error: dict         # final pressure L2 error per mode at this benchmark's baseline
    target: dict            # stated accuracy per mode; a run above it fails


WORKLOADS = {w.name: w for w in (
    # High order, few elements: dense volume GEMMs dominate the step.
    Workload("disk3-N6-strong-wadg", 3, 6, "strong", "wadg", 0.012,
             ref_error={2: 4.355061405323343e-12, 3: 6.010907384494663e-11,
                        4: 4.62519167508997e-10},
             target={2: 1e-11, 3: 1e-10, 4: 1e-9}),
    # Low order, many elements: tiny GEMMs; trace gather, elementwise flux
    # and RK allocation take a large share; largest set-up share.
    Workload("disk5-N2-strong-wadg", 5, 2, "strong", "wadg", 0.005,
             ref_error={2: 9.992886897484667e-07, 3: 3.0311715587777434e-06,
                        4: 6.592933062757734e-06},
             target={2: 2e-6, 3: 6e-6, 4: 1.3e-5}),
    # Strong-weak volume branch and exact curved mass (dense per-element
    # inverses); never calls the WADG kernel, so a WADG-only change must
    # leave it unchanged.
    Workload("disk3-N4-sw-exact", 3, 4, "strong-weak", "exact", 0.04,
             ref_error={2: 2.084964783291509e-08, 3: 1.4727288016526093e-07,
                        4: 6.075865026852365e-07},
             target={2: 5e-8, 3: 3e-7, 4: 1.2e-6}),
)}


def mode_for_seed(seed):
    return MODES[seed % len(MODES)]


def mode_lambda(mode):
    from scipy.special import jn_zeros
    from wadg import solver
    return solver.DISK_LAMBDA if mode == 2 else float(jn_zeros(0, mode)[-1])


def standing_mode(lam):
    """Initial condition and exact pressure of the J0(lam r) standing mode."""
    import numpy as np
    from wadg import solver

    def initial(x, y):
        p = solver.bessel_pressure(x, y, 0.0, lam=lam)
        return p, np.zeros_like(p), np.zeros_like(p)

    def exact_p(x, y, t):
        return solver.bessel_pressure(x, y, t, lam=lam)

    return initial, exact_p


def solver_config(wl):
    from wadg import solver
    return solver.SolverConfig(N=wl.N, formulation=solver.Formulation(wl.formulation),
                               mass_mode=solver.MassMode(wl.mass_mode))


def output_problems(state, diag, target):
    """Reasons the run's output is wrong; empty when every check passes."""
    import numpy as np
    problems = []
    if not all(np.all(np.isfinite(a)) for a in (state.p, state.u1, state.u2)):
        problems.append("non-finite field values")
    if not all(np.all(np.isfinite(a)) for a in diag.values()):
        problems.append("non-finite diagnostics")
    E = diag["energy"]
    if np.any(np.diff(E) > ENERGY_RTOL * E[0]):
        problems.append(f"energy grew by {np.max(np.diff(E)) / E[0]:.3e} of E(0)")
    err = diag["l2_error_p"][-1]
    if not err <= target:
        problems.append(f"final l2_error_p {err:.6e} above target {target:.1e}")
    return problems


class Runner:
    """Runs one workload repeatedly and keeps the outcome of every run."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.mode = mode_for_seed(seed)
        self.lam = mode_lambda(self.mode)
        self.initial, self.exact_p = standing_mode(self.lam)
        self.config = solver_config(wl)
        self.target = wl.target[self.mode]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.final_errors = []

    def solve(self, T, tracer=None):
        """Wall seconds for disk_mesh plus solver.run to T, checking output."""
        from wadg import meshgen, solver
        self.attempted += 1
        installed = tracer.installed() if tracer else contextlib.nullcontext()
        root = tracer.span("workload") if tracer else contextlib.nullcontext()
        try:
            with installed:
                t0 = time.perf_counter()
                with root:
                    mesh = meshgen.disk_mesh(self.wl.level, self.wl.N)
                    state, diag = solver.run(mesh, self.config, self.initial, T,
                                             exact_p=self.exact_p)
                wall = time.perf_counter() - t0
        except solver.BlowUp as exc:
            self.failed += 1
            self.problems.append(f"BlowUp: {exc}")
            return time.perf_counter() - t0
        problems = output_problems(state, diag, self.target)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if T > 0:
            self.final_errors.append(float(diag["l2_error_p"][-1]))
        return wall


def measure_end_to_end(runner, seconds):
    start = time.perf_counter()
    setup = []
    while len(setup) < MIN_REPEATS or time.perf_counter() - start < SETUP_SHARE * seconds:
        setup.append(runner.solve(0.0))
    full = []
    while len(full) < MIN_REPEATS or time.perf_counter() - start < seconds:
        full.append(runner.solve(runner.wl.T))
    err = max(runner.final_errors, default=sys.float_info.max)
    metrics = {
        "run_s": (statistics.median(full), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "l2_error_p_ratio": (err / runner.wl.ref_error[runner.mode], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {"setup_s": setup, "run_s": full, "l2_error_p": err}
    return metrics, raw


def rhs_pre_mass_flops(disc):
    """GEMM flops of one rhs_pre_mass call, computed from the reference
    operator shapes and K (not measured)."""
    from wadg import solver
    ref, K = disc.ref, disc.mesh.K
    vol = 2 * K * ref.Np * ref.Nq          # one (K, Np) x (Np, Nq) product
    face = 2 * K * ref.Np * ref.Vfq.shape[0]
    if disc.config.formulation is solver.Formulation.Strong:
        volume = 9 * vol    # grad p: 2, div u: 4, projections: 3
    else:
        volume = 8 * vol + 2 * K * ref.Np ** 2   # grad p 2, proj 2, interp u 2, weak div 2, Mhat^-1
    return volume + 6 * face                      # 3 face traces, 3 lifts


def dgemm_gflop_per_s(K, Np, Nq, seconds=0.3):
    """Median rate of a (K, Np) x (Np, Nq) product, the volume kernel's shape."""
    import numpy as np
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((K, Np)), rng.standard_normal((Np, Nq))
    times = []
    start = time.perf_counter()
    while len(times) < 20 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter_ns()
        a @ b
        times.append(time.perf_counter_ns() - t0)
    return 2 * K * Np * Nq / statistics.median(times)


def layer_metrics(stats, ndof, flops):
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_dof(name, key="ns"):
        calls = get(name, "calls")
        return get(name, key) / calls / ndof if calls else 0.0

    root = stats["workload"]
    m = {
        "solver.lsrk_step.calls": (get("solver.lsrk_step", "calls"), "count"),
        "solver.lsrk_step.self_ns_per_dof": (per_dof("solver.lsrk_step", "self_ns"), "ns/dof"),
        "solver.rhs_pre_mass.calls": (get("solver.rhs_pre_mass", "calls"), "count"),
        "solver.rhs_pre_mass.self_ns_per_dof": (per_dof("solver.rhs_pre_mass", "self_ns"), "ns/dof"),
        "solver.rhs_pre_mass.gflop_per_s": (
            flops * get("solver.rhs_pre_mass", "calls") / get("solver.rhs_pre_mass", "ns"), "GFLOP/s"),
        "solver.face_traces.calls": (get("solver.face_traces", "calls"), "count"),
        "solver.face_traces.ns_per_dof": (per_dof("solver.face_traces"), "ns/dof"),
        "operators.apply_weight_adjusted_inverse.calls": (
            get("operators.apply_weight_adjusted_inverse", "calls"), "count"),
        "operators.apply_weight_adjusted_inverse.ns_per_dof": (
            per_dof("operators.apply_weight_adjusted_inverse"), "ns/dof"),
        "solver.apply_mass_inverse.self_ns_per_dof": (
            per_dof("solver.apply_mass_inverse", "self_ns"), "ns/dof"),
        "geometry.compute_geometric_data.calls": (get("geometry.compute_geometric_data", "calls"), "count"),
        "refelem.build_reference_element.calls": (get("refelem.build_reference_element", "calls"), "count"),
        "operators.weighted_mass_matrix.calls": (get("operators.weighted_mass_matrix", "calls"), "count"),
        "trace.accounted_frac": (1.0 - root["self_ns"] / root["ns"], "ratio"),
    }
    for name in ("solver.energy", "operators.global_l2_error", "meshgen.disk_mesh",
                 "solver.Discretization", "operators.l2_project", "solver.stable_dt",
                 "geometry.compute_geometric_data", "refelem.build_reference_element"):
        m[name + ".s"] = (get(name, "ns") * 1e-9, "s")
    return m


def measure_layers(runner, seconds):
    from tracer import Tracer, span_stats
    from wadg import meshgen, solver
    wl = runner.wl
    disc = solver.Discretization(meshgen.disk_mesh(wl.level, wl.N), runner.config)
    ref, K = disc.ref, disc.mesh.K
    ndof = 3 * K * ref.Np
    flops = rhs_pre_mass_flops(disc)
    machine = dgemm_gflop_per_s(K, ref.Np, ref.Nq)
    del disc

    start = time.perf_counter()
    untraced, traced, per_run, steps_ns = [], [], [], []
    spans = []
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        untraced.append(runner.solve(wl.T))
        tracer = Tracer()
        traced.append(runner.solve(wl.T, tracer=tracer))
        stats = span_stats(tracer.spans)
        per_run.append(layer_metrics(stats, ndof, flops))
        steps_ns.extend(stats.get("solver.lsrk_step", {}).get("durations", []))
        spans = tracer.spans

    metrics = {name: (statistics.median(r[name][0] for r in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    deciles = statistics.quantiles([ns * 1e-6 for ns in steps_ns], n=10, method="inclusive")
    metrics.update({
        "solver.lsrk_step.samples": (len(steps_ns), "count"),
        "solver.lsrk_step.ms_p50": (deciles[4], "ms"),
        "solver.lsrk_step.ms_p90": (deciles[8], "ms"),
        "solver.rhs_pre_mass.gflop_per_call": (flops * 1e-9, "GFLOP"),
        "machine.dgemm_gflop_per_s": (machine, "GFLOP/s"),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "ratio"),
    })
    raw = {"untraced_s": untraced, "traced_s": traced, "ndof": ndof,
           "gemm_flops_per_rhs_pre_mass": flops, "spans": spans}
    return metrics, raw


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """Commit of the checkout read from .git, or None outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(wl, seed, seconds, trace):
    """Measure one workload; returns (result, record) where result is the
    object printed last and record holds the raw figures written to disk."""
    runner = Runner(wl, seed)
    measure = measure_layers if trace else measure_end_to_end
    metrics, raw = measure(runner, seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": wl.name, "seed": seed, "mode": runner.mode, "lambda": runner.lam,
              "T": wl.T, "problems": runner.problems, "environment": environment(), **raw}
    return result, record


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wadg" / "solver.py").is_file():
        print(f"error: solver sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}))
    summary = {k: v for k, v in record.items() if k != "spans"}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
