"""Command-line interface: mesh generation, convergence studies, operator
spectra, and single solver runs.

Every command writes its artifacts into a run directory (--out-dir,
default ./wadg-out): the resolved configuration (config.echo), CSV result
files, and log.txt.  Exit codes: 0 success, 1 numerical failure
(instability, nonpositive Jacobian, eigensolver failure), 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import tomllib
from pathlib import Path

import numpy as np

from . import analysis, geometry, meshgen, solver
from .solver import (BlowUp, ConfigError, FluxParams, Formulation, MassMode,
                     MediumField, SolverConfig)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

MEDIA = {
    "constant": lambda: MediumField(1.0),
    # c^2 = 1 + 0.5 sin(pi r^2): smooth, also at the disk centre
    "radial_sine": lambda: MediumField(lambda x, y: 1.0 + 0.5 * np.sin(np.pi * (x**2 + y**2))),
}


class _RunDir:
    def __init__(self, path, args):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._log = []
        echo = {k: v for k, v in vars(args).items() if k != "func"}
        (self.path / "config.echo").write_text(json.dumps(echo, indent=2, default=str))

    def log(self, msg):
        print(msg)
        self._log.append(msg)

    def close(self):
        (self.path / "log.txt").write_text("\n".join(self._log) + "\n")


MESH_SPECS = ("uniform<K1D>, arnold<level>, disk<level>, warped<omega>x<K1D> "
              "or the path of a mesh file")
_FAMILIES = {"uniform": (2, meshgen.uniform_quad_mesh), "arnold": (0, meshgen.arnold_mesh),
             "disk": (0, meshgen.disk_mesh)}


def _parse_mesh_spec(spec, N_geo):
    """A mesh from one of MESH_SPECS; a family without its integer takes
    the default 2 (uniform) or 0 (arnold, disk)."""
    if N_geo < 1:
        raise ConfigError(f"N_geo must be >= 1, got {N_geo}")
    if m := re.fullmatch(r"(uniform|arnold|disk)(-?\d*)", spec):
        default, build = _FAMILIES[m[1]]
        return build(int(m[2] or default), N_geo=N_geo)
    if m := re.fullmatch(r"warped(\d+\.?\d*|\.\d+)x(\d+)", spec):
        return meshgen.warped_arnold_mesh(meshgen.WarpParams(float(m[1]), int(m[2])), N_geo)
    path = Path(spec)
    if path.exists():
        return meshgen.load_mesh(path)
    raise ConfigError(f"unrecognized mesh spec {spec!r}; expected {MESH_SPECS}")


def _solver_config(values):
    """SolverConfig from resolved option values: parsed flags or the keys of
    a config file; keys a config file leaves out take these defaults."""
    return SolverConfig(
        N=values.get("N", 3),
        formulation=Formulation(values.get("formulation", "strong")),
        mass_mode=MassMode(values.get("mass_mode", "wadg")),
        flux=FluxParams(values.get("tau_p", 1.0), values.get("tau_u", 1.0)),
        cfl=values.get("cfl", SolverConfig.cfl))


_REAL = (int, float)
# what each key of a run config file accepts: value types, or a list of
# choices; a bool is not a number
_CONFIG_KEYS = {
    "N": int, "N_geo": int, "tau_p": _REAL, "tau_u": _REAL, "cfl": _REAL,
    "mesh": str, "T": _REAL, "output_interval": _REAL,
    "formulation": [f.value for f in Formulation], "mass_mode": [m.value for m in MassMode],
    "medium": sorted(MEDIA)}


def _check_config(doc):
    """Raise ConfigError, naming the key, for an unknown key or a bad value."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must hold a JSON or TOML object, got a {type(doc).__name__!r}")
    if unknown := sorted(set(doc) - set(_CONFIG_KEYS)):
        raise ConfigError(f"unknown config keys: {unknown}")
    for key, value in doc.items():
        want = _CONFIG_KEYS[key]
        if isinstance(want, list):
            if not (isinstance(value, str) and value in want):
                raise ConfigError(f"config key {key!r} must be one of {want}, got {value!r}")
            continue
        types = want if isinstance(want, tuple) else (want,)
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            names = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"config key {key!r} must be {names}, got {value!r}")


def _order(flag, value):
    """The value of the polynomial-order flag `flag`, checked >= 1."""
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _mapping_order(args):
    """--N-geo, defaulting to --N, with both checked before any mesh is
    built."""
    N = _order("--N", args.N)
    return _order("--N-geo", N if args.N_geo is None else args.N_geo)


# ---------------------------------------------------------------------------
# Commands

def cmd_mesh(args, rd):
    if args.level < 0:
        raise ConfigError(f"mesh level must be >= 0, got {args.level}")
    mesh = meshgen.mesh_family(args.family, args.level + 1, N_geo=_order("--N-geo", args.N_geo),
                               omega=args.omega, amplitude=args.amplitude,
                               seed=args.seed)[-1]
    out = rd.path / (args.out or f"{args.family}{args.level}.json")
    meshgen.save_mesh(mesh, out)
    rd.log(f"wrote {out} (K={mesh.K}, h={mesh.h:.5g})")
    return EXIT_OK


def cmd_project_convergence(args, rd):
    meshes = meshgen.mesh_family(args.family, args.levels, N_geo=_mapping_order(args),
                                 omega=args.omega, amplitude=args.amplitude,
                                 seed=args.seed)
    rec = analysis.projection_convergence_study(meshes, args.N, args.method)
    out = rd.path / f"projection_{args.family}_{args.method}_N{args.N}.csv"
    rec.to_csv(out)
    rd.log(f"{rec.label}: slope {rec.fitted_slope:.3f} (residual {rec.fit_residual:.2e})")
    rd.log(f"wrote {out} ({len(rec.h)} rows)")
    return EXIT_OK


def _level_count(args):
    """The --levels count of a study, checked before any mesh is built."""
    if args.levels < 1:
        raise ConfigError(f"need at least 1 refinement level, got {args.levels}")
    return args.levels


def cmd_wave_convergence(args, rd):
    N_geo = _mapping_order(args)
    meshes = [meshgen.disk_mesh(l, N_geo) for l in range(_level_count(args))]
    modes = [MassMode.WADG, MassMode.ExactCurvedMass] if args.both_modes else [MassMode.WADG]
    recs = analysis.wave_convergence_study(
        meshes, args.N, config=_solver_config(vars(args)), T=args.T,
        medium=MEDIA[args.medium](), mass_modes=modes, dt_check=args.dt_check)
    for mode, rec in recs.items():
        out = rd.path / f"wave_N{args.N}_{mode.value}.csv"
        rec.to_csv(out)
        rd.log(f"{rec.label}: slope {rec.fitted_slope:.3f}, finest error {rec.errors[-1]:.6e}")
        rd.log(f"wrote {out}")
    return EXIT_OK


def cmd_kappa_study(args, rd):
    rec = analysis.kappa_growth_study(args.omega, _order("--N", args.N), levels=args.levels)
    out = rd.path / f"kappa_omega{args.omega}_N{args.N}.csv"
    rec.to_csv(out)
    rd.log(f"{rec.label}: growth slope {rec.fitted_slope:.3f}")
    rd.log(f"wrote {out}")
    return EXIT_OK


def cmd_conservation_study(args, rd):
    rec = analysis.conservation_rate_study(
        N=_order("--N", args.N), levels=tuple(range(1, _level_count(args) + 1)))
    out = rd.path / f"conservation_N{args.N}.csv"
    rec.to_csv(out)
    rd.log(f"{rec.label}: slope {rec.fitted_slope:.3f}")
    rd.log(f"wrote {out}")
    return EXIT_OK


def cmd_spectrum(args, rd):
    mesh = _parse_mesh_spec(args.mesh, _mapping_order(args))
    cfg = _solver_config(vars(args))
    medium = MEDIA[args.medium]()
    disc = solver.Discretization(mesh, cfg, medium)
    A = analysis.assemble_evolution_matrix(disc, cap=args.cap)
    spec = analysis.eigenspectrum(A)
    out = rd.path / "spectrum.csv"
    spec.to_csv(out)
    rd.log(f"n = {A.shape[0]}, max real part {spec.max_real_part:.6e}, "
           f"spectral radius {spec.spectral_radius:.6e}")
    dt = solver.stable_dt(disc)
    limit = analysis.lsrk_stable_dt(spec.eigenvalues)
    rd.log(f"stable_dt {dt:.6e}, stability-polynomial limit of this spectrum "
           f"{limit:.6e}, ratio {limit / dt:.4f}")
    rd.log(f"wrote {out}")
    return EXIT_OK


def cmd_run(args, rd):
    if args.config.endswith(".toml"):
        with open(args.config, "rb") as fb:
            doc = tomllib.load(fb)
    else:
        with open(args.config) as f:
            doc = json.load(f)
    _check_config(doc)
    cfg = _solver_config(doc)
    mesh = _parse_mesh_spec(doc.get("mesh", "disk1"), doc.get("N_geo", cfg.N))
    medium = MEDIA[doc.get("medium", "constant")]()
    T = float(doc.get("T", 1.0))
    if not 0 <= T < np.inf:
        raise ConfigError(f"T must be finite and >= 0, got T = {T}")
    n_out = 10          # at T = 0, run records the projected state once
    if "output_interval" in doc:
        interval = float(doc["output_interval"])
        if not 0 < interval <= T or abs(round(T / interval) * interval - T) > 1e-9 * T:
            raise ConfigError(f"output_interval must divide T = {T}, got {interval}")
        n_out = round(T / interval)
    exact = solver.bessel_pressure if doc.get("medium", "constant") == "constant" else None
    state, diag = solver.run(mesh, cfg, solver.bessel_initial_condition, T,
                             medium=medium, exact_p=exact, n_outputs=n_out)
    out = rd.path / "timeseries.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "energy", "l2_error_p"])
        for i, t in enumerate(diag["t"]):
            err = diag["l2_error_p"][i] if len(diag["l2_error_p"]) else ""
            w.writerow([repr(float(t)), repr(float(diag["energy"][i])), err])
    rd.log(f"final t = {state.t} after {diag['steps']} steps of dt = {diag['dt']:.6e}, "
           f"energy {diag['energy'][-1]:.8e}")
    if len(diag["l2_error_p"]):
        rd.log(f"final pressure L2 error {diag['l2_error_p'][-1]:.6e}")
    rd.log(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="wadg", description=__doc__)
    p.add_argument("--out-dir", default="wadg-out", help="run directory for artifacts")
    sub = p.add_subparsers(dest="command", required=True)

    def common_solver(q):
        q.add_argument("--N", type=int, default=3)
        q.add_argument("--N-geo", type=int, default=None, dest="N_geo")
        q.add_argument("--formulation", choices=["strong", "strong-weak"], default="strong")
        q.add_argument("--mass-mode", choices=["wadg", "exact"], default="wadg")
        q.add_argument("--tau-p", type=float, default=1.0)
        q.add_argument("--tau-u", type=float, default=1.0)
        q.add_argument("--cfl", type=float, default=SolverConfig.cfl,
                       help="fraction of the calibrated stability limit")
        q.add_argument("--medium", choices=sorted(MEDIA), default="constant")

    q = sub.add_parser("mesh", help="generate a mesh and write it as JSON")
    q.add_argument("--family", choices=["uniform", "arnold", "random", "warped", "disk"],
                   required=True)
    q.add_argument("--level", type=int, default=0)
    q.add_argument("--N-geo", type=int, default=1, dest="N_geo")
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--amplitude", type=float, default=0.15)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_mesh)

    q = sub.add_parser("project-convergence", help="projection h-convergence study")
    q.add_argument("--family", choices=["uniform", "arnold", "random", "warped"],
                   default="arnold")
    q.add_argument("--N", type=int, default=3)
    q.add_argument("--N-geo", type=int, default=None, dest="N_geo")
    q.add_argument("--levels", type=int, default=6)
    q.add_argument("--method", choices=list(analysis.PROJECTION_METHODS), default="wadg")
    q.add_argument("--omega", type=float, default=1.0)
    q.add_argument("--amplitude", type=float, default=0.15)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_project_convergence)

    q = sub.add_parser("wave-convergence", help="disk wave-solver convergence study")
    common_solver(q)
    q.add_argument("--levels", type=int, default=4)
    q.add_argument("--T", type=float, default=1.0)
    q.add_argument("--both-modes", action="store_true",
                   help="also run the exact curved-mass reference")
    q.add_argument("--dt-check", action="store_true")
    q.set_defaults(func=cmd_wave_convergence)

    q = sub.add_parser("kappa-study", help="Jacobian constant growth study")
    q.add_argument("--omega", type=float, required=True)
    q.add_argument("--N", type=int, default=3)
    q.add_argument("--levels", type=int, default=5)
    q.set_defaults(func=cmd_kappa_study)

    q = sub.add_parser("conservation-study", help="moment conservation rate study")
    q.add_argument("--N", type=int, default=2)
    q.add_argument("--levels", type=int, default=4)
    q.set_defaults(func=cmd_conservation_study)

    q = sub.add_parser("spectrum", help="eigenspectrum of the evolution operator")
    common_solver(q)
    q.add_argument("--mesh", default="disk1")
    q.add_argument("--cap", type=int, default=6000)
    q.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("run", help="single solver run from a config file")
    q.add_argument("--config", required=True, help="JSON or TOML run settings; each "
                   "output_interval sample is recorded at the nearest time step")
    q.set_defaults(func=cmd_run)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    rd = _RunDir(args.out_dir, args)
    try:
        code = args.func(args, rd)
    # OSError: a config or mesh path that is missing, a directory or unreadable
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        rd.log(f"configuration error: {exc}")
        code = EXIT_CONFIG
    except (BlowUp, geometry.NonPositiveJacobian, analysis.EigenSolveFailure,
            analysis.SizeCapExceeded) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        rd.log(f"numerical failure: {exc}")
        code = EXIT_NUMERICAL
    finally:
        rd.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
