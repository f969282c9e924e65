"""Smoke test of the benchmark itself on a tiny disk (K=48, N=2).

Run from the repository root:  python3 perfbench/smoke.py

Checks that both modes report every metric BENCHMARK.json names, with its
unit; that traced spans nest and account for the run; that every wrapper is
restored, also when the traced code raises; and that run.py refuses to run
without the solver sources.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from run import ROOT, SRC, OUT, Workload

sys.path.insert(0, str(SRC))

from tracer import LAYER_TARGETS, Tracer, spans_nest  # noqa: E402

TINY = Workload("disk1-N2-strong-wadg", 1, 2, "strong", "wadg", 0.02,
                ref_error={m: 1.0 for m in run.MODES},
                target={m: 5e-2 for m in run.MODES})


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics(result, declared):
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"output checks failed: {result}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"metrics differ from BENCHMARK.json: {got} vs {want}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    originals = [vars(owner)[attr] for owner, attr, _ in LAYER_TARGETS]

    result, _ = run.run_workload(TINY, seed=0, seconds=1.0, trace=0)
    check_metrics(result, spec["end_to_end"])

    for seed in (1, 2):
        result, record = run.run_workload(TINY, seed=seed, seconds=1.0, trace=1)
        check_metrics(result, spec["per_layer"])
        spans = record["spans"]
        expect(spans and spans[0][0] == "workload" and spans[0][3] == -1,
               "first span is not the workload root")
        expect(spans_nest(spans), "spans do not nest")
        expect(result["metrics"]["trace.accounted_frac"]["value"] >= 0.95,
               "named spans account for less than 95% of the traced run")
    expect(result["metrics"]["solver.lsrk_step.calls"]["value"] > 0, "no steps traced")

    tracer = Tracer()
    try:
        with tracer.installed():
            raise RuntimeError("inside traced block")
    except RuntimeError:
        pass
    now = [vars(owner)[attr] for owner, attr, _ in LAYER_TARGETS]
    expect(all(a is b for a, b in zip(originals, now)), "wrappers were not restored")

    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disk3-N6-strong-wadg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout,
           f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("perfbench smoke test passed")


if __name__ == "__main__":
    main()
