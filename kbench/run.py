"""Benchmark of `kcone report` on four seeded workloads.

Run from the repository root:

    python3 kbench/run.py --workload oscillators --seed 7 --seconds 30 --trace 0

The benchmark generates the workload's scenario files from the seed under
.kbench_work/, then drives `kcone.cli.main(["report", ...])` in this
process, warm, one scenario after another, round-robin, until the next
report would overrun --seconds. Every report is checked by the oracles in
oracles.py and must be byte-identical (by digest) to the first report of
the same scenario.

--trace 0 prints the end-to-end metrics: report_s (the sum over the
workload's scenarios of each one's median report wall time), setup_s
(median cold start of a fresh interpreter that imports kcone and loads the
workload's scenarios), peak_rss_mb and ok_frac. report_s is rescaled to a
reference host speed (see REFERENCE_S). --trace 1
alternates untraced and traced passes and prints the per-layer metrics of
tracing.py plus the tracing overhead. The last stdout line is the result
object; the line before it carries provenance. The program is imported
from ./src only; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, Case, generate

WORK_DIR = ".kbench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# The speed reference: a fixed loop of the work the DP5 step loop does
# (Python-level numpy calls on 3-vectors). The host this runs on is shared,
# and its speed drifts by up to 1.6x over minutes, for every process on it;
# the loop is benchmark code that no change to kcone can move, so timing it
# about once a second through the run measures that drift. report_s is
# scaled by REFERENCE_S / (mean loop time of the run): seconds on a host that
# runs the loop in REFERENCE_S, its time on an unloaded vCPU of the 2-vCPU
# Intel Xeon VM the benchmark was defined on. setup_s stays wall time: cold
# starts (process spawn, imports) do not follow the loop's speed.
REFERENCE_STEPS = 3000
REFERENCE_S = 0.065
REFERENCE_EVERY_S = 1.0
SETUP_PROBE = (
    "import sys, kcone\n"
    "for path in sys.argv[1:]:\n"
    "    kcone.load_scenario(path)\n"
)

END_TO_END_UNITS = {"report_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "integrators.calls": "count",
    "integrators.accepted_steps": "count",
    "integrators.self_s": "s",
    "integrators.rhs_per_step": "calls/step",
    "integrators.us_per_step": "us",
    "fields.rhs_calls": "count",
    "fields.rhs_rows": "rows",
    "fields.rhs_s": "s",
    "fields.rhs_rows_per_call": "rows/call",
    "fields.newton_s": "s",
    "fields.newton_converged_ratio": "ratio",
    "limitsets.omega_s": "s",
    "limitsets.omega_tail_points": "count",
    "limitsets.pair_scan_s": "s",
    "limitsets.pairs_scanned": "count",
    "limitsets.pair_bytes_peak": "computed_bytes",
    "limitsets.trichotomy_self_s": "s",
    "limitsets.backward_integrations": "count",
    "limitsets.periodic_s": "s",
    "limitsets.loops_found_ratio": "ratio",
    "limitsets.chain_s": "s",
    "limitsets.chain_integrations": "count",
    "limitsets.chain_success_ratio": "ratio",
    "certify.s": "s",
    "certify.pairs_evaluated": "count",
    "certify.pairs_per_s": "1/s",
    "certify.rhs_rows_per_pair": "rows/pair",
    "linalg.sym_eig_calls": "count",
    "linalg.sym_eig_s": "s",
    "report.emit_s": "s",
    "report.bytes_written": "bytes",
    "report.digest_changed": "count",
    "scenario.load_s": "s",
    "trace.report_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


class NoProgram(Exception):
    """The working directory holds no kcone source tree to benchmark."""


@dataclass
class Workspace:
    root: Path
    kcli: object
    cases: list[Case]
    inputs: list[Path]
    outdir: Path


@dataclass
class Tally:
    """Reports attempted and failed across a run, and first-pass digests."""

    attempted: int = 0
    failed: int = 0
    digests: dict[str, str | None] = field(default_factory=dict)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program(root: Path):
    """Import kcone.cli from root/src, and only from there."""
    pkg = root / "src" / "kcone"
    if not (pkg / "__init__.py").is_file():
        raise NoProgram(f"no kcone source tree at {pkg}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import kcone.cli

    if Path(kcone.cli.__file__).resolve().parent != pkg.resolve():
        raise NoProgram(f"kcone imported from {kcone.cli.__file__}, not from {pkg}")
    return kcone.cli


def prepare(root: Path, workload: str, seed: int) -> Workspace:
    kcli = load_program(root)
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    cases = generate(workload, seed)
    inputs = []
    for case in cases:
        path = work / "inputs" / f"{case.name}.json"
        path.write_text(json.dumps(case.scenario, indent=1), encoding="utf-8")
        inputs.append(path)
    return Workspace(root, kcli, cases, inputs, work / "out")


def measure_setup(ws: Workspace, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall times of fresh interpreters importing kcone and loading the inputs."""
    env = {k: v for k, v in os.environ.items() if k != "KCONE_THREADS"}
    env["PYTHONPATH"] = str(ws.root / "src")
    cmd = [sys.executable, "-c", SETUP_PROBE, *map(str, ws.inputs)]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ws.root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
    return times


def run_case(ws: Workspace, tally: Tally, i: int, main=None) -> tuple[float, int]:
    """Produce the report of case i once; (wall seconds, bytes written)."""
    main = main or ws.kcli.main
    case, path = ws.cases[i], ws.inputs[i]
    out = ws.outdir / case.name
    shutil.rmtree(out, ignore_errors=True)
    argv = ["report", "--scenario", str(path), "--out", str(out), "--quiet"]
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except Exception:  # a crash is one failed report, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        rc = -1
    wall = time.perf_counter() - t0
    errs, digest = oracles.check_report(case, str(out), rc)
    first = tally.digests.setdefault(case.name, digest)
    if digest != first:
        errs.append("report bytes differ from its first report")
    tally.attempted += 1
    if errs:
        tally.failed += 1
        print(f"kbench: {case.name} failed: {'; '.join(errs)}", file=sys.stderr)
    written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    return wall, written


def run_pass(ws: Workspace, tally: Tally, main=None) -> tuple[float, int]:
    """Produce every report of the workload once; (wall seconds, bytes written)."""
    wall = written = 0
    for i in range(len(ws.cases)):
        w, b = run_case(ws, tally, i, main)
        wall += w
        written += b
    return wall, written


def reference_loop() -> float:
    """Wall time of the fixed speed-reference loop."""
    x = np.array([0.3, -0.2, 0.5])
    k = np.zeros((6, 3))
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        for j in range(6):
            k[j] = x * 0.5 - k[j - 1] * 0.1
        x = x + 1e-3 * (k[0] + 2.0 * k[5])
        acc += float(np.max(np.abs(x))) + sum(range(20))
    return time.perf_counter() - t0


def sample_cases(ws: Workspace, tally: Tally, deadline: float,
                 refs: list[float] | None = None) -> dict[str, list[float]]:
    """Wall times of each case's report, taken round-robin until the next
    report would end after the perf_counter time `deadline` (judged by that
    case's previous time); every case runs at least once. Stopping between
    reports rather than between passes leaves no idle tail in the run. With
    `refs`, the reference loop is timed into it before a report whenever a
    second has passed since the last one, so it samples the whole run."""
    times: dict[str, list[float]] = {case.name: [] for case in ws.cases}
    n = len(ws.cases)
    k = 0
    last_ref = -REFERENCE_EVERY_S
    while True:
        if refs is not None and time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_loop())
            last_ref = time.perf_counter()
        times[ws.cases[k % n].name].append(run_case(ws, tally, k % n)[0])
        k += 1
        if k >= n and time.perf_counter() + times[ws.cases[k % n].name][-1] > deadline:
            return times


def run_timed(deadline: float, step, warmup) -> None:
    """Call warmup() once, then step() until the next call would end after
    the perf_counter time `deadline`; step() runs at least once. The warm-up
    keeps first-call and allocator growth costs out of the medians."""
    warmup()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def pinned_digests(workload: str, seed: int) -> dict[str, str]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def digest_changes(tally: Tally, pinned: dict[str, str]) -> int:
    return sum(1 for name, d in tally.digests.items() if name in pinned and pinned[name] != d)


def provenance(root: Path, found_threads: str | None) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "git_commit": commit,
        "KCONE_THREADS_found": found_threads,
        "KCONE_THREADS_used": "unset (serial)",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def result(correct: bool, tally: Tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def plain_run(ws: Workspace, args) -> tuple[dict, dict]:
    deadline = time.perf_counter() + args.seconds
    setup = measure_setup(ws)
    refs: list[float] = []
    tally = Tally()
    run_case(ws, tally, 0)  # warm-up: first-call and allocator growth costs
    times = sample_cases(ws, tally, deadline, refs)
    refs.append(reference_loop())
    report_wall = sum(statistics.median(t) for t in times.values())
    speed = REFERENCE_S / statistics.mean(refs)
    metrics = {
        "report_s": report_wall * speed,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    info = {
        "samples": {"report_s": {name: len(t) for name, t in times.items()},
                    "setup_s": len(setup), "reference": len(refs)},
        "report_wall_s": report_wall,
        "speed_factor": speed,
        "report_s_cases": times,
        "setup_s_samples": setup,
        "reference_s_samples": refs,
    }
    return result(tally.failed == 0, tally, metrics, END_TO_END_UNITS), info | _digest_info(args, tally)


def _digest_info(args, tally: Tally) -> dict:
    pinned = pinned_digests(args.workload, args.seed)
    return {
        "digests": tally.digests,
        "digests_pinned_for_seed": bool(pinned),
        "digest_changed": digest_changes(tally, pinned),
    }


def traced_run(ws: Workspace, args) -> tuple[dict, dict]:
    tally = Tally()
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    dump: list[dict] = []
    tracer = tracing.Tracer()

    def pair():
        plain.append(run_pass(ws, tally)[0])
        tracer.reset()
        with tracer:
            wall, written = run_pass(ws, tally, main=tracer.wrap("main", "cli", ws.kcli.main))
        traced.append(wall)
        m = tracing.layer_metrics(tracer.spans, tracer.outside)
        m["report.bytes_written"] = written
        layers.append(m)
        selfs = tracing.self_times(tracer.spans)
        dump.extend({"pass": len(traced) - 1, "id": i, **vars(s), "self": selfs[i]}
                    for i, s in enumerate(tracer.spans))

    run_timed(time.perf_counter() + args.seconds, pair, warmup=lambda: run_pass(ws, tally))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    digest = _digest_info(args, tally)
    metrics.update({
        "report.digest_changed": digest["digest_changed"],
        "trace.report_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "failed_frac": tally.failed / tally.attempted,
    })
    spans_path = ws.outdir.parent / "spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in dump)
    base = metrics["trace.report_s"]
    integ_s = metrics["integrators.us_per_step"] * metrics["integrators.accepted_steps"] / 1e6
    info = {
        "samples": {"untraced_passes": len(plain), "traced_passes": len(traced)},
        "untraced_passes_s": plain,
        "traced_passes_s": traced,
        "spans_file": str(spans_path.relative_to(ws.root)),
        "share_of_traced_report_s": {
            "integrators_incl_rhs": integ_s / base,
            "omega_gap": metrics["limitsets.omega_s"] / base,
            "pair_scans": metrics["limitsets.pair_scan_s"] / base,
            "certify": metrics["certify.s"] / base,
            "chain_check_self": metrics["limitsets.chain_s"] / base,
            "emit": metrics["report.emit_s"] / base,
        },
    }
    return result(tally.failed == 0, tally, metrics, PER_LAYER_UNITS), info | digest


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    found_threads = os.environ.pop("KCONE_THREADS", None)
    try:
        ws = prepare(root, args.workload, args.seed)
    except NoProgram as exc:
        print(f"kbench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        res, info = traced_run(ws, args)
    else:
        res, info = plain_run(ws, args)
    info["provenance"] = provenance(root, found_threads)
    info["workload"] = args.workload
    info["seed"] = args.seed
    print(json.dumps({"kbench_info": info}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
