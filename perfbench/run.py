"""End-to-end benchmark of the campaign CLI, with a per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload campaign [--seed 2023]
        [--seconds 20] [--trace 0|1]

Workloads (see README.md for why each is there):

* ``campaign``     ``run OUT --time-scale 1.0``, serial, fresh OUT
* ``campaign-2w``  the same with ``--workers 2``
* ``resume``       ``run OUT --time-scale 1.0 --resume`` on a copy of a
                   fully checkpointed OUT prepared by a separate process

The default ``explore`` sweep is flown, traced and checked once in the
traced ``campaign`` run, for the codec and scheduler-store layers.

One process imports the program once, warms the workload with a tiny
version of its operation, then calls ``repro.cli.main`` for whole
operations until ``--seconds`` of operation time have passed, timing
three fresh-interpreter set-ups spread over that phase.  Then it checks
every output against Table 2 of the paper and the method's invariants.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``; with ``--trace 1`` one more operation runs with every
layer's public functions wrapped, and the per-layer metrics are
printed instead).
"""

from __future__ import annotations

import os
import sys

# The worker count is the only concurrency this benchmark wants: pin
# every BLAS/OpenMP pool before anything can import numpy.  Children
# inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Set-up is timed with compiled bytecode cached, as an installed
# package has it, even where the environment turns caching off.
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import checks
from layers import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 2023
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3
#: Fewest timed operations per run, however long each takes.
MIN_OPS = 3
MIB = float(1 << 20)

#: Runs in a fresh interpreter: import the CLI, fly the warm-up
#: operations, print the monotonic clock (system-wide on Linux, so the
#: parent can subtract its own start time) and leave without teardown.
SETUP_CHILD = r"""
import contextlib, io, json, os, sys, time
import repro.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    if code:
        sys.exit(code)
sys.stdout.write(repr(time.monotonic()))
sys.stdout.flush()
os._exit(0)
"""


def _campaign_argv(outdir: str, seed: int, scale: str = "1.0") -> List[str]:
    return ["run", outdir, "--seed", str(seed), "--time-scale", scale]


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def quiet_main(argv: List[str]) -> int:
    """``repro.cli.main`` with the program's own printing swallowed."""
    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return repro.cli.main(argv)


class Workload:
    """One benchmark workload: its operation, inputs and checks."""

    name = ""
    #: File whose bytes must repeat across operations of one run.
    output = "campaign.json"
    #: Count the largest reaped worker in peak RSS.
    uses_workers = False
    #: The traced run also flies the explore sweep (see traced_sweep).
    traces_sweep = False

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work

    def argv(self, outdir: str) -> List[str]:
        raise NotImplementedError

    def warmup_argvs(self, outdir: str) -> List[List[str]]:
        """A tiny version of the operation, for warming a process."""
        return [_campaign_argv(outdir, self.seed, "0.002")]

    def prepare(self) -> None:
        """Untimed preparation before the timed phase."""

    def fresh_outdir(self, tag: str) -> str:
        outdir = os.path.join(self.work, tag)
        shutil.rmtree(outdir, ignore_errors=True)
        return outdir

    def op_outdir(self, tag: str) -> str:
        """Where one measured operation writes (untimed to make)."""
        return self.fresh_outdir(tag)

    def check(self, outdir: str) -> List[str]:
        with open(os.path.join(outdir, self.output)) as handle:
            return checks.check_campaign(json.load(handle))

    def reference(self) -> Optional[str]:
        """A file the operation's output must equal byte for byte."""
        return None


class Campaign(Workload):
    name = "campaign"
    traces_sweep = True

    def argv(self, outdir):
        return _campaign_argv(outdir, self.seed)


class CampaignTwoWorkers(Campaign):
    name = "campaign-2w"
    uses_workers = True
    traces_sweep = False

    def argv(self, outdir):
        return super().argv(outdir) + ["--workers", "2"]

    def warmup_argvs(self, outdir):
        return [super().warmup_argvs(outdir)[0] + ["--workers", "2"]]

    def reference(self):
        # A fresh serial run of the same code and seed, flown after the
        # timed phase so it leaves nothing in the measurements.
        outdir = self.fresh_outdir("serial-reference")
        if quiet_main(_campaign_argv(outdir, self.seed)) != 0:
            raise RuntimeError("serial reference run failed")
        return os.path.join(outdir, self.output)


class Resume(Workload):
    name = "resume"

    def argv(self, outdir):
        return _campaign_argv(outdir, self.seed) + ["--resume"]

    def warmup_argvs(self, outdir):
        tiny = _campaign_argv(outdir, self.seed, "0.002")
        return [tiny, tiny + ["--resume"]]

    def prepare(self):
        # The code under test writes its own checkpointed outdir, in a
        # separate process so that neither its memory nor its CPU heat
        # reaches the timed phase.
        self.source = self.fresh_outdir("source")
        argv = json.dumps([_campaign_argv(self.source, self.seed)])
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, argv],
            stdout=subprocess.DEVNULL, env=os.environ.copy(), timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"preparing the resume source failed ({done.returncode})"
            )

    def op_outdir(self, tag):
        outdir = self.fresh_outdir(tag)
        shutil.copytree(self.source, outdir)
        return outdir

    def reference(self):
        return os.path.join(self.source, self.output)


WORKLOADS = {w.name: w for w in (Campaign, CampaignTwoWorkers, Resume)}


def time_setup(workload: Workload, trace: bool, index: int) -> dict:
    """One fresh-interpreter set-up: import the CLI, warm the workload."""
    outdir = workload.fresh_outdir(f"setup{index}")
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += ["-c", SETUP_CHILD, json.dumps(workload.warmup_argvs(outdir))]
    started = time.monotonic()
    done = subprocess.run(
        command, capture_output=True, text=True, env=os.environ.copy(),
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"set-up child failed ({done.returncode}): {done.stderr[-2000:]}"
        )
    sample = {"setup_s": float(done.stdout) - started}
    if trace:
        sample.update(_import_split(done.stderr))
    print(f"setup {index + 1}: {sample['setup_s']:.4f} s", file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return sample


def _import_split(importtime: str) -> Dict[str, float]:
    """Self import time per top-level package from ``-X importtime``."""
    split = {"scipy": 0.0, "numpy": 0.0, "repro": 0.0}
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in split:
            split[package] += int(self_us) / 1e6
    return {f"setup.import_{pkg}_s": value for pkg, value in split.items()}


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


#: Layer times of the traced explore sweep, under names of their own:
#: a campaign operation leases its units through Broker.lease too.
SWEEP_LAYERS = {
    "sweep.run_cell_s": "codecs.run_cell",
    "sweep.assemble_s": "codecs.assemble",
    "sweep.commit_s": "scheduler.commit",
    "sweep.lease_s": "scheduler.lease",
}
#: Layers no campaign operation enters (its broker has no store).
SWEEP_ONLY_LAYERS = ("codecs.run_cell", "codecs.assemble", "scheduler.commit")
#: Per-layer metrics that only the traced explore sweep produces.
SWEEP_METRICS = (*SWEEP_LAYERS, "sweep.run_cell_median_s", "sweep.cells",
                 "sweep.strikes", "sweep.store_mb")


def traced_metrics(workload: Workload, untraced_s: float,
                   first_outdir: str) -> Dict[str, float]:
    """One more operation with every layer wrapped; the per-layer split."""
    tracer = Tracer()
    outdir = workload.op_outdir("traced")
    argv = workload.argv(outdir)
    parent0 = _cpu(resource.RUSAGE_SELF)
    workers0 = _cpu(resource.RUSAGE_CHILDREN)
    tracer.install()
    try:
        gc.collect()
        started = time.perf_counter()
        code = tracer.run(quiet_main, argv)
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    if code != 0:
        raise RuntimeError(f"traced operation exited {code}")
    metrics = {
        f"{name}_s": tracer.total.get(name, 0.0)
        for name, _, _ in LAYERS if name not in SWEEP_ONLY_LAYERS
    }
    sessions = tracer.durations.get("harness.session", [])
    metrics.update({
        "harness.self_s": tracer.self_time.get("harness.session", 0.0),
        "engine.critical_unit_s": max(sessions, default=0.0),
        "engine.parent_cpu_s": _cpu(resource.RUSAGE_SELF) - parent0,
        "engine.worker_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - workers0,
        "unattributed_s": tracer.root_self,
        "trace_overhead_s": traced_s - untraced_s,
    })
    campaign_json = os.path.join(first_outdir, "campaign.json")
    with open(campaign_json) as handle:
        counts = checks.campaign_counts(json.load(handle))
    metrics.update({
        "harness.runs": counts["runs"],
        "injection.upsets": counts["upsets"],
        "injection.failures": counts["failures"],
        "injection.eventful_ratio": counts["eventful_ratio"],
        "io.campaign_json_mb": _size_mb(campaign_json),
        "resilient.journal_mb": _size_mb(
            os.path.join(first_outdir, "journal.jsonl")),
    })
    shutil.rmtree(outdir, ignore_errors=True)
    return metrics


def traced_sweep(work: str, seed: int) -> Tuple[Dict[str, float], List[str]]:
    """The default explore sweep, warmed, then flown once with every
    layer wrapped: the codec and store layers, and the sweep's checks.

    ``explore`` is not a timed workload of its own: its host time drifts
    too much on a shared machine to hold a bound (see README.md).
    """
    outdir = os.path.join(work, "sweep")
    argv = ["explore", outdir, "--seed", str(seed)]
    if quiet_main(argv + ["--points", "980:950", "--workloads", "CG",
                          "--strikes", "50"]) != 0:
        return dict.fromkeys(SWEEP_METRICS, 0.0), ["explore warm-up failed"]
    shutil.rmtree(outdir)
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run(quiet_main, argv)
    finally:
        tracer.uninstall()
    if code != 0:
        return dict.fromkeys(SWEEP_METRICS, 0.0), [f"explore exited {code}"]
    with open(os.path.join(outdir, "pareto.json")) as handle:
        document = json.load(handle)
    problems = checks.check_pareto(document)
    cells = document["cells"]
    if len(cells) != 60 or {c["strikes"] for c in cells} != {2000}:
        problems.append(
            f"expected 60 cells x 2000 strikes, got {len(cells)} cells"
        )
    metrics = {
        name: tracer.total.get(layer, 0.0)
        for name, layer in SWEEP_LAYERS.items()
    }
    metrics.update({
        "sweep.run_cell_median_s": statistics.median(
            tracer.durations["codecs.run_cell"]),
        "sweep.cells": len(cells),
        "sweep.strikes": sum(cell["strikes"] for cell in cells),
        "sweep.store_mb": dir_bytes(
            os.path.join(outdir, "scheduler")) / MIB,
    })
    shutil.rmtree(outdir, ignore_errors=True)
    return metrics, problems


def _size_mb(path: str) -> float:
    return os.path.getsize(path) / MIB if os.path.exists(path) else 0.0


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    import repro.cli  # noqa: F401  untimed: compiles bytecode, fills caches

    workload.prepare()
    warm = workload.fresh_outdir("warmup")
    for argv in workload.warmup_argvs(warm):
        if quiet_main(argv) != 0:
            raise RuntimeError(f"warm-up {argv} failed")
    shutil.rmtree(warm, ignore_errors=True)

    times: List[float] = []
    sizes: List[int] = []
    digests = set()
    problems: List[str] = []
    failed = 0
    first_outdir = None
    setups: List[dict] = []
    while len(times) < MIN_OPS or sum(times) < seconds:
        # The machine's speed drifts over tens of seconds, so set-up
        # samples are spread over the timed phase rather than bunched.
        if len(setups) * seconds <= sum(times) * SETUP_SAMPLES:
            setups.append(time_setup(workload, trace, len(setups)))
        outdir = workload.op_outdir(f"op{len(times)}")
        argv = workload.argv(outdir)
        gc.collect()
        started = time.perf_counter()
        code = quiet_main(argv)
        elapsed = time.perf_counter() - started
        print(f"op {len(times) + failed + 1}: {elapsed:.4f} s, exit {code}",
              file=sys.stderr)
        if code != 0:
            # No operation is expected to fail, so a failure is a fault:
            # its time is not the operation's, and it ends the run.
            failed += 1
            problems.append(f"operation {len(times) + failed} exited {code}")
            shutil.rmtree(outdir, ignore_errors=True)
            break
        times.append(elapsed)
        sizes.append(dir_bytes(outdir))
        digests.add(checks.sha256_file(os.path.join(outdir, workload.output)))
        if first_outdir is None:
            first_outdir = outdir
        else:
            shutil.rmtree(outdir)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.uses_workers:
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak = max(peak, workers)

    if first_outdir is not None:
        if len(digests) != 1:
            problems.append(
                f"{len(digests)} different {workload.output} across "
                f"operations of one seed"
            )
        problems += workload.check(first_outdir)
        reference = workload.reference()
        if reference is not None:
            problems += checks.check_identical(
                os.path.join(first_outdir, workload.output), reference,
                f"{workload.name} {workload.output}",
            )

    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(workload, trace, len(setups)))
    if trace:
        metrics = {
            key: statistics.median(s[key] for s in setups)
            for key in setups[0] if key != "setup_s"
        }
        if first_outdir is not None:
            metrics.update(traced_metrics(
                workload, statistics.median(times), first_outdir))
        if workload.traces_sweep:
            sweep, sweep_problems = traced_sweep(workload.work, workload.seed)
            metrics.update(sweep)
            problems += sweep_problems
        for name in SWEEP_METRICS:
            metrics.setdefault(name, 0.0)
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": peak / 1024.0,
        }
        # Times and sizes are of operations that succeeded; a run
        # without one has none to report.
        if times:
            metrics["wall_s"] = statistics.median(times)
            metrics["output_mb"] = statistics.median(sizes) / MIB
    return {
        "correct": not problems,
        "attempted": len(times) + failed,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


UNITS = {"_s": "s", "_mb": "MiB", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    for problem in result.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(result["metrics"].items())
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
