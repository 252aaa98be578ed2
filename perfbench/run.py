#!/usr/bin/env python3
"""semibound benchmark: end-to-end and per-layer figures for four workloads.

    python3 perfbench/run.py --workload paper_a --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1

Run it from the root of a source checkout; it imports the package from
``src`` and reads the committed configs. Load is a closed loop: one client
sends the next solve when the previous one has returned, all in this process,
with BLAS pinned to BLAS_THREADS threads. After one discarded warm-up solve,
it times solves for ``--seconds`` and checks the output files of every one.

With ``--trace 0`` it reports the metrics listed under ``end_to_end`` in
BENCHMARK.json: the median and tail solve time, the set-up time (median of
SETUP_REPEATS fresh interpreters) and the peak RSS of the first of them,
which then runs one solve. With ``--trace 1`` it times half the run untraced
and half traced (see tracing.py) and reports the ``per_layer`` metrics:
times are medians over the traced solves, counts are per solve. The last line of standard output is the result; the
line before it holds the details: samples, failures, output digests and the
environment. Scratch files live in a ``.perfbench-*`` directory at the root
of the checkout, removed on exit.

BENCHMARK.json lists paper_a and fgh_fine, whose run medians are steady.
sweep and user_law isolate the table writer and the synthesized inverse;
their solves are interpreter-bound and their run medians moved by up to 1.8x
between runs on a shared 2-vCPU host, so they are run by name (or through
``--workload all``) rather than gated on.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_a", "fgh_fine", "sweep", "user_law")
SETUP_REPEATS = 5
#: the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that percentile would fall under the median,
    so the median is reported instead.
    """
    ordered = sorted(samples)
    k = len(ordered)
    if k < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    rank = k - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / k


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = str(path).startswith(mount.rstrip("/") + "/") or str(path) == mount
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(scratch: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "scratch_filesystem": filesystem_of(scratch),
        "platform": platform.platform(),
    }


def run_child(args, scratch: Path, rss: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "rss" if rss else "setup",
           "--workload", args.workload, "--seed", str(args.seed), "--scratch", str(scratch)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child(args) -> int:
    """A fresh interpreter: times the set-up, then with --child rss solves once."""
    scratch = Path(args.scratch)
    start = time.perf_counter()
    import semibound.cli  # noqa: F401  (part of the measured set-up)
    import workloads

    workloads.setup(args.workload, scratch / f"{args.workload}.yaml")
    figures = {"setup_s": time.perf_counter() - start}
    if args.child == "rss":
        import resource

        w = workloads.make(args.workload, args.seed, ROOT, scratch / "rss")
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            w.solve(scratch / "rss" / "out")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        figures["peak_rss_mb"] = peak_kib * 1024 / 1e6
    print(json.dumps(figures))
    return 0


class Loop:
    """Closed-loop timing of one workload with an output check on every solve."""

    def __init__(self, w, scratch: Path, devnull):
        self.w, self.scratch, self.devnull = w, scratch, devnull
        self.digests = None
        self.attempted = 0
        self.failures = []
        self.count = 0

    def once(self, tracer=None):
        """One solve; returns (seconds, per-layer snapshot) or None when it failed."""
        import workloads

        out = self.scratch / f"out{self.count}"
        self.count += 1
        if tracer is not None:
            tracer.reset()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(self.devnull):
                self.w.solve(out)
            elapsed = time.perf_counter() - start
            snap = tracer.snapshot() if tracer is not None else None
            digests = self.w.check(out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                changed = sorted(k for k in digests if digests[k] != self.digests.get(k))
                raise workloads.CheckFailed(f"output bytes differ from the first solve: {changed}")
            if snap is not None:
                snap["compare.files_written"] = len(digests)
                snap["compare.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            return elapsed, snap
        except Exception as exc:  # a failed solve is counted, never fatal
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, seconds: float, tracer=None):
        samples, snaps = [], []
        deadline = time.perf_counter() + seconds
        while True:
            self.attempted += 1
            result = self.once(tracer)
            if result is not None:
                samples.append(result[0])
                snaps.append(result[1])
            if time.perf_counter() >= deadline:
                return samples, snaps


def bench(args, scratch: Path):
    import tracing
    import workloads

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "environment": environment(scratch)}
    w = workloads.make(args.workload, args.seed, ROOT, scratch)
    details["input"] = w.config_path.read_text(encoding="utf-8")
    if not args.trace:
        (scratch / "rss").mkdir()
        children = [run_child(args, scratch, rss=True)]
        children += [run_child(args, scratch) for _ in range(SETUP_REPEATS - 1)]
        details["peak_rss_mb"] = children[0]["peak_rss_mb"]
        details["setup_runs_s"] = [c["setup_s"] for c in children]
    workloads.prepare_reference(w)
    details["reference_energies"] = w.reference

    with open(os.devnull, "w") as devnull:
        loop = Loop(w, scratch, devnull)
        warm = loop.once()
        details["warmup_s"] = warm[0] if warm else None
        if not args.trace:
            samples, _ = loop.run(args.seconds)
        else:
            samples, _ = loop.run(args.seconds / 2)
            tracer = tracing.Tracer()
            problem = w.problem
            tracer.install()
            if not w.pipeline:
                w.problem = tracer.traced_problem(problem)
            try:
                traced, snaps = loop.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
                w.problem = problem

    failed = len(loop.failures)
    attempted = loop.attempted + 1  # the warm-up solve is checked too
    details.update({
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": loop.failures[:5], "digests": loop.digests, "samples_s": samples,
    })
    correct = failed == 0 and loop.digests is not None and bool(samples)
    samples = samples or [float(args.seconds)]
    p50 = statistics.median(samples)
    if not args.trace:
        value, pct = tail(samples)
        details["solve_s_tail"] = {"percentile": pct, "samples": len(samples)}
        values = {"solve_s_p50": p50, "solve_s_tail": value,
                  "setup_s": statistics.median(details["setup_runs_s"]),
                  "peak_rss_mb": details["peak_rss_mb"]}
        entries = spec()["end_to_end"]
    else:
        snaps = snaps or [{}]
        names = sorted(set().union(*snaps))
        # times are medians over the traced solves; counts are those of the first,
        # and counters_repeat says whether every other traced solve matched it
        layers = {n: statistics.median(s.get(n, 0) for s in snaps) if n.endswith("_s")
                  else snaps[0].get(n, 0) for n in names}
        details.update({
            "traced_samples_s": traced, "layers": layers,
            "counters_repeat": all(s.get(n, 0) == layers[n] for s in snaps for n in names
                                   if not n.endswith("_s")),
            "layer_map": json.loads((HERE / "layer_map.json").read_text(encoding="utf-8")),
        })
        traced_p50 = statistics.median(traced) if traced else p50
        values = dict(layers)
        values.update({"trace.solve_s_p50": traced_p50, "trace.overhead_s": traced_p50 - p50})
        details["isolation"] = isolation(args.workload, values)
        entries = spec()["per_layer"]
    metrics = {e["name"]: {"value": values.get(e["name"], 0), "unit": e["unit"]}
               for e in entries}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def isolation(workload: str, layers: dict) -> dict:
    """Share of the traced solve held by the layer each workload isolates."""
    solve = layers["trace.solve_s_p50"]
    top = max((k for k in layers if k.endswith(".self_s") and k.count(".") == 2),
              key=lambda k: layers[k], default=None)
    isolated = {
        "paper_a": "wkbj.quantize.total_s",
        "fgh_fine": "fgh.solve.self_s",
        "sweep": "compare.write_density_tables.self_s",
        "user_law": "kinetics.inverse.self_s",
    }[workload]
    return {"isolated": isolated, "share": layers.get(isolated, 0) / solve,
            "largest_self": top, "largest_self_share": layers.get(top, 0) / solve}


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.6g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "semibound" / "__init__.py").is_file():
        print(f"error: no semibound sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.child:
        return child(args)
    if args.workload == "all":
        return run_all(args)
    # on SIGTERM, unwind so that the scratch directory and any child are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, details = bench(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
