"""metastab benchmark: end-to-end latency and per-module time on three
workloads (a generic chain, a degenerate ring, a sampled validation).

One run:
    python3 bench/run.py --workload generic-chain --seed 1 --seconds 30 --trace 0

prints, as its last line, {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. Details of every run go to .bench_out/.

Steadiness mode runs each workload repeatedly with distinct seeds and
prints median, quartiles and spread of every end-to-end metric against its
bound:
    python3 bench/run.py --steadiness --runs 10 [--against .bench_out/steadiness-<stamp>.json]

See bench/README.md.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# The program's environment: single-threaded BLAS, so two sequential
# processes never contend for the two cores, and a fixed hash seed, so set
# and dict iteration order is the same in every process.
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

IMPORT_CLI = "import metastab.cli"
FAILED = "failed-check"    # digest placeholder for a report that failed
CHILD_TIMEOUT_S = 60.0


# Reference speed. Other tenants of a shared VM slow every process by up to
# 2x in phases from a fraction of a second to minutes long, so raw times of
# runs minutes apart differ by more than any useful bound. Each timed sample
# is therefore scaled by CAL_REF_S over the time of a fixed pure-Python
# kernel measured just before and just after it: the reported seconds are
# those of a machine on which the kernel takes CAL_REF_S. CAL_REF_S is an
# arbitrary fixed normaliser, not a measured speed; it only has to stay the
# same between the runs that are compared. Raw samples stay in the result
# file.
CAL_REF_S = 0.007


def _kernel():
    parts = []
    table = {}
    for i in range(12000):
        x = i * 1.0000001
        table[i & 255] = x
        parts.append(f"{x:.17g}")
    return len(",".join(parts))


def calibration_s():
    """Median of three timings of the calibration kernel."""
    ts = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        ts.append(time.perf_counter() - t0)
    return sorted(ts)[1]


def _reexec_with_program_env():
    """Thread counts and the hash seed are read at interpreter start, so the
    in-process measurements need them set before this process begins."""
    if all(os.environ.get(k) == v for k, v in PROGRAM_ENV.items()):
        return
    env = dict(os.environ, **PROGRAM_ENV)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PROGRAM_ENV)


def _load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def _quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(values):
    q1, med, q3 = _quartiles(values)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "values": values}


def _estimate(metric, summary):
    """The figure a run reports: the lower quartile of the scaled samples
    for a time, the median for memory and counts.

    Scaling removes most of the slow-down of a loaded VM, but not all of it
    for code that slows less than the kernel (process start-up, LAPACK);
    the lower quartile leaves out the samples taken while the load changed
    under them (see bench/README.md for the spreads)."""
    if metric.endswith("_s"):
        return summary["q1"]
    return statistics.median_low(summary["values"])


class Launcher:
    """Runs one program process at a time and reads its own resource use."""

    def __init__(self, workdir):
        self.env = _child_env()
        self.stderr_path = workdir / "child.stderr"

    def run(self, args):
        """Returns (wall seconds, peak RSS in MB, exit code). A child still
        running after CHILD_TIMEOUT_S is killed and reads as failed."""
        with open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own peak RSS, not the running
                # maximum over all children that RUSAGE_CHILDREN reports
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def stderr_text(self):
        return self.stderr_path.read_text(errors="replace")


class Run:
    """State of one benchmark run: attempted and failed operations, samples
    per metric, and the reference outputs every repetition is held to."""

    def __init__(self, workload, case, launcher):
        self.wl = workload
        self.case = case
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.notes = []
        self.op_digest = None      # digest of the checked in-process report
        self.op_text = None
        self.cli_digest = None     # digest of the checked CLI report
        self.raw = {}              # times as measured
        self.slowdown = []         # calibration time / CAL_REF_S per settle
        self._pending = []
        self._cal = calibration_s()

    def record(self, metric, value):
        """A time waits in ``_pending`` until settle() scales it."""
        if metric.endswith("_s"):
            self.raw.setdefault(metric, []).append(value)
            self._pending.append((metric, value))
        else:
            self.samples.setdefault(metric, []).append(value)

    def settle(self):
        """Scale the times recorded since the last call to reference speed,
        by the mean of the calibrations just before and just after them."""
        after = calibration_s()
        slow = 0.5 * (self._cal + after) / CAL_REF_S
        for metric, value in self._pending:
            self.samples.setdefault(metric, []).append(value / slow)
        self.slowdown.append(slow)
        self._pending.clear()
        self._cal = after

    def fail(self, what):
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(what)
            print(f"bench: {self.wl.name}: {what}", file=sys.stderr)

    # -- operations ------------------------------------------------------

    def op(self, metric="op_s", tracer=None):
        """One in-process operation; the report is checked in full the first
        time and held byte-identical to that checked report afterwards."""
        from workloads import digest
        self.attempted += 1
        gc.collect()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                text = self.case.op()
                dt = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span("op"):
                        text = self.case.op()
                    dt = time.perf_counter() - t0
        except Exception:
            self.fail("operation raised:\n" + traceback.format_exc())
            return None
        d = digest(text)
        if self.op_digest is None:
            try:
                self.case.check_op(text)
            except Exception as e:
                # a malformed report can fail a check by raising anything,
                # e.g. a KeyError or a wrong unpacking count
                self.op_digest = FAILED
                self.fail(f"operation output check: {type(e).__name__}: {e}")
                return None
            self.op_digest, self.op_text = d, text
        elif self.op_digest == FAILED:
            self.fail("the first operation's report failed its check")
            return None
        elif d != self.op_digest:
            self.fail("operation output differs from the checked output")
            return None
        if metric:
            self.record(metric, dt)
        return text

    def cli(self, timed=True):
        from workloads import digest
        self.attempted += 1
        out = Path(self.case.cli_out)
        out.unlink(missing_ok=True)
        wall, rss, code = self.launcher.run(
            [sys.executable, "-m", "metastab.cli", *self.case.cli_args])
        if code != 0:
            self.fail(f"CLI exit {code}: {self.launcher.stderr_text()[-2000:]}")
            return
        try:
            text = out.read_text()
        except OSError as e:
            self.fail(f"CLI wrote no report: {e}")
            return
        d = digest(text)
        if self.cli_digest is None:
            if self.op_text is None:
                self.cli_digest = FAILED
                self.fail("no checked in-process report to compare the CLI with")
                return
            try:
                self.case.check_cli(text, self.op_text)
            except Exception as e:
                self.cli_digest = FAILED
                self.fail(f"CLI output check: {type(e).__name__}: {e}")
                return
            self.cli_digest = d
        elif self.cli_digest == FAILED:
            self.fail("the first CLI report failed its check")
            return
        elif d != self.cli_digest:
            self.fail("CLI report differs between launches")
            return
        if timed:
            self.record("cli_wall_s", wall)
            self.record("peak_rss_mb", rss)

    def setup(self, timed=True):
        self.attempted += 1
        wall, _, code = self.launcher.run([sys.executable, "-c", IMPORT_CLI])
        if code != 0:
            self.fail(f"import exit {code}: {self.launcher.stderr_text()[-2000:]}")
        elif timed:
            self.record("setup_s", wall)

    def import_split(self):
        from spans import import_split
        self.attempted += 1
        _, _, code = self.launcher.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CLI])
        if code != 0:
            self.fail(f"import exit {code}: {self.launcher.stderr_text()[-2000:]}")
            return
        for pkg, secs in import_split(self.launcher.stderr_text()).items():
            self.record(f"import.{pkg}_s", secs)


def measure(run, seconds):
    """End-to-end metrics. A warm-up round (the first import also writes the
    bytecode cache) is followed by whole rounds until the time is spent;
    each round is one import launch, one CLI launch and a fixed number of
    in-process operations, so every metric is sampled across the whole run."""
    run.op(metric=None)
    run.setup(timed=False)
    run.cli(timed=False)
    deadline = time.perf_counter() + seconds
    rounds = 0
    run.settle()
    while rounds == 0 or time.perf_counter() < deadline:
        run.setup()
        run.settle()
        run.cli()
        run.settle()
        for _ in range(run.wl.ops_per_round):
            run.op()
            run.settle()
        rounds += 1
    return rounds


def measure_traced(run, seconds, trace_path):
    """Per-layer metrics. Untraced and traced operations alternate, so the
    difference of their figures is the tracing overhead; one -X importtime
    launch per round gives the import split."""
    from spans import SPAN_NAMES, Tracer, count, self_times
    spans_out = []

    def traced(timed=True):
        tracer = Tracer()
        text = run.op(metric="trace.op_s" if timed else None, tracer=tracer)
        if text is None or not timed:
            return
        selfs = self_times(tracer.spans)
        for name in SPAN_NAMES:
            run.record(f"{name}_s", selfs.get(name, 0.0))
        run.record("landscape.extract_calls",
                   count(tracer.spans, "landscape.extract"))
        run.record("validator.discretize_calls",
                   count(tracer.spans, "validator.discretize"))
        run.record("validator.grid_points", tracer.grid_points)
        run.record("cli.report_bytes", len(text.encode("utf-8")))
        spans_out.append(tracer.spans)

    run.op(metric=None)
    traced(timed=False)
    run.settle()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        run.import_split()
        run.settle()
        for _ in range(run.wl.ops_per_round):
            run.op()
            run.settle()
            traced()
            run.settle()
        rounds += 1
    with open(trace_path, "w") as fh:
        for i, spans in enumerate(spans_out):
            for j, (name, parent, t0, t1) in enumerate(spans):
                fh.write(json.dumps({"op": i, "id": j, "parent": parent,
                                     "name": name, "start": t0,
                                     "end": t1}) + "\n")
    return rounds


COUNTS = ("landscape.extract_calls", "validator.discretize_calls",
          "validator.grid_points", "cli.report_bytes")


def one_run(args):
    if not (ROOT / "src" / "metastab" / "__init__.py").is_file():
        print(f"bench: no metastab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import metastab
    if Path(metastab.__file__).resolve().parent != ROOT / "src" / "metastab":
        print(f"bench: metastab imported from {metastab.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    e2e, layers = _load_spec()
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        rel = workdir.relative_to(ROOT).as_posix()
        case = wl.prepare(args.seed, workdir, rel)
        run = Run(wl, case, Launcher(workdir))
        t0 = time.perf_counter()
        if args.trace:
            rounds = measure_traced(run, args.seconds, OUT / f"trace-{tag}.jsonl")
        else:
            rounds = measure(run, args.seconds)
        elapsed = time.perf_counter() - t0
    finally:
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    spec = layers if args.trace else e2e
    summaries = {k: _summary(v) for k, v in run.samples.items()}
    values = {k: _estimate(k, s) for k, s in summaries.items()}
    if args.trace and "trace.op_s" in values and "op_s" in values:
        values["trace.overhead_s"] = values["trace.op_s"] - values["op_s"]
    metrics = {}
    for name, m in spec.items():
        # a layer the workload never calls has no span: it spent 0 s there
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}
    if any(len(set(run.samples.get(c, [0]))) != 1 for c in COUNTS):
        run.fail("a per-operation count differs between repetitions")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    details = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "elapsed_s": elapsed,
               "rounds": rounds, "make_up": case.make_up,
               "environment": PROGRAM_ENV, "cal_ref_s": CAL_REF_S,
               "slowdown": _summary(run.slowdown),
               "samples": summaries,
               "raw": {k: _summary(v) for k, v in run.raw.items()},
               "notes": run.notes, "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ steadiness

def steadiness(args):
    """Runs every workload with seeds 1..runs; prints each end-to-end
    metric's median, quartiles and spread, (q3 - q1) / median, against its
    bound."""
    from workloads import WORKLOADS
    e2e, _ = _load_spec()
    previous = json.loads(Path(args.against).read_text()) if args.against else None
    report = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    OUT.mkdir(exist_ok=True)
    for wname in WORKLOADS:
        rows = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", wname, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"run {wname} seed {seed} exited {proc.returncode}")
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        per_metric = {}
        for name, m in e2e.items():
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = _quartiles(vals)
            per_metric[name] = {"values": vals, "median": med, "q1": q1,
                                "q3": q3, "spread": (q3 - q1) / med,
                                "bound": m["bound"]}
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        report["workloads"][wname] = {"metrics": per_metric,
                                      "failed_shares": shares,
                                      "attempted": [r["attempted"] for r in rows]}
        print(f"{wname}: failed share {shares}")
        for name, s in per_metric.items():
            line = (f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                    f"  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                    f"  bound {s['bound']}  spread/bound {s['spread'] / s['bound']:.2f}")
            if previous and wname in previous["workloads"]:
                old = previous["workloads"][wname]["metrics"][name]["median"]
                line += f"  vs previous {s['median'] / old - 1:+.4f}"
            print(line, flush=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"steadiness-{stamp}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written {path.relative_to(ROOT)}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true",
                    help="repeat every workload and report the spreads")
    ap.add_argument("--runs", type=int, default=10,
                    help="steadiness mode: runs per workload")
    ap.add_argument("--against",
                    help="steadiness mode: an earlier steadiness file to "
                         "compare medians with")
    args = ap.parse_args(argv)
    if args.steadiness:
        if not (ROOT / "src" / "metastab" / "__init__.py").is_file():
            print("bench: no metastab sources", file=sys.stderr)
            return 2
        sys.path.insert(0, str(ROOT / "src"))
        return steadiness(args)
    if not args.workload:
        ap.error("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    _reexec_with_program_env()
    sys.exit(main())
