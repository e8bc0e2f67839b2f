"""qdiv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Load is a closed loop with a single
caller: the next operation starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed amount of work instead: whole cycles, alternately
untraced and traced with the timing shims of ``tracing.py``, until the
workload's ``trace_ops`` operations were traced.  It reports the per-layer
metrics of the traced operations, which repeat exactly for a seed, plus the
tracing overhead (``trace.overhead_share``: the untraced over the traced
throughput, minus one).

Every operation's outcome goes through the workload's oracle after the timed
loop.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table.  A fuller record, with an environment fingerprint, goes
to ``.perfbench_out/`` at the repository root; traced runs also write their
spans there.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

import stats

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# One caller, no thread pools: BLAS runs single-threaded too.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9
IMPORT_PROBES = 3
WARMUP_OPS = 2
MIN_OPS = 20            # so the median has ten samples beyond it
OVERRUN_S = 60.0        # hard stop past --seconds, even mid-cycle

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ensemble", "kernels", "wigner", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_probe(module, cwd):
    """Wall time of a fresh interpreter importing ``module``."""
    import workloads

    env = workloads.child_env()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.strip()}")
    return elapsed


def fingerprint(seed):
    import numpy as np

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdiv").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu": cpu,
    }


class Runner:
    """Drives one workload: set-up, warm-up, timed passes and the oracle."""

    def __init__(self, workload):
        self.wl = workload
        self.ops = {}

    def op(self, i):
        if i not in self.ops:
            self.ops[i] = self.wl.make_op(i)
        return self.ops[i]

    def setup(self, module, cwd, keep=False):
        """Time one set-up: a fresh import plus the first cycle's inputs.

        With ``keep`` the inputs are the ones the run uses; otherwise they
        are made again and dropped.
        """
        elapsed = import_probe(module, cwd)
        t0 = time.perf_counter()
        ops = {i: self.wl.make_op(i) for i in range(len(self.wl.templates))}
        elapsed += time.perf_counter() - t0
        if keep:
            self.ops = ops
        return elapsed

    def warm_up(self):
        for i in range(WARMUP_OPS):
            op = self.wl.make_op(i, stream=1)
            try:
                self.wl.run(op)
            except Exception:  # a warm-up outcome is never graded
                pass

    def measure(self, start, seconds=None, count=None, tracer=None, between=None):
        """Run operations from index ``start``.

        With ``seconds``: until that much time was spent inside operations,
        at least MIN_OPS ran, and the last cycle is complete.  With ``count``:
        exactly that many.  Returns ``[(i, seconds, outcome)]`` with a
        tracer, else ``graded`` records.  ``between`` is called between
        operations, untimed, after each further ``seconds / SETUP_REPS``
        spent inside them, at most ``SETUP_REPS - 1`` times.
        """
        cycle = len(self.wl.templates)
        deadline = time.monotonic() + (seconds or 0.0) + OVERRUN_S
        records = []
        busy = 0.0
        calls = 0
        i = start
        while time.monotonic() < deadline:
            n = i - start
            if between and calls < SETUP_REPS - 1 and \
                    busy >= (calls + 1) * seconds / SETUP_REPS:
                between()
                calls += 1
            if count is not None and n >= count:
                break
            if count is None and busy >= seconds and n >= MIN_OPS and n % cycle == 0:
                break
            op = self.op(i)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = self.wl.run(op)
            except Exception as exc:  # graded by the oracle, like any outcome
                out = exc
            dt = time.perf_counter() - t0
            # Grade at once, so memory does not grow with the operation
            # count; under shims, after they are removed (traced_passes).
            records.append((i, dt, out) if tracer else self.graded(i, dt, out))
            busy += dt
            i += 1
        return records

    def traced_passes(self, tracer):
        """Alternate untraced and traced cycles until ``trace_ops`` were traced.

        Alternating cycle by cycle exposes both sides to the same drift in
        machine speed, so their ratio measures the shims, not the machine.
        """
        cycle = len(self.wl.templates)
        untraced, traced = [], []
        while len(traced) < self.wl.trace_ops:
            untraced += self.measure(len(untraced) + len(traced), count=cycle)
            tracer.install()
            try:
                raw = self.measure(len(untraced) + len(traced), count=cycle,
                                   tracer=tracer)
            finally:
                tracer.uninstall()
            traced += [self.graded(*record) for record in raw]
        return untraced, traced

    def graded(self, i, dt, out):
        """``(i, seconds, oracle verdict, branch)``; drops the operation's data."""
        op = self.ops.pop(i)
        return i, dt, self.wl.check(op, out), self.wl.branch(op, out)

    def tally(self, records):
        """Failures and the +inf share per divergence tag, from graded records."""
        failures = []
        branches = collections.defaultdict(lambda: [0, 0])
        for i, _dt, reason, branch in records:
            if reason:
                failures.append({"op": i, "template": self.template(i),
                                 "reason": reason})
            if branch:
                tag, is_inf = branch
                branches[tag][0] += 1
                branches[tag][1] += int(is_inf)
        inf_share = {f"divergence.{tag}.inf_share": infs / calls
                     for tag, (calls, infs) in sorted(branches.items())}
        return failures, inf_share

    def template(self, i):
        return self.wl.templates[i % len(self.wl.templates)]

    @staticmethod
    def throughput(records):
        """Closed-loop throughput: operations over the time spent in them."""
        return len(records) / sum(record[1] for record in records)


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args, workdir):
    import workloads
    import tracing

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, str(workdir), in_process=bool(args.trace))
    runner = Runner(wl)
    probe_module = "qdiv.cli" if args.workload == "cli" else "qdiv"
    setup_times = [runner.setup(probe_module, workdir, keep=True)]
    runner.warm_up()

    result = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(args.seed)}
    if not args.trace:
        # The other set-ups are spread through the timed loop, so that their
        # median sees the same drift in machine speed as the operations.
        records = runner.measure(0, seconds=args.seconds, between=lambda: (
            setup_times.append(runner.setup(probe_module, workdir))))
        while len(setup_times) < SETUP_REPS:
            setup_times.append(runner.setup(probe_module, workdir))
        setup_s = statistics.median(setup_times)
        failures, inf_share = runner.tally(records)
        lat_ms = [record[1] * 1e3 for record in records]
        pct, tail, beyond = stats.tail_percentile(lat_ms)
        ops_per_s = runner.throughput(records)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb(args.workload),
        }
        report = dict(metrics, failed_ratio=len(failures) / len(records))
        if hasattr(wl, "batch"):
            report["pairs_per_s"] = ops_per_s * wl.batch
        units = dict(END_TO_END, failed_ratio="ratio", pairs_per_s="1/s")
        result.update(tail_percentile=pct, tail_beyond=beyond, setup_times_s=setup_times,
                      latencies_ms=[[r[0], r[1] * 1e3] for r in records])
    else:
        tracer = tracing.Tracer()
        untraced, traced = runner.traced_passes(tracer)
        records = untraced + traced
        failures, _ = runner.tally(records)
        metrics = tracer.layer_metrics()
        metrics["cli.import_s"] = statistics.median(
            import_probe("qdiv.cli", workdir) for _ in range(IMPORT_PROBES))
        metrics["trace.overhead_share"] = (
            runner.throughput(untraced) / runner.throughput(traced) - 1.0)
        metrics = {name: metrics[name] for name, _unit, _better in tracing.PER_LAYER}
        inf_share = {k: v for k, v in metrics.items() if k.endswith(".inf_share")}
        report = metrics
        units = {name: unit for name, unit, _better in tracing.PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracer.finished_spans():
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = spans_path.name

    cycle = len(wl.templates)
    result.update(ops=len(records), cycle=cycle, failed=len(failures),
                  report=report, inf_share=inf_share, failures=failures[:50])
    return result, metrics, units


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qdiv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qdiv'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import qdiv

    if pathlib.Path(qdiv.__file__).resolve().parent != (SRC / "qdiv").resolve():
        print(f"error: imported qdiv from {qdiv.__file__}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result, metrics, units = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    failed = result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  ops {result['ops']} "
          f"(cycle {result['cycle']})  failed {failed}")
    for key, value in result["report"].items():
        note = ""
        if key == "latency_tail_ms":
            note = (f"  (p{result['tail_percentile']:g} of {result['ops']} samples, "
                    f"{result['tail_beyond']} beyond)")
        print(f"  {key:<40} {value:>14.6g} {units[key]}{note}")
    for failure in result["failures"][:10]:
        print(f"  FAILED op {failure['op']} [{failure['template']}]: {failure['reason']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["ops"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
