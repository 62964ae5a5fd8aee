"""Benchmark of the euleradic package: one seeded workload per run.

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
``src/``.  A run builds the workload's job list from the seed, runs it once
with every output checked (untimed), then runs it in whole passes, closed
loop, one job at a time in this one process, until ``--seconds`` of job time
and at least 100 jobs have been measured.  Later passes must reproduce the
first pass's outputs exactly.

Job times are scaled to a reference machine speed measured next to each
job (see ``speed_probe``); the unscaled times are kept in the record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (see tracing.py).  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (run metadata, extra figures, the big-integer probe) goes to
``bench/out/``.  The exit code is 0 when every check passed, 1 when one
failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_JOBS = 100          # p90 needs ten samples beyond it
SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 120

# The 2-vCPU Xeon VM the benchmark was tuned on drifts in speed by up to 2x
# over seconds to minutes.  So every timed interval is also reported scaled
# by (reference time / time of a fixed probe run next to it): REFERENCE_S is
# the median time of speed_probe() there, BARE_REFERENCE_S that of starting
# a bare interpreter.
REFERENCE_S = 0.0017
BARE_REFERENCE_S = 0.06

SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import euleradic.cli as cli; cli.build_parser()")

# A table whose last cell, 20001**1000, has 4,302 digits: more than Python's
# default 4,300-digit int-to-str limit.  The expected output is hashed in a
# child interpreter that lifts the limit there, never in this process.
BIGINT_ARGV = ("table", "--p", "20000", "--q", "0", "--imax", "0", "--jmax", "1000")
BIGINT_DIGEST_CODE = r"""
import hashlib, sys
sys.set_int_max_str_digits(0)
header = "i\\j," + ",".join(str(j) for j in range(1001))
row = "0," + ",".join(str(20001 ** j) for j in range(1001))
print(hashlib.sha256((header + "\n" + row + "\n").encode()).hexdigest())
"""

END_TO_END = [
    # name, unit, better, bound
    ("jobs_per_s", "1/s", "higher", 0.2),
    ("job_p50_ms", "ms", "lower", 0.2),
    ("job_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [
    # name, unit, better
    ("eulerian.self_s", "s/pass", "lower"),
    ("eulerian.closed_form.calls", "count/pass", "lower"),
    ("eulerian.closed_form.self_s", "s/pass", "lower"),
    ("eulerian.closed_form.terms", "count/pass", "lower"),
    ("eulerian.recurrence_table.calls", "count/pass", "lower"),
    ("eulerian.recurrence_table.self_s", "s/pass", "lower"),
    ("eulerian.recurrence_table.cells", "count/pass", "lower"),
    ("eulerian.dim_between.calls", "count/pass", "lower"),
    ("eulerian.max_bits", "bits", "lower"),
    ("ratios.self_s", "s/pass", "lower"),
    ("ratios.check_monotonicity.self_s", "s/pass", "lower"),
    ("ratios.convergence_report.self_s", "s/pass", "lower"),
    ("goodpaths.self_s", "s/pass", "lower"),
    ("goodpaths.good_count_table.calls", "count/pass", "lower"),
    ("goodpaths.good_count_table.self_s", "s/pass", "lower"),
    ("goodpaths.count_good_dp.calls", "count/pass", "lower"),
    ("goodpaths.is_good.calls", "count/pass", "lower"),
    ("goodpaths.is_good.self_s", "s/pass", "lower"),
    ("goodpaths.is_good.good_ratio", "ratio", "higher"),
    ("goodpaths.count_good_enumeration.self_s", "s/pass", "lower"),
    ("paths.self_s", "s/pass", "lower"),
    ("paths.validate.calls", "count/pass", "lower"),
    ("paths.validate.self_s", "s/pass", "lower"),
    ("paths.validate.per_path", "calls/path", "lower"),
    ("paths.enumerate_paths.paths", "count/pass", "higher"),
    ("paths.enumerate_paths.self_s", "s/pass", "lower"),
    ("paths.count_paths_enumeration.self_s", "s/pass", "lower"),
    ("paths.format_path.self_s", "s/pass", "lower"),
    ("encoding.self_s", "s/pass", "lower"),
    ("encoding.encode.calls", "count/pass", "lower"),
    ("encoding.encode.self_s", "s/pass", "lower"),
    ("encoding.decode.calls", "count/pass", "lower"),
    ("encoding.decode.self_s", "s/pass", "lower"),
    ("encoding.transport.calls", "count/pass", "lower"),
    ("adic.self_s", "s/pass", "lower"),
    ("adic.successor.calls", "count/pass", "lower"),
    ("adic.successor.self_s", "s/pass", "lower"),
    ("adic.minimal_path.calls", "count/pass", "lower"),
    ("adic.incoming_order.calls", "count/pass", "lower"),
    ("cli.self_s", "s/pass", "lower"),
    ("cli.out_bytes", "bytes/pass", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.unattributed_s", "s/pass", "lower"),
]


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import euleradic from this checkout's src/, never from elsewhere."""
    if not (SRC / "euleradic" / "__init__.py").is_file():
        _die(f"no euleradic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import euleradic
    if Path(euleradic.__file__).resolve().parent != SRC / "euleradic":
        _die(f"imported euleradic from {euleradic.__file__}, not from {SRC}")


# ------------------------------------------------------------ metadata


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _loadavg():
    text = _read(Path("/proc/loadavg"))
    return text.split()[:3] if text else None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cpu_model():
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def metadata(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "commit": _git_commit(),
            "seed": seed}


# ------------------------------------------------------------ measuring


def speed_probe() -> float:
    """Seconds for a fixed piece of plain Python work that shares no code
    with the program: three times, a 40x40 table of growing integers by a
    two-term recurrence, and its last row as text.  Of the probes tried,
    this one's time tracked the jobs' times most closely as the machine's
    speed drifted."""
    start = time.perf_counter()
    for _ in range(3):
        rows = [[1] * 40]
        for i in range(1, 40):
            row = [rows[-1][0] * 3]
            for j in range(1, 40):
                row.append((j + 2) * rows[-1][j] + (i + 2) * row[-1])
            rows.append(row)
        ",".join(map(str, rows[-1]))
    return time.perf_counter() - start


def timed(fn, *args, **kwargs):
    """(result, seconds, seconds scaled to the reference machine speed)."""
    before = speed_probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    after = speed_probe()
    return result, seconds, seconds * 2 * REFERENCE_S / (before + after)


def measure_setup() -> tuple[float, float]:
    """Median time, scaled and raw, of a fresh interpreter importing
    euleradic.cli and building its parser.  Each launch is paired with a
    launch of a bare interpreter, whose time is the speed reference here.
    One launch of each first fills the bytecode caches.  The launches are
    waited for without a timeout: with one, Popen.wait polls in sleeps of up
    to 50 ms, which rounds the measured time to that step."""
    setup = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    bare = [sys.executable, "-c", "pass"]
    launch = lambda cmd: subprocess.run(cmd, check=True)
    launch(setup), launch(bare)
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        launch(bare)
        middle = time.perf_counter()
        launch(setup)
        end = time.perf_counter()
        raw.append(end - middle)
        scaled.append((end - middle) * BARE_REFERENCE_S / (middle - start))
    return statistics.median(scaled), statistics.median(raw)


class Checker:
    """Checks each job's first output against its oracle (untimed) and
    every later output against the first."""

    def __init__(self, workloads):
        self.w = workloads
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, k, job, output) -> None:
        self.attempted += 1
        fp = self.w.fingerprint(job, output)
        if k not in self.first:
            self.first[k] = (fp, self.w.check(job, output))
        first_fp, errors = self.first[k]
        if fp != first_fp:
            errors = ["output differs from the job's first run"]
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"job {k} {' '.join(map(str, job.args))}: "
                                     + "; ".join(errors))


class Pass(NamedTuple):
    raw: list       # job latencies, seconds
    scaled: list    # the same scaled to the reference machine speed
    written: int    # bytes the CLI jobs wrote to stdout, counted when traced


def run_pass(w, jobs, checker, tracer=None) -> Pass:
    """One closed-loop pass over the job list."""
    raw, scaled, written = [], [], 0
    for k, job in enumerate(jobs):
        if tracer is None:
            output, seconds, norm = timed(w.run_job, job)
        else:
            (output, _), seconds, norm = timed(tracer.job, k, w.run_job, job)
        raw.append(seconds)
        scaled.append(norm)
        checker(k, job, output)
        if tracer is not None:
            written += w.out_bytes(output)
        del output  # so that two outputs are never alive at once
    return Pass(raw, scaled, written)


def percentile_rank(n: int, share: float) -> int:
    """Index of the nearest-rank percentile in a sorted list of n values."""
    return max(0, math.ceil(share * n) - 1)


def latency_figures(passes, field) -> dict:
    """Pass time as the sum over jobs of each job's median latency, which
    a few slow passes do not move, and the p50 and p90 of all samples."""
    per_job = zip(*(getattr(p, field) for p in passes))
    samples = sorted(x for p in passes for x in getattr(p, field))
    return {"pass_s": sum(statistics.median(lat) for lat in per_job),
            "job_p50_ms": statistics.median(samples) * 1e3,
            "job_p90_ms": samples[percentile_rank(len(samples), 0.9)] * 1e3}


def run_untraced(w, jobs, seconds, checker) -> tuple[dict, dict]:
    run_pass(w, jobs, checker)
    passes = []
    while sum(sum(p.raw) for p in passes) < seconds or len(passes) * len(jobs) < MIN_JOBS:
        passes.append(run_pass(w, jobs, checker))
    scaled, raw = latency_figures(passes, "scaled"), latency_figures(passes, "raw")
    metrics = {
        "jobs_per_s": len(jobs) / scaled["pass_s"],
        "job_p50_ms": scaled["job_p50_ms"],
        "job_p90_ms": scaled["job_p90_ms"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"samples": len(passes) * len(jobs), "passes": len(passes),
             "jobs_per_pass": len(jobs),
             "paths_per_s": sum(job.paths for job in jobs) / scaled["pass_s"],
             "raw_jobs_per_s": len(jobs) / raw["pass_s"],
             "raw_job_p50_ms": raw["job_p50_ms"], "raw_job_p90_ms": raw["job_p90_ms"]}
    return metrics, extra


def run_traced(w, jobs, seconds, checker):
    from tracing import LAYERS, Tracer, namespace_snapshot

    run_pass(w, jobs, checker)
    before = namespace_snapshot()
    tracer = Tracer()
    untraced, traced = [], []
    while sum(sum(p.raw) for p in untraced + traced) < seconds or not traced:
        untraced.append(run_pass(w, jobs, checker))
        tracer.install()
        try:
            traced.append(run_pass(w, jobs, checker, tracer))
        finally:
            tracer.uninstall()
    passes = len(traced)
    stat = tracer.stat
    produced = stat("paths.enumerate_paths").items + stat("adic.orbit").items
    is_good = stat("goodpaths.is_good")
    values = {
        "eulerian.max_bits": tracer.max_bits,
        "goodpaths.is_good.good_ratio":
            tracer.counts.get("goodpaths.is_good.good", 0) / is_good.calls if is_good.calls else 0.0,
        "paths.validate.per_path":
            stat("paths.validate").calls / produced if produced else 0.0,
        "bench.trace_overhead": (sum(sum(p.scaled) for p in traced)
                                 / sum(sum(p.scaled) for p in untraced)),
        "bench.unattributed_s": tracer.root.self_s / passes,
        "cli.out_bytes": sum(p.written for p in traced) / passes,
        "paths.enumerate_paths.paths": stat("paths.enumerate_paths").items / passes,
    }
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        parts = name.split(".")
        if parts[-1] == "self_s":
            value = tracer.self_s(".".join(parts[:-1]))
        elif parts[-1] == "calls":
            value = stat(".".join(parts[:-1])).calls
        else:
            value = tracer.counts.get(name, 0)
        values[name] = value / passes
    extra = {"traced_passes": passes, "untraced_passes": len(untraced),
             "wrappers_restored": namespace_snapshot() == before,
             "spans_kept": len(tracer.spans),
             "spans_dropped": tracer.spans_dropped,
             "traced_job_s": tracer.root.total_s / passes,
             "layer_self_s": sum(map(tracer.self_s, LAYERS)) / passes}
    return values, extra, tracer


def run_bigint_probe() -> dict:
    """The big-integer table job, run once outside the timed mix and
    checked against a digest computed in a child interpreter."""
    import workloads as w

    child = subprocess.run([sys.executable, "-c", BIGINT_DIGEST_CODE], check=True,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    output = w.run_cli(BIGINT_ARGV)
    digest = hashlib.sha256(output.out.encode()).hexdigest()
    ok = output.rc == 0 and digest == child.stdout.strip()
    return {"argv": " ".join(BIGINT_ARGV), "status": "PASS" if ok else "FAIL",
            "rc": output.rc, "stdout_bytes": len(output.out.encode()),
            "stderr": output.err.strip()[:200]}


# ------------------------------------------------------------ command


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import workloads as w

    meta = metadata(seed)
    meta["loadavg_before"] = _loadavg()
    jobs = w.make_jobs(workload, seed)
    checker = Checker(w)
    record = {"workload": workload, "trace": int(trace), "meta": meta}
    if trace:
        values, extra, tracer = run_traced(w, jobs, seconds, checker)
        units = {name: unit for name, unit, _ in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        if not extra["wrappers_restored"]:
            checker.failed += 1
            checker.messages.append("tracing left a wrapped attribute behind")
    else:
        setup_s, raw_setup_s = measure_setup()
        values, extra = run_untraced(w, jobs, seconds, checker)
        values["setup_s"] = setup_s
        extra["raw_setup_s"] = raw_setup_s
        units = {name: unit for name, unit, _, _ in END_TO_END}
    if workload == "query":
        record["bigint_probe"] = run_bigint_probe()
    meta["loadavg_after"] = _loadavg()
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    extra["failed_ratio"] = checker.failed / checker.attempted
    record.update(metrics=metrics, extra=extra, failures=checker.messages)

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:42s} {value}")
    if "bigint_probe" in record:
        p = record["bigint_probe"]
        print(f"bigint_probe {p['status']} rc={p['rc']} stdout_bytes={p['stdout_bytes']} "
              f"{p['argv']}  {p['stderr']}")
    for message in checker.messages:
        print(f"FAILED {message}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process so the RSS peaks stay apart."""
    results, rc = {}, 0
    for workload in ("query", "walk", "orbit"):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            rc = child.returncode
        lines = child.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines and child.returncode in (0, 1) else None
    print(json.dumps(results))
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("query", "walk", "orbit", "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
