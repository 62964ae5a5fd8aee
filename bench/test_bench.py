"""Tests of the benchmark itself: seeded job lists, tracing that leaves the
program untouched, output checks that catch wrong answers, and metric names
that fit the result format."""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from euleradic import count_good_dp  # noqa: E402


def test_same_seed_gives_same_job_list():
    for workload in w.WORKLOADS:
        assert w.make_jobs(workload, 11) == w.make_jobs(workload, 11)
        assert len(w.make_jobs(workload, 11)) == len(w.make_jobs(workload, 12))
    assert w.make_jobs("query", 11) != w.make_jobs("query", 12)


SMALL_JOBS = [
    w.Job("table", ("table", "--p", "1", "--q", "0", "--imax", "6", "--jmax", "5"), 0),
    w.Job("table", ("table", "--p", "0", "--q", "2", "--imax", "4", "--jmax", "4",
                    "--format", "json"), 0),
    w.Job("good", ("good", "--p", "1", "--q", "1", "--i", "4", "--j", "3",
                   "--method", "enum"), 0),
    w.Job("converge", ("converge", "--p", "1", "--q", "0", "--diag", "20", "--step", "5"), 0),
    w.Job("verify", ("verify", "--suite", "identity", "--pmax", "1", "--imax", "4"), 0),
    w.Job("orbit", ("orbit", "--vertex", "2,3"), 302),
    w.Job("walk", ((1, 0), (3, 3)), 1208),
]


def test_traced_run_restores_attributes_and_output():
    plain = [w.run_job(job) for job in SMALL_JOBS]
    before = tracing.namespace_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.namespace_snapshot() != before
        traced = [tracer.job(k, w.run_job, job)[0] for k, job in enumerate(SMALL_JOBS)]
    finally:
        tracer.uninstall()
    assert tracing.namespace_snapshot() == before
    for job, a, b in zip(SMALL_JOBS, plain, traced):
        assert w.fingerprint(job, a) == w.fingerprint(job, b)
    assert tracer.stat("cli.main").calls == 6
    assert tracer.stat("adic.successor").calls == 302
    assert tracer.stat("adic.orbit").items == 302
    assert tracer.stat("paths.enumerate_paths").items == 1208
    # validate is reached through goodpaths, encoding and adic as well.
    assert tracer.stat("paths.validate").calls > 2 * 1208
    layers = sum(map(tracer.self_s, tracing.LAYERS)) + tracer.root.self_s
    assert abs(layers - tracer.root.total_s) < 1e-6 * len(tracer.spans)
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] is None or span[1] in ids for span in tracer.spans)


def test_checks_pass_on_program_output_and_catch_tampering():
    for job in SMALL_JOBS:
        assert w.check(job, w.run_job(job)) == []
    table = w.run_job(SMALL_JOBS[0])
    last_digit = str((int(table.out[-2]) + 1) % 10)  # of the corner cell, always sampled
    assert w.check(SMALL_JOBS[0], table._replace(out=table.out[:-2] + last_digit + "\n"))
    orbit = w.run_job(SMALL_JOBS[5])
    lines = orbit.out.splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    assert w.check(SMALL_JOBS[5], orbit._replace(out="\n".join(lines) + "\n"))
    walk = w.run_job(SMALL_JOBS[6])
    assert w.check(SMALL_JOBS[6], walk._replace(decoded=walk.decoded[::-1]))
    assert w.check(SMALL_JOBS[6], walk._replace(good=walk.good + 1))


def test_sieve_matches_dp():
    for p in range(3):
        for q in range(3):
            for i in range(6):
                for j in range(6):
                    assert w.good_count_sieve((p, q), (i, j)) == count_good_dp((p, q), (i, j))


NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == run.END_TO_END and layer == run.PER_LAYER
    assert len(e2e) <= 16 and len(layer) <= 128
    names = [m[0] for m in e2e + layer]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert ("setup_s", "s", "lower", max(m[3] for m in e2e)) in e2e
    assert all(0 < m[3] <= 0.25 for m in e2e)
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)


def test_exits_nonzero_without_the_program():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "query",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
