"""Seeded job mixes for the three workloads, how each job runs, and the
untimed checks of its output.

Every workload is a fixed mix of job slots.  The seed picks, per slot, one
of a few inputs of equal cost (mirror images under (p, q, i, j) ->
(q, p, j, i), which leave every count unchanged) plus a small size jitter,
and the order of the jobs.  So the work per pass is nearly independent of
the seed while the inputs differ, and the latency quantiles land on the
same slots on every seed: a pass has 25 (query, walk) or 15 (orbit) jobs,
which puts p50 and p90 in the middle of a slot's share of the samples.

The program sees only argv (CLI jobs) or plain arguments (walk jobs).  The
checks compare against oracles that do not share the code path under test:
closed_form_sym and an inclusion-exclusion sieve for the counting jobs, the
closed form and the same sieve for the per-path walks, parse_path and
compare for orbits.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from euleradic import adic, cli, encoding, eulerian, goodpaths, paths

WORKLOADS = ("query", "walk", "orbit")


class Job(NamedTuple):
    kind: str     # checker: table, good, converge, verify, orbit, walk
    args: tuple   # argv for CLI jobs; (base, end) for walk jobs
    paths: int    # paths the program produces (orbit lines, enumerated walk paths)


# ------------------------------------------------------------ job mixes


def _flip(rng, p, q, i, j):
    """One of the two mirror-image inputs with the same counts."""
    return (p, q, i, j) if rng.random() < 0.5 else (q, p, j, i)


def _jitter(rng, *sizes):
    """Move the large sizes by up to 2; small ones would change the cost
    by too large a share."""
    d = rng.randint(-2, 2)
    return [s + d if s >= 40 else s for s in sizes]


def _table(rng, p, q, imax, jmax, fmt="csv"):
    p, q, imax, jmax = _flip(rng, p, q, *_jitter(rng, imax, jmax))
    argv = ["table", "--p", p, "--q", q, "--imax", imax, "--jmax", jmax]
    if fmt == "json":
        argv += ["--format", "json"]
    return Job("table", tuple(map(str, argv)), 0)


def _good(rng, p, q, i, j, method="dp"):
    p, q, i, j = _flip(rng, p, q, *_jitter(rng, i, j))
    argv = ["good", "--p", p, "--q", q, "--i", i, "--j", j, "--method", method]
    return Job("good", tuple(map(str, argv)), 0)


def _converge(rng, p, q, diag, step):
    p, q, _, _ = _flip(rng, p, q, 0, 0)
    argv = ["converge", "--p", p, "--q", q, "--diag", diag + rng.randint(0, step - 1),
            "--step", step]
    return Job("converge", tuple(map(str, argv)), 0)


def _verify(suite, size, **bases):
    # Windows this small have no cost-neutral variant, so they are fixed.
    argv = ["verify", "--suite", suite]
    for key, value in bases.items():
        argv += [f"--{key}", value]
    argv += ["--imax", size] if suite == "identity" else ["--imax", size, "--jmax", size]
    return Job("verify", tuple(map(str, argv)), 0)


def _query(rng):
    # Counting jobs: eulerian, the good-path DP, ratios and big-integer
    # formatting in cli.  Slot costs are spread roughly geometrically.
    return [
        _converge(rng, 1, 1, 60, 5),
        _table(rng, 0, 0, 40, 40, "json"),
        _converge(rng, 2, 0, 120, 10),
        _table(rng, 0, 0, 60, 60),
        _table(rng, 3, 0, 12, 300),
        _table(rng, 1, 2, 80, 80, "json"),
        _verify("identity", 10, pmax=3),
        _table(rng, 1, 0, 90, 90),
        _converge(rng, 1, 2, 200, 20),
        _good(rng, 0, 0, 400, 5),
        _verify("recurrence", 16, pmax=2, qmax=2),
        _table(rng, 2, 1, 110, 110),
        _verify("monotonicity", 16, pmax=2, qmax=3),
        _verify("identity", 18, pmax=3),
        _good(rng, 1, 1, 240, 5),
        _table(rng, 1, 1, 150, 150),
        _verify("recurrence", 24, pmax=2, qmax=2),
        _verify("monotonicity", 24, pmax=2, qmax=3),
        _good(rng, 1, 1, 40, 40),
        _good(rng, 0, 0, 100, 100),
        _good(rng, 2, 2, 20, 20),
        _good(rng, 2, 1, 28, 28),
        _good(rng, 3, 2, 20, 20),
        _good(rng, 3, 3, 12, 12),
        _good(rng, 1, 0, 90, 90),
    ]


# Walk cells (base, end) at levels 0-2, from 26 to 4,293 paths.  The costs
# step by about 1.3x, with wider steps around the p50 and p90 slots; the
# cells (0, 0) -> (2, 2), (3, 3), (2, 5) and (0, 1) -> (3, 3) are past the
# threshold where transport is a bijection.  Each is one mirror pair; the
# seed picks the side.
_WALK_CELLS = [
    ((0, 0), (1, 3)), ((0, 1), (2, 2)), ((0, 1), (1, 4)), ((1, 1), (2, 3)),
    ((0, 0), (1, 4)), ((0, 0), (2, 2)), ((0, 1), (6, 1)), ((0, 1), (1, 5)),
    ((0, 0), (1, 5)), ((0, 1), (2, 3)), ((0, 2), (2, 4)), ((1, 1), (3, 3)),
    ((0, 1), (1, 7)), ((0, 1), (4, 2)), ((1, 1), (2, 5)), ((0, 1), (2, 4)),
    ((0, 2), (2, 5)), ((0, 1), (3, 3)), ((0, 0), (1, 8)), ((0, 0), (3, 3)),
    ((0, 2), (3, 4)), ((0, 0), (2, 5)),
]

# Cells for `good --method enum`, which walks every path but keeps none.
_ENUM_CELLS = [((0, 1), (4, 3)), ((0, 2), (3, 5)), ((0, 1), (3, 5))]


def _walk(rng):
    jobs = []
    for base, end in _WALK_CELLS:
        p, q, x, y = _flip(rng, *base, *end)
        base, end = (p, q), (x, y)
        off = (x - p, y - q)
        jobs.append(Job("walk", (base, end), eulerian.closed_form(base, off)))
    for base, end in _ENUM_CELLS:
        p, q, x, y = _flip(rng, *base, *end)
        argv = ["good", "--p", p, "--q", q, "--i", x - p, "--j", y - q, "--method", "enum"]
        jobs.append(Job("good", tuple(map(str, argv)), 0))
    return jobs


# Orbit vertices by (level, x); the seed picks (x, n-x) or its mirror.
_ORBIT_VERTICES = [(1, 0), (5, 0), (2, 1), (3, 1), (4, 1), (5, 1), (4, 2), (6, 1),
                   (7, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 2), (7, 3)]


def _orbit(rng):
    jobs = []
    for level, x in _ORBIT_VERTICES:
        v = _flip(rng, x, level - x, 0, 0)[:2]
        jobs.append(Job("orbit", ("orbit", "--vertex", f"{v[0]},{v[1]}"),
                        eulerian.dim_between((0, 0), v)))
    return jobs


_MIXES = {"query": _query, "walk": _walk, "orbit": _orbit}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _MIXES[workload](rng)
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ running


class CliOutput(NamedTuple):
    rc: int
    out: str
    err: str


def run_cli(argv) -> CliOutput:
    """cli.main(argv) with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return CliOutput(rc, out.getvalue(), err.getvalue())


class WalkOutput(NamedTuple):
    paths: list
    decoded: list
    good: int
    images: dict
    dp: dict
    walked: int
    good_walked: int


def run_walk(base, end) -> WalkOutput:
    """Enumerate every path of the cell; test goodness, encode and decode
    at its own base, and transport each good path to every other base of the
    same level.  Then count good paths to the endpoint from every base of
    the level by the DP, and count the cell again with both exhaustive
    walkers."""
    level = base[0] + base[1]
    off = (end[0] - base[0], end[1] - base[1])
    bases = [(p, level - p) for p in range(level + 1)]
    scheme = goodpaths.LabelScheme(eulerian.Vertex(*base))
    others = [goodpaths.LabelScheme(eulerian.Vertex(*b)) for b in bases if b != base]
    found, decoded, good = [], [], 0
    images = {tuple(s.base): set() for s in others}
    for path in paths.enumerate_paths(base, off):
        found.append(path)
        decoded.append(encoding.decode(scheme, encoding.encode(scheme, path)))
        if goodpaths.is_good(scheme, path)[0]:
            good += 1
            for dst in others:
                images[tuple(dst.base)].add(encoding.transport(scheme, dst, path))
    dp = {b: goodpaths.count_good_dp(b, (end[0] - b[0], end[1] - b[1])) for b in bases}
    return WalkOutput(found, decoded, good, images, dp,
                      paths.count_paths_enumeration(base, off),
                      goodpaths.count_good_enumeration(base, off))


class Crash(NamedTuple):
    """A job that raised instead of answering."""

    err: str


def run_job(job: Job):
    try:
        return run_walk(*job.args) if job.kind == "walk" else run_cli(job.args)
    except Exception:  # a traceback is a failed job, not a crashed run
        return Crash(traceback.format_exc())


def fingerprint(job: Job, output):
    """A value that repeats exactly when the job's output repeats."""
    if isinstance(output, Crash):
        return output
    if job.kind == "walk":
        return hash((tuple(output.paths), tuple(output.decoded), output.good,
                     tuple(sorted((k, frozenset(v)) for k, v in output.images.items())),
                     tuple(sorted(output.dp.items())), output.walked, output.good_walked))
    return output.rc, hash(output.out), output.err


def out_bytes(output) -> int:
    return len(output.out.encode()) if isinstance(output, CliOutput) else 0


# ------------------------------------------------------------ oracles


def good_count_sieve(base, off) -> int:
    """Good paths by inclusion-exclusion over the never-consumed labels.

    A path misses label s_a exactly when it never takes that label's fixed
    edge index, so the paths missing h horizontal and v vertical labels obey
    the count recurrence with every bundle shrunk by h (resp. v).
    """
    p, q = base
    i, j = off
    total = 0
    for h in range(q + 2):
        for v in range(p + 2):
            row = [1] * (j + 1)
            for b in range(1, j + 1):
                row[b] = row[b - 1] * (p + 1 - v)
            for a in range(1, i + 1):
                row[0] *= q + 1 - h
                for b in range(1, j + 1):
                    row[b] = (q + b + 1 - h) * row[b] + (p + a + 1 - v) * row[b - 1]
            total += (-1) ** (h + v) * comb(q + 1, h) * comb(p + 1, v) * row[j]
    return total


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _flags(argv) -> dict:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)
            if argv[k].startswith("--")}


def _sample_cells(rng, imax, jmax, n=8):
    cells = {(0, 0), (imax, jmax), (imax, 0), (0, jmax)}
    while len(cells) < min(n, (imax + 1) * (jmax + 1)):
        cells.add((rng.randint(0, imax), rng.randint(0, jmax)))
    return sorted(cells)


def check_table(job, output) -> list[str]:
    f = _flags(job.args)
    p, q, imax, jmax = (int(f[k]) for k in ("p", "q", "imax", "jmax"))
    if output.rc != 0:
        return [f"exit code {output.rc}: {output.err.strip()[:200]}"]
    if f.get("format") == "json":
        obj = json.loads(output.out)
        if obj["params"] != {"p": p, "q": q, "imax": imax, "jmax": jmax}:
            return ["wrong params block"]
        rows = obj["rows"]
        if len(rows) != imax + 1 or any(len(r) != jmax + 1 for r in rows):
            return ["wrong table shape"]
        cell = lambda i, j: rows[i][j]
    else:
        lines = output.out.split("\n")
        if lines[0] != "i\\j," + ",".join(map(str, range(jmax + 1))) or lines[-1] != "":
            return ["wrong CSV header or trailer"]
        rows = lines[1:-1]
        if len(rows) != imax + 1 or any(not r.startswith(f"{i},") or r.count(",") != jmax + 1
                                        for i, r in enumerate(rows)):
            return ["wrong table shape or row labels"]
        cell = lambda i, j: int(rows[i].split(",")[j + 1])
    rng = random.Random(" ".join(job.args))
    return [f"cell {(i, j)} differs from closed_form_sym"
            for i, j in _sample_cells(rng, imax, jmax)
            if cell(i, j) != eulerian.closed_form_sym((p, q), (i, j))]


def check_good(job, output) -> list[str]:
    f = _flags(job.args)
    base, off = (int(f["p"]), int(f["q"])), (int(f["i"]), int(f["j"]))
    g = good_count_sieve(base, off)
    a = eulerian.closed_form_sym(base, off)
    expected = f"G={g} A={a} G/A={_frac(Fraction(g, a))}\n"
    if output.rc != 0 or output.out != expected:
        return [f"exit code {output.rc} or output differs from the sieve"]
    return []


def check_converge(job, output) -> list[str]:
    f = _flags(job.args)
    p, q, diag, step = (int(f[k]) for k in ("p", "q", "diag", "step"))
    target = Fraction(1, factorial(p + q + 1))
    lines = ["k,ratio,target,gap,ratio_decimal,gap_decimal"]
    for k in range(step, diag + 1, step):
        ratio = Fraction(eulerian.closed_form_sym((p, q), (k, k)),
                         eulerian.closed_form_sym((0, 0), (p + k, q + k)))
        gap = abs(ratio - target)
        lines.append(f"{k},{_frac(ratio)},{_frac(target)},{_frac(gap)},"
                     f"{float(ratio):.15g},{float(gap):.15g}")
    if output.rc != 0 or output.out != "\n".join(lines) + "\n":
        return [f"exit code {output.rc} or output differs from closed_form_sym"]
    return []


_VERIFY_CASES = {
    "identity": lambda f: int(f["pmax"]) + 1,
    "recurrence": lambda f: (int(f["pmax"]) + 1) * (int(f["qmax"]) + 1),
    "monotonicity": lambda f: (int(f["pmax"]) + 1) * int(f["qmax"]),
}


def check_verify(job, output) -> list[str]:
    f = _flags(job.args)
    n = _VERIFY_CASES[f["suite"]](f)
    lines = output.out.splitlines()
    if (output.rc != 0 or len(lines) != n + 1 or lines[-1] != f"passed {n} of {n} cases"
            or not all(line.startswith("PASS ") for line in lines[:-1])):
        return [f"exit code {output.rc} or not {n} passing cases"]
    return []


def check_orbit(job, output) -> list[str]:
    v = tuple(int(c) for c in job.args[2].split(","))
    if output.rc != 0:
        return [f"exit code {output.rc}"]
    lines = output.out.splitlines()
    if len(lines) != job.paths or output.out != "\n".join(lines) + "\n":
        return [f"{len(lines)} lines, expected dim_between = {job.paths}"]
    found = [paths.parse_path(line) for line in lines]
    if any(x.start != (0, 0) or x.end() != v for x in found):
        return ["a line is not a root path to the vertex"]
    if any(adic.compare(a, b) != -1 for a, b in zip(found, found[1:])):
        return ["orbit is not strictly increasing"]
    return []


def check_walk(job, output) -> list[str]:
    base, end = job.args
    level = base[0] + base[1]
    off = (end[0] - base[0], end[1] - base[1])
    count = eulerian.closed_form(base, off)
    good = {b: good_count_sieve(b, (end[0] - b[0], end[1] - b[1]))
            for b in ((p, level - p) for p in range(level + 1))}
    errors = []
    if not len(output.paths) == len(set(output.paths)) == output.walked == count:
        errors.append(f"path count differs from closed_form = {count}")
    if any(x.start != base or x.end() != end for x in output.paths):
        errors.append("an enumerated path leaves the cell")
    if output.dp != good:
        errors.append("count_good_dp differs from the sieve")
    if not output.good == output.good_walked == good[base]:
        errors.append(f"good count differs from the sieve = {good[base]}")
    if output.decoded != output.paths:
        errors.append("decode(encode(path)) is not the identity")
    if end[0] >= level + 2 and end[1] >= level + 2:
        # Past this threshold transport is a bijection of good-path sets.
        for dst, image in output.images.items():
            if len(image) != good[dst] or any(y.end() != end for y in image):
                errors.append(f"transport image at {dst} has {len(image)} "
                              f"paths, expected {good[dst]}")
    return errors


_CHECKS = {"table": check_table, "good": check_good, "converge": check_converge,
           "verify": check_verify, "orbit": check_orbit, "walk": check_walk}


def check(job: Job, output) -> list[str]:
    """Untimed output check; returns the list of defects (empty when correct)."""
    if isinstance(output, Crash):
        return ["raised " + output.err.strip().splitlines()[-1]]
    try:
        return _CHECKS[job.kind](job, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {exc!r}"[:200]]
