#!/usr/bin/env python3
"""Sanity-checks a merged bench report (tools/run_bench.sh output).

Asserts the cached-index machinery actually engaged during the run:
every F5 Indexed:1 evaluation benchmark must report a nonzero
`index_hits` counter and zero `index_builds` (the setup primes the
caches, so a warm run that builds anything — or hits nothing — means
the cache is broken or disabled), and every Indexed:0 baseline must
report zero `index_hits`.

When the report includes the F12 storage suite, also asserts the
persisted-extents claims: every Mmap:1 persisted-answer benchmark must
produce answers through warm cached indexes (index_hits > 0,
index_builds == 0) and hold its post-answer resident growth below the
on-disk database size (`rss_answer_mb < file_mb` — the point of the
mmap backend), while the Mmap:0 eager baseline must still answer
identically (same `answers` counter as its mmap twin).

The F12 eager open (BM_F12_OpenRecover at size 10^6, Mmap:0) copies
every segment onto the heap, so its `rss_open_mb` must be at least half
of `file_mb`; a smaller figure means the counter is not measuring the
open.

Every report must carry the `provenance` object run_bench.sh writes
(git SHA, CMAKE_BUILD_TYPE, nproc, benchmark flags).

Usage: tools/check_bench_smoke.py BENCH.json
"""

import json
import sys


def fail(msg):
    print(f"check_bench_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_f5(suite):
    checked = 0
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if "Indexed:" not in name:
            continue
        hits = bench.get("index_hits")
        builds = bench.get("index_builds")
        if hits is None or builds is None:
            fail(f"{name}: missing index_hits/index_builds counters")
        if "Indexed:1" in name:
            if hits <= 0:
                fail(f"{name}: warm run reported index_hits={hits}")
            if builds != 0:
                fail(f"{name}: warm run reported index_builds={builds}")
        else:
            if hits != 0:
                fail(f"{name}: cold baseline reported index_hits={hits}")
        checked += 1

    if checked == 0:
        fail("no Indexed:* benchmarks found in bench_f5_eval_speedup")
    return checked


def check_f12(suite):
    checked = 0
    answers = {}  # (size) -> {mmap_flag: answers} for cross-backend equality
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if "BM_F12_SelectiveAnswerPersisted" not in name or "Mmap:" not in name:
            continue
        mmap = "Mmap:1" in name
        for counter in ("answers", "index_hits", "index_builds", "file_mb",
                        "rss_answer_mb"):
            if bench.get(counter) is None:
                fail(f"{name}: missing {counter} counter")
        if bench["answers"] <= 0:
            fail(f"{name}: persisted answer produced no rows")
        if bench["index_hits"] <= 0:
            fail(f"{name}: warm persisted run reported "
                 f"index_hits={bench['index_hits']}")
        if bench["index_builds"] != 0:
            fail(f"{name}: warm persisted run reported "
                 f"index_builds={bench['index_builds']}")
        if mmap and bench["rss_answer_mb"] >= bench["file_mb"]:
            fail(f"{name}: mmap backend resident growth "
                 f"({bench['rss_answer_mb']:.1f} MiB) is not below the "
                 f"database size ({bench['file_mb']:.1f} MiB)")
        size_key = name.split("size:")[-1].split("/")[0]
        answers.setdefault(size_key, {})[mmap] = bench["answers"]
        checked += 1

    if checked == 0:
        fail("no SelectiveAnswerPersisted benchmarks in bench_f12_storage")
    eager_opens = 0
    for bench in suite.get("benchmarks", []):
        name = bench.get("name", "")
        if ("BM_F12_OpenRecover" not in name or "size:1000000/" not in name
                or "Mmap:0" not in name):
            continue
        for counter in ("rss_open_mb", "file_mb"):
            if bench.get(counter) is None:
                fail(f"{name}: missing {counter} counter")
        if bench["rss_open_mb"] < 0.5 * bench["file_mb"]:
            fail(f"{name}: eager open grew resident memory by "
                 f"{bench['rss_open_mb']:.1f} MiB, under half the "
                 f"{bench['file_mb']:.1f} MiB it copies onto the heap")
        eager_opens += 1
    if eager_opens == 0:
        fail("no BM_F12_OpenRecover size:1000000 Mmap:0 benchmark in "
             "bench_f12_storage")
    for size, by_backend in answers.items():
        if len(by_backend) == 2 and by_backend[True] != by_backend[False]:
            fail(f"F12 size {size}: mmap and columnar backends disagree "
                 f"({by_backend[True]} vs {by_backend[False]} answers)")
    return checked


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} BENCH.json")
    with open(sys.argv[1]) as f:
        merged = json.load(f)
    suites = merged.get("suites", {})

    provenance = merged.get("provenance")
    if not isinstance(provenance, dict):
        fail("no provenance object in the report (run it via run_bench.sh)")
    for key in ("git_sha", "cmake_build_type", "nproc", "flags"):
        if key not in provenance:
            fail(f"provenance is missing {key}")

    f5 = suites.get("bench_f5_eval_speedup")
    if f5 is None:
        fail("no bench_f5_eval_speedup suite in the report")
    checked = check_f5(f5)

    f12_checked = 0
    f12 = suites.get("bench_f12_storage")
    if f12 is not None:
        f12_checked = check_f12(f12)

    print(f"check_bench_smoke: OK ({checked} F5 benchmarks, "
          f"{f12_checked} F12 benchmarks checked)")


if __name__ == "__main__":
    main()
