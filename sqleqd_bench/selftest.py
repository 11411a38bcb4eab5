#!/usr/bin/env python3
"""Self-test of the sqleqd benchmark's exact counts.

Run from the repository root:

    python3 sqleqd_bench/selftest.py

For every workload it makes two short traced runs with the same seed and
asserts that:
  * both runs check every answer (correct, no failed operation);
  * the exact per-layer counts are identical between the two runs;
  * check_hot is served entirely from the memo (memo.hit_ratio = 1,
    chase.steps_per_req = 0);
  * check_cold never repeats a query (no canonical query key is shared by
    two requests) and does chase work.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SEED = 7
# Short runs: 600 check_hot requests, 400 check_cold requests, and one pass
# over the reformulate pool.
SECONDS = {"check_hot": "0.24", "check_cold": "0.5", "reformulate": "0.14"}
EXACT = (
    "chase.steps_per_req",
    "memo.hit_ratio",
    "memo.disk.writes_per_req",
    "backchase.candidates_per_req",
    "backchase.accept_ratio",
    "backchase.memo_hit_ratio",
    "service.response_bytes",
    "telemetry.counters_per_resp",
)


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS[workload], "--trace", "1"],
        stdout=subprocess.PIPE, check=True)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result, metrics, lines[:-1]


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)
    print("ok:", message)


def main():
    for workload in SECONDS:
        first, counts, manifest = traced_run(workload)
        second, counts_again, _ = traced_run(workload)
        for result in (first, second):
            check(result["correct"] and result["failed"] == 0,
                  "%s: every answer checked and correct" % workload)
        for name in EXACT:
            check(counts[name] == counts_again[name],
                  "%s: %s identical across same-seed runs (%s)"
                  % (workload, name, counts[name]))
        if workload == "check_hot":
            check(counts["memo.hit_ratio"] == 1, "check_hot: memo.hit_ratio = 1")
            check(counts["chase.steps_per_req"] == 0,
                  "check_hot: chase.steps_per_req = 0")
        if workload == "check_cold":
            check(any(" 0 canonical keys shared across requests" in line
                      for line in manifest),
                  "check_cold: no query repeats across requests")
            check(counts["chase.steps_per_req"] > 0,
                  "check_cold: every request chases")
    print("PASS")


if __name__ == "__main__":
    main()
