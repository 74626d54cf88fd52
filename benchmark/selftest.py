"""Quick self-test of the benchmark harness at tiny sizes.

    python3 benchmark/selftest.py

Checks that every workload prints the result schema BENCHMARK.json declares,
in both the timed and the traced run; that a wrong expected count makes the
error rate non-zero; and that the harness refuses to run, printing no result,
when GEO_THREADS is set or when the package sources are absent.
Takes about half a minute.  Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
problems = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def invoke(args, cwd=run.ROOT, env=None):
    argv = [sys.executable, "benchmark/run.py", *args]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def check_schema(workload: str, trace: int) -> None:
    where = f"{workload} --trace {trace}"
    done = invoke(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                   "--trace", str(trace), "--tiny"])
    check(done.returncode == 0, f"{where}: exit code {done.returncode}: {done.stderr[-500:]}")
    if done.returncode != 0:
        return
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{where}: outputs not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{where}: attempted {result['attempted']!r}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in declared],
          f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        check(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')!r}")
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{where}: {m['name']} value {value!r}")
        if not trace:
            check(value > 0, f"{where}: end-to-end metric {m['name']} is {value!r}")


def check_wrong_expected_count() -> None:
    def plant(wl):
        wl.expected[0] = replace(wl.expected[0], quad=wl.expected[0].quad + 1)

    result, _lines = run.run("small_batch", 3, 0.3, False, tiny=True, mutate=plant)
    check(result["failed"] > 0 and result["correct"] is False,
          f"a wrong expected count went unnoticed: {result['failed']} failed")


def check_refusals() -> None:
    env = dict(os.environ, GEO_THREADS="1")
    args = ["--workload", "anneal", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = invoke(args, env=env)
    check(done.returncode != 0 and not done.stdout.strip(), "ran although GEO_THREADS was set")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmark").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "benchmark")
    done = invoke(args, cwd=bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          "ran in a directory without the package sources")
    shutil.rmtree(bare)


def main() -> int:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_schema(workload, trace)
    check_wrong_expected_count()
    check_refusals()
    print("selftest:", "FAILED" if problems else "ok", f"({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
