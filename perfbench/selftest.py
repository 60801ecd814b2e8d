"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. ``verify --inject-error`` at the smallest size is counted as failed, and
   so is a density grid too large for the child's address-space limit.
2. Every workload run.py defines, at its minimal size, untraced and traced,
   passes its output checks and emits every metric BENCHMARK.json names,
   with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exits 0 when all of these hold, 1 otherwise.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys

import run

FAILURES = []


def expect(condition, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def injected_error_counts_as_failed() -> None:
    digests = run.load_digests()
    calls = run.workloads(digests, small=True)["verify"]
    runner = run.Runner("selftest-inject", calls, digests, run.now() + run.CHILD_DEADLINE_S)
    runner.run_once(argv_extra=("--inject-error",))
    expect(runner.attempted == 1 and runner.failed == 1,
           f"verify --inject-error counted as failed ({runner.failed} of {runner.attempted})")


def runaway_size_fails_its_run() -> None:
    """A grid of 4e8 points needs arrays above the child's address-space limit."""
    call = run.Invocation(("density", "--rank", "2", "--grid", "20000"), "csv", 0,
                          run.validate_density_csv)
    runner = run.Runner("selftest-runaway", (call,), {}, run.now() + run.CHILD_DEADLINE_S)
    runner.run_once()
    expect(runner.failed == 1 and any("Memory" in p for p in runner.problems),
           f"density --grid 20000 fails on the address-space limit ({runner.problems[-1:]})")


def every_metric_emitted(spec: dict) -> None:
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in run.workloads({}, small=True):
            result, lines = run.benchmark(workload, 0, 1.0, trace, small=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)} passes at minimal size")
            expect(got == wanted, f"{workload} trace={int(trace)} emits every {group} metric "
                   f"with its unit (missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))}, "
                   f"unit mismatch {sorted(n for n in got if n in wanted and got[n] != wanted[n])})")


def bare_directory_fails() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "verify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"run.py without the program exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORK.mkdir(exist_ok=True)
    injected_error_counts_as_failed()
    runaway_size_fails_its_run()
    every_metric_emitted(spec)
    bare_directory_fails()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
