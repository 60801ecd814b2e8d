"""Benchmark of the radialmasa command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Each workload is a fixed list of ``radialmasa.cli.main`` invocations;
BENCHMARK.json names the ones the regression gate times.  One
fresh child interpreter (``child.py``) runs the whole list, so every cache
starts cold the way it does for a CLI user; children run one after another
until the next one would overrun ``--seconds``.  Every output is validated
after its child exits.

``--trace 0`` reports the end-to-end metrics as medians over the children.
The gated times are scaled by the machine's speed, which ``child.py``
measures with a fixed reference kernel around every invocation; the raw
wall times are printed beside them.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (medians) plus the tracing overhead.
The last line of standard output is one JSON object; the lines before it,
starting with ``#``, are the human-readable record.

The CLI takes no random input, so ``--seed`` does not change the work; it
is recorded with the machine description.  ``--record-digests`` rewrites
``digests.json`` from the current program; run it only when a change of
output is intended.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DIGESTS_PATH = BENCH / "digests.json"

# The child's virtual address-space limit, so a runaway size fails its run
# instead of exhausting the machine.  density-export peaks at about 450 MB
# resident and 530 MB virtual.
ADDRESS_SPACE_BYTES = 2 << 30
# Every child must end this long after the benchmark started, so a run
# exits within 180 s even when a program change makes a child hang.
CHILD_DEADLINE_S = 160.0
# Import-only children per run, so setup_s is a median of several samples
# even on workloads where few full children fit in a run.
SETUP_PROBES = 8
# Closed-form and series rows must agree within tail_bound plus this
# (acceptance criterion 7 of the test suite).
SERIES_SLACK = 1e-10
# Scaled times are wall times at the speed where child.reference_s takes
# this long, a round figure near its time on the baseline machine.  The
# machine's speed drifts by tens of percent over minutes, and the kernel,
# timed just before and after each invocation, slows with it.
REFERENCE_NOMINAL_S = 0.25
DENSITY_HEADER = "t,s,f,tail_bound,method"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Invalid(Exception):
    """An output failed validation."""


def check(condition, message: str) -> None:
    if not condition:
        raise Invalid(message)


# ----------------------------------------------------------------------
# workloads and their validators
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One CLI call, the items it emits and the check its output must pass."""

    argv: tuple
    suffix: str
    items: int
    validate: Callable  # (path, invocation, context) -> None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verify_rows(report: dict) -> list:
    """The exact part of a verify report: everything but elapsed_ms and pass."""
    return [[c["lemma"], c["params"], c["lhs"], c["rhs"]] for c in report["checks"]]


def pairing_rows(report: dict) -> list:
    return [[c["j"], c["k"], c["value_exact"], c["value_case"]] for c in report["checks"]]


def expected(inv: "Invocation", context: dict) -> dict:
    recorded = context["digests"].get(inv.key)
    check(recorded is not None, f"no recorded digest for {inv.key!r}")
    return recorded


def validate_verify(path: Path, inv: Invocation, context: dict) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    want = expected(inv, context)
    summary, checks = report["summary"], report["checks"]
    check(summary["pass"] and summary["failed"] == 0, f"summary reports {summary['failed']} failed")
    check(summary["total"] == len(checks) == want["checks"],
          f"{len(checks)} checks, expected {want['checks']}")
    check(all(c["pass"] for c in checks), "a check is marked failed")
    check(digest(verify_rows(report)) == want["sha256"], "exact values differ from the digest")


def validate_pairing(path: Path, inv: Invocation, context: dict) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    want = expected(inv, context)
    summary, checks, norm = report["summary"], report["checks"], report["normalization"]
    check(summary["pass"] and summary["failed"] == 0, f"summary reports {summary['failed']} failed")
    check(summary["total"] == len(checks) + 1 == want["checks"],
          f"{summary['total']} checks, expected {want['checks']}")
    for c in checks:
        check(c["pass"] and c["value_exact"] == c["value_case"],
              f"pairing ({c['j']}, {c['k']}) failed")
        check(abs(c["value_quad"] - float(Fraction(c["value_case"]))) <= c["quad_tol"],
              f"pairing ({c['j']}, {c['k']}) quadrature off by more than {c['quad_tol']}")
    check(norm["pass"] and abs(norm["value"] - 1.0) <= norm["tol"], "normalization failed")
    check(digest(pairing_rows(report)) == want["sha256"], "exact values differ from the digest")


def density_grid(inv: Invocation) -> int:
    return int(inv.argv[inv.argv.index("--grid") + 1])


def validate_density_csv(path: Path, inv: Invocation, context: dict) -> None:
    """--method both: grid^2 closed rows, then the same points by the series."""
    grid = density_grid(inv)
    n = grid * grid
    with open(path, encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\r\n")
    check(lines[0] == DENSITY_HEADER and lines[-1] == "", "bad CSV header or line ends")
    rows = lines[1:-1]
    check(len(rows) == 2 * n, f"{len(rows)} rows, expected {2 * n}")
    values = np.loadtxt(rows, delimiter=",", usecols=(0, 1, 2, 3))
    methods = np.array([row.rpartition(",")[2] for row in rows])
    check(np.all(np.isfinite(values)), "non-finite value")
    closed, series = values[:n], values[n:]
    check(np.all(np.isin(methods[:n], ("closed", "series"))), "bad method in the closed half")
    check(np.all(methods[n:] == "series"), "bad method in the series half")
    check(np.array_equal(closed[:, :2], series[:, :2]), "closed and series points differ")
    t, s = closed[:, 0].reshape(grid, grid), closed[:, 1].reshape(grid, grid)
    check(np.all(t == t[:, :1]) and np.all(s == s[:1, :]), "points are not a t-major grid")
    check(np.all(closed[methods[:n] == "closed", 3] == 0.0), "closed rows carry a tail bound")
    gap = np.abs(closed[:, 2] - series[:, 2])
    check(np.all(gap <= series[:, 3] + SERIES_SLACK),
          f"closed and series differ by {gap.max():.3e}")
    context["closed_rows"] = (closed, methods[:n])


def validate_density_json(path: Path, inv: Invocation, context: dict) -> None:
    """Same rows as the closed half of the CSV written before it."""
    rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    check("closed_rows" in context, "no valid CSV output to compare with")
    closed, methods = context["closed_rows"]
    check(len(rows) == len(closed), f"{len(rows)} rows, expected {len(closed)}")
    values = np.array([[r["t"], r["s"], r["f"], r["tail_bound"]] for r in rows])
    check(np.array_equal(values, closed), "JSON rows differ from the CSV closed rows")
    check([r["method"] for r in rows] == methods.tolist(), "JSON methods differ from the CSV")


def validate_scan(path: Path, inv: Invocation, context: dict) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    summary, body = report["summary"], report["report"]
    check(summary["pass"] and summary["monotone"] and summary["max_at_least_one"],
          "scan summary reports a failure")
    check(body["grid_n"] == density_grid(inv), "wrong grid size")
    check(str(body["rank"]) == inv.argv[inv.argv.index("--rank") + 1], "wrong rank")
    check(all(0.0 <= f <= 1.0 for f in body["fractions"].values()), "fraction outside [0, 1]")


def verify_call(rank: int, max_total: int, digests: dict) -> Invocation:
    argv = ("verify", "--rank", str(rank), "--max-total", str(max_total))
    items = digests.get(" ".join(argv), {}).get("checks", 0)
    return Invocation(argv, "json", items, validate_verify)


def pairing_call(rank: int, max_total: int, digests: dict) -> Invocation:
    argv = ("pairing", "--rank", str(rank), "--max-total", str(max_total))
    items = digests.get(" ".join(argv), {}).get("checks", 0)
    return Invocation(argv, "json", items, validate_pairing)


def density_calls(rank: int, grid: int) -> tuple:
    base = ("density", "--rank", str(rank), "--grid", str(grid))
    return (Invocation(base + ("--method", "both"), "csv", 2 * grid * grid, validate_density_csv),
            Invocation(base + ("--format", "json"), "json", grid * grid, validate_density_json))


def scan_calls(ranks, grid: int) -> tuple:
    return tuple(Invocation(("scan", "--grid", str(grid), "--rank", str(r)), "json",
                            grid * grid, validate_scan) for r in ranks)


def workloads(digests: dict, small: bool = False) -> dict:
    """Why each workload is here is in README.md.  ``small`` gives the
    minimal sizes the self-test runs."""
    if small:
        return {
            "verify": (verify_call(2, 1, digests),),
            "pairing": (pairing_call(2, 2, digests),),
            "density-export": density_calls(2, 8),
            "density-scan": scan_calls((2, 3), 16),
        }
    return {
        "verify": (verify_call(3, 5, digests),),
        "pairing": (pairing_call(4, 6, digests),),
        "density-export": density_calls(3, 512),
        "density-scan": scan_calls((2, 3, 4, 5), 1024),
    }


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------


class ProgramMissing(Exception):
    """radialmasa cannot be imported from the checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RADIAL_MASA_CAP", None)
    # one process generates the load; one BLAS thread keeps it at one core
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(argvs: list, trace: bool, deadline: float, tag: str):
    """Run one child over ``argvs``; returns (result or None, stderr text)."""
    result_path = WORK / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {
        "root": str(ROOT),
        "invocations": argvs,
        "trace": trace,
        "address_space_bytes": ADDRESS_SPACE_BYTES,
        "result_path": str(result_path),
        "spans_path": str(WORK / f"{tag}.spans.jsonl"),
    }
    base = [sys.executable, "-I", str(BENCH / "child.py"), json.dumps(spec)]
    proc = subprocess.Popen(base + [repr(now())], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, f"child killed after the time limit\n{err}"
    if proc.returncode == 3:
        raise ProgramMissing(err.strip())
    if proc.returncode != 0 or not result_path.exists():
        return None, f"child exited with {proc.returncode}\n{err}"
    return json.loads(result_path.read_text(encoding="utf-8")), err


def file_hash(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs children for one workload and keeps what they report."""

    def __init__(self, name: str, calls: tuple, digests: dict, deadline: float):
        self.name = name
        self.calls = calls
        self.digests = digests
        self.deadline = deadline
        self.children = []  # (traced, result)
        self.setups = []  # setup_s of every child, import-only probes included
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._valid = set()  # output hashes of children that passed validation

    def outputs(self) -> list:
        return [WORK / f"{self.name}.{i}.{inv.suffix}" for i, inv in enumerate(self.calls)]

    def run_once(self, argv_extra: tuple = (), trace: bool = False) -> None:
        paths = self.outputs()
        for path in paths:
            path.unlink(missing_ok=True)
        argvs = [list(inv.argv + argv_extra) + ["--out", str(path)]
                 for inv, path in zip(self.calls, paths)]
        result, err = run_child(argvs, trace, self.deadline, self.name)
        self.attempted += len(self.calls)
        if err.strip():
            self.problems.append(err.strip().splitlines()[-1])
        if result is None:
            self.failed += len(self.calls)
            return
        # outputs byte-identical to ones already validated in full are valid
        seen = tuple(file_hash(p) if p.exists() else None for p in paths)
        if seen not in self._valid:
            context = {"digests": self.digests}
            failed = self.failed
            for inv, path, code in zip(self.calls, paths, result["exit_codes"]):
                try:
                    check(code == 0, f"exit code {code}")
                    check(path.exists(), "no output written")
                    inv.validate(path, inv, context)
                except Invalid as exc:
                    self.failed += 1
                    self.problems.append(f"{inv.key}: {exc}")
            if self.failed == failed:
                self._valid.add(seen)
        for path in paths:
            path.unlink(missing_ok=True)
        self.children.append((trace, result))
        self.setups.append(result["setup_s"])

    def probe_setup(self) -> None:
        """Children that only import radialmasa.cli, for more setup_s samples."""
        for _ in range(SETUP_PROBES):
            result, err = run_child([], False, self.deadline, self.name)
            if result is None:
                self.problems.append(err.strip())
                return
            self.setups.append(result["setup_s"])

    def run_for(self, seconds: float, trace: bool) -> None:
        """Children while the next is expected to end at most half a child
        past ``seconds``; with ``trace`` they alternate untraced and traced,
        and at least one of each runs."""
        end = min(now() + seconds, self.deadline)
        self.probe_setup()
        while True:
            traced = trace and len(self.children) % 2 == 1
            started = now()
            self.run_once(trace=traced)
            last = now() - started
            enough = len(self.children) >= (2 if trace else 1) or self.failed
            if enough and now() + last / 2 > end:
                return

    def items(self) -> int:
        return sum(inv.items for inv in self.calls)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def summary_line(name: str, values: list, unit: str) -> str:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    # fewer than 11 samples leave no percentile with ten samples beyond it,
    # so the highest one the count supports is the maximum itself
    return (f"# {name} median={statistics.median(values):.6g} q1={q1:.6g} q3={q3:.6g} "
            f"max={values[-1]:.6g} n={len(values)} unit={unit}")


def wall_s(result: dict) -> float:
    return sum(result["invocation_s"])


def scaled_wall_s(result: dict) -> float:
    """Each invocation's wall time, scaled by the mean of the reference
    kernel times just before and just after it."""
    ref = result["reference_s"]
    return sum(t * REFERENCE_NOMINAL_S * 2 / (ref[j] + ref[j + 1])
               for j, t in enumerate(result["invocation_s"]))


def end_to_end(runner: Runner, results: list) -> tuple:
    """Metrics (the gated ones) and the record lines, which add the raw times."""
    items = runner.items()
    walls = [wall_s(r) for r in results]
    scaled = [scaled_wall_s(r) for r in results]
    gated = {
        "setup_s": (runner.setups, "s"),
        "scaled_wall_s": (scaled, "s"),
        "scaled_items_per_s": ([items / w for w in scaled], "1/s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in results], "MB"),
    }
    recorded = {
        "wall_s": (walls, "s"),
        "items_per_s": ([items / w for w in walls], "1/s"),
        "reference_s": ([t for r in results for t in r["reference_s"]], "s"),
    }
    lines = [summary_line(name, values, unit)
             for name, (values, unit) in {**gated, **recorded}.items()]
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in gated.items()}
    return metrics, lines


def per_layer(untraced: list, traced: list) -> tuple:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [r["layers"][name][0] for r in traced]
        metrics[name] = {"value": statistics.median(values), "unit": traced[0]["layers"][name][1]}
    traced_wall = statistics.median(wall_s(r) for r in traced)
    untraced_wall = statistics.median(wall_s(r) for r in untraced)
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    lines = [f"# {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"# traced wall_s={traced_wall:.6g} untraced wall_s={untraced_wall:.6g} "
                 f"overhead_frac={(traced_wall - untraced_wall) / untraced_wall:.4f}")
    return metrics, lines


def machine_record(seed: int, child_machine: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "seed": seed,
        **child_machine,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              small: bool = False) -> tuple:
    """Run one workload; returns (result object, human-readable lines)."""
    WORK.mkdir(exist_ok=True)
    digests = load_digests()
    runner = Runner(workload, workloads(digests, small)[workload], digests,
                    now() + CHILD_DEADLINE_S)
    runner.run_for(seconds, trace)
    results = [r for _, r in runner.children]
    lines = [f"# machine {json.dumps(machine_record(seed, results[0]['machine']))}"
             if results else "# machine unknown: no child finished"]
    lines.append(f"# workload {workload}: {len(results)} children, "
                 f"{runner.attempted} invocations, {runner.failed} failed")
    lines.extend(f"# problem: {p}" for p in runner.problems)
    lines.append(f"# failed_frac value={runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted}) unit=ratio")
    untraced = [r for traced, r in runner.children if not traced]
    traced = [r for traced, r in runner.children if traced]
    metrics = {}
    if untraced:
        e2e, e2e_lines = end_to_end(runner, untraced)
        lines.extend(e2e_lines)
        if not trace:
            metrics = e2e
    if trace and traced and untraced:
        metrics, layer_lines = per_layer(untraced, traced)
        lines.extend(layer_lines)
        for r in traced:
            lines.extend(f"# missing trace target {t}" for t in r.get("missing_targets", ()))
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, lines


def record_digests() -> None:
    """Write digests.json from the current program's verify and pairing output."""
    WORK.mkdir(exist_ok=True)
    recorded = {}
    for small in (False, True):
        for calls in workloads({}, small).values():
            for inv in calls:
                if inv.validate not in (validate_verify, validate_pairing):
                    continue
                path = WORK / "digest.json"
                argv = list(inv.argv) + ["--out", str(path)]
                result, err = run_child([argv], False, now() + CHILD_DEADLINE_S, "digest")
                if result is None or result["exit_codes"] != [0]:
                    raise SystemExit(f"{inv.key} failed: {err}")
                report = json.loads(path.read_text(encoding="utf-8"))
                path.unlink()
                rows = (verify_rows if inv.validate is validate_verify else pairing_rows)(report)
                recorded[inv.key] = {"checks": report["summary"]["total"], "sha256": digest(rows)}
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads({})))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program and exit")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
