"""One benchmark child: import radialmasa from the checkout, run CLI invocations, report.

Started by ``run.py`` as ``python3 -I child.py SPEC_JSON SPAWNED`` where
SPAWNED is the parent's CLOCK_MONOTONIC reading taken just before the
process was created, so ``setup_s`` covers interpreter start-up and the
imports a CLI user pays for.  The child writes one JSON result file and
prints nothing; the CLI itself writes every output through ``--out``.

The child also times a fixed reference kernel before the first
invocation, between invocations and after the last, so ``run.py`` can
scale each invocation's wall time by the machine's speed around it.

Exit codes: 0 after writing the result, 3 when radialmasa cannot be
imported from the checkout's ``src`` directory.
"""

import json
import os
import resource
import sys
import time
from fractions import Fraction


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's reading.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Time of a fixed pure-Python kernel shaped like radialmasa's work: tuple-keyed
    dict updates, Fraction sums and indented (pure-Python) JSON encoding.  It
    uses nothing from radialmasa, so a program change cannot move it."""
    start = now()
    for _ in range(3):
        table = {}
        for i in range(60000):
            key = (i & 255, (i >> 8) & 7)
            table[key] = table.get(key, 0) + i * 3
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(i % 97, i % 89 + 1)
        json.dumps([{"a": i * 0.1, "b": [i, i + 1]} for i in range(8000)], indent=1)
    return now() - start


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None when it cannot be read."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    spawned = float(sys.argv[2])
    limit = spec["address_space_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    try:
        import radialmasa.cli as cli
    except ImportError as exc:
        print(f"cannot import radialmasa from {src}: {exc}", file=sys.stderr)
        return 3
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"radialmasa was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    setup_s = now() - spawned

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    exit_codes, invocation_s = [], []
    # an import-only probe of setup_s has no invocations and no kernel timing
    reference = [reference_s()] if spec["invocations"] else []
    for request, argv in enumerate(spec["invocations"]):
        if tracer is not None:
            tracer.request = request
        start = now()
        exit_codes.append(cli.main(list(argv)))
        invocation_s.append(now() - start)
        reference.append(reference_s())

    result = {
        "setup_s": setup_s,
        "invocation_s": invocation_s,
        "reference_s": reference,
        "exit_codes": exit_codes,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    import numpy

    result["machine"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        outputs = [argv[argv.index("--out") + 1] for argv in spec["invocations"]]
        result["layers"] = tracer.metrics(sum(os.path.getsize(p) for p in outputs
                                              if os.path.exists(p)))
        result["missing_targets"] = tracer.missing
        tracer.write_spans(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
