"""Command-line front end for the verification sweeps and density exports.

Subcommands
    verify    the exact identity sweep in the group algebra
    density   evaluate the left-right density on a grid (CSV or JSON)
    pairing   three-way pairing checks (exact / case formula / quadrature)
    scan      near-zero census of the density
    moments   quadrature moments against exact walk counts

Exit codes: 0 when every declared check passes, 1 when a mathematical
identity or tolerance fails, 2 on resource-cap or convergence failures,
running out of memory, invalid configuration, or output that cannot be
written.  Each failure prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import density as density_mod
from . import identities
from .algebra import CAP_ENV_VAR, active_cap, radial_moment_exact
from .errors import QuadratureError, ResourceCapError
from .identities import fraction_str
from .spectral import SpectralParams, quad_lambda

DEFAULT_SCAN_TOLS = (1e-1, 1e-3, 1e-5)

DEFAULT_TOLERANCES = {
    "verify": {},
    "density": {"tail": 1e-8},
    "pairing": {"quad": 1e-6, "norm": 1e-8},
    "scan": {},
    "moments": {"moment": 1e-8},
}

# Every option that a flag or a --config file can set, with the type of its
# value.  Both sources go through this table: the scalar flags parse with
# these types and config-file values must have them.  scan_tols is a list of
# numbers (flag: T1,T2,...) and tolerances a map of name to number (flag:
# NAME=VALUE, repeated).
OPTION_TYPES = {
    "rank": int,
    "grid_n": int,
    "truncation": int,
    "max_total": int,
    "max_moment": int,
    "cap": int,
    "output_path": str,
    "format": str,
    "method": str,
    "scan_tols": list,
    "tolerances": dict,
}


@dataclass
class RunConfig:
    """Fully resolved options for one command invocation."""

    command: str
    rank: int = 2
    grid_n: int = 64
    truncation: int = 60
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    format: str = "json"
    cap: int | None = None
    max_total: int = 6
    max_moment: int = 10
    scan_tols: tuple = DEFAULT_SCAN_TOLS
    method: str = "closed"
    inject_error: bool = False

    def validate(self) -> None:
        if self.command not in ("verify", "density", "pairing", "scan", "moments"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.rank < 2:
            raise ValueError(f"rank must be at least 2 (rank-1 free groups are abelian), got {self.rank}")
        if self.grid_n < 1:
            raise ValueError("grid must be positive")
        if self.command == "scan" and self.grid_n < 16:
            raise ValueError("scan needs a grid of at least 16")
        if self.command == "scan" and not self.scan_tols:
            raise ValueError("scan needs at least one threshold in scan_tols")
        if self.truncation < 2:
            raise ValueError("truncation must be at least 2")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.method not in ("closed", "series", "both"):
            raise ValueError(f"method must be closed, series or both, got {self.method!r}")
        if self.max_total < 0 or self.max_moment < 0:
            raise ValueError("sweep bounds must be nonnegative")
        known = DEFAULT_TOLERANCES[self.command]
        for name, value in self.tolerances.items():
            if name not in known:
                raise ValueError(
                    f"unknown tolerance {name!r} for {self.command} "
                    f"(known: {', '.join(sorted(known)) or 'none'})"
                )
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        # parsed again where it is used; the report keeps config.cap as given
        cap = active_cap(self.cap)
        if cap < 1:
            source = "cap" if self.cap is not None else CAP_ENV_VAR
            raise ValueError(f"{source} must be at least 1, got {cap}")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[self.command].get(name, 1e-8))

    def public_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name == "inject_error":
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def atomic_write_text(path: str, content: str) -> None:
    """Write whole-file output via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".radialmasa-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(cfg: RunConfig, content: str) -> None:
    if cfg.output_path:
        atomic_write_text(cfg.output_path, content)
    else:
        sys.stdout.write(content)
        if not content.endswith("\n"):
            sys.stdout.write("\n")


def json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# One density row per format, in the bytes csv.writer (lineterminator "\r\n")
# and json.dumps(indent=2, sort_keys=True) give it: literal text around the
# column numbers 0-4 of t, s, f, tail_bound and method, already spelled.  Each
# JSON row ends in the list separator; the last row's is cut.
DENSITY_ROW = {
    "csv": (0, ",", 1, ",", 2, ",", 3, ",", 4, "\r\n"),
    "json": ('    {\n      "f": ', 2, ',\n      "method": "', 4, '",\n      "s": ', 1,
             ',\n      "t": ', 0, ',\n      "tail_bound": ', 3, "\n    },\n"),
}

# json spells the non-finite floats its own way; csv keeps repr's nan and inf
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values, fmt: str) -> list[str]:
    """Each value as the format's encoder spells it: repr, json's non-finite names."""
    values = np.asarray(values, dtype=float).ravel()
    texts = list(map(repr, values.tolist()))
    if fmt == "json" and not np.isfinite(values).all():
        texts = [JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def _fill_rows(template: tuple, columns: list[list[str]]) -> list[str]:
    """The pieces of every row of the columns laid out by ``template``, in order.

    Columns and literals are interleaved by slice assignment, so no per-row
    string is built; joining the pieces gives the rows.
    """
    n = len(columns[0])
    pieces = [""] * (len(template) * n)
    for k, part in enumerate(template):
        pieces[k::len(template)] = columns[part] if isinstance(part, int) else [part] * n
    return pieces


def density_text(fmt: str, head: dict, pts, blocks, guard_tail: float) -> str:
    """The density export as CSV or JSON text, built from column arrays.

    ``blocks`` holds one ``(values, guarded, tail, label)`` per method, where
    ``values`` is the len(pts) x len(pts) grid f(pts[i], pts[j]) and the rows
    run over i, then j.  A row takes the block's ``tail`` and ``label``, except
    where ``guarded`` (None for no guard) marks a series fallback, which takes
    ``guard_tail`` and "series".  The text is byte for byte what ``csv.writer``
    writes for the rows t, s, f, tail_bound, method, or what ``json_report``
    writes for ``head`` with those rows as dicts under "rows"; each coordinate,
    value and tail is spelled once.
    """
    axis = _float_texts(pts, fmt)
    t_col = [t for t in axis for _ in axis]
    s_col = axis * len(axis)
    guard_tail_text = _float_texts([guard_tail], fmt)[0]
    if fmt == "csv":
        pieces = ["t,s,f,tail_bound,method\r\n"]
    else:
        # "rows" sorts after "command" and "config", so it closes the object
        head_text = json.dumps(head, indent=2, sort_keys=True).removesuffix("\n}")
        pieces = [head_text + ',\n  "rows": [\n']
    for values, guarded, tail, label in blocks:
        tails = _float_texts([tail], fmt) * len(t_col)
        labels = [label] * len(t_col)
        if guarded is not None:
            for i in np.flatnonzero(guarded).tolist():
                tails[i], labels[i] = guard_tail_text, "series"
        columns = [t_col, s_col, _float_texts(values, fmt), tails, labels]
        pieces.extend(_fill_rows(DENSITY_ROW[fmt], columns))
    if fmt == "json":
        pieces[-1] = pieces[-1].removesuffix(",\n") + "\n  ]\n}\n"
    return "".join(pieces)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    t0 = time.perf_counter()
    reports = identities.run_identity_sweep(cfg.rank, cfg.max_total, cfg.cap)
    if cfg.inject_error and reports:
        reports[0].rhs = reports[0].rhs + " (perturbed)"
        reports[0].passed = False
    failed = sum(1 for r in reports if not r.passed)
    payload = {
        "command": "verify",
        "config": cfg.public_dict(),
        "checks": [r.to_json_dict() for r in reports],
        "summary": {"total": len(reports), "failed": failed, "pass": failed == 0},
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    return payload, failed == 0


def cmd_density(cfg: RunConfig) -> tuple[str, bool]:
    params = SpectralParams(cfg.rank)
    pts = density_mod.interior_grid(cfg.grid_n, params)
    # axes, not broadcast grids: the series then builds len(pts)-point chi tables
    tt, ss = pts[:, None], pts[None, :]
    methods = ("closed", "series") if cfg.method == "both" else (cfg.method,)
    tail_tol = cfg.tol("tail")
    guard_tail = density_mod.series_tail_bound(density_mod.GUARD_SERIES_ORDER, params)
    worst_tail = 0.0
    blocks = []
    for method in methods:
        if method == "closed":
            values, guarded = density_mod.density_closed_grid(tt, ss, params)
            if guarded.any():
                worst_tail = max(worst_tail, guard_tail)
            blocks.append((values, guarded, 0.0, "closed"))
        else:
            values, tail = density_mod.density_series_grid(tt, ss, cfg.truncation, params)
            worst_tail = max(worst_tail, tail)
            blocks.append((values, None, tail, "series"))
    if worst_tail > tail_tol:
        raise QuadratureError(
            f"series tail bound {worst_tail} exceeds requested tolerance {tail_tol}; "
            "raise the truncation order"
        )
    head = {"command": "density", "config": cfg.public_dict()}
    return density_text(cfg.format, head, pts, blocks, guard_tail), True


def cmd_pairing(cfg: RunConfig) -> tuple[dict, bool]:
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    reports = density_mod.pairing_sweep(params, cfg.max_total, cfg.tol("quad"), cfg.cap)
    norm = density_mod.density_normalization(params, cfg.tol("norm"))
    norm_ok = abs(norm - 1.0) <= cfg.tol("norm")
    ok = norm_ok and all(r.passed for r in reports)
    payload = {
        "command": "pairing",
        "config": cfg.public_dict(),
        "checks": [r.to_json_dict() for r in reports],
        "normalization": {"value": norm, "tol": cfg.tol("norm"), "pass": norm_ok},
        "summary": {
            "total": len(reports) + 1,
            "failed": sum(1 for r in reports if not r.passed) + (0 if norm_ok else 1),
            "pass": ok,
        },
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    return payload, ok


def cmd_scan(cfg: RunConfig) -> tuple[dict, bool]:
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    report = density_mod.zero_scan(cfg.grid_n, list(cfg.scan_tols), params)
    tols = sorted(cfg.scan_tols, reverse=True)
    fracs = [report.fractions[t] for t in tols]
    monotone = all(fracs[i] >= fracs[i + 1] for i in range(len(fracs) - 1))
    ok = monotone and report.max_abs >= 1.0
    payload = {
        "command": "scan",
        "config": cfg.public_dict(),
        "report": report.to_json_dict(),
        "summary": {"monotone": monotone, "max_at_least_one": report.max_abs >= 1.0, "pass": ok},
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    return payload, ok


def cmd_moments(cfg: RunConfig) -> tuple[dict, bool]:
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    tol = cfg.tol("moment")
    checks = []
    ok = True
    for k in range(cfg.max_moment + 1):
        exact = radial_moment_exact(k, cfg.rank, cfg.cap)
        quad = quad_lambda(lambda t, k=k: t**k, params, tol=min(tol, 1e-10))
        err = abs(quad - float(exact))
        passed = err <= tol
        ok = ok and passed
        checks.append({
            "k": k,
            "exact": fraction_str(exact),
            "quad": quad,
            "abs_err": err,
            "pass": passed,
        })
    payload = {
        "command": "moments",
        "config": cfg.public_dict(),
        "checks": checks,
        "summary": {"total": len(checks),
                    "failed": sum(1 for c in checks if not c["pass"]),
                    "pass": ok},
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
    return payload, ok


COMMANDS = {
    "verify": cmd_verify,
    "density": cmd_density,
    "pairing": cmd_pairing,
    "scan": cmd_scan,
    "moments": cmd_moments,
}


# ----------------------------------------------------------------------
# argument parsing and config resolution
# ----------------------------------------------------------------------


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    return name, float(value)


def _parse_scan_tols(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(float(x) for x in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radialmasa",
        description="Exact and numerical checks for the radial subalgebra toolkit.",
    )

    def option(p, flag, dest, **kwargs):
        p.add_argument(flag, dest=dest, type=OPTION_TYPES[dest], default=None, **kwargs)

    common = argparse.ArgumentParser(add_help=False)
    option(common, "--rank", "rank", help="number of free generators (>= 2)")
    option(common, "--grid", "grid_n", help="grid points per axis")
    option(common, "--truncation", "truncation", help="series truncation order")
    common.add_argument("--tol", type=_parse_tol, action="append", default=None,
                        dest="tolerances", metavar="NAME=VALUE",
                        help="named tolerance (repeatable)")
    option(common, "--out", "output_path", help="output path (default: stdout)")
    option(common, "--format", "format", choices=("csv", "json"))
    common.add_argument("--config", type=str, default=None, help="JSON file with option overrides")
    option(common, "--cap", "cap", help="term-pair cap (overrides $RADIAL_MASA_CAP)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="exact identity sweeps in the group algebra")
    option(p_verify, "--max-total", "max_total", help="largest n+m in the sweeps")
    p_verify.add_argument("--inject-error", action="store_true", dest="inject_error",
                          help="test mode: corrupt one check to confirm failures are caught")

    p_density = sub.add_parser("density", parents=[common],
                               help="evaluate the left-right density on a grid")
    option(p_density, "--method", "method", choices=("closed", "series", "both"))

    p_pairing = sub.add_parser("pairing", parents=[common],
                               help="exact / case / quadrature pairing agreement")
    option(p_pairing, "--max-total", "max_total", help="largest j+k in the pairing sweep")

    p_scan = sub.add_parser("scan", parents=[common], help="near-zero census of the density")
    p_scan.add_argument("--scan-tols", type=_parse_scan_tols, default=None, dest="scan_tols",
                        metavar="T1,T2,...", help="comma-separated |f| thresholds")

    p_moments = sub.add_parser("moments", parents=[common],
                               help="quadrature moments against exact walk counts")
    option(p_moments, "--max-moment", "max_moment", help="largest moment order")

    return parser


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _file_value(key: str, value):
    """A --config file value, checked against its type in OPTION_TYPES."""
    kind = OPTION_TYPES[key]
    if kind is list:
        if not isinstance(value, list):
            raise ValueError(f"config key {key!r} must be a list of numbers, got {value!r}")
        return tuple(_number(f"config key {key!r} entry", v) for v in value)
    if kind is dict:
        if not isinstance(value, dict):
            raise ValueError(f"config key {key!r} must map names to numbers, got {value!r}")
        return {name: _number(f"tolerance {name!r}", v) for name, v in value.items()}
    if value is None and getattr(RunConfig, key) is None:
        return None
    # type(), not isinstance(): JSON true and false are bools, and bool is an int
    if type(value) is not kind:
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _set_option(cfg: RunConfig, key: str, value) -> None:
    if key == "tolerances":
        cfg.tolerances.update(value)  # a map from the file, name=value pairs from flags
    else:
        setattr(cfg, key, value)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, then the --config file, then explicit flags."""
    cfg = RunConfig(command=args.command)
    if args.command == "density":
        cfg.format = "csv"
    cfg.tolerances = dict(DEFAULT_TOLERANCES[args.command])

    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            file_opts = json.load(handle)
        if not isinstance(file_opts, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in file_opts.items():
            if key not in OPTION_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            _set_option(cfg, key, _file_value(key, value))

    for key in OPTION_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            _set_option(cfg, key, value)
    if getattr(args, "inject_error", False):
        cfg.inject_error = True

    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result, passed = COMMANDS[cfg.command](cfg)
        content = result if isinstance(result, str) else json_report(result)
    except (ResourceCapError, QuadratureError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"aborted: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    try:
        emit(cfg, content)
    except OSError as exc:
        target = cfg.output_path or "standard output"
        print(f"output error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
