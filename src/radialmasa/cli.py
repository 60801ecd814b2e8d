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
from functools import partial
from itertools import groupby, repeat
from operator import itemgetter

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

ALL_COMMANDS = tuple(DEFAULT_TOLERANCES)  # it has a key for every command


@dataclass(frozen=True)
class Option:
    """One option that a flag or a --config file can set."""

    flag: str
    type: type
    commands: tuple
    help: str
    low: int | None = None
    choices: tuple | None = None


# Every option, declared once.  A command takes the flags of the options it
# reads, and its --config file may set only their keys, to values of their
# type.  scan_tols is a list of numbers (flag: T1,T2,...) and tolerances a
# map of name to number (flag: NAME=VALUE, repeated).
OPTIONS = {
    "rank": Option("--rank", int, ALL_COMMANDS, "number of free generators", low=2),
    "grid_n": Option("--grid", int, ("density", "scan"), "grid points per axis", low=1),
    "truncation": Option("--truncation", int, ("density",), "series truncation order", low=2),
    "max_total": Option("--max-total", int, ("verify", "pairing"), "largest n+m swept", low=0),
    "max_moment": Option("--max-moment", int, ("moments",), "largest moment order", low=0),
    "cap": Option("--cap", int, ("verify", "pairing", "moments"), "word-pair and array cap", low=1),
    "output_path": Option("--out", str, ALL_COMMANDS, "output path (default: stdout)"),
    "format": Option("--format", str, ("density",), "output format", choices=("csv", "json")),
    "method": Option("--method", str, ("density",), "density evaluation",
                     choices=("closed", "series", "both")),
    "scan_tols": Option("--scan-tols", list, ("scan",), "comma-separated |f| thresholds"),
    "tolerances": Option("--tol", dict, tuple(c for c, t in DEFAULT_TOLERANCES.items() if t),
                         "named tolerance (repeatable)"),
}


def command_options(command: str) -> dict:
    """The options ``command`` reads, by key, in table order."""
    return {key: opt for key, opt in OPTIONS.items() if command in opt.commands}


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
        """Check the table's bounds and choices, then the rules across fields."""
        if self.command not in DEFAULT_TOLERANCES:
            raise ValueError(f"unknown command {self.command!r}")
        for key, opt in command_options(self.command).items():
            value = getattr(self, key)
            if opt.low is not None and value is not None and value < opt.low:
                raise ValueError(f"{key} must be at least {opt.low}, got {value}")
            if opt.choices and value not in opt.choices:
                raise ValueError(f"{key} must be one of {', '.join(opt.choices)}, got {value!r}")
        if self.command == "scan" and self.grid_n < 16:
            raise ValueError("scan needs a grid of at least 16")
        if self.command == "scan" and not self.scan_tols:
            raise ValueError("scan needs at least one threshold in scan_tols")
        for tol in self.scan_tols:
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"scan_tols entries must be finite and positive, got {tol}")
        known = DEFAULT_TOLERANCES[self.command]
        for name, value in self.tolerances.items():
            if name not in known:
                raise ValueError(
                    f"unknown tolerance {name!r} for {self.command} "
                    f"(known: {', '.join(sorted(known)) or 'none'})"
                )
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name} must be finite and positive, got {value}")
        # the environment's cap, parsed again where it is used
        if self.cap is None and active_cap() < 1:
            raise ValueError(f"{CAP_ENV_VAR} must be at least 1, got {active_cap()}")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[self.command].get(name, 1e-8))

    def public_dict(self) -> dict:
        # json writes the scan_tols tuple as a list
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "inject_error"}


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def atomic_write_text(path: str, content: str) -> None:
    """Write whole-file output via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".radialmasa-", suffix=".tmp")
    # mkstemp makes the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.chmod(tmp, 0o666 & ~umask)
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


# json spells the non-finite floats its own way; csv keeps repr's nan and inf
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the indent of a row in a report's top-level list
ROW_INDENT = "    "


def _float_texts(values, fmt: str) -> list[str]:
    """Each value as the format's encoder spells it: repr, json's non-finite names."""
    values = np.asarray(values, dtype=float).ravel()
    texts = list(map(repr, values.tolist()))
    if fmt == "json" and not np.isfinite(values).all():
        texts = [JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def _json_value(value, indent: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) spells it at ``indent``."""
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _spell(column: list, indent: str) -> list[str]:
    """Each value of ``column`` as ``_json_value`` spells it.

    A column of one scalar type is spelled in one pass: ints by str, bools
    before ints, floats by ``_float_texts``, each distinct string by
    json.dumps once.
    """
    kinds = set(map(type, column))
    if kinds == {str}:
        escaped = {text: json.dumps(text) for text in set(column)}
        return list(map(escaped.__getitem__, column))
    if kinds == {bool}:
        return ["true" if value else "false" for value in column]
    if kinds == {int}:
        return list(map(str, column))
    if kinds == {float}:
        return _float_texts(column, "json")
    return [_json_value(value, indent) for value in column]


def _shape(value):
    """The keys of ``value`` and of every dict in it: what its template depends on."""
    if not (isinstance(value, dict) and value):
        return None
    return tuple([(key, _shape(item)) if isinstance(item, dict) else key
                  for key, item in value.items()])


def _layout(value, indent: str, path: tuple, parts: list) -> None:
    """Append the text of ``value`` at ``indent`` to ``parts``: each nonempty
    dict spelled out with its keys sorted, each other value its path of keys."""
    if not (isinstance(value, dict) and value):
        parts.append(path)
        return
    parts.append("{")
    for n, key in enumerate(sorted(value)):
        parts.append(f'{"," if n else ""}\n{indent}  {json.dumps(key)}: ')
        _layout(value[key], indent + "  ", path + (key,), parts)
    parts.append(f"\n{indent}}}")


def _row_template(row) -> tuple:
    """The template of a list item shaped like ``row``: literal text and the
    paths of its columns, alternating.  Each row ends in the list separator,
    and ``_report_text`` cuts the last row's."""
    parts = [ROW_INDENT]
    _layout(row, ROW_INDENT, (), parts)
    parts.append(",\n")
    template = []
    for is_text, run in groupby(parts, key=lambda part: isinstance(part, str)):
        template.extend(["".join(run)] if is_text else run)
    return tuple(template)


def _fill_rows(pieces: list, n: int, template: tuple, columns: dict) -> None:
    """Append to ``pieces`` the pieces of ``n`` rows laid out by ``template``,
    with ``columns`` mapping each of its paths to a column of texts.

    Columns and literals are interleaved by slice assignment, so no per-row
    string is built; joining the pieces gives the rows.
    """
    start, step = len(pieces), len(template)
    pieces.extend(repeat("", step * n))
    for k, part in enumerate(template):
        pieces[start + k::step] = [part] * n if isinstance(part, str) else columns[part]


def _value_rows(rows: list, pieces: list) -> None:
    """Append the pieces of ``rows``, one template for each run of one shape."""
    for _, run in groupby(rows, key=_shape):
        run = list(run)
        template = _row_template(run[0])
        columns = {}
        for path in template[1::2]:
            column = run
            for key in path:
                column = map(itemgetter(key), column)
            columns[path] = _spell(list(column), ROW_INDENT + "  " * len(path))
        _fill_rows(pieces, len(run), template, columns)


def _report_text(head: dict, lists: dict) -> str:
    """The text json.dumps(indent=2, sort_keys=True) gives ``head`` with the
    lists of ``lists`` added, and a newline.

    Each value of ``head`` goes through json.dumps.  Each list is given as a
    function that appends its rows to a list of pieces.
    """
    pieces = []
    for key in sorted([*head, *lists]):
        pieces.append(f'{"," if pieces else "{"}\n  {json.dumps(key)}: ')
        if key in head:
            pieces.append(_json_value(head[key], "  "))
            continue
        pieces.append("[\n")
        start = len(pieces)
        lists[key](pieces)
        pieces[-1] = "[]" if len(pieces) == start else pieces[-1].removesuffix(",\n") + "\n  ]"
    pieces.append("\n}\n" if pieces else "{}\n")
    return "".join(pieces)


def json_report(payload: dict) -> str:
    """``payload`` as ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    Each list at the top, such as a report's checks, is written from row
    templates: one for each run of rows with the same keys, filled from
    columns each spelled in one pass.  Every key is a string.
    """
    lists = {key: partial(_value_rows, value)
             for key, value in payload.items() if isinstance(value, (list, tuple))}
    return _report_text({key: value for key, value in payload.items() if key not in lists}, lists)


# The density columns, and a CSV density row as csv.writer (lineterminator
# "\r\n") writes it: the spelled columns around literal text.
DENSITY_COLUMNS = ("t", "s", "f", "tail_bound", "method")
DENSITY_CSV_ROW = (("t",), ",", ("s",), ",", ("f",), ",", ("tail_bound",), ",", ("method",), "\r\n")


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
    n = len(axis) ** 2
    label_text = json.dumps if fmt == "json" else str
    guard = _float_texts([guard_tail], fmt)[0], label_text("series")
    columns = {("t",): [t for t in axis for _ in axis], ("s",): axis * len(axis)}
    if fmt == "json":
        template = _row_template(dict.fromkeys(DENSITY_COLUMNS))
    else:
        template = DENSITY_CSV_ROW

    def fill(pieces: list) -> None:
        for values, guarded, tail, label in blocks:
            tails = _float_texts([tail], fmt) * n
            labels = [label_text(label)] * n
            if guarded is not None:
                for i in np.flatnonzero(guarded).tolist():
                    tails[i], labels[i] = guard
            columns.update({("f",): _float_texts(values, fmt), ("tail_bound",): tails,
                            ("method",): labels})
            _fill_rows(pieces, n, template, columns)

    if fmt == "json":
        return _report_text(head, {"rows": fill})
    pieces = [",".join(DENSITY_COLUMNS) + "\r\n"]
    fill(pieces)
    return "".join(pieces)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _report(cfg: RunConfig, t0: float, **body) -> dict:
    """A command's report: its command and config, ``body``, and the time since ``t0``."""
    return {"command": cfg.command, "config": cfg.public_dict(), **body,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3)}


def _summary(passed: list) -> dict:
    failed = sum(1 for p in passed if not p)
    return {"total": len(passed), "failed": failed, "pass": failed == 0}


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    """exact identity sweeps in the group algebra"""
    t0 = time.perf_counter()
    reports = identities.run_identity_sweep(cfg.rank, cfg.max_total, cfg.cap)
    if cfg.inject_error and reports:
        reports[0].rhs = reports[0].rhs + " (perturbed)"
        reports[0].passed = False
    summary = _summary([r.passed for r in reports])
    payload = _report(cfg, t0, checks=[r.to_json_dict() for r in reports], summary=summary)
    return payload, summary["pass"]


def cmd_density(cfg: RunConfig) -> tuple[str, bool]:
    """evaluate the left-right density on a grid"""
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
    """exact / case / quadrature pairing agreement"""
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    reports = density_mod.pairing_sweep(params, cfg.max_total, cfg.tol("quad"), cfg.cap)
    norm = density_mod.density_normalization(params, cfg.tol("norm"))
    norm_ok = abs(norm - 1.0) <= cfg.tol("norm")
    # the normalization counts as one more check
    summary = _summary([r.passed for r in reports] + [norm_ok])
    payload = _report(cfg, t0, checks=[r.to_json_dict() for r in reports],
                      normalization={"value": norm, "tol": cfg.tol("norm"), "pass": norm_ok},
                      summary=summary)
    return payload, summary["pass"]


def cmd_scan(cfg: RunConfig) -> tuple[dict, bool]:
    """near-zero census of the density"""
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    report = density_mod.zero_scan(cfg.grid_n, list(cfg.scan_tols), params)
    tols = sorted(cfg.scan_tols, reverse=True)
    fracs = [report.fractions[t] for t in tols]
    monotone = all(fracs[i] >= fracs[i + 1] for i in range(len(fracs) - 1))
    ok = monotone and report.max_abs >= 1.0
    summary = {"monotone": monotone, "max_at_least_one": report.max_abs >= 1.0, "pass": ok}
    return _report(cfg, t0, report=report.to_json_dict(), summary=summary), ok


def cmd_moments(cfg: RunConfig) -> tuple[dict, bool]:
    """quadrature moments against exact walk counts"""
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    tol = cfg.tol("moment")
    checks = []
    for k in range(cfg.max_moment + 1):
        exact = radial_moment_exact(k, cfg.rank, cfg.cap)
        quad = quad_lambda(lambda t, k=k: t**k, params, tol=min(tol, 1e-10))
        err = abs(quad - float(exact))
        checks.append({
            "k": k,
            "exact": fraction_str(exact),
            "quad": quad,
            "abs_err": err,
            "pass": err <= tol,
        })
    summary = _summary([c["pass"] for c in checks])
    return _report(cfg, t0, checks=checks, summary=summary), summary["pass"]


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


# argparse keywords for a flag, by the type of its option's value
FLAG_PARSING = {
    list: {"type": _parse_scan_tols, "metavar": "T1,T2,..."},
    dict: {"type": _parse_tol, "action": "append", "metavar": "NAME=VALUE"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radialmasa",
        description="Exact and numerical checks for the radial subalgebra toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        for key, opt in command_options(command).items():
            bound = "" if opt.low is None else f" (at least {opt.low})"
            p.add_argument(opt.flag, dest=key, choices=opt.choices, help=opt.help + bound,
                           **FLAG_PARSING.get(opt.type, {"type": opt.type}))
        p.add_argument("--config", help="JSON file with option overrides")
        if command == "verify":
            p.add_argument("--inject-error", action="store_true",
                           help="test mode: corrupt one check to confirm failures are caught")
    return parser


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _file_value(key: str, value):
    """A --config file value, checked against its type in OPTIONS."""
    kind = OPTIONS[key].type
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
    options = command_options(args.command)

    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            file_opts = json.load(handle)
        if not isinstance(file_opts, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in file_opts.items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r} for {args.command} "
                                 f"(known: {', '.join(options)})")
            _set_option(cfg, key, _file_value(key, value))

    for key in options:
        value = getattr(args, key)
        if value is not None:
            _set_option(cfg, key, value)
    cfg.inject_error = getattr(args, "inject_error", False)

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
