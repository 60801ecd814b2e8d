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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain

import numpy as np

from . import density as density_mod
from . import identities
from .algebra import CAP_ENV_VAR, active_cap, radial_moment_exact
from .errors import QuadratureError, ResourceCapError
from .floatrepr import repr_texts
from .identities import RecordTable, fraction_str, rounded_ms
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
            # without --cap, the environment's cap, parsed again where it is used
            if key == "cap" and value is None and active_cap() < 1:
                raise ValueError(f"{CAP_ENV_VAR} must be at least 1, got {active_cap()}")
        # every command but verify evaluates floats, whose largest constant is
        # the closed form's (4N^2)^2
        if self.command != "verify":
            try:
                float(2 * self.rank) ** 4
            except OverflowError:
                raise ValueError("rank too large for float evaluation: "
                                 "(2 * rank)**4 overflows a float") from None
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

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[self.command][name])

    def public_dict(self) -> dict:
        # json writes the scan_tols tuple as a list
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "inject_error"}


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------


def atomic_write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order as the file at ``path``, via a same-directory
    temp file and rename: the file appears whole or not at all."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".radialmasa-", suffix=".tmp")
    # mkstemp makes the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(cfg: RunConfig, chunks: Iterable[str]) -> None:
    if cfg.output_path:
        atomic_write_text(cfg.output_path, chunks)
    else:
        sys.stdout.writelines(chunks)


# json spells the non-finite floats its own way; csv keeps repr's nan and inf
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the indent of a row in a report's top-level list
ROW_INDENT = "    "


def _float_texts(values, fmt: str) -> list[str]:
    """Each value as the format's encoder spells it: its repr, as
    ``floatrepr.repr_texts`` gives it, or json's name for a non-finite value."""
    values = np.asarray(values, dtype=float).ravel()
    texts = repr_texts(values)
    if fmt == "json" and not np.isfinite(values).all():
        texts = [JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def _json_value(value, indent: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) spells it at ``indent``."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a scalar's bytes, by the faster encoder
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _spell(column: list, indent: str) -> list[str]:
    """Each value of ``column`` as ``_json_value`` spells it.

    A column of one type, bool, int or str, is spelled once per distinct
    value.
    """
    kinds = set(map(type, column))
    if kinds in ({bool}, {int}, {str}):
        spelled = {value: json.dumps(value) for value in set(column)}
        return list(map(spelled.__getitem__, column))
    return [_json_value(value, indent) for value in column]


def _layout(value, indent: str, parts: list) -> None:
    """Append the text of ``value`` at ``indent`` to ``parts``: each nonempty
    dict spelled out with its keys sorted, each other value as it is, a
    literal text or a column's list of texts."""
    if not (isinstance(value, dict) and value):
        parts.append(value)
        return
    parts.append("{")
    for n, key in enumerate(sorted(value)):
        parts.append(f'{"," if n else ""}\n{indent}  {json.dumps(key)}: ')
        _layout(value[key], indent + "  ", parts)
    parts.append(f"\n{indent}}}")


def _merged(parts) -> tuple:
    """``parts`` with each run of literal texts joined into one literal: a
    template whose literals and columns alternate, starting and ending with
    a literal, which may be empty."""
    merged = [""]
    for part in parts:
        if isinstance(part, str):
            merged[-1] += part
        else:
            merged += [part, ""]
    return tuple(merged)


def _row_template(row: dict) -> tuple:
    """The template of a list item laid out as ``row``, a map of literal texts,
    columns' lists of texts and maps of them.  Each row starts with the list
    separator, which ``_report_chunks`` makes the opening bracket on a list's
    first row."""
    parts = [",\n" + ROW_INDENT]
    _layout(row, ROW_INDENT, parts)
    return _merged(parts)


def _rows_pieces(n: int, template: tuple) -> list[str]:
    """The pieces of ``n`` rows laid out by ``template``, each part a literal
    text or a column of ``n`` texts, a list or an iterator; joining them gives
    the rows.

    Columns and literals are interleaved by slice assignment, so no per-row
    string is built.
    """
    step = len(template)
    pieces = [""] * (step * n)
    for k, part in enumerate(template):
        pieces[k::step] = [part] * n if isinstance(part, str) else part
    return pieces


def _table_rows(table: RecordTable) -> Iterator[list[str]]:
    """Yield the pieces of the records of ``table``, one list for each of its
    nonempty blocks, laid out from the block's own template.

    The template comes from the class's ``json_fields``, the map with columns
    spelled out one column per key (an empty map is a value of its own).  A
    value that the block's records share is spelled into the template's
    literal text.  A list column is spelled by ``_spell`` once per table,
    however many blocks share it, such as the degree columns of the inner
    blocks: the memo holds each column with its texts, so its ``id`` stays
    its own.
    """
    memo = {}

    def texts(value, indent: str, convert: Callable | None = None):
        if not isinstance(value, list):
            return _json_value(value if convert is None else convert(value), indent)
        key = (id(value), indent, convert)
        if key not in memo:
            memo[key] = value, _spell(value if convert is None else list(map(convert, value)),
                                      indent)
        return memo[key][1]

    for block in filter(RecordTable.block_len, table.blocks):
        row = {}
        for key, attr, convert in table.cls.json_fields():
            value = block[attr]
            row[key] = ({name: texts(column, ROW_INDENT + "    ") for name, column in value.items()}
                        if isinstance(value, dict) and value
                        else texts(value, ROW_INDENT + "  ", convert))
        yield _rows_pieces(RecordTable.block_len(block), _row_template(row))


# The most pieces joined into one chunk of written text: a few hundred KB of
# report rows.  A string of several MB, and its encoded copy, comes back from
# the allocator as fresh pages on every block.
CHUNK_PIECES = 1 << 14


def _joined(pieces: list[str]) -> Iterator[str]:
    """``pieces`` joined in order, at most ``CHUNK_PIECES`` of them a chunk."""
    for start in range(0, len(pieces), CHUNK_PIECES):
        yield "".join(pieces[start:start + CHUNK_PIECES])


def _report_chunks(head: dict, lists: dict) -> Iterator[str]:
    """Yield, in chunks, the text json.dumps(indent=2, sort_keys=True) gives
    ``head`` with the lists of ``lists`` added, and a newline.

    Each value of ``head``, plain lists included, goes through json.dumps.
    Each list of ``lists`` is an iterable of nonempty lists of pieces, one
    list per block of rows: joined in order, the lists give the list's rows,
    each starting with the separator, so the first piece starts with it.
    A list of pieces may end inside a row and the next list go on with it.
    Each list is written by ``_joined`` and dropped before the next is built.
    """
    opening = "{"
    for key in sorted([*head, *lists]):
        yield f"{opening}\n  {json.dumps(key)}: "
        opening = ","
        if key in head:
            yield _json_value(head[key], "  ")
            continue
        empty = True
        for pieces in lists[key]:
            if empty:  # the first row's separator is the list's opening bracket
                pieces[0] = "[" + pieces[0][1:]
                empty = False
            yield from _joined(pieces)
            del pieces  # so it is freed before the next block is built
        yield "[]" if empty else "\n  ]"
    yield "{}\n" if opening == "{" else "\n}\n"


# the density columns, in the order of a CSV row
DENSITY_COLUMNS = ("t", "s", "f", "tail_bound", "method")


def _block_texts(values: np.ndarray, step: int, fmt: str) -> Iterator[list[str]]:
    """Yield the texts of the square grid ``values``, ``step`` rows at a time,
    each block flattened, as ``_float_texts`` spells them.

    A grid whose bits are symmetric under (i, j) -> (j, i) is spelled only
    on the blocks of ``density.symmetric_blocks``, folded when its bits are
    also symmetric under (i, j) -> (n - 1 - i, n - 1 - j), into a grid of
    texts that the same copies as the values fill, before its first block
    is yielded.  Any other grid is spelled a block at a time.  The checks
    compare bits, so -0.0 and 0.0, and NaNs of different payloads, stay
    apart, and no call spells more than one block.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    bits = values.view(np.int64)
    if not np.array_equal(bits, bits.T):
        for start in range(0, n, step):
            yield _float_texts(values[start:start + step], fmt)
        return
    texts = np.empty((n, n), dtype=object)
    fold = np.array_equal(bits, bits[::-1, ::-1])
    for rows, cols in density_mod.symmetric_blocks(texts, step, fold):
        block = values[rows, cols]
        texts[rows, cols] = np.array(_float_texts(block, fmt), dtype=object).reshape(block.shape)
    for start in range(0, n, step):
        yield texts[start:start + step].ravel().tolist()


class DensityRows:
    """The rows of a density export as column arrays, spelled one block of
    grid rows at a time; ``len`` is the number of rows.

    ``grids`` holds one ``(values, tail, label)`` per method, where
    ``values`` is the len(pts) x len(pts) grid f(pts[i], pts[j]) and the rows
    run over i, then j.  Every row of a grid takes its ``tail`` and ``label``.

    The axis is spelled by ``_float_texts`` a whole array at a time, as is
    each grid's one tail, and each grid by ``_block_texts``.  The grid
    functions give an export's grid both symmetries of f bit for bit, so
    only about a quarter of it is spelled, one block at a time, into a
    grid of texts that the values' own copies fill, before the grid's
    first block is written: at rank 3, grid 512, 73,728 of the 262,144
    values.  That grid of texts is held until the grid's last block: 8
    bytes a point (2 MB at grid 512) and some 67 bytes a spelled text
    (4.9 MB).

    Each grid's row template is built as a report block's is, its tail and
    label spelled into the literal text and t, s and f its columns.  A row
    is laid out by ``_rows_pieces`` as three pieces: its f text and the two
    fragments of the text between one f and the next, the template after f
    and then before it, so one fragment keyed by t and one keyed by s, each
    spelled once per grid.  A CSV row holds its coordinates before
    f, so its fragments come before its f and the first begins with the
    previous row's suffix; the grid's first block drops that suffix and its
    last block appends it.  A JSON row holds them after f, so its fragments
    come after its f and the last ends with the next row's opening; the
    grid's first block prepends that opening and its last block drops it.
    """

    def __init__(self, pts: np.ndarray, grids: tuple):
        self.pts, self.grids = pts, grids

    def __len__(self) -> int:
        return len(self.grids) * len(self.pts) ** 2

    def pieces(self, fmt: str) -> Iterator[list[str]]:
        """Yield the pieces of the rows as ``fmt`` spells them, one list for
        each block of about ``density.BLOCK_POINTS`` rows: as csv.writer
        writes the rows t, s, f, tail_bound, method, or as ``json_chunks``
        writes them as dicts.  Each coordinate and tail is spelled once, and
        each grid at the points that ``_block_texts`` spells.  Joined in
        order, the lists give the rows; a list may begin or end inside a row
        (see the class).
        """
        axis = _float_texts(self.pts, fmt)
        n = len(axis)
        step = max(1, density_mod.BLOCK_POINTS // n)
        t_col, s_col, f_col = axis, axis[:], []  # the columns, told apart by identity
        for values, tail, label in self.grids:
            tail_text = _float_texts([tail], fmt)[0]
            if fmt == "json":
                template = _row_template({"t": t_col, "s": s_col, "f": f_col,
                                          "tail_bound": tail_text, "method": json.dumps(label)})
            else:  # as csv.writer, lineterminator "\r\n", writes the row
                template = _merged([t_col, ",", s_col, ",", f_col, ",", tail_text, ",",
                                    str(label), "\r\n"])
            cut = next(k for k, part in enumerate(template) if part is f_col)
            before = any(part is t_col for part in template[:cut])
            lead, first, mid, second, end = _merged(template[cut + 1:] + template[:cut])
            fragments = [lead + x + mid for x in first], [x + end for x in second]
            t_first = first is t_col
            t_fragments, s_fragments = fragments if t_first else fragments[::-1]
            # the text of the side of f that holds no coordinate: all of lead
            # in CSV, whose row starts with t
            edge = lead if before else "".join(template[:cut])
            blocks = _block_texts(values, step, fmt)
            for start, f_texts in zip(range(0, n, step), blocks):
                t_texts = t_fragments[start:start + step]
                pair = [chain.from_iterable([t] * n for t in t_texts), s_fragments * len(t_texts)]
                pair = pair if t_first else pair[::-1]
                pieces = _rows_pieces(len(f_texts),
                                      (*pair, f_texts) if before else (f_texts, *pair))
                if start == 0:
                    pieces[0] = pieces[0][len(edge):] if before else edge + pieces[0]
                if start + step >= n:
                    pieces[-1:] = [pieces[-1], edge] if before else [pieces[-1][:-len(edge)]]
                yield pieces


def json_chunks(report: dict) -> Iterator[str]:
    """``json_report``'s text of ``report``, in chunks.

    A top-level ``RecordTable``, such as verify's checks, is written one
    nonempty block at a time, each laid out from its own template, with the
    values its records share in the literal text (``_table_rows``).  A
    ``DensityRows`` is written one block of rows at a time.  Every other
    value, such as the moments checks, a plain list, goes through
    json.dumps.  Every key is a string.
    """
    lists = {key: value.pieces("json") if isinstance(value, DensityRows) else _table_rows(value)
             for key, value in report.items() if isinstance(value, (DensityRows, RecordTable))}
    return _report_chunks({key: value for key, value in report.items() if key not in lists},
                          lists)


def json_report(payload: dict) -> str:
    """``payload`` as ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``,
    each top-level ``RecordTable`` written as the list of its records'
    ``to_json_dict()``."""
    return "".join(json_chunks(payload))


def csv_chunks(report: dict) -> Iterator[str]:
    """A density export's CSV text: the header, then its rows block by block."""
    return chain([",".join(DENSITY_COLUMNS) + "\r\n"],
                 chain.from_iterable(map(_joined, report["rows"].pieces("csv"))))


# the writer of each --format; only density takes csv
WRITERS = {"csv": csv_chunks, "json": json_chunks}


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _report(cfg: RunConfig, t0: float, **body) -> dict:
    """A command's report: its command and config, ``body``, and the time since ``t0``."""
    return {"command": cfg.command, "config": cfg.public_dict(), **body,
            "elapsed_ms": rounded_ms((time.perf_counter() - t0) * 1000.0)}


def _summary(passed: list) -> dict:
    failed = sum(1 for p in passed if not p)
    return {"total": len(passed), "failed": failed, "pass": failed == 0}


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    """exact identity sweeps in the group algebra"""
    t0 = time.perf_counter()
    checks = identities.run_identity_sweep(cfg.rank, cfg.max_total, cfg.cap)
    if cfg.inject_error and len(checks):
        first = checks.blocks[0]  # shared with the first block's own table
        first["rhs"][0] += " (perturbed)"
        first["passed"][0] = False
    summary = _summary(checks.column("passed"))
    payload = _report(cfg, t0, checks=checks, summary=summary)
    return payload, summary["pass"]


def cmd_density(cfg: RunConfig) -> tuple[dict, bool]:
    """evaluate the left-right density on a grid"""
    params = SpectralParams(cfg.rank)
    pts = density_mod.interior_grid(cfg.grid_n, params)
    methods = ("closed", "series") if cfg.method == "both" else (cfg.method,)
    # checked before any grid is evaluated; the closed form has no tail
    tail_tol = cfg.tol("tail")
    if "series" in methods:
        tail = density_mod.series_tail_bound(cfg.truncation, params)
        if tail > tail_tol:
            raise QuadratureError(
                f"series tail bound {tail} exceeds requested tolerance {tail_tol}; "
                "raise the truncation order"
            )
    # one axis, not broadcast grids: each chi table holds one axis, and the
    # grid functions evaluate about a quarter of the symmetric grid
    tt, ss = pts[:, None], pts[None, :]
    grids = []
    for method in methods:
        if method == "closed":
            values, tail = density_mod.density_closed_grid(tt, ss, params)
        else:
            values, tail = density_mod.density_series_grid(tt, ss, cfg.truncation, params)
        grids.append((values, tail, method))
    rows = DensityRows(pts, tuple(grids))
    return {"command": "density", "config": cfg.public_dict(), "rows": rows}, True


def cmd_pairing(cfg: RunConfig) -> tuple[dict, bool]:
    """exact / case / quadrature pairing agreement"""
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    checks = density_mod.pairing_sweep(params, cfg.max_total, cfg.tol("quad"), cfg.cap)
    norm = density_mod.density_normalization(params, cfg.tol("norm"))
    norm_ok = abs(norm - 1.0) <= cfg.tol("norm")
    # the normalization counts as one more check
    summary = _summary(checks.column("passed") + [norm_ok])
    payload = _report(cfg, t0, checks=checks,
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
    # the proved bounds ((N - 1)/N)^5 <= f <= N/(N - 1) (see density), compared
    # exactly, with the closed form's relative roundoff of 16 eps as slack
    slack, rank = 16 * Fraction(sys.float_info.epsilon), cfg.rank
    bounds = {"min_at_least_lower_bound":
              Fraction(report.min_abs) >= Fraction(rank - 1, rank) ** 5 * (1 - slack),
              "max_at_most_upper_bound":
              Fraction(report.max_abs) <= Fraction(rank, rank - 1) * (1 + slack)}
    ok = monotone and report.max_abs >= 1.0 and all(bounds.values())
    summary = {"monotone": monotone, "max_at_least_one": report.max_abs >= 1.0, **bounds,
               "pass": ok}
    return _report(cfg, t0, report=report.to_json_dict(), summary=summary), ok


def cmd_moments(cfg: RunConfig) -> tuple[dict, bool]:
    """quadrature moments against exact walk counts"""
    t0 = time.perf_counter()
    params = SpectralParams(cfg.rank)
    tol = cfg.tol("moment")
    checks = []
    for k in range(cfg.max_moment + 1):
        exact = radial_moment_exact(k, cfg.rank, cfg.cap)
        # the tolerance is relative to a bound on the integral of |t|^k, which sets
        # the roundoff: m_k for even k, and a m_{k-1} for odd k since |t| <= a
        scale = float(exact) if k % 2 == 0 else params.halfwidth * scale
        quad = quad_lambda(lambda t, k=k: t**k, params, tol=min(tol, 1e-10))
        err = abs(quad - float(exact))
        checks.append({
            "k": k,
            "exact": fraction_str(exact),
            "quad": quad,
            "abs_err": err,
            "pass": err <= tol * max(1.0, scale),
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


def _flag_float(text: str, flag_value: str, expected: str) -> float:
    """``text`` as a float, else a usage error that quotes the whole ``flag_value``."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {flag_value!r}") from None


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    return name, _flag_float(value, text, "name=number")


def _parse_scan_tols(text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    return tuple(_flag_float(x, text, "comma-separated numbers") for x in text.split(","))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


# argparse keywords for a flag, by the type of its option's value
FLAG_PARSING = {
    list: {"type": _parse_scan_tols, "metavar": "T1,T2,..."},
    dict: {"type": _parse_tol, "action": "append", "metavar": "NAME=VALUE"},
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  When ``argv`` starts with a command, only that
    command's subparser is built: parsing never reaches the others, and
    building them is a fixed cost of every run.  Otherwise, for the top-level
    help and its usage errors, all are built."""
    parser = _Parser(
        prog="radialmasa",
        description="Exact and numerical checks for the radial subalgebra toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in [argv[0]] if argv and argv[0] in COMMANDS else COMMANDS:
        p = sub.add_parser(command, help=COMMANDS[command].__doc__)
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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result, passed = COMMANDS[cfg.command](cfg)
        emit(cfg, WRITERS[cfg.format](result))
    except (ResourceCapError, QuadratureError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"aborted: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = cfg.output_path or "standard output"
        print(f"output error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
