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
import operator
import os
import sys
import tempfile
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import chain, groupby, repeat

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
    # a JSON string holds no raw newline, so every newline starts a line
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _spell(column: list, indent: str) -> list[str]:
    """Each value of ``column`` as ``_json_value`` spells it.

    A column of one scalar type is spelled in one pass: bools before ints,
    the floats as one ``_block_texts`` block, and each distinct int or
    string by json.dumps once.
    """
    kinds = set(map(type, column))
    if kinds == {bool}:
        return ["true" if value else "false" for value in column]
    if kinds == {int} or kinds == {str}:
        spelled = {value: json.dumps(value) for value in set(column)}
        return list(map(spelled.__getitem__, column))
    if kinds == {float}:
        return next(_block_texts(column, len(column), "json"))
    return [_json_value(value, indent) for value in column]


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
    paths of its columns, alternating.  Each row starts with the list
    separator, which ``_report_chunks`` makes the opening bracket on a list's
    first row."""
    parts = [",\n" + ROW_INDENT]
    _layout(row, ROW_INDENT, (), parts)
    template = []
    for is_text, run in groupby(parts, key=lambda part: isinstance(part, str)):
        template.extend(["".join(run)] if is_text else run)
    return tuple(template)


def _rows_pieces(n: int, template: tuple, columns: dict) -> list[str]:
    """The pieces of ``n`` rows laid out by ``template``, with ``columns``
    mapping each of its paths to a column of texts; joining them gives the rows.

    Columns and literals are interleaved by slice assignment, so no per-row
    string is built.
    """
    step = len(template)
    pieces = [""] * (step * n)
    for k, part in enumerate(template):
        pieces[k::step] = [part] * n if isinstance(part, str) else columns[part]
    return pieces


def _column_texts(parts: list[list], indent: str, convert: Callable | None = None) -> list[str]:
    """The values of the blocks' columns ``parts``, joined, each after
    ``convert`` as ``_json_value`` spells it, in one ``_spell`` pass.

    A part that repeats one object, as a block's column of a value its checks
    share does, is converted and spelled once and its text repeated; one
    object has one spelling, so 1 and True, or 0.0 and -0.0, never share a
    text.  The other parts are converted and spelled value by value.
    """
    values, runs = [], []  # per part (start, size, times): texts[start:start + size], times over
    for part in parts:
        one = all(map(operator.is_, part, repeat(part[0])))
        runs.append((len(values), 1, len(part)) if one else (len(values), len(part), 1))
        values.extend(part[:1] if one else part)
    texts = _spell(values if convert is None else list(map(convert, values)), indent)
    return list(chain.from_iterable(texts[start:start + size] * times
                                    for start, size, times in runs))


def _table_rows(table: RecordTable) -> Iterator[list[str]]:
    """Yield the pieces of the records of ``table``, one list for each run of
    its nonempty blocks whose map with columns has the same keys.

    The template comes from the class's ``json_fields``, a map with columns
    spelled out one column per key (an empty map is a value of its own).
    Each column is joined over the run's blocks by ``_column_texts``.
    """
    json_fields = table.cls.json_fields()
    blocks = filter(RecordTable.block_len, table.blocks)
    # dict key views compare as sets, and a template sorts its keys
    for _, group in groupby(blocks, key=lambda block: [
            column.keys() for column in block.values() if isinstance(column, dict)]):
        run = RecordTable(table.cls, list(group))
        first = run.blocks[0]
        skeleton = {key: dict.fromkeys(first[attr]) if isinstance(first[attr], dict) else None
                    for key, attr, _ in json_fields}
        columns = {}
        for key, attr, convert in json_fields:
            if skeleton[key]:
                for name in skeleton[key]:
                    columns[(key, name)] = _column_texts(
                        [block[attr][name] for block in run.blocks], ROW_INDENT + "    ")
                continue
            parts = [block[attr] for block in run.blocks] if skeleton[key] is None else [
                [{}] * len(run)]
            columns[(key,)] = _column_texts(parts, ROW_INDENT + "  ", convert)
        yield _rows_pieces(len(run), _row_template(skeleton), columns)


def _report_chunks(head: dict, lists: dict) -> Iterator[str]:
    """Yield, in chunks, the text json.dumps(indent=2, sort_keys=True) gives
    ``head`` with the lists of ``lists`` added, and a newline.

    Each value of ``head``, plain lists included, goes through json.dumps.
    Each list of ``lists`` is an iterable of the pieces of its rows, one
    nonempty list of pieces per chunk, each row starting with the separator.
    """
    opening = "{"
    for key in sorted([*head, *lists]):
        yield f"{opening}\n  {json.dumps(key)}: "
        opening = ","
        if key in head:
            yield _json_value(head[key], "  ")
            continue
        separator = "["
        for pieces in lists[key]:
            # the first row's separator is the list's opening bracket
            pieces[0] = separator + pieces[0][1:]
            separator = ","
            text = "".join(pieces)
            del pieces  # so the row pieces are freed before the text is written
            yield text
        yield "[]" if separator == "[" else "\n  ]"
    yield "{}\n" if opening == "{" else "\n}\n"


# The density columns, and a CSV density row as csv.writer (lineterminator
# "\r\n") writes it: the spelled columns around literal text.
DENSITY_COLUMNS = ("t", "s", "f", "tail_bound", "method")
DENSITY_CSV_ROW = (("t",), ",", ("s",), ",", ("f",), ",", ("tail_bound",), ",", ("method",), "\r\n")


def _block_texts(values: np.ndarray, size: int, fmt: str) -> Iterator[list[str]]:
    """Yield the texts of ``values``, flattened, ``size`` values at a time, as
    ``_float_texts`` spells them, spelling each distinct bit pattern once.

    A block's new values are spelled together, so ``floatrepr.repr_texts``
    gives their repr texts in whole-array passes rather than one repr call
    per value.

    The values are grouped by their int64 bits with one unstable sort, so
    -0.0 and 0.0 stay apart.  The sort leaves a group's points in any order,
    so a group's first and last points are the least and the greatest index
    among them (``np.minimum.reduceat`` and ``np.maximum.reduceat`` over the
    groups' runs of the sort order).  A group is spelled at its first point
    and its text dropped after the block that holds its last point, so
    between blocks only the texts of groups seen both before and after are
    held.  The sort order (8 bytes a point) is freed before the first block;
    the blocks keep an int32 group id and a first and a last mark per point
    (6 bytes) and one text slot per group (8 bytes).
    """
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    bits = flat.view(np.int64)
    order = np.argsort(bits)
    sorted_bits = bits[order]
    # new[k]: sorted point k starts a group
    new = np.empty(len(flat), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=new[1:])
    del sorted_bits
    ids = np.empty(len(flat), dtype=np.int32)
    ids[order] = np.cumsum(new, dtype=np.int32) - 1
    starts = np.flatnonzero(new)
    del new
    texts = np.empty(len(starts), dtype=object)
    first, last = np.zeros(len(flat), dtype=bool), np.zeros(len(flat), dtype=bool)
    first[np.minimum.reduceat(order, starts)] = True
    last[np.maximum.reduceat(order, starts)] = True
    del order, starts
    for start in range(0, len(flat), size):
        block = slice(start, start + size)
        spell = first[block]
        texts[ids[block][spell]] = _float_texts(flat[block][spell], fmt)
        yield texts[ids[block]].tolist()
        texts[ids[block][last[block]]] = None


def _run_texts(run: tuple, axis: list[str], texts: dict) -> list[str]:
    """The text of the template parts ``run`` for each s text of ``axis``,
    with its other columns spelled by ``texts``."""
    return ["".join([part if isinstance(part, str) else row[part] for part in run])
            for row in ({**texts, ("s",): s} for s in axis)]


class DensityRows:
    """The rows of a density export as column arrays, spelled one block of
    grid rows at a time; ``len`` is the number of rows.

    ``grids`` holds one ``(values, tail, label)`` per method, where
    ``values`` is the len(pts) x len(pts) grid f(pts[i], pts[j]) and the rows
    run over i, then j.  Every row of a grid takes its ``tail`` and ``label``.

    The axis and each block's new values are spelled by ``_float_texts``,
    a whole array at a time, as is each grid's one tail.  Each
    distinct value of a grid (by its bits) is spelled once, at the
    first block of rows that holds it, and its text is kept until the last
    such block is written.  The grid functions evaluate one triangle of a
    symmetric grid and mirror it bit for bit, so about half of a grid's
    values repeat: at rank 3, grid 512, 31.5% of the closed grid's values
    are distinct (82,472) and 34.4% of the series grid's (90,165).  A value
    at (i, j) is held until row j is written, so at most about a quarter of
    a grid's points have a live text (65.6k and 67.5k at grid 512), some
    67 bytes each (about 4.5 MB), next to 6 bytes a point for the group ids
    and the first and last marks and 8 bytes a distinct value for the text
    slots (about 2.3 MB).
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
        each distinct value once per grid.

        The row template is folded: each run of it between the t and f
        columns is one part, a literal or a column whose text depends only
        on s, spelled once per grid.
        """
        axis = _float_texts(self.pts, fmt)
        n = len(axis)
        step = max(1, density_mod.BLOCK_POINTS // n)
        label_text = json.dumps if fmt == "json" else str
        if fmt == "json":
            template = _row_template(dict.fromkeys(DENSITY_COLUMNS))
        else:
            template = DENSITY_CSV_ROW
        folded, runs = [], []
        # t and f vary along a grid row; the text between them does not
        for per_point, run in groupby(template, key=(("t",), ("f",)).__contains__):
            run = tuple(run)
            if per_point:
                folded.extend(run)
            elif all(isinstance(part, str) for part in run):
                folded.append("".join(run))
            else:
                folded.append(run)
                runs.append(run)
        for values, tail, label in self.grids:
            texts = {("tail_bound",): _float_texts([tail], fmt)[0], ("method",): label_text(label)}
            fragments = {run: _run_texts(run, axis, texts) for run in runs}
            blocks = _block_texts(values, step * n, fmt)
            for start, f_texts in zip(range(0, n, step), blocks):
                t_axis = axis[start:start + step]
                t_column = []
                for t in t_axis:
                    t_column += [t] * n
                columns = {("t",): t_column, ("f",): f_texts}
                for run, fragment in fragments.items():
                    columns[run] = fragment * len(t_axis)
                yield _rows_pieces(len(t_axis) * n, folded, columns)


def json_chunks(report: dict) -> Iterator[str]:
    """``json_report``'s text of ``report``, in chunks.

    A top-level ``RecordTable``, such as verify's checks, is written from
    row templates filled from its columns, each spelled in one pass: one
    template for each run of blocks whose map-valued column (the map with
    columns) has the same keys.  A ``DensityRows`` is written one block of
    rows at a time.  Every other value, such as the moments checks, a plain
    list, goes through json.dumps.  Every key is a string.
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
                 map("".join, report["rows"].pieces("csv")))


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
    # grid functions evaluate one triangle of the symmetric grid
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
