import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmasa import cli, density, identities
from radialmasa.cli import (
    COMMANDS,
    OPTIONS,
    WRITERS,
    DensityRows,
    RunConfig,
    atomic_write_text,
    build_parser,
    command_options,
    json_report,
    main,
    resolve_config,
)
from radialmasa.density import PairingReport
from radialmasa.identities import CheckReport, RecordTable, all_test_vectors, degree_pairs
from radialmasa.spectral import SpectralParams


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timing(x) for x in obj]
    return obj


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------- config


def test_config_validation():
    cfg = RunConfig(command="verify", rank=1)
    with pytest.raises(ValueError):
        cfg.validate()
    with pytest.raises(ValueError):
        RunConfig(command="density", format="xml").validate()
    with pytest.raises(ValueError):
        RunConfig(command="scan", grid_n=0).validate()
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            RunConfig(command="verify", cap=cap).validate()
    RunConfig(command="verify", cap=1).validate()
    RunConfig(command="verify").validate()


def test_rank_one_rejected(capsys):
    assert main(["verify", "--rank", "1"]) == 2
    assert "rank" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["density", "scan", "moments"])
@pytest.mark.parametrize("rank", [10**77, 10**200], ids=["10**77", "10**200"])
def test_rank_past_float_range_rejected(command, rank, tmp_path, capsys):
    # (4N^2)^2, the closed form's largest constant, overflows a float from N ~ 5.8e76
    out = tmp_path / "out"
    assert main([command, "--rank", str(rank), "--out", str(out)]) == 2
    assert "rank" in one_stderr_line(capsys)
    assert not out.exists()


def test_rank_at_float_range_runs(tmp_path):
    out = tmp_path / "f.csv"
    argv = ["density", "--rank", str(10**76), "--grid", "3", "--method", "both"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 18
    assert all(math.isfinite(float(row["f"])) for row in rows)


def test_config_file_merge(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"rank": 3, "max_total": 1, "tolerances": {"quad": 1e-5}}))
    code, payload = run_json(
        tmp_path, ["pairing", "--config", str(cfg_file), "--max-total", "2"]
    )
    assert code == 0
    # flag overrides file, file overrides default
    assert payload["config"]["rank"] == 3
    assert payload["config"]["max_total"] == 2
    assert payload["config"]["tolerances"]["quad"] == 1e-5


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"no_such_option": 1}))
    assert main(["verify", "--config", str(cfg_file)]) == 2


def one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return err


def test_env_cap_not_integer_rejected(tmp_path, monkeypatch, capsys):
    for value in ("abc", "-1", "0"):
        monkeypatch.setenv("RADIAL_MASA_CAP", value)
        assert main(["verify", "--rank", "2", "--max-total", "1"]) == 2
        assert one_stderr_line(capsys).startswith("configuration error: RADIAL_MASA_CAP")
    # a valid value is checked but not stored: the report keeps the flag's value
    monkeypatch.setenv("RADIAL_MASA_CAP", "1000")
    code, payload = run_json(tmp_path, ["verify", "--rank", "2", "--max-total", "1"])
    assert code == 0
    assert payload["config"]["cap"] is None


@pytest.mark.parametrize("value", ["abc", "-1", "0"])
def test_env_cap_checked_only_by_commands_that_read_a_cap(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("RADIAL_MASA_CAP", value)
    for argv in (["verify", "--max-total", "1"], ["pairing", "--max-total", "1"],
                 ["moments", "--max-moment", "1"]):
        assert main(argv + ["--rank", "2"]) == 2
        assert one_stderr_line(capsys).startswith("configuration error: RADIAL_MASA_CAP")
    # density and scan take no --cap and read no cap
    for argv in (["density", "--grid", "4"], ["scan", "--grid", "16"]):
        assert main(argv + ["--rank", "2", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "options, named",
    [
        ({"rank": "3"}, "rank"),
        ({"rank": True}, "rank"),
        ({"tolerances": [1]}, "tolerances"),
        ({"tolerances": {"moment": "1e-8"}}, "moment"),
        ({"scan_tols": 0.1}, "scan_tols"),
        ({"tolerances": {"momnet": 1e-8}}, "momnet"),
        ({"command": "density"}, "command"),
        ({"cap": 0}, "cap must be at least 1"),
    ],
)
def test_config_file_types_checked(tmp_path, capsys, options, named):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(options))
    assert main(["moments", "--rank", "2", "--max-moment", "2", "--config", str(cfg_file)]) == 2
    assert named in one_stderr_line(capsys)


def test_unknown_tolerance_name_rejected(capsys):
    assert main(["moments", "--rank", "2", "--max-moment", "2", "--tol", "momnet=1e-30"]) == 2
    assert "momnet" in one_stderr_line(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_tolerance_must_be_finite_and_positive(value, capsys):
    assert main(["moments", "--rank", "2", "--max-moment", "2", "--tol", f"moment={value}"]) == 2
    assert "moment" in one_stderr_line(capsys)


@pytest.mark.parametrize("command, flag, text", [
    ("density", "--tol", "tail=abc"),
    ("density", "--tol", "tail="),
    ("scan", "--scan-tols", "1e-1,,2"),
    ("scan", "--scan-tols", "0.1,x"),
])
def test_flag_value_not_a_number(command, flag, text, capsys):
    # the usage error names the flag and the text, not the parser's function
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--rank", "2", flag, text])
    assert exit_info.value.code == 2
    err = one_stderr_line(capsys)
    assert f"argument {flag}: expected " in err
    assert repr(text) in err
    assert "_parse" not in err


def test_output_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["moments", "--rank", "2", "--max-moment", "2", "--out", str(out)]) == 2
    one_stderr_line(capsys)
    assert not out.parent.exists()


def test_jobs_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--rank", "2", "--max-total", "1", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "--jobs" in one_stderr_line(capsys)


# ---------------------------------------------------------------- the option table


def test_each_command_takes_its_flags():
    expected = {
        "verify": {"--rank", "--max-total", "--cap", "--out", "--config", "--inject-error"},
        "density": {"--rank", "--grid", "--truncation", "--tol", "--out", "--format",
                    "--method", "--config"},
        "pairing": {"--rank", "--max-total", "--cap", "--tol", "--out", "--config"},
        "scan": {"--rank", "--grid", "--scan-tols", "--out", "--config"},
        "moments": {"--rank", "--max-moment", "--cap", "--tol", "--out", "--config"},
    }
    subparsers = next(action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    taken = {command: {flag for action in p._actions for flag in action.option_strings}
             - {"-h", "--help"} for command, p in subparsers.items()}
    assert taken == expected
    assert sum(map(len, taken.values())) == 31


def parsed_commands(argv):
    return list(next(action.choices for action in build_parser(argv)._actions
                     if isinstance(action, argparse._SubParsersAction)))


def test_parser_builds_only_the_named_command():
    assert parsed_commands(["pairing", "--rank", "3"]) == ["pairing"]
    for argv in ([], ["-h"], ["--rank", "3", "verify"], ["pair"]):
        assert parsed_commands(argv) == list(COMMANDS)
    assert parsed_commands(None) == list(COMMANDS)


def run_main(argv, capsys):
    """main's exit code, stdout and stderr for ``argv``, a SystemExit's code included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["-h"], ["verify", "-h"], ["density", "--help"], [], ["bogus"], ["verify", "--bogus"],
    ["verify", "--rank", "x"], ["--rank", "2", "verify"],
])
def test_one_command_parser_matches_full_parser(argv, capsys, monkeypatch):
    # help, usage errors and their exit codes are the same when only the named
    # command's subparser is built as when all five are
    alone = run_main(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert alone == run_main(argv, capsys)
    assert alone[0] in (0, 2) and alone[1] + alone[2]


def sample_flag_value(opt):
    """A value the flag parses."""
    if opt.choices:
        return opt.choices[0]
    if opt.low is not None:
        return str(opt.low)
    return {str: "x", list: "0.1", dict: "x=1"}[opt.type]


def sample_file_value(opt):
    """A value of the option's type, as a config file would hold it."""
    if opt.choices:
        return opt.choices[0]
    if opt.low is not None:
        return opt.low
    return {str: "x", list: [0.1], dict: {}}[opt.type]


UNREAD_FLAGS = [
    (command, flag, value)
    for command in COMMANDS
    for flag, value in [(opt.flag, sample_flag_value(opt)) for opt in OPTIONS.values()]
    + [("--inject-error", None)]
    if flag not in {opt.flag for opt in command_options(command).values()}
    and (command, flag) != ("verify", "--inject-error")
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS)
def test_unread_flag_rejected(command, flag, value, capsys):
    argv = [command, flag] + ([] if value is None else [value])
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in one_stderr_line(capsys)


UNREAD_KEYS = [(command, key) for command in COMMANDS for key in OPTIONS
               if key not in command_options(command)]


@pytest.mark.parametrize("command, key", UNREAD_KEYS)
def test_unread_config_key_rejected(command, key, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({key: sample_file_value(OPTIONS[key])}))
    out = tmp_path / "out.json"
    assert main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
    assert one_stderr_line(capsys).startswith(
        f"configuration error: unknown config key {key!r} for {command}")
    assert not out.exists()


def resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("key", [key for key, opt in OPTIONS.items() if opt.low is not None])
def test_option_bound(key, tmp_path):
    opt = OPTIONS[key]
    for command in opt.commands:
        # scan asks more of its grid than the table's bound
        if (command, key) == ("scan", "grid_n"):
            continue
        assert getattr(resolve([command, opt.flag, str(opt.low)]), key) == opt.low
        below = f"^{key} must be at least {opt.low}, got {opt.low - 1}$"
        with pytest.raises(ValueError, match=below):
            resolve([command, opt.flag, str(opt.low - 1)])
        (tmp_path / "cfg.json").write_text(json.dumps({key: opt.low - 1}))
        with pytest.raises(ValueError, match=below):
            resolve([command, "--config", str(tmp_path / "cfg.json")])


@pytest.mark.parametrize("key", [key for key, opt in OPTIONS.items() if opt.choices])
def test_option_choices(key, tmp_path, capsys):
    opt = OPTIONS[key]
    for command in opt.commands:
        for choice in opt.choices:
            assert getattr(resolve([command, opt.flag, choice]), key) == choice
        with pytest.raises(SystemExit) as exit_info:
            main([command, opt.flag, "xml"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'xml'" in one_stderr_line(capsys)
        (tmp_path / "cfg.json").write_text(json.dumps({key: "xml"}))
        assert main([command, "--config", str(tmp_path / "cfg.json")]) == 2
        assert one_stderr_line(capsys).startswith(f"configuration error: {key} must be one of")


def test_readme_options_match_cli():
    # the README's option table, row for row, is the one in cli.py
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| option | flag | commands | bound or choices |\n|---|---|---|---|\n")[1]
    rows = re.findall(r"^\| .*\|$", table.split("\n\n")[0], flags=re.M)
    expected = []
    for key, opt in OPTIONS.items():
        if opt.low is not None:
            bound = f"≥ {opt.low}"
        elif opt.choices:
            bound = ", ".join(f"`{choice}`" for choice in opt.choices)
        else:
            bound = "–"
        expected.append(f"| `{key}` | `{opt.flag}` | {', '.join(opt.commands)} | {bound} |")
    assert rows == expected


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, flags=re.S)
    exec(compile(example, "README.md", "exec"), {})


# ---------------------------------------------------------------- verify


def test_verify_passes(tmp_path):
    code, payload = run_json(tmp_path, ["verify", "--rank", "2", "--max-total", "2"])
    assert code == 0
    assert payload["summary"]["pass"] is True
    assert payload["summary"]["failed"] == 0
    first = payload["checks"][0]
    assert set(first) == {"lemma", "params", "lhs", "rhs", "pass", "elapsed_ms"}


def test_verify_injected_error_caught(tmp_path):
    code, payload = run_json(
        tmp_path, ["verify", "--rank", "2", "--max-total", "1", "--inject-error"]
    )
    assert code == 1
    assert payload["summary"]["failed"] == 1


def test_verify_cap_exhaustion(tmp_path, capsys):
    code = main(["verify", "--rank", "2", "--max-total", "4", "--cap", "100"])
    assert code == 2


def test_verify_tiny_cap(capsys):
    # the graded form of v, a length-one part of 2N = 4 entries, does not fit a cap of 3
    assert main(["verify", "--rank", "2", "--max-total", "1", "--cap", "3"]) == 2
    assert "length-1 vector has 4 entries, cap is 3" in one_stderr_line(capsys)
    # a cap below 1 is invalid configuration, not a cap hit at run time
    for cap in ("0", "-3"):
        assert main(["verify", "--rank", "2", "--max-total", "1", "--cap", cap]) == 2
        line = one_stderr_line(capsys)
        assert line == f"configuration error: cap must be at least 1, got {cap}\n"


def test_pairing_cap_bounds_arrays(capsys):
    # the pass over v reaches length max_total + 1: 4 * 3**6 = 2916 entries at rank 2
    argv = ["pairing", "--rank", "2", "--max-total", "6", "--cap"]
    assert main(argv + ["2915"]) == 2
    assert "a length-7 vector has 2916 entries, cap is 2915" in one_stderr_line(capsys)
    assert main(argv + ["2916"]) == 0


def test_verify_env_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("RADIAL_MASA_CAP", "100")
    assert main(["verify", "--rank", "2", "--max-total", "4"]) == 2


def test_verify_deterministic(tmp_path):
    out = tmp_path / "rep.json"
    main(["verify", "--rank", "2", "--max-total", "2", "--out", str(out)])
    first = json.loads(out.read_text())
    main(["verify", "--rank", "2", "--max-total", "2", "--out", str(out)])
    second = json.loads(out.read_text())
    assert strip_timing(first) == strip_timing(second)


BENCHMARK_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


# the exact columns of each report, as perfbench/run.py hashes them
BENCHMARK_ROWS = {
    "verify": lambda report: [[c["lemma"], c["params"], c["lhs"], c["rhs"]]
                              for c in report["checks"]],
    "pairing": lambda report: [[c["j"], c["k"], c["value_exact"], c["value_case"]]
                               for c in report["checks"]],
}


@pytest.mark.parametrize("key", list(BENCHMARK_DIGESTS))
def test_report_matches_benchmark_digest(tmp_path, key):
    # the benchmark's exactness gate: the exact columns of every check, hashed
    # as perfbench/run.py hashes them, against the recorded digest
    code, report = run_json(tmp_path, key.split())
    assert code == 0
    # and the report's bytes are json's own for the same data
    written = (tmp_path / "out.json").read_text()
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n"
    command = key.split()[0]
    rows = BENCHMARK_ROWS[command](report)
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    # a pairing report counts its normalization as one more check
    total = len(rows) + (command == "pairing")
    assert report["summary"]["total"] == total == BENCHMARK_DIGESTS[key]["checks"]
    assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_DIGESTS[key]["sha256"]


# ---------------------------------------------------------------- density


@pytest.mark.parametrize(
    "exc, shown",
    [
        (MemoryError("Unable to allocate 2.98 GiB for an array"),
         "Unable to allocate 2.98 GiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_density_out_of_memory(monkeypatch, capsys, exc, shown):
    # a grid too large to allocate exits 2 with one line, not a traceback
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(density, "density_closed_grid", exhausted)
    assert main(["density", "--rank", "3", "--grid", "20000"]) == 2
    assert one_stderr_line(capsys) == f"aborted: MemoryError: {shown}\n"


def test_density_csv(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["density", "--rank", "2", "--grid", "8", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("t,s,f,tail_bound,method")
    assert b"\r\n" in out.read_bytes()  # RFC-4180 line endings
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 64
    assert all(row["method"] in ("closed", "series") for row in rows)
    assert all("." in row["f"] or "e" in row["f"] for row in rows)


def test_density_single_point(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["density", "--rank", "2", "--grid", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["s"]) == 0.0
    assert float(rows[0]["f"]) == pytest.approx(2.0, abs=1e-12)


def test_density_formats_agree(tmp_path):
    csv_out = tmp_path / "grid.csv"
    json_out = tmp_path / "grid.json"
    main(["density", "--rank", "2", "--grid", "4", "--out", str(csv_out)])
    main(["density", "--rank", "2", "--grid", "4", "--format", "json",
          "--out", str(json_out)])
    csv_rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    json_rows = json.loads(json_out.read_text())["rows"]
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        assert float(c["t"]) == j["t"]
        assert float(c["f"]) == j["f"]
        assert c["method"] == j["method"]


def test_density_series_method(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(["density", "--rank", "2", "--grid", "4", "--method", "series",
                 "--truncation", "40", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(row["method"] == "series" for row in rows)
    assert all(float(row["tail_bound"]) > 0 for row in rows)


def test_density_both_methods(tmp_path):
    out = tmp_path / "grid.csv"
    main(["density", "--rank", "2", "--grid", "3", "--method", "both", "--out", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 18
    methods = {row["method"] for row in rows}
    assert methods == {"closed", "series"}


# The encoders the density export used before it was built from columns, kept
# here as the oracle for its bytes: one tuple per point, then csv.writer or
# json.dumps over one dict per row.

HEADER = ["t", "s", "f", "tail_bound", "method"]


def encode_rows(fmt, config, rows):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
        return buf.getvalue()
    payload = {"command": "density", "config": config,
               "rows": [dict(zip(HEADER, row)) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def row_encoder_output(argv):
    cfg = resolve_config(build_parser().parse_args(argv))
    params = SpectralParams(cfg.rank)
    pts = density.interior_grid(cfg.grid_n, params)
    tt, ss = np.broadcast_arrays(pts[:, None], pts[None, :])
    rows = []
    for method in ("closed", "series") if cfg.method == "both" else (cfg.method,):
        if method == "closed":
            values, tail = density.density_closed_grid(tt, ss, params)
        else:
            values, tail = density.density_series_grid(tt, ss, cfg.truncation, params)
        rows.extend(zip(tt.ravel().tolist(), ss.ravel().tolist(), values.ravel().tolist(),
                        [float(tail)] * values.size, [method] * values.size))
    return encode_rows(cfg.format, cfg.public_dict(), rows)


def assert_density_bytes(argv, tmp_path, capsys):
    """The export equals the row encoders' output on stdout and through --out."""
    assert main(argv) == 0
    assert capsys.readouterr().out == row_encoder_output(argv)
    out_argv = argv + ["--out", str(tmp_path / "density.out")]
    assert main(out_argv) == 0
    assert (tmp_path / "density.out").read_bytes() == row_encoder_output(out_argv).encode()


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
@pytest.mark.parametrize("grid", [1, 2, 7, 33])
def test_density_bytes_match_row_encoders(rank, grid, tmp_path, capsys):
    for method in ("closed", "series", "both"):
        for fmt in ("csv", "json"):
            argv = ["density", "--rank", str(rank), "--grid", str(grid),
                    "--method", method, "--format", fmt]
            assert_density_bytes(argv, tmp_path, capsys)


@pytest.mark.parametrize("block_points", [1, 5 * 33])
def test_density_bytes_across_blocks(block_points, tmp_path, capsys, monkeypatch):
    # one grid row a block, and 5 rows a block, which does not divide 33 rows;
    # the expected bytes come from one-block kernels
    for method in ("closed", "series", "both"):
        for fmt in ("csv", "json"):
            argv = ["density", "--rank", "3", "--grid", "33", "--method", method, "--format", fmt]
            out_argv = argv + ["--out", str(tmp_path / "density.out")]
            want = row_encoder_output(argv), row_encoder_output(out_argv).encode()
            with monkeypatch.context() as patch:
                patch.setattr(density, "BLOCK_POINTS", block_points)
                assert main(argv) == 0
                assert main(out_argv) == 0
            assert capsys.readouterr().out == want[0]
            assert (tmp_path / "density.out").read_bytes() == want[1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_memory_error_mid_stream(fmt, tmp_path, capsys, monkeypatch):
    # one grid row a block; the third block's text cannot be allocated
    monkeypatch.setattr(density, "BLOCK_POINTS", 8)
    real, spelled = cli._rows_pieces, []

    def third_fails(*args):
        spelled.append(args)
        if len(spelled) == 3:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(cli, "_rows_pieces", third_fails)
    out = tmp_path / "grid.out"
    assert main(["density", "--rank", "2", "--grid", "8", "--format", fmt, "--out", str(out)]) == 2
    assert one_stderr_line(capsys) == "aborted: MemoryError: out of memory\n"
    assert len(spelled) == 3
    assert list(tmp_path.iterdir()) == []  # neither the output nor the temp file


def joined_chunks(monkeypatch, chunk):
    """Set the chunk bound to ``chunk`` pieces, and return the list that
    collects every chunk ``cli._joined`` yields, each checked to be the join
    of at most ``chunk`` consecutive pieces of its list."""
    monkeypatch.setattr(cli, "CHUNK_PIECES", chunk)
    real, joined = cli._joined, []

    def checked(pieces):
        start = 0
        for text in real(pieces):
            end = start
            while len("".join(pieces[start:end])) < len(text):
                end += 1
            assert "".join(pieces[start:end]) == text
            assert 1 <= end - start <= chunk
            start = end
            joined.append(text)
            yield text
        assert start == len(pieces)

    monkeypatch.setattr(cli, "_joined", checked)
    return joined


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("argv", [["verify", "--rank", "2", "--max-total", "2"],
                                  ["pairing", "--rank", "2"]])
def test_report_chunk_edges(argv, chunk, capsys, monkeypatch):
    # every row of the checks list is written in chunks of at most `chunk`
    # pieces, the first one opening the list with its bracket
    joined = joined_chunks(monkeypatch, chunk)
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    rows = "".join(joined)
    assert joined[0].startswith("[\n    {") and '"checks": ' + rows + "\n  ]" in text
    assert all(not chunk.startswith("[") for chunk in joined[1:])


@pytest.mark.parametrize("chunk", [1, 2, 5])
@pytest.mark.parametrize("block_points", [1, 5 * 33])
def test_density_chunk_edges(block_points, chunk, capsys, monkeypatch):
    # chunk edges fall inside rows, inside blocks and at the edges of grids
    for grid in (1, 2, 33):
        for fmt in ("csv", "json"):
            argv = ["density", "--rank", "3", "--grid", str(grid), "--method", "both",
                    "--format", fmt]
            want = row_encoder_output(argv)
            with monkeypatch.context() as patch:
                patch.setattr(density, "BLOCK_POINTS", block_points)
                joined = joined_chunks(patch, chunk)
                assert main(argv) == 0
            text = capsys.readouterr().out
            assert text == want
            rows = "".join(joined)
            if fmt == "csv":
                assert text == ",".join(HEADER) + "\r\n" + rows
            else:
                assert rows.startswith("[\n    {") and '"rows": ' + rows + "\n  ]" in text


def test_density_runaway_grid_fails_before_writing(tmp_path):
    # the float grids are allocated whole before the first byte is written, so
    # a grid past the address-space limit fails with nothing written
    out = tmp_path / "F"
    limit = 2 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from radialmasa.cli import main\n"
        f"sys.exit(main(['density', '--rank', '2', '--grid', '20000', '--out', {str(out)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("aborted: MemoryError")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, shown", [("MemoryError()", "out of memory"),
                                         ("MemoryError('no room')", "no room")])
def test_main_module_reports_memory_error_on_import(exc, shown):
    # python -m radialmasa that runs out of memory while importing the CLI
    # prints one line and exits 2, as a MemoryError inside cli.main does
    script = (
        "import runpy, sys\n"
        "class Exhausted:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'radialmasa.cli':\n"
        f"            raise {exc}\n"
        "sys.meta_path.insert(0, Exhausted())\n"
        "sys.argv = ['radialmasa', 'density', '--grid', '4']\n"
        "runpy.run_module('radialmasa', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"aborted: MemoryError: {shown}\n"


def test_cli_import_leaves_out_numpy_polynomial():
    # only lambda_rule needs leggauss; verify, density and scan build no rule
    script = ("import sys, numpy\n"
              "print('numpy.polynomial' in sys.modules)\n"
              "import radialmasa.cli\n"
              "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    by_numpy, by_cli = proc.stdout.split()
    if by_numpy == "True":
        pytest.skip("this numpy loads numpy.polynomial on import")
    assert by_cli == "False"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_export_peak_below_output_size(fmt, tmp_path):
    # the text is written one block of rows at a time, never held whole
    out = tmp_path / "grid.out"
    argv = ["density", "--rank", "3", "--grid", "256", "--method", "both", "--format", fmt,
            "--out", str(out)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_text_spells_special_floats(fmt):
    pts = np.array([-0.0, 1.5, float("nan")])
    values = np.array([[float("nan"), float("inf"), -float("inf")],
                       [-0.0, 0.0, 1e-300],
                       [2.5, -1e300, float("nan")]])
    head = {"command": "density", "config": {"rank": 2}}
    grids = ((values, -0.0, "closed"), (values, float("nan"), "series"),
             (values, float("inf"), "series"))
    text = "".join(WRITERS[fmt]({**head, "rows": DensityRows(pts, grids)}))
    rows = [(float(pts[i]), float(pts[j]), float(values[i, j]), tail, label)
            for _, tail, label in grids for i in range(3) for j in range(3)]
    assert text == encode_rows(fmt, head["config"], rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [1, 5, 12])
def test_density_text_spells_repeated_values(fmt, block_rows, monkeypatch):
    # values repeat across far-apart rows and blocks, and 0.0 and -0.0 (equal
    # as floats, distinct as texts) each recur, so a text dropped before its
    # last row or shared by equal floats of other bits shows in the bytes
    n = 12
    monkeypatch.setattr(density, "BLOCK_POINTS", block_rows * n)
    rng = np.random.default_rng(14)
    upper = rng.standard_normal((n, n))
    specials = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 0.0, -0.0]
    upper[0, 1:8] = upper[3, 5:12] = specials
    values = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)  # transposed copy
    values[n // 2:] = values[:n - n // 2][::-1]  # reflected copy
    values[n - 1, -3:] = [-0.0, 0.0, -0.0]
    pts = np.linspace(-1.0, 1.0, n)
    grids = ((values, 0.0, "closed"), (values.T, 2.5e-17, "series"))
    head = {"command": "density", "config": {"rank": 3}}
    text = "".join(WRITERS[fmt]({**head, "rows": DensityRows(pts, grids)}))
    rows = [(float(pts[i]), float(pts[j]), float(grid[i, j]), tail, label)
            for grid, tail, label in grids for i in range(n) for j in range(n)]
    assert text == encode_rows(fmt, head["config"], rows)


def spelled_points(n, block_rows, fold):
    """The points at which a symmetric grid's texts are spelled, ``block_rows``
    rows a block: rows [r0, r0 + block_rows) on the columns [r0, n - r0) for
    r0 < n/2 when it is folded, else on the columns from r0 on."""
    stop = (n + 1) // 2 if fold else n
    return [(i, j) for r0 in range(0, stop, block_rows)
            for i in range(r0, min(r0 + block_rows, stop))
            for j in range(r0, n - r0 if fold else n)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_text_spells_each_domain_point_once(fmt, monkeypatch):
    # a grid with both symmetries by its bits is spelled on {i <= j, i + j <= n - 1},
    # one with only (i, j) -> (j, i) on {i <= j}, and one with neither at every
    # point, each one block of rows at a time; the grids hold both zeros and
    # two NaN payloads, and the third is symmetric as floats, not as bits
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.int64).view(float)
    rng = np.random.default_rng(35)
    real, spelled = cli._float_texts, []

    def recorded(values, fmt):
        spelled.append(np.asarray(values, dtype=float).ravel().view(np.int64).tolist())
        return real(values, fmt)

    monkeypatch.setattr(cli, "_float_texts", recorded)
    head = {"command": "density", "config": {"rank": 3}}
    for n, block_rows in [(7, 1), (7, 2), (8, 1), (8, 3)]:
        size = block_rows * n
        monkeypatch.setattr(density, "BLOCK_POINTS", size)
        values = rng.standard_normal((n, n))
        values[0, :4] = values[1, 2:6] = [0.0, -0.0, nans[0], nans[1]]
        i, j = np.indices((n, n))
        i, j = np.minimum(i, j), np.maximum(i, j)
        mirrored = values[i, j]
        outer = i + j > n - 1
        i[outer], j[outer] = n - 1 - j[outer], n - 1 - i[outer]
        folded = values[i, j]
        unpaired = mirrored.copy()
        unpaired[0, 1], unpaired[1, 0] = 0.0, -0.0
        pts = np.linspace(-1.0, 1.0, n)
        grids = ((folded, 7.5, "closed"), (mirrored, 2.5e-17, "series"),
                 (unpaired, 0.0, "series"))
        spelled.clear()
        text = "".join(WRITERS[fmt]({**head, "rows": DensityRows(pts, grids)}))
        quarter, triangle = spelled_points(n, block_rows, True), spelled_points(n, block_rows, False)
        if block_rows == 1:
            assert quarter == [(i, j) for i in range(n) for j in range(i, n - i)]
            assert triangle == [(i, j) for i in range(n) for j in range(i, n)]
        want = Counter(pts.view(np.int64).tolist())
        for grid, points in zip(grids, (quarter, triangle, np.ndindex(n, n))):
            want.update([np.float64(grid[1]).view(np.int64).item()])
            want.update(grid[0].view(np.int64)[i, j] for i, j in points)
        assert Counter(chain.from_iterable(spelled)) == want
        assert all(len(call) <= size for call in spelled)
        rows = [(float(pts[i]), float(pts[j]), float(grid[i, j]), tail, label)
                for grid, tail, label in grids for i in range(n) for j in range(n)]
        assert text == encode_rows(fmt, head["config"], rows)


# a small pool, so bit patterns repeat across far-apart rows: both zeros,
# NaNs of both signs, both infinities, the least subnormal and a few finite
# values
# The export spells values with 2^-27 <= |x| < 2^51 by floatrepr's kernel and
# the rest by repr: full-precision values on both sides of that split, and
# each edge with its lower neighbour.
VALUE_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 0.1, -2.5, 1e300,
              0.7071067811865476, -1.2345678901234568e-05, 2.0**-27,
              math.nextafter(2.0**-27, 0.0), 2.0**51, math.nextafter(2.0**51, 0.0),
              -123456789.01234567, 3.0000000000000004e-09]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("block_rows", [2, 3, 5])
def test_density_rows_bytes_property(fmt, block_rows, data):
    # n is not a multiple of the block rows, so the last block is short
    n = data.draw(st.integers(1, 13).filter(lambda n: n % block_rows), label="n")
    values = st.sampled_from(VALUE_POOL)
    pts = data.draw(st.lists(values, min_size=n, max_size=n), label="pts")
    grids = []
    for label in data.draw(st.lists(st.sampled_from(["closed", "series"]), min_size=1,
                                    max_size=2), label="labels"):
        grid = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n),
                                  label="grid")).reshape(n, n)
        if data.draw(st.booleans(), label="symmetric"):
            grid = np.where(np.triu(np.ones((n, n), dtype=bool)), grid, grid.T)
        grids.append((grid, data.draw(values, label="tail"), label))
    head = {"command": "density", "config": {"rank": 3}}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "BLOCK_POINTS", block_rows * n)
        text = "".join(WRITERS[fmt]({**head, "rows": DensityRows(np.array(pts), tuple(grids))}))
    rows = [(pts[i], pts[j], float(grid[i, j]), tail, label)
            for grid, tail, label in grids for i in range(n) for j in range(n)]
    assert text == encode_rows(fmt, head["config"], rows)


def test_density_tail_tolerance_violation(tmp_path, capsys, monkeypatch):
    # truncation 2 has a large tail bound; demanding 1e-8 must abort with 2
    code = main(["density", "--rank", "2", "--grid", "2", "--method", "series",
                 "--truncation", "2", "--tol", "tail=1e-8"])
    assert code == 2
    tail = density.series_tail_bound(2, SpectralParams(2))
    assert one_stderr_line(capsys) == (
        f"aborted: series tail bound {tail} exceeds requested tolerance 1e-08; "
        "raise the truncation order\n")

    # the bound is checked before any grid is evaluated
    def evaluated(*args, **kwargs):
        raise AssertionError("a grid was evaluated")

    monkeypatch.setattr(density, "density_closed_grid", evaluated)
    monkeypatch.setattr(density, "density_series_grid", evaluated)
    for method in ("series", "both"):
        assert main(["density", "--rank", "2", "--grid", "2048", "--method", method,
                     "--truncation", "2"]) == 2
        assert one_stderr_line(capsys).startswith(f"aborted: series tail bound {tail} ")


# ---------------------------------------------------------------- pairing / scan / moments


def test_pairing_command(tmp_path):
    code, payload = run_json(tmp_path, ["pairing", "--rank", "2", "--max-total", "4"])
    assert code == 0
    assert payload["summary"]["pass"] is True
    assert payload["normalization"]["pass"] is True
    assert len(payload["checks"]) == 15


def test_scan_command(tmp_path):
    code, payload = run_json(tmp_path, ["scan", "--rank", "2", "--grid", "64"])
    assert code == 0
    report = payload["report"]
    assert set(report) == {"grid_n", "rank", "fractions", "min_abs", "argmin", "max_abs"}
    assert set(report["fractions"]) == {"0.1", "0.001", "1e-05"}
    assert isinstance(report["argmin"], list) and len(report["argmin"]) == 2
    assert all(type(x) is float for x in report["argmin"])
    assert payload["summary"]["monotone"] is True


@pytest.mark.parametrize("bound, factor", [("min_at_least_lower_bound", 1 - 2.0**-46),
                                           ("max_at_most_upper_bound", 1 + 2.0**-46)])
def test_scan_fails_past_a_proved_bound(tmp_path, monkeypatch, bound, factor):
    # ((N - 1)/N)^5 <= f <= N/(N - 1) within 16 eps: one grid value moved
    # past a bound by 64 eps fails that bound alone, and the scan exits 1
    code, payload = run_json(tmp_path, ["scan", "--rank", "3", "--grid", "32"])
    assert code == 0
    assert payload["summary"]["min_at_least_lower_bound"] is True
    assert payload["summary"]["max_at_most_upper_bound"] is True
    rank = 3
    edge = ((rank - 1) / rank) ** 5 if bound.startswith("min") else rank / (rank - 1)
    real = density.density_closed_grid

    def moved(*args):
        values, tail = real(*args)
        values[5, 7] = edge * factor
        return values, tail

    monkeypatch.setattr(density, "density_closed_grid", moved)
    code, payload = run_json(tmp_path, ["scan", "--rank", "3", "--grid", "32"])
    assert code == 1
    summary = payload["summary"]
    assert summary[bound] is False and summary["pass"] is False
    assert summary["monotone"] and summary["max_at_least_one"]
    assert [key for key, value in summary.items() if value is False] == [bound, "pass"]


def test_scan_tiny_grid_rejected(capsys):
    assert main(["scan", "--rank", "2", "--grid", "8"]) == 2


def test_scan_empty_tols_rejected(tmp_path, capsys):
    # no gate passes with an empty check list
    out = tmp_path / "out.json"
    assert main(["scan", "--rank", "2", "--grid", "32", "--scan-tols", "", "--out", str(out)]) == 2
    assert "scan_tols" in one_stderr_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("tols, config", [
    ("nan", None), ("inf", None), ("0.1,-inf", None), ("0", None), (None, [-1, 0.1]),
])
def test_scan_meaningless_tols_rejected(tmp_path, capsys, tols, config):
    # a threshold that is not finite and positive counts nothing
    argv = ["scan", "--rank", "2", "--grid", "16", "--out", str(tmp_path / "out.json")]
    if tols is not None:
        argv += ["--scan-tols", tols]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"scan_tols": config}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    assert one_stderr_line(capsys).startswith("configuration error: scan_tols")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["verify", "pairing", "scan", "moments"])
def test_csv_format_only_for_density(tmp_path, capsys, command):
    # the JSON reports have no CSV form, so only density takes a format
    argv = [command, "--rank", "2", "--out", str(tmp_path / "out.json")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--format", "csv"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format csv" in one_stderr_line(capsys)
    (tmp_path / "cfg.json").write_text(json.dumps({"format": "csv"}))
    assert main(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    assert one_stderr_line(capsys).startswith(
        f"configuration error: unknown config key 'format' for {command}")
    assert not (tmp_path / "out.json").exists()


def test_moments_command(tmp_path):
    code, payload = run_json(tmp_path, ["moments", "--rank", "3", "--max-moment", "8"])
    assert code == 0
    checks = payload["checks"]
    assert len(checks) == 9
    assert checks[2]["exact"] == "6/1"
    assert all(c["pass"] for c in checks)


def test_moments_cap(capsys):
    # chi_1^2 at rank 2 has a length-2 part of 12 entries
    argv = ["moments", "--rank", "2", "--max-moment", "4", "--cap"]
    assert main(argv + ["11"]) == 2
    assert one_stderr_line(capsys) == "aborted: a length-2 vector has 12 entries, cap is 11\n"
    assert main(argv + ["12"]) == 0


@pytest.mark.parametrize("rank, max_moment", [(2, 24), (3, 16)])
def test_moments_tolerance_is_relative(tmp_path, rank, max_moment):
    # moments grow like a^k; roundoff on them, up to 2e-3 at rank 2 and k = 24,
    # is no failure
    code, payload = run_json(
        tmp_path, ["moments", "--rank", str(rank), "--max-moment", str(max_moment)]
    )
    assert code == 0
    assert max(c["abs_err"] for c in payload["checks"]) > 1e-8


def test_moments_relative_error_fails(tmp_path, monkeypatch):
    real = cli.quad_lambda
    monkeypatch.setattr(cli, "quad_lambda", lambda *args, **kw: real(*args, **kw) * (1 + 1e-6))
    code, payload = run_json(tmp_path, ["moments", "--rank", "2", "--max-moment", "10"])
    assert code == 1
    # every nonzero moment is off by 1e-6 of itself; the zero odd moments stay exact
    assert [c["pass"] for c in payload["checks"]] == [k % 2 == 1 for k in range(11)]


def test_moments_tolerance_failure(tmp_path):
    # an absurdly tight tolerance cannot be met: math failure, exit 1
    code, payload = run_json(
        tmp_path, ["moments", "--rank", "2", "--max-moment", "10", "--tol", "moment=1e-16"]
    )
    assert code == 1
    assert payload["summary"]["pass"] is False


# ---------------------------------------------------------------- report writer


def json_oracle(payload):
    """The encoder json_report replaces, kept as the oracle for its bytes; a
    record table is encoded as the list of its records' to_json_dict()."""
    return json.dumps(payload, default=lambda table: [r.to_json_dict() for r in table],
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "2", "--max-total", "4"],
    ["verify", "--rank", "3", "--max-total", "3"],
    ["verify", "--rank", "2", "--max-total", "2", "--inject-error"],
    ["pairing", "--rank", "2"],
    ["scan", "--rank", "2", "--grid", "32", "--scan-tols", "0.5,1e-3"],
    ["moments", "--rank", "3"],
    ["pairing", "--rank", "3", "--max-total", "4"],
    ["moments", "--rank", "2", "--max-moment", "24"],
    # the benchmark's verify run, 7,224 checks
    ["verify", "--rank", "3", "--max-total", "5"],
])
def test_json_report_matches_json_dumps(argv):
    cfg = resolve_config(build_parser().parse_args(argv))
    payload, _ = COMMANDS[cfg.command](cfg)
    assert json_report(payload) == json_oracle(payload)


def check_report(lemma="sandwich_inner", params=None, lhs="1/2", rhs=None, elapsed_ms=0.25):
    params = {"rank": 2, "n": 1, "m": 0} if params is None else params
    return CheckReport(lemma, params, lhs, lhs if rhs is None else rhs, rhs is None, elapsed_ms)


def pairing_report(value_quad):
    return PairingReport(1, 2, Fraction(-3, 4), Fraction(-3, 4), value_quad, 1e-6, False)


def record_table(blocks, cls=CheckReport):
    """A table of ``cls`` whose blocks hold the records of ``blocks`` by column;
    params, the field with columns, is a map of columns, and the records of a
    block share its keys."""
    def columns(records):
        block = {attr: [getattr(record, attr) for record in records]
                 for _, attr, _ in cls.json_fields()}
        if "params" in block:
            keys = records[0].params if records else {}
            block["params"] = {key: [record.params[key] for record in records] for key in keys}
        return block
    return RecordTable(cls, [columns(records) for records in blocks])


@pytest.mark.parametrize("tables", [
    # the lemma and the params keys change, then change back (keys in another order)
    {"checks": [[check_report(), check_report(params={"rank": 2, "n": 2, "m": 5})],
                [check_report("pairing_cases", {"vec": 1})],
                [check_report(params={"m": 3, "n": 4, "rank": -2})], [check_report()]]},
    # a failed check whose sides differ, as --inject-error makes one
    {"checks": [[check_report(rhs="1/2 (perturbed)"), check_report(lhs="-7/3")]]},
    {"checks": [[check_report(elapsed_ms=ms)]
                for ms in (0.0005, 1e-9, 12345.6785, 0.0, 0.0015, 2, 1e300)]},
    # params values of several types, an empty map, and a map inside the map
    {"checks": [[check_report(params={"rank": True, "n": "1", "m": 1.5})],
                [check_report(params={}), check_report(params={})],
                [check_report(params={"rank": {"b": [1, {}], "a": None}})],
                [check_report(params={"rank": 1 << 70})]]},
    # both zeros and repeated values, each distinct float spelled once by its bits
    {"pairings": [[pairing_report(value) for value in (float("nan"), float("inf"), -float("inf"),
                                                       -0.0, 0.0, -0.0, 0.5)],
                  [pairing_report(float("nan")), pairing_report(0.0)]]},
    # tables of both classes in one report, and empty blocks
    {"pairings": [[pairing_report(0.5)], [], [pairing_report(1e-300)]],
     "checks": [[], [check_report()], [check_report()]]},
    {"checks": [], "pairings": [[]]},
], ids=["layouts", "failed", "elapsed_ms", "params", "nonfinite", "mixed", "empty"])
def test_json_report_writes_report_objects_as_json_does(tables):
    payload = {key: record_table(blocks, PairingReport if key == "pairings" else CheckReport)
               for key, blocks in tables.items()}
    payload.update(summary={"total": sum(map(len, payload.values()))}, elapsed_ms=1.5)
    assert json_report(payload) == json_oracle(payload)


def test_shared_columns_are_spelled_once(monkeypatch):
    # every inner block holds the family's one list for each degree column;
    # the writer spells each list column once a table, however many blocks
    # hold it
    argv = ["verify", "--rank", "2", "--max-total", "3"]
    payload, _ = COMMANDS["verify"](resolve_config(build_parser().parse_args(argv)))
    real, spelled = cli._spell, []  # holds each column, so no id is reused
    monkeypatch.setattr(cli, "_spell",
                        lambda column, indent: spelled.append(column) or real(column, indent))
    json_report(payload)
    assert len({id(column) for column in spelled}) == len(spelled)
    inner = [block for block in payload["checks"].blocks if block["lemma"] == "sandwich_inner"]
    assert len(inner) == len(all_test_vectors(2)) ** 2
    for key in ("n", "m", "n2", "m2"):
        column = inner[0]["params"][key]
        assert all(block["params"][key] is column for block in inner)
        assert sum(spelled_column is column for spelled_column in spelled) == 1


def test_elapsed_ms_is_one_value_per_block(tmp_path):
    tested = [(v, identities.sandwich_table(v, 3)) for v in all_test_vectors(2)]
    for table in (identities.inner_block(tested, 0, 1), identities.expansion_block(tested, 1),
                  identities.pairing_block(tested, 2)):
        [block] = table.blocks
        assert type(block["elapsed_ms"]) is float
    code, payload = run_json(tmp_path, ["verify", "--rank", "2", "--max-total", "3"])
    assert code == 0
    times = {}
    for check in payload["checks"]:
        block = check["lemma"], check["params"]["vec"], check["params"].get("vec2")
        times.setdefault(block, set()).add(check["elapsed_ms"])
    vectors = len(all_test_vectors(2))
    assert len(times) == vectors * vectors + 2 * vectors
    assert all(len(values) == 1 for values in times.values())


# JSON values for the params columns: maps inside the map, and strings json
# must escape
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)
ELAPSED_MS = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1e300, 0.0015]) | st.floats()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_table_writes_as_json_does(data):
    # random params layouts, the empty one included, drawn per block from a
    # small pool, so consecutive blocks share a layout or do not; empty blocks
    layouts = data.draw(st.lists(st.lists(st.text(max_size=3), unique=True, max_size=4),
                                 min_size=1, max_size=3))
    # every column but lhs is drawn as a list or as one value its block
    # shares, which is anything but a list
    blocks = []
    for _ in range(data.draw(st.integers(0, 5))):
        layout = data.draw(st.sampled_from(layouts))
        size = data.draw(st.integers(0, 3))
        column = lambda values: st.lists(values, min_size=size, max_size=size) | values.filter(
            lambda value: not isinstance(value, list))
        blocks.append({
            "lemma": data.draw(column(st.text())),
            "params": {key: data.draw(column(JSON_VALUES)) for key in layout},
            "lhs": data.draw(st.lists(st.text(), min_size=size, max_size=size)),
            "rhs": data.draw(column(st.text())),
            "passed": data.draw(column(st.booleans())),
            "elapsed_ms": data.draw(column(ELAPSED_MS)),
        })
    payload = {"checks": RecordTable(CheckReport, blocks)}
    assert json_report(payload) == json_oracle(payload)


def test_single_value_columns_expand():
    # a block may hold a column its records share as one value, at the top
    # level or in the map with columns; len, column() and iteration expand it
    table = RecordTable(CheckReport, [
        {"lemma": "a", "params": {"rank": 2, "n": [0, 1]}, "lhs": ["1/1", "2/1"],
         "rhs": "1/1", "passed": [True, False], "elapsed_ms": 0.5},
        {"lemma": ["b"], "params": {"rank": [3], "n": 4}, "lhs": "0/1", "rhs": ["0/1"],
         "passed": [True], "elapsed_ms": [1.5]},
        {"lemma": "c", "params": {"rank": [], "n": 7}, "lhs": "x", "rhs": "x", "passed": [],
         "elapsed_ms": 0.0},
    ])
    assert len(table) == 3
    assert table.column("lemma") == ["a", "a", "b"]
    assert table.column("rhs") == ["1/1", "1/1", "0/1"]
    assert table.column("params", "n") == [0, 1, 4]
    assert table.column("params", "rank") == [2, 2, 3]
    assert table.column("elapsed_ms") == [0.5, 0.5, 1.5]
    assert list(table) == [CheckReport("a", {"rank": 2, "n": 0}, "1/1", "1/1", True, 0.5),
                           CheckReport("a", {"rank": 2, "n": 1}, "2/1", "1/1", False, 0.5),
                           CheckReport("b", {"rank": 3, "n": 4}, "0/1", "0/1", True, 1.5)]


def test_single_value_columns_write_as_json_does():
    # the same columns once as one value and once as a list, in one run of
    # blocks; values equal under == but spelled apart (1 and True, 0.0 and
    # -0.0) in either form; an empty map shared by a block's records
    shared = {"lemma": "s", "params": {"rank": True, "n": [1, 2]}, "lhs": ["1/2", "1/3"],
              "rhs": "1/2", "passed": [True, False], "elapsed_ms": -0.0}
    listed = {"lemma": ["s", "t"], "params": {"rank": [1, 1], "n": [3, 4]}, "lhs": ["1/2", "1/3"],
              "rhs": ["1/2", "1/2"], "passed": [True, False], "elapsed_ms": [0.0, 0.0015]}
    blocks = [shared, listed, dict(shared, params={"rank": 1, "n": 2.5}, lhs=["x"], passed=[1]),
              dict(listed, params={}, elapsed_ms=1e300)]
    payload = {"checks": RecordTable(CheckReport, blocks), "summary": {"total": 7}}
    assert json_report(payload) == json_oracle(payload)


def test_inject_error_marks_only_the_first_check(tmp_path):
    code, payload = run_json(tmp_path, ["verify", "--rank", "2", "--max-total", "2",
                                        "--inject-error"])
    assert code == 1
    assert [n for n, check in enumerate(payload["checks"]) if not check["pass"]] == [0]
    first = payload["checks"][0]
    assert first["rhs"] == first["lhs"] + " (perturbed)"
    assert payload["summary"]["failed"] == 1


@pytest.mark.parametrize("rank", [2, 3])
def test_block_tables_hold_what_the_tracer_reads(monkeypatch, rank):
    # the benchmark's tracer wraps the three block functions by name, keeps
    # what each returns, counts len() of it and, after the command, reads
    # .passed off its rows, where --inject-error must show once
    lemmas = {"inner_block": "sandwich_inner", "expansion_block": "sandwich_expansion",
              "pairing_block": "pairing_cases"}
    kept = {name: [] for name in lemmas}
    for name, results in kept.items():
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name,
                            lambda *args, real=real, results=results:
                            results.append(real(*args)) or results[-1])
    argv = ["verify", "--rank", str(rank), "--max-total", "5", "--inject-error"]
    payload, passed = COMMANDS["verify"](resolve_config(build_parser().parse_args(argv)))
    assert passed is False
    vectors = len(all_test_vectors(rank))
    assert [len(results) for results in kept.values()] == [vectors * vectors, vectors, vectors]
    for name, results in kept.items():
        assert {len(table) for table in results} == {441 if name == "inner_block" else 21}
        assert {row.lemma for table in results for row in table} == {lemmas[name]}
    failed = [row for results in kept.values() for table in results for row in table
              if not row.passed]
    assert len(failed) == 1
    assert failed[0] == next(iter(kept["inner_block"][0]))
    assert failed[0].rhs.endswith(" (perturbed)")
    count = sum(len(table) for results in kept.values() for table in results)
    assert len(payload["checks"]) == payload["summary"]["total"] == count
    argv = ["pairing", "--rank", str(rank), "--max-total", "5"]
    payload, _ = COMMANDS["pairing"](resolve_config(build_parser().parse_args(argv)))
    assert len(payload["checks"]) == len(degree_pairs(5)) == payload["summary"]["total"] - 1


def test_json_report_spells_every_value_as_json_does():
    rows = [
        {"lemma": 'quote " and \\ backslash', "x": float("nan"), "y": float("inf"),
         "z": -float("inf"), "w": -0.0, "params": {"flag": True, "n": 1, "none": None}},
        {"lemma": "tab\tbell\x07 é ☃", "x": 1e-300, "y": 2.5, "z": -1e300, "w": 0.0,
         "params": {"flag": False, "n": 2, "none": None}},
        # a second key structure, and columns of mixed types
        {"lemma": "x", "k": [1, [2, {}], {"b": [], "a": 1}], "params": {"n": True}},
        {"lemma": None, "k": {}, "params": {"n": 1.5}},
        {"lemma": "x", "k": 0, "params": {"n": "1"}},
        {}, 7, "row", None, [1, 2.5],
    ]
    payload = {"checks": rows, "rows": [], "command": "t\u00e9st", "summary": {"pass": True},
               "config": {"scan_tols": (0.1,), "tolerances": {}}, "zeta": (1, 2)}
    assert json_report(payload) == json_oracle(payload)
    assert json_report({}) == json_oracle({})


# ---------------------------------------------------------------- plumbing


# each command at a minimal size, and the number of rows or checks it reports
MINIMAL_RUNS = {
    "verify": (["--max-total", "1"], None),
    "density": (["--grid", "2", "--method", "both"], 8),
    "pairing": (["--max-total", "1"], 3),
    "scan": (["--grid", "16"], 0),
    "moments": (["--max-moment", "1"], 2),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_returns_report_and_flag(command):
    # the benchmark's tracer reads (str | dict, bool), and len() of a dict's
    # "rows" or "checks"
    flags, count = MINIMAL_RUNS[command]
    cfg = resolve_config(build_parser().parse_args([command, "--rank", "2", *flags]))
    body, passed = COMMANDS[command](cfg)
    assert isinstance(body, (str, dict)) and passed is True
    if isinstance(body, dict):
        rows = body.get("rows") or body.get("checks") or ()
        assert len(rows) == (body["summary"]["total"] if count is None else count)


def test_atomic_write(tmp_path):
    target = tmp_path / "file.txt"
    old_umask = os.umask(0o022)
    try:
        atomic_write_text(str(target), ["hello"])
        assert target.read_text() == "hello"
        # the mode open() would give, not the temp file's 0600
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        atomic_write_text(str(target), (text for text in ("re", "placed")))
        assert target.read_text() == "replaced"
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
    finally:
        os.umask(old_umask)
    assert list(tmp_path.iterdir()) == [target]  # no temp droppings


def test_stdout_output(capsys):
    code = main(["density", "--rank", "2", "--grid", "2"])
    assert code == 0
    assert capsys.readouterr().out.startswith("t,s,f,tail_bound,method")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radialmasa", "moments", "--rank", "2",
         "--max-moment", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["pass"] is True
