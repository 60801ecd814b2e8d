import argparse
import csv
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radialmasa import density
from radialmasa.cli import (
    COMMANDS,
    OPTIONS,
    RunConfig,
    atomic_write_text,
    build_parser,
    command_options,
    density_text,
    json_report,
    main,
    resolve_config,
)
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
            values, guarded = density.density_closed_grid(tt, ss, params)
            guard_tail = density.series_tail_bound(density.GUARD_SERIES_ORDER, params)
            flags = guarded.ravel().tolist()
            tails = [guard_tail if g else 0.0 for g in flags]
            labels = ["series" if g else "closed" for g in flags]
        else:
            values, tail = density.density_series_grid(tt, ss, cfg.truncation, params)
            tails, labels = [tail] * values.size, ["series"] * values.size
        rows.extend(zip(tt.ravel().tolist(), ss.ravel().tolist(), values.ravel().tolist(),
                        tails, labels))
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_bytes_with_guard_rows(fmt, tmp_path, capsys, monkeypatch):
    # a wide guard band puts series fallback rows among closed rows in one block
    monkeypatch.setattr(density, "CLOSED_FORM_GUARD", 0.5)
    pts = density.interior_grid(7, SpectralParams(3))
    _, guarded = density.density_closed_grid(pts[:, None], pts[None, :], SpectralParams(3))
    assert 0 < guarded.sum() < guarded.size
    argv = ["density", "--rank", "3", "--grid", "7", "--method", "both", "--format", fmt]
    assert_density_bytes(argv, tmp_path, capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_text_spells_special_floats(fmt):
    pts = np.array([-0.0, 1.5, float("nan")])
    values = np.array([[float("nan"), float("inf"), -float("inf")],
                       [-0.0, 0.0, 1e-300],
                       [2.5, -1e300, float("nan")]])
    guarded = np.zeros((3, 3), dtype=bool)
    guarded[0, 1] = guarded[2, 2] = True
    head = {"command": "density", "config": {"rank": 2}}
    text = density_text(fmt, head, pts,
                         [(values, guarded, -0.0, "closed"), (values, None, float("inf"), "series")],
                         float("nan"))
    rows = []
    for block_tail, block_label, mask in ((-0.0, "closed", guarded), (float("inf"), "series", None)):
        for i in range(3):
            for j in range(3):
                fallback = mask is not None and mask[i, j]
                rows.append((float(pts[i]), float(pts[j]), float(values[i, j]),
                             float("nan") if fallback else block_tail,
                             "series" if fallback else block_label))
    assert text == encode_rows(fmt, head["config"], rows)


def test_density_tail_tolerance_violation(tmp_path, capsys):
    # truncation 2 has a large tail bound; demanding 1e-8 must abort with 2
    code = main(["density", "--rank", "2", "--grid", "2", "--method", "series",
                 "--truncation", "2", "--tol", "tail=1e-8"])
    assert code == 2


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
    assert set(report["fractions"]) == {"0.1", "0.001", "1e-05"}
    assert payload["summary"]["monotone"] is True


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


def test_moments_tolerance_failure(tmp_path):
    # an absurdly tight tolerance cannot be met: math failure, exit 1
    code, payload = run_json(
        tmp_path, ["moments", "--rank", "2", "--max-moment", "10", "--tol", "moment=1e-16"]
    )
    assert code == 1
    assert payload["summary"]["pass"] is False


# ---------------------------------------------------------------- report writer


def json_oracle(payload):
    """The encoder json_report replaces, kept as the oracle for its bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "2", "--max-total", "4"],
    ["verify", "--rank", "3", "--max-total", "3"],
    ["verify", "--rank", "2", "--max-total", "2", "--inject-error"],
    ["pairing", "--rank", "2"],
    ["scan", "--rank", "2", "--grid", "32", "--scan-tols", "0.5,1e-3"],
    ["moments", "--rank", "3"],
])
def test_json_report_matches_json_dumps(argv):
    cfg = resolve_config(build_parser().parse_args(argv))
    payload, _ = COMMANDS[cfg.command](cfg)
    assert json_report(payload) == json_oracle(payload)


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


def test_atomic_write(tmp_path):
    target = tmp_path / "file.txt"
    old_umask = os.umask(0o022)
    try:
        atomic_write_text(str(target), "hello")
        assert target.read_text() == "hello"
        # the mode open() would give, not the temp file's 0600
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        atomic_write_text(str(target), "replaced")
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
