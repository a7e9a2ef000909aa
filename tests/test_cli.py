import argparse
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from importlib.metadata import EntryPoint
from pathlib import Path
from types import SimpleNamespace

import pytest

import qkoshy
import qkoshy.conjecture as cj
from qkoshy import cli, registry
from qkoshy.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_show_qbinom_frozen(capsys):
    assert run(["show", "qbinom", "4", "2"]) == 0
    assert capsys.readouterr().out == "1 + q + 2*q^2 + q^3 + q^4\n"


def test_show_subjects(capsys):
    cases = [
        (["show", "qcatalan", "3"], "1 + q^2 + q^3 + q^4 + q^6"),
        (["show", "narayana", "3"], "1 + 3*q + q^2"),
        (["show", "cyclotomic", "6"], "1 - q + q^2"),
        (["show", "qballot", "2", "1"], "1 + q"),
        (["show", "tterm", "1", "3"], "1 + 2*q^2 + 2*q^4 + q^6"),
        (["show", "tterm", "2", "3", "1"], "q^2 - q^3 + q^4"),
        (
            ["show", "conjecture-poly", "odd-n", "4", "3"],
            "1 + q + 2*q^2 + 2*q^3 + 2*q^4 + 2*q^5 + q^6 + q^7",
        ),
    ]
    for argv, want in cases:
        assert run(argv) == 0, argv
        assert capsys.readouterr().out.strip() == want, argv


def test_show_json(capsys):
    assert run(["show", "qbinom", "4", "2", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got == {
        "subject": "qbinom",
        "args": ["4", "2"],
        "value": "1 + q + 2*q^2 + q^3 + q^4",
    }


def test_usage_errors_exit_2(capsys):
    bad = [
        [],
        ["bogus"],
        ["verify"],
        ["verify", "--id", "no-such-id"],
        ["verify", "--id", "koshy", "--n", "9..1"],
        ["verify", "--id", "koshy", "--n", "abc"],
        ["verify", "--id", "koshy", "--j", "1..2"],
        ["verify", "--id", "koshy", "--n", "1..99999"],
        ["show", "qbinom", "4"],
        ["show", "qbinom", "a", "b"],
        ["show", "mystery", "1"],
        ["enum", "dyck", "20"],
        ["enum", "dyck", "x"],
        ["enum", "partitions", "3"],
        ["sweep", "--case", "sideways"],
        ["show", "conjecture-poly", "odd-n", "4", "2"],
        # only the commands that check cells take --jobs
        ["show", "qbinom", "4", "2", "--jobs", "2"],
        ["enum", "dyck", "2", "--jobs", "2"],
    ]
    for argv in bad:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), (argv, err)
        assert len(err.strip().splitlines()) == 1, (argv, err)


# above 2^63, so no list index or C size can hold it and nothing gets
# allocated on the way to the error
HUGE = str(10 ** 20)


@pytest.mark.parametrize("argv", [
    ["show", "tterm", "1", "1", HUGE],
    ["show", "qbinom", HUGE, "1"],
    # a list of 2^62 entries is refused by its size, before any allocation
    ["show", "qbinom", str(2 ** 62), "1"],
    ["show", "qballot", HUGE, "1"],
    ["verify", "--id", "koshy", "--n", "1.." + HUGE, "--force"],
    ["enum", "dyck", HUGE, "--force"],
    ["enum", "partitions", "3", HUGE, "--force"],
])
def test_huge_integer_arguments_exit_2(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument too large: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_single_json_object(capsys):
    assert run(["verify", "--id", "koshy", "--n", "1..20", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["identity"] == "koshy"
    assert d["status"] == "pass"
    assert d["cells_checked"] == 20


def test_verify_multi_json_array(capsys):
    code = run(
        [
            "verify",
            "--id",
            "koshy",
            "--id",
            "maj-catalan",
            "--n",
            "1..6",
            "--format",
            "json",
        ]
    )
    assert code == 0
    arr = json.loads(capsys.readouterr().out)
    assert [d["identity"] for d in arr] == ["koshy", "maj-catalan"]


def test_verify_text_and_csv(capsys):
    assert run(["verify", "--id", "koshy", "--n", "1..9"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("koshy: pass")
    assert "cells=9" in out
    assert run(["verify", "--id", "koshy", "--n", "1..9", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_HEADER)
    assert lines[1].startswith("koshy,")


@pytest.mark.parametrize("argv,cells", [
    (["--id", "koshy", "--n=-3..2"], 2),
    (["--id", "upeak-label", "--n=0..2", "--m=-2..0"], 3),
    (["--id", "upeak-gf", "--n=-1..2"], 3),
    (["--id", "maj-catalan", "--n=-1..2"], 3),
])
def test_verify_below_floor_is_clipped(capsys, argv, cells):
    assert run(["verify"] + argv + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    d = json.loads(out)
    assert d["status"] == "pass" and d["counterexample"] is None
    assert d["cells_checked"] == cells
    assert err.startswith("# ") and len(err.splitlines()) == 1


def test_verify_qlucas_k_and_d_flags(capsys):
    assert run(["verify", "--id", "qlucas", "--k", "0..3", "--d", "2..5",
                "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "pass"
    assert d["params"] == {"d": [2, 5], "k": [0, 3], "m": [0, 40]}
    # m in 0..40 with k <= min(m, 3), for each of four moduli
    assert d["cells_checked"] == 4 * (1 + 2 + 3 + 4 * 38)


def test_verify_help_lists_rows(capsys):
    assert run(["verify", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for ident, chk in registry.CHECKS.items():
        row = [ln for ln in lines if ln.split()[:1] == [ident]]
        assert len(row) == 1, ident
        for name, (lo, hi, cap) in chk.params.items():
            assert "%s=%d..%d (cap %d)" % (name, lo, hi, cap) in row[0]


def test_verify_failure_exit_1(capsys, monkeypatch):
    orig = registry.CHECKS["koshy"]

    def bad(n):
        return {"left": "1", "right": "0", "diff": "1"} if n == 4 else None

    monkeypatch.setitem(registry.CHECKS, "koshy", dataclasses.replace(orig, checker=bad))
    code = run(["verify", "--id", "koshy", "--n", "1..9", "--format", "json"])
    assert code == 1
    d = json.loads(capsys.readouterr().out)
    assert d["status"] == "fail"
    assert d["counterexample"]["cell"] == {"n": 4}


def test_sweep_cli_and_exit_codes(capsys, monkeypatch, tmp_path):
    assert run(["sweep", "--m-max", "9", "--n-max", "9", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["case"] == "odd-n" and d["status"] == "pass" and d["verified_cells"] == 35
    # a grid with no cell is skipped, which is not a failure
    assert run(["sweep", "--case", "even-n", "--j-max", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "skipped"

    _plant_sweep(monkeypatch)
    out_file = tmp_path / "sweep.json"
    code = run(
        [
            "sweep",
            "--m-max",
            "8",
            "--n-max",
            "8",
            "--format",
            "json",
            "--output",
            str(out_file),
        ]
    )
    # a found counterexample is a reportable outcome, not a crash
    assert code == 1
    capsys.readouterr()
    d = json.loads(out_file.read_text())
    assert d["status"] == "fail"
    assert d["counterexamples"][0]["params"] == {"m": 5, "n": 3}


def test_sweep_frontier_flag(capsys, tmp_path):
    fp = tmp_path / "frontier.json"
    assert run(["sweep", "--m-max", "7", "--n-max", "7", "--frontier", str(fp)]) == 0
    capsys.readouterr()
    assert json.loads(fp.read_text())["verified"]["m_max"] == 7


def test_bad_frontier_file_exits_2(capsys, tmp_path):
    # every malformed file is refused in tests/test_conjectures.py; here, the exit code
    fp = tmp_path / "frontier.json"
    fp.write_text('{"case": "odd-n", "verified": ')
    for path in (fp, tmp_path):
        assert run(["sweep", "--m-max", "3", "--n-max", "3", "--frontier", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, path


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x")
    for argv in (["show", "qcatalan", "3"], ["verify", "--id", "koshy", "--n", "1..3"],
                 ["sweep", "--m-max", "3", "--n-max", "3"]):
        assert run(argv + ["--output", target]) == 2, argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: cannot write " + target), argv
        assert "Traceback" not in err
    assert run(["sweep", "--m-max", "3", "--n-max", "3", "--frontier", target]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write frontier file")


def _counting(monkeypatch):
    """Count the registry checker calls and sweep columns from here on."""
    calls = []
    for ident, chk in list(registry.CHECKS.items()):
        def counted(*cell, _inner=chk.checker, _ident=ident):
            calls.append((_ident, cell))
            return _inner(*cell)
        monkeypatch.setitem(registry.CHECKS, ident, dataclasses.replace(chk, checker=counted))
    column = cj._sweep_column

    def counted_column(*args):
        calls.append(("column", args[:2]))
        return column(*args)

    monkeypatch.setattr(cj, "_sweep_column", counted_column)
    return calls


def test_unwritable_target_is_refused_before_any_cell(capsys, monkeypatch, tmp_path):
    target = str(tmp_path / "missing" / "x")
    calls = _counting(monkeypatch)
    for argv in (["verify", "--id", "koshy", "--n", "1..3", "--output", target],
                 ["sweep", "--m-max", "3", "--n-max", "3", "--output", target],
                 ["sweep", "--m-max", "3", "--n-max", "3", "--frontier", target],
                 ["all", "--output", target],
                 ["verify", "--id", "koshy", "--output", ""],
                 ["sweep", "--m-max", "3", "--n-max", "3", "--frontier", ""]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write "), argv
        assert err.count("\n") == 1, argv
        assert calls == [], argv
    assert not (tmp_path / "missing").exists()
    # the counting wrappers do see the cells of a run that can write
    assert run(["verify", "--id", "koshy", "--n", "1..3", "--output",
                str(tmp_path / "ok.json")]) == 0
    assert len(calls) == 3


def test_probe_writable_touches_nothing(tmp_path):
    existing = tmp_path / "keep.txt"
    existing.write_text("old\n")
    before = existing.stat()
    cj.probe_writable(str(existing))
    assert existing.read_text() == "old\n"
    assert existing.stat().st_mtime_ns == before.st_mtime_ns
    fresh = tmp_path / "fresh.txt"
    cj.probe_writable(str(fresh))
    assert not fresh.exists()
    with pytest.raises(IsADirectoryError):
        cj.probe_writable(str(tmp_path))
    with pytest.raises(FileNotFoundError):
        cj.probe_writable(str(tmp_path / "missing" / "x"))
    with pytest.raises(FileNotFoundError):
        cj.probe_writable("")
    with pytest.raises(NotADirectoryError):
        cj.probe_writable(str(existing / "x"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("ident", ["upeak-gf", "tower-ie", "maj-catalan"])
def test_enumeration_limit_is_an_error_not_a_failure(capsys, ident, jobs):
    # --force lifts the row's cap, not the hard guard of the path
    # enumeration inside the checker; hitting it refutes nothing
    code = run(["verify", "--id", ident, "--n", "15..16", "--force",
                "--jobs", str(jobs), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s at n=15: " % ident)
    assert "enumeration guard" in err
    assert "force" not in err       # names no remedy the user already tried
    assert err.count("\n") == 1


def test_csv_rendering(capsys):
    def csv_row(rep):
        args = argparse.Namespace(format="csv", output=None, command="verify")
        assert cli.report(args, [rep]) == (1 if rep.status == "fail" else 0)
        return capsys.readouterr().out.splitlines()[1]

    rep = registry.verify("koshy", bounds={"n": (1, 5)})
    row = csv_row(rep)
    assert row.startswith("koshy,")
    assert len(cli.CSV_HEADER) - 1 == row.count(",") or '"' in row
    # a failing report renders the counterexample fields
    fake = dataclasses.replace(
        rep,
        status="fail",
        counterexample={"cell": {"n": 2}, "left": "a,b", "right": "c", "diff": "d"},
    )
    frow = csv_row(fake)
    assert '"a,b"' in frow
    assert ',fail,' in frow
    assert frow.startswith('koshy,"{""n"": [1, 5]}",fail,')


def _planted_row(n):
    # each field holds a comma, a double quote and a newline
    if n == 3:
        return {"left": 'a, "b"', "right": 'line one,\n"line two"', "diff": '1,\n"2"\n'}
    return None


def _plant_row(mp):
    orig = registry.CHECKS["koshy"]
    mp.setitem(registry.CHECKS, "koshy", dataclasses.replace(orig, checker=_planted_row))


def _plant_sweep(mp):
    # the verdict fails odd-n cell (5, 3); the scan of its polynomial
    # then gives the record's break index
    real, real_verdict = cj.unimodal_break_index, cj._rises_to_centre
    target = cj.conjecture_poly("odd-n", 5, 3)

    def planted(p):
        return 4 if p == target else real(p)

    def planted_verdict(p, j, d):
        # the verdict is handed the lower half of P, or all of it
        hit = d == target.degree and target.coeffs[: len(p)] == tuple(p)
        return not hit and real_verdict(p, j, d)

    mp.setattr(cj, "unimodal_break_index", planted)
    mp.setattr(cj, "_rises_to_centre", planted_verdict)


# golden case: (argv, planted defect or None, exit status); the expected
# stdout of each format is tests/golden/<case>.<format>
GOLDEN_CASES = {
    "verify-one": (["verify", "--id", "koshy", "--n", "1..5"], None, 0),
    "verify-two": (["verify", "--id", "koshy", "--id", "maj-catalan", "--n", "1..4"], None, 0),
    "sweep-odd": (["sweep", "--case", "odd-n", "--m-max", "7", "--n-max", "5"], None, 0),
    "sweep-even": (["sweep", "--case", "even-n", "--m-max", "6", "--n-max", "4",
                    "--j-max", "4"], None, 0),
    "verify-planted": (["verify", "--id", "koshy", "--n", "1..5"], _plant_row, 1),
    "sweep-planted": (["sweep", "--m-max", "6", "--n-max", "5"], _plant_sweep, 1),
}


def golden_run(mp, case, fmt):
    """Exit status and stdout of one golden case, with a frozen clock so
    that every elapsed_ms reads 0."""
    argv, plant, _ = GOLDEN_CASES[case]
    mp.delenv("QKOSHY_JOBS", raising=False)
    frozen = SimpleNamespace(perf_counter=lambda: 0.0)
    mp.setattr(registry, "time", frozen)
    mp.setattr(cj, "time", frozen)
    if plant is not None:
        plant(mp)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv + ["--format", fmt])
    return code, buf.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_output(capsys, monkeypatch, case, fmt):
    code, out = golden_run(monkeypatch, case, fmt)
    assert code == GOLDEN_CASES[case][2]
    assert out.encode("utf-8") == (GOLDEN / ("%s.%s" % (case, fmt))).read_bytes()


def test_enum_outputs(capsys):
    assert run(["enum", "dyck", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "UUUDDD",
        "UUDUDD",
        "UUDDUD",
        "UDUUDD",
        "UDUDUD",
    ]
    assert run(["enum", "elevated", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == ["UUUDDD", "UUDUDD"]
    assert run(["enum", "partitions", "3", "2", "--strict"]) == 0
    assert capsys.readouterr().out.splitlines() == ["[3,2]", "[3,1]", "[2,1]"]
    assert run(["enum", "partitions", "2", "2", "--at-most"]) == 0
    got = capsys.readouterr().out.splitlines()
    assert sorted(got) == sorted(["[]", "[2]", "[2,2]", "[2,1]", "[1]", "[1,1]"])
    # here --force does lift the guard, so the error names it
    assert run(["enum", "dyck", "15"]) == 2
    assert capsys.readouterr().err.endswith("(pass --force to override)\n")


def test_enum_streams_the_bytes_of_one_dump(capsys):
    # each item is written as the walk yields it, and the text and JSON
    # bytes are those of the whole list written at once
    for argv, items in [
        (["enum", "partitions", "0", "2"], []),
        (["enum", "partitions", "3", "0"], ["[]"]),
        (["enum", "dyck", "0"], [""]),
        (["enum", "partitions", "3", "2", "--at-most"],
         ["[]", "[3]", "[3,3]", "[3,2]", "[3,1]", "[2]", "[2,2]", "[2,1]", "[1]", "[1,1]"]),
    ]:
        assert run(argv) == 0
        assert capsys.readouterr().out == "\n".join(items) + "\n", argv
        assert run(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(items, indent=1) + "\n", argv


def test_enum_long_partition_needs_no_recursion(capsys):
    assert run(["enum", "partitions", "1", "5000"]) == 0
    assert capsys.readouterr().out == "[" + ",".join(["1"] * 5000) + "]\n"


def test_enum_guard_leaves_output_untouched(capsys, tmp_path):
    target = tmp_path / "words.txt"
    target.write_text("keep\n")
    assert run(["enum", "dyck", "20", "--output", str(target)]) == 2
    assert capsys.readouterr().err.endswith("(pass --force to override)\n")
    assert target.read_text() == "keep\n"


def test_enum_reader_closing_early_is_quiet():
    # the walk of n = 600 never ends in practice; closing the pipe after
    # one line must end it with status 0 and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "qkoshy", "enum", "dyck", "600", "--force"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "U" * 600 + "D" * 600 + "\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = run(
        ["verify", "--id", "maj-catalan", "--n", "0..5", "--format", "json",
         "--output", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QKOSHY_JOBS", "2")
    assert run(["verify", "--id", "koshy", "--n", "1..8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    monkeypatch.setenv("QKOSHY_JOBS", "zero")
    assert run(["verify", "--id", "koshy", "--n", "1..8"]) == 2
    err = capsys.readouterr().err
    assert "QKOSHY_JOBS" in err


def test_jobs_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("QKOSHY_JOBS", "zero")  # invalid, but the flag wins
    assert run(["verify", "--id", "koshy", "--n", "1..8", "--jobs", "1",
                "--format", "json"]) == 0
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "verify" in capsys.readouterr().out
    assert run(["verify", "--help"]) == 0
    assert "identities:" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qkoshy", "show", "qbinom", "4", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + q + 2*q^2 + q^3 + q^4\n"
    proc = subprocess.run(
        [sys.executable, "-m", "qkoshy", "verify", "--id", "no-such-id"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def _assert_console_script(exe, env=None):
    proc = subprocess.run(
        [str(exe), "show", "qcatalan", "2"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 + q^2"


def test_console_script_installed(tmp_path):
    # An installed script is checked where one exists; the declared
    # [project.scripts] entry is checked everywhere, through the same
    # launcher an installer would write, so the test does not depend on
    # the package having been installed.
    installed = shutil.which("qkoshy")
    if installed:
        _assert_console_script(installed)

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "qkoshy" in scripts, "pyproject.toml declares no qkoshy console script"
    ep = EntryPoint(name="qkoshy", value=scripts["qkoshy"], group="console_scripts")
    launcher = tmp_path / "qkoshy"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        f"sys.exit({ep.attr}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(Path(qkoshy.__file__).resolve().parents[1]))
    _assert_console_script(launcher, env)
