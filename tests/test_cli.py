"""Front-end behaviour: subcommands, formats, exit codes, report files."""

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hooklab
from hooklab.cli import main, render_json
from hooklab.harness import make_report, run_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_list_subcommand(capsys):
    code, out, err = run_cli(capsys, "list")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 47
    shown = {ln.split()[0] for ln in lines}
    assert {"L1.1", "C2.2a", "T9.5iii", "C11.3"} <= shown


def test_run_single_json(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--id", "T9.5iii", "--bound", "order=10", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["started_at"].endswith("+00:00") or doc["started_at"].endswith("Z")
    (entry,) = doc["checks"]
    assert entry["id"] == "T9.5iii"
    assert entry["status"] == "verified"
    assert entry["bounds"]["order"] == 10


def test_refuted_check_exits_one(capsys):
    code, out, _ = run_cli(capsys, "run", "--id", "C2.2a", "--format", "json")
    assert code == 1
    (entry,) = json.loads(out)["checks"]
    assert entry["status"] == "refuted"
    assert "n=10" in entry["witness"]


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--id", "C2.1", "--bound", "max_n=6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "status", "bounds", "elapsed_ms", "witness"]
    assert rows[1][0] == "C2.1"
    assert rows[1][1] == "verified"
    assert "max_n=6" in rows[1][2].split()
    assert rows[1][4] == ""


def test_text_format_summary(capsys):
    code, out, _ = run_cli(capsys, "run", "--id", "L1.1", "--format", "text")
    assert code == 0
    assert "L1.1" in out
    assert "verified 1  refuted 0  error 0  skipped 0" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "run", "--id", "L1.1", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["checks"][0]["id"] == "L1.1"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--id", "NOPE"],
        ["run", "--id", "L1.1", "--bound", "frobnication=3"],
        ["run", "--id", "L1.1", "--bound", "max_n"],
        ["run", "--id", "L1.1", "--bound", "max_n=w"],
        ["run"],
        ["run", "--id", "L1.1", "--all"],
        ["run", "--id", "L1.1", "--budget-seconds", "5"],
        ["run", "--all", "--bound", "max_n=4"],
        ["frobnicate"],
        ["run", "--id", "C11.1", "--bound", "max_s=0"],
        ["run", "--id", "X3.4", "--bound", "max_n=0"],
        ["run", "--all", "--budget-seconds", "-1"],
        ["run", "--all", "--budget-seconds", "nan"],
        ["run", "--all", "--jobs", "0"],
        ["run", "--all", "--budget-seconds", "-inf"],
    ],
)
def test_usage_errors_exit_three(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "usage" in err.lower() or "error" in err.lower()
    if "--all" in argv and "--budget-seconds" in argv:
        # a bad budget value reaches the budget check, not argparse's parsing
        assert f"--budget-seconds wants a number >= 0, got {float(argv[-1])}" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HOOKLAB_BUDGET_SECONDS", "0")
    code, out, _ = run_cli(capsys, "run", "--all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "skipped" for c in doc["checks"])


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_bad_budget_env_var_exits_three(capsys, monkeypatch, value):
    monkeypatch.setenv("HOOKLAB_BUDGET_SECONDS", value)
    code, out, err = run_cli(capsys, "run", "--all", "--format", "json")
    assert code == 3
    assert out == ""
    assert "HOOKLAB_BUDGET_SECONDS" in err


def test_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("HOOKLAB_BUDGET_SECONDS", "9999")
    code, out, _ = run_cli(
        capsys, "run", "--all", "--budget-seconds", "0", "--format", "json"
    )
    assert code == 0
    assert all(c["status"] == "skipped" for c in json.loads(out)["checks"])


def test_render_json_round_trips():
    rep = make_report([run_check("L1.1"), run_check("C1.8")])
    assert json.loads(render_json(rep)) == rep.to_dict()


def _console_script_target(name):
    """The ``module:function`` that ``[project.scripts]`` declares for ``name``."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        match = re.search(rf'^{name}\s*=\s*"([^"]+)"', text, re.MULTILINE)
        assert match, f"no [project.scripts] entry for {name}"
        return match.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


def test_installed_entry_point():
    """The declared console script works end to end in a fresh process.

    The script is called the way the setuptools wrapper calls it, so the
    test runs from a source checkout; an installed ``hooklab`` on PATH is
    run as well.
    """
    module, func = _console_script_target("hooklab").split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    package_root = str(Path(hooklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("hooklab")
    if installed:
        commands.append([installed])
    # P9.1 is verified and C2.2a refuted: both verdicts must reach the exit status
    for command in commands:
        for check_id, code, row in (("P9.1", 0, "P9.1,verified"), ("C2.2a", 1, "C2.2a,refuted")):
            proc = subprocess.run(
                command + ["run", "--id", check_id, "--format", "csv"],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            assert proc.returncode == code, proc.stderr
            assert proc.stdout.splitlines()[1].startswith(row)


def test_every_exported_name_resolves():
    missing = [name for name in hooklab.__all__ if not hasattr(hooklab, name)]
    assert missing == []
    namespace = {}
    exec("from hooklab import *", namespace)
    assert set(hooklab.__all__) <= set(namespace)
