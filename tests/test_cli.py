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
from hooklab import checks, cli
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


def test_a_check_that_raises_exits_two(capsys, monkeypatch):
    # The harness reports a runner's exception as an error, and an error
    # outranks every other status in the exit code.
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(checks, "eulerian_coeff_A", broken)
    code, out, _ = run_cli(capsys, "run", "--id", "L1.1", "--bound", "max_n=1", "--format", "json")
    assert code == 2
    (entry,) = json.loads(out)["checks"]
    assert (entry["status"], entry["witness"], entry["notes"]) == (
        "error", None, "RuntimeError: injected"
    )


def test_a_front_end_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "_emit", broken)
    code, out, err = run_cli(capsys, "run", "--id", "L1.1", "--bound", "max_n=1")
    assert (code, out, err) == (2, "", "internal error: RuntimeError: injected\n")


def test_skipped_check_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "--id", "P6.4", "--bound", "max_m=6", "--format", "json")
    assert code == 0
    (entry,) = json.loads(out)["checks"]
    assert entry["status"] == "skipped"


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


def test_text_and_csv_carry_the_json_witness_and_notes(capsys):
    # C2.2a is refuted at n=10 with a witness and notes.  The CSV report has
    # no notes column, so only the text line carries the notes.
    run = ("run", "--id", "C2.2a", "--bound", "max_n=10", "--format")
    _, out, _ = run_cli(capsys, *run, "json")
    (entry,) = json.loads(out)["checks"]
    assert entry["status"] == "refuted" and entry["witness"] and entry["notes"]
    _, out, _ = run_cli(capsys, *run, "text")
    head, _, tail = out.splitlines()[1].partition(" ms  ")
    assert head.split()[:2] == ["C2.2a", "refuted"]
    assert tail == f"witness: {entry['witness']}  ({entry['notes']})"
    _, out, _ = run_cli(capsys, *run, "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][:2] == ["C2.2a", "refuted"] and rows[1][4] == entry["witness"]


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
        ["run", "--id", "P9.1", "--jobs", "2"],
        ["run", "--id", "P9.1", "--jobs", "0"],
        ["run", "--all", "--budget-seconds", "abc"],
    ],
)
def test_usage_errors_exit_three(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert "usage" in err.lower() or "error" in err.lower()
    if "--all" in argv and "--budget-seconds" in argv:
        try:
            budget = float(argv[-1])
        except ValueError:
            # text that is not a number stops at argparse's parsing
            assert "invalid float value" in err
        else:
            # a number reaches the budget check
            assert f"--budget-seconds wants a number >= 0, got {budget}" in err
    if "--id" in argv and "--jobs" in argv:
        assert "--jobs only applies to --all" in err


def test_budget_zero_skips_every_check(capsys):
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


def test_readme_library_example_prints_its_comments(capsys):
    """README's library example runs, and each print prints its comment."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints), prints
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.rsplit("  # ", 1)[1] for line in prints]
    assert capsys.readouterr().out.splitlines() == expected
