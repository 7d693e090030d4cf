"""The command lines of README.md run as written and give what it quotes."""

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from ptfidelity.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
COMMANDS = [line.strip() for line in SECTION.splitlines()
            if line.startswith("    ptfidelity ")]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each command's exit code and output (stdout, then the files it
    wrote), run in an empty directory of its own."""
    results = {}
    cwd = os.getcwd()
    for i, command in enumerate(COMMANDS):
        where = tmp_path_factory.mktemp(f"readme{i}")
        stdout = io.StringIO()
        os.chdir(where)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(shlex.split(command)[1:])
        finally:
            os.chdir(cwd)
        written = "".join(f.read_text() for f in sorted(where.iterdir()))
        results[command] = code, stdout.getvalue() + written
    return results


def test_every_subcommand_is_shown():
    shown = {shlex.split(command)[1] for command in COMMANDS}
    assert shown == {"ssh-scan", "xxz-scan", "ssh-bands", "ssh-berry", "ssh-edges",
                     "xxz-spectrum", "ep-locate"}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_0_with_output(command, outputs):
    code, output = outputs[command]
    assert code == 0
    assert output.strip()


def test_quoted_exceptional_points(outputs):
    quoted = re.search(r"v1 = ([\d.]+) and γ = ([\d.]+)", " ".join(SECTION.split()))
    assert quoted
    reports = {report["model"]: report
               for report in (json.loads(outputs[command][1]) for command in COMMANDS
                              if shlex.split(command)[1] == "ep-locate")}
    for model, value in zip(("ssh", "xxz"), quoted.groups()):
        report = reports[model]
        assert f"{report['lambda_ep']:.{len(value.split('.')[1])}f}" == value
        assert report["is_second_order"] is True
