"""The package and the SSH commands start without scipy's linear algebra,
sparse matrices or special functions; each is imported by the solve that
calls it.  Every check runs in a fresh interpreter, since this test
process has imported scipy long before."""

import json
import os
import subprocess
import sys

import pytest
import scipy
from test_trace_names import load_traced

import ptfidelity

SRC = os.path.dirname(os.path.dirname(ptfidelity.__file__))
HEAVY = ("scipy.linalg", "scipy.sparse", "scipy.special")


def fresh(code, *args, cwd=None):
    """``sys.modules`` names (as a set) printed by ``code`` in a fresh
    interpreter with the package source first on its path."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_every_module_and_no_scipy_solver():
    loaded = fresh("import json, sys, ptfidelity, ptfidelity.cli; "
                   "print(json.dumps(sorted(sys.modules)))")
    assert not loaded & set(HEAVY)
    # the benchmark tracer looks these up in sys.modules after this import
    assert {"ptfidelity." + name for name, _, _ in load_traced()} <= loaded


RUN = """
import json, sys
from ptfidelity.cli import main
code = main(sys.argv[1:])
assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv, needs", [
    (["ssh-scan", "--v1", "0.5", "0.9", "5", "--u", "0.2", "-L", "21",
      "--format", "json", "--out", "scan.json"], ()),
    (["ssh-bands", "--v1", "0.9", "--u", "0.1", "-L", "11", "--out", "bands.csv"], ()),
    (["ssh-edges", "--v1", "1.5", "--u", "0.1", "-L", "20", "--out", "edges.json"], ()),
    (["ssh-berry", "--v1", "0.5", "--u", "0.1", "--out", "berry.csv"], ()),
    (["ssh-berry", "--v1", "0.5", "--u", "0.1", "--method", "analytic",
      "--out", "berry.csv"], ("scipy.special",)),
    (["ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
      "--out", "ep.json"], ()),
], ids=["ssh-scan", "ssh-bands", "ssh-edges", "ssh-berry", "ssh-berry-analytic",
        "ep-locate-ssh"])
def test_ssh_command_imports_only_what_it_calls(argv, needs, tmp_path):
    loaded = fresh(RUN, *argv, cwd=tmp_path)
    assert loaded & set(HEAVY) == set(needs)
    out = tmp_path / argv[argv.index("--out") + 1]
    assert out.stat().st_size > 0
    if argv[0] == "ssh-scan":
        provenance = json.loads(out.read_text())["provenance"]
        assert provenance["scipy_version"] == scipy.__version__
