import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ptfidelity import bisect_ep, ground_state_index
from ptfidelity.cli import main
from ptfidelity.xxz import XxzParams, build_hamiltonian, build_m0_basis, ground_state

from conftest import greedy_conjugate_closure_defect, midpoint_bisection, ssh_broken_count


def run_cli(*argv):
    return main(list(argv))


class TestArgHandling:
    def test_unknown_command_usage_and_nonzero(self, capsys):
        code = run_cli("no-such-command")
        assert code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_nonzero(self, capsys):
        code = run_cli("ssh-bands", "--bogus", "1")
        assert code != 0

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sweep]\nmodel = nope\n")
        code = run_cli("ssh-scan", "--config", str(bad))
        assert code == 2

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "ptfidelity.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


class TestSubcommands:
    def test_ssh_scan_writes_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("ssh-scan", "--v1", "0.7", "0.9", "3", "--u", "0.1",
                       "--v2", "0.0", "-L", "21", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("model,L,v1,epsilon")
        assert len(lines) == 4

    def test_ssh_scan_json(self, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli("ssh-scan", "--v1", "0.7", "0.9", "3", "--u", "0.1",
                       "-L", "21", "--format", "json", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert len(data["points"]) == 3

    def test_ssh_bands_table(self, tmp_path):
        out = tmp_path / "bands.csv"
        code = run_cli("ssh-bands", "--v1", "0.92", "--u", "0.09", "-L", "101",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["m", "k", "delta"]
        assert len(lines) == 102
        branches = {line.split(",")[-1] for line in lines[1:]}
        assert "broken" in branches       # two grid momenta are imaginary here

    def test_ssh_berry(self, tmp_path):
        out = tmp_path / "berry.csv"
        code = run_cli("ssh-berry", "--v1", "0.5", "--u", "0.2",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        re_gamma = float(lines[1].split(",")[2])
        circ = re_gamma % (2 * np.pi)
        assert min(circ, 2 * np.pi - circ) < 1e-4   # trivial phase: 0 mod 2*pi

    def test_ssh_edges_report(self, tmp_path):
        out = tmp_path / "edges.json"
        code = run_cli("ssh-edges", "--v1", "1.5", "--u", "0.1", "-L", "40",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_boundary_modes"] == 2

    def test_xxz_spectrum_conjugate_symmetric(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli("xxz-spectrum", "--jz", "2.0", "--gamma", "0.5",
                       "-L", "10", "--out", str(out))
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        w = np.array([complex(float(a), float(b)) for a, b in rows])
        assert len(w) == 252
        assert greedy_conjugate_closure_defect(w) < 1e-9

    def test_xxz_spectrum_at_L14(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("xxz-spectrum", "--jz", "1", "--gamma", "0.3",
                       "-L", "14", "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        w = np.array([complex(float(a), float(b)) for a, b in rows])
        assert len(w) == 3432
        assert np.array_equal(np.sort_complex(w), np.sort_complex(w.conj()))

    def test_xxz_scan(self, tmp_path):
        out = tmp_path / "xxz.csv"
        code = run_cli("xxz-scan", "--jz", "1.0", "--gamma", "0.0", "0.4", "3",
                       "-L", "6", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4

    def test_ep_locate_ssh(self, tmp_path):
        # the two mirror momenta m = 48, 53 cross their EP at v1 ~ 1.1141
        out = tmp_path / "ep.json"
        code = run_cli("ep-locate", "--model", "ssh", "--v2", "0.0",
                       "--u", "0.2", "--bracket", "1.08", "1.13", "-L", "101",
                       "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert 1.08 <= report["bracket"][0] <= report["bracket"][1] <= 1.13
        assert abs(report["lambda_ep"] - 1.11445) < 1e-3
        assert len(report["crossing_momenta"]) == 2
        for entry in report["crossing_momenta"]:
            assert abs(entry["re_f_k"] - 0.5) < 1e-6
        assert report["is_second_order"]
        assert report["n_crossings"] == 2

    def test_ep_locate_xxz_seed_one(self, tmp_path):
        # every probe of the run starts Lanczos from the same --seed; seed 1
        # at L=14 once stalled all of them
        out = tmp_path / "ep.json"
        code = run_cli("ep-locate", "--model", "xxz", "--jz", "1.0",
                       "--bracket", "0.0", "0.6", "-L", "14", "--seed", "1",
                       "--out", str(out))
        assert code == 0
        basis = build_m0_basis(14)

        def arpack_broken(gamma):
            H = build_hamiltonian(XxzParams(jz=1.0, gamma=gamma, L=14), basis)
            w = spla.eigs(H.matrix, k=6, which="SR", tol=0,
                          v0=np.ones(basis.size, dtype=complex),
                          return_eigenvectors=False)
            return abs(w[ground_state_index(w)].imag) > 1e-8

        lo, hi = json.loads(out.read_text())["bracket"]
        assert arpack_broken(lo) != arpack_broken(hi)

    def test_ep_locate_ssh_empty_bracket_fails_cleanly(self, capsys):
        code = run_cli("ep-locate", "--model", "ssh", "--v2", "0.0",
                       "--u", "0.2", "--bracket", "1.0", "1.05", "-L", "101")
        assert code == 3
        assert "NoTransition" in capsys.readouterr().err

    def test_ep_locate_xxz_reports_probes_and_solves(self, tmp_path):
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "xxz", "--jz", "1.0", "--bracket",
                       "0.0", "0.6", "-L", "8", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        probes = report["probes"]
        # one solve per probe, and the one-half test adds only its 6 points
        assert report["solves"] == len(probes) + 6
        xs = [x for x, _, _ in probes]
        assert xs[:2] == [0.0, 0.6] and len(set(xs)) == len(xs)
        assert all(w >= 0 for _, _, w in probes)
        classes = {x: c for x, c, _ in probes}
        lo, hi = report["bracket"]
        assert (classes[lo], classes[hi]) == ("unbroken", "broken")

    def test_ep_locate_ssh_probes_are_bisection(self, tmp_path):
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "ssh", "--v2", "0.0", "--u", "0.2",
                       "--bracket", "1.08", "1.13", "-L", "101", "--tol", "1e-8",
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        bracket, probed = midpoint_bisection(
            lambda v: ssh_broken_count(v) != ssh_broken_count(1.08), 1.08, 1.13, 1e-8)
        assert report["bracket"] == list(bracket)
        assert report["probes"] == [[x, str(ssh_broken_count(x)), 1] for x in probed]
        assert report["solves"] == len(probed) + 6


# scan direction -> the fixed parameters and the bracket of an XXZ ep-locate run
XXZ_SCANS = {"gamma": (dict(jz=1.0, gamma=0.0), (0.0, 0.6)),
             "jz": (dict(jz=0.0, gamma=0.2), (0.0, 2.0))}


def ep_locate_xxz(tmp_path, L, direction, *options):
    fixed, bracket = XXZ_SCANS[direction]
    out = tmp_path / "ep.json"
    assert run_cli("ep-locate", "--model", "xxz", "--direction", direction,
                   "--jz", str(fixed["jz"]), "--gamma", str(fixed["gamma"]),
                   "--bracket", *map(str, bracket), "-L", str(L), *options,
                   "--out", str(out)) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def dense_ep_bracket():
    """Dense-eigvals bracket of the ground-state PT transition to 1e-9, per
    (L, direction), weighted by the squared ground gap (which vanishes
    linearly at an EP2) as in criterion 04."""
    brackets = {}

    def bracket(L, direction):
        fixed, ends = XXZ_SCANS[direction]
        basis = build_m0_basis(L)

        def probe(x):
            p = XxzParams(L=L, **{**fixed, direction: x})
            w = np.linalg.eigvals(build_hamiltonian(p, basis).to_dense())
            i = ground_state_index(w)
            return abs(w[i].imag) > 1e-8, np.abs(np.delete(w, i) - w[i]).min() ** 2

        if (L, direction) not in brackets:
            brackets[L, direction] = bisect_ep(probe, *ends, tol=1e-9)
        return brackets[L, direction]
    return bracket


class TestWarmStartedEpLocate:
    """Each XXZ ep-locate solve after the first starts from the nearest
    point already solved."""

    @pytest.mark.parametrize("L", [8, 10, 12])
    @pytest.mark.parametrize("direction", ["gamma", "jz"])
    def test_bracket_overlaps_dense(self, L, direction, tmp_path, dense_ep_bracket):
        report = ep_locate_xxz(tmp_path, L, direction, "--tol", "1e-9")
        lo, hi = report["bracket"]
        d_lo, d_hi = dense_ep_bracket(L, direction)
        assert hi - lo <= 1e-9
        assert lo <= d_hi and d_lo <= hi
        assert report["n_crossings"] == 1
        assert report["solves"] == len(report["probes"]) + 6

    def test_xxz_default_size_is_ten(self, tmp_path, dense_ep_bracket):
        # without -L the XXZ locator runs the xxz-scan default L=10, not the
        # SSH default L=101 (an odd chain, which it would refuse)
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "xxz", "--jz", "1.0", "--bracket",
                       "0.0", "0.6", "--tol", "1e-9", "--out", str(out)) == 0
        lo, hi = json.loads(out.read_text())["bracket"]
        d_lo, d_hi = dense_ep_bracket(10, "gamma")
        assert hi - lo <= 1e-9
        assert lo <= d_hi and d_lo <= hi

    @pytest.mark.parametrize("L", [8, 10, 12])
    @pytest.mark.parametrize("direction", ["gamma", "jz"])
    def test_probe_classes_do_not_depend_on_the_seed(self, L, direction, tmp_path):
        sequences = {
            tuple(c for _, c, _ in ep_locate_xxz(tmp_path, L, direction,
                                                 "--seed", str(seed))["probes"])
            for seed in range(4)
        }
        assert len(sequences) == 1

    def test_matvecs_sum_the_distinct_solves(self, tmp_path, monkeypatch):
        solved = []

        def recorded(p, **options):
            g = ground_state(p, **options)
            solved.append((p, g.matvecs))
            return g

        monkeypatch.setattr("ptfidelity.cli.ground_state", recorded)
        report = ep_locate_xxz(tmp_path, 10, "gamma")
        assert len(solved) == report["solves"]
        assert report["matvecs"] == sum(m for _, m in solved)
        # the same points, each from a cold random start
        assert report["matvecs"] < sum(ground_state(p).matvecs for p, _ in solved)

    def test_solver_counts_sum_the_distinct_solves(self, tmp_path, monkeypatch):
        solved = []

        def recorded(p, **options):
            g = ground_state(p, **options)
            solved.append(g)
            return g

        monkeypatch.setattr("ptfidelity.cli.ground_state", recorded)
        report = ep_locate_xxz(tmp_path, 10, "gamma")
        assert len(solved) == report["solves"]
        for name in ("iterations", "matvecs", "extractions"):
            assert report[name] == sum(getattr(g, name) for g in solved) > 0
        # every step is a matvec; the true-residual checks add the rest
        assert report["iterations"] < report["matvecs"]

    def test_ssh_reports_no_solver_counts(self, tmp_path):
        # also: SSH takes and ignores --seed, and -L defaults to 101
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket",
                       "1.08", "1.13", "--seed", "3", "--out", str(out)) == 0
        report = json.loads(out.read_text())
        for name in ("iterations", "matvecs", "extractions"):
            assert report[name] == 0

    def test_ssh_reports_no_matvecs(self, tmp_path):
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket",
                       "1.08", "1.13", "-L", "101", "--out", str(out)) == 0
        assert json.loads(out.read_text())["matvecs"] == 0


class TestBadInputExitCodes:
    """Invalid input exits 2 with a message instead of a traceback."""

    def test_ep_locate_xxz_unknown_direction(self):
        assert run_cli("ep-locate", "--model", "xxz", "--direction", "v1",
                       "--bracket", "0.0", "0.6", "-L", "8") == 2

    def test_xxz_spectrum_negative_gamma(self, capsys):
        assert run_cli("xxz-spectrum", "--jz", "1.0", "--gamma", "-1",
                       "-L", "8") == 2
        assert "config error" in capsys.readouterr().err

    def test_xxz_spectrum_above_the_dense_cap(self, capsys):
        assert run_cli("xxz-spectrum", "--jz", "1", "--gamma", "0.3", "-L", "18") == 3
        assert "DimTooLargeError" in capsys.readouterr().err

    def test_ssh_bands_negative_u(self, capsys):
        assert run_cli("ssh-bands", "--v1", "0.9", "--u", "-1", "-L", "11") == 2
        assert "config error" in capsys.readouterr().err

    def test_config_non_integer_count(self, tmp_path, capsys):
        cfg = tmp_path / "frac.cfg"
        cfg.write_text("[sweep]\nmodel = ssh\n[fixed]\nL = 11\nu = 0.1\n"
                       "[axis]\nname = v1\nstart = 0.5\nstop = 0.9\ncount = 3.5\n")
        out = tmp_path / "scan.csv"
        assert run_cli("ssh-scan", "--config", str(cfg), "--out", str(out)) == 2
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    def test_xxz_scan_odd_size(self, tmp_path):
        out = tmp_path / "xxz.csv"
        assert run_cli("xxz-scan", "--jz", "1.0", "--gamma", "0.0", "0.4", "3",
                       "-L", "7", "--out", str(out)) == 2
        assert not out.exists()

    def test_sweep_option_not_accepted_by_ssh_bands(self):
        assert run_cli("ssh-bands", "--v1", "0.9", "--epsilon", "1") == 2

    def test_ep_locate_xxz_negative_bracket_end(self, capsys):
        # gamma = -0.1 would otherwise reach XxzParams in the first probe
        assert run_cli("ep-locate", "--model", "xxz", "--jz", "1", "--bracket",
                       "-0.1", "0.6", "-L", "6") == 2
        assert "gamma must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        ("--model", "xxz", "--jz", "1", "-L", "8"),
        ("--model", "ssh", "--u", "0.2", "-L", "101"),
    ], ids=["xxz", "ssh"])
    @pytest.mark.parametrize("bad", [
        ("--bracket", "0", "0.6", "--tol", "-1"),
        ("--bracket", "0", "0.6", "--tol", "0"),
        ("--bracket", "0.6", "0.0"),
    ], ids=["negative-tol", "zero-tol", "reversed-bracket"])
    def test_ep_locate_bad_bracket(self, model, bad, tmp_path, capsys):
        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", *model, *bad, "--out", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_axis_value_not_a_number(self, capsys):
        assert run_cli("ssh-scan", "--v1", "abc") == 2
        assert "--v1 = 'abc'" in capsys.readouterr().err

    def test_axis_count_not_an_integer(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        assert run_cli("ssh-scan", "--v1", "0.7", "0.9", "3.5", "--u", "0.1",
                       "-L", "21", "--out", str(out)) == 2
        assert "count" in capsys.readouterr().err
        assert not out.exists()

    # every case fails in its first line of work without a check up front:
    # after the bisection, with a NoTransitionError, over a reversed window,
    # with an all-"broken" sweep, or with a zero phase written for n_k <= 0
    @pytest.mark.parametrize("argv", [
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--a", "-1"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--b", "0"),
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--epsilon-schedule", "0"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--epsilon-schedule", "-0.01"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--epsilon-schedule", "1e-2", "nan"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--tol-real", "-1"),
        ("xxz-scan", "--jz", "1", "--gamma", "0", "0.4", "3", "-L", "6",
         "--tol-real", "-1"),
        ("xxz-scan", "--jz", "1", "--gamma", "0", "0.4", "3", "-L", "6",
         "--tol-real", "nan"),
        ("ssh-berry", "--v1", "0.5", "--u", "0.1", "-L", "8", "--nk", "0"),
        ("ssh-berry", "--v1", "0.5", "--u", "0.1", "-L", "8", "--nk", "-3"),
        ("ssh-edges", "--v1", "0.5", "-L", "2"),
        # an option of the other model, which that model would ignore
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--u", "5"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--v2", "3"),
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--jz", "7"),
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--gamma", "3"),
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--direction", "jz"),
        ("ep-locate", "--model", "ssh", "--u", "0.2", "--bracket", "0.5", "1.0",
         "--tol-real", "5"),
        # a non-finite value, which passes every sign check
        ("ssh-scan", "--v1", "0.5", "0.9", "3", "--u", "0.2", "-L", "21",
         "--epsilon", "nan"),
        ("ssh-bands", "--v1", "nan", "-L", "5"),
        ("xxz-spectrum", "--jz", "1", "--gamma", "nan", "-L", "4"),
        # a negative seed, which SeedSequence refuses at the first point
        ("xxz-scan", "--gamma", "0.1", "0.2", "3", "-L", "6", "--seed", "-1"),
        ("ep-locate", "--model", "xxz", "--jz", "1", "-L", "8",
         "--bracket", "0", "0.6", "--seed", "-1"),
    ], ids=["ssh-negative-a", "xxz-zero-b", "ssh-zero-epsilon",
            "xxz-negative-epsilon", "xxz-nan-epsilon", "ep-locate-negative-tol-real",
            "xxz-scan-negative-tol-real", "xxz-scan-nan-tol-real", "berry-zero-nk",
            "berry-negative-nk", "edges-L2", "xxz-u", "xxz-v2", "ssh-jz", "ssh-gamma",
            "ssh-direction", "ssh-tol-real", "ssh-scan-nan-epsilon", "ssh-bands-nan-v1",
            "xxz-spectrum-nan-gamma", "xxz-scan-negative-seed",
            "ep-locate-negative-seed"])
    def test_invalid_value_is_refused_before_any_solve(self, argv, monkeypatch,
                                                       tmp_path, capsys):
        from ptfidelity import cli, xxz

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the arguments were checked")

        for module, name in ((cli, "ground_state"), (xxz, "ground_state"),
                             (cli, "_Bands")):
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        assert not out.exists()

    CONFIGS = {
        "ssh": "[sweep]\nmodel = ssh\n\n[fixed]\nu = 0.2\nL = 21\n\n"
               "[axis]\nname = v1\nstart = 0.5\nstop = 0.9\ncount = 3\n",
        "xxz": "[sweep]\nmodel = xxz\n\n[fixed]\njz = 1\n\n[axis]\nname = gamma\n"
               "start = 0\nstop = 0.4\ncount = 3\n\n[sizes]\nL = 4\n",
    }
    CONFIGS["ssh-out"] = CONFIGS["ssh"].replace("ssh\n", "ssh\nout = file.csv\n", 1)

    # the file states the whole sweep: any other scan option would be
    # dropped, and so would the scan's model and an --out the file overrides
    @pytest.mark.parametrize("command, config, extra, named", [
        ("xxz-scan", "xxz", ("--jz", "5"), "--jz"),
        ("xxz-scan", "xxz", ("--gamma", "0", "1", "9"), "--gamma"),
        ("xxz-scan", "xxz", ("-L", "12"), "-L"),
        ("xxz-scan", "xxz", ("--epsilon", "0.5"), "--epsilon"),
        ("xxz-scan", "xxz", ("--threads", "2"), "--threads"),
        ("xxz-scan", "xxz", ("--format", "json"), "--format"),
        ("xxz-scan", "xxz", ("--definition", "RR"), "--definition"),
        ("xxz-scan", "xxz", ("--seed", "4"), "--seed"),
        ("xxz-scan", "xxz", ("--tol-real", "0"), "--tol-real"),
        ("ssh-scan", "ssh", ("--v2", "0.3"), "--v2"),
        ("ssh-scan", "ssh", ("--epsilon", "1e-3"), "--epsilon"),
        ("xxz-scan", "ssh", (), "model = ssh"),
        ("ssh-scan", "xxz", (), "model = xxz"),
        ("ssh-scan", "ssh-out", (), "--out"),
    ])
    def test_option_beside_a_config_file_is_refused(self, command, config, extra,
                                                    named, monkeypatch, tmp_path,
                                                    capsys):
        from ptfidelity import cli

        def refuse(*args, **kwargs):
            raise AssertionError("ran a sweep before the arguments were checked")

        monkeypatch.setattr(cli, "run_sweep", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.cfg").write_text(self.CONFIGS[config])
        assert run_cli(command, "--config", "sweep.cfg", *extra, "--out", "flag.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert list(tmp_path.iterdir()) == [tmp_path / "sweep.cfg"]

    @pytest.mark.parametrize("model", ["ssh", "xxz"])
    def test_config_file_alone_runs(self, model, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sweep.cfg").write_text(self.CONFIGS[model])
        assert run_cli(f"{model}-scan", "--config", "sweep.cfg", "--out", "a.csv") == 0
        assert run_cli(f"{model}-scan", "--config", "sweep.cfg") == 0
        assert (tmp_path / "a.csv").read_text() == \
            (tmp_path / f"{model}_scan.csv").read_text()

    @pytest.mark.parametrize("option", ["--seed", "--tol-real"])
    def test_ssh_scan_has_no_solver_options(self, option, tmp_path):
        # the closed-form SSH sweep would silently ignore either value
        out = tmp_path / "scan.csv"
        assert run_cli("ssh-scan", "--v1", "0.7", "0.9", "3", "--u", "0.1",
                       "-L", "21", option, "5", "--out", str(out)) == 2
        assert not out.exists()


class TestSshOnePath:
    @pytest.mark.parametrize("v2,u,L,a,b,extra", [
        (0.0, 0.2, 101, 0.5, 0.5, ("--bracket", "0.7", "0.9")),
        (0.4, 0.3, 51, 0.3, 0.7, ("--bracket", "0.3", "0.9",
                                  "--epsilon-schedule", "1e-2", "1e-5")),
    ], ids=["symmetric", "asymmetric"])
    def test_ep_locate_trace_is_many_body_fidelity(self, v2, u, L, a, b, extra,
                                                   tmp_path):
        from ptfidelity.ssh import SshParams, many_body_fidelity

        out = tmp_path / "ep.json"
        assert run_cli("ep-locate", "--model", "ssh", "--v2", str(v2), "--u", str(u),
                       "-L", str(L), "--a", str(a), "--b", str(b), *extra,
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        p = SshParams(v1=0.0, v2=v2, u=u, L=L)
        lo, hi = report["bracket"]
        center = 0.5 * (lo + hi)
        assert len(report["re_f_trace"]) >= 2
        for eps, re_f, im_f in report["re_f_trace"]:
            F = many_body_fidelity(p, center - a * eps, center + b * eps).value
            assert (F.real, F.imag) == (re_f, im_f)

    @pytest.mark.parametrize("argv", [
        ("--v1", "0.99", "1.01", "3", "--u", "0.2", "-L", "100"),   # eta_pi ~ 1e-16
        ("--v1", "-1.0", "-0.9", "2", "--u", "0.2", "-L", "7"),     # eta_0 = 0
    ])
    def test_ssh_scan_finite_where_eta_vanishes(self, argv, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("ssh-scan", *argv, "--out", str(out)) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        for row in rows:
            fields = dict(zip(header, row))
            assert np.isfinite(float(fields["re_F"]))
            assert np.isfinite(float(fields["im_F"]))
            assert fields["error"] == ""

    def test_ssh_berry_finite_where_eta_vanishes(self, tmp_path):
        out = tmp_path / "berry.csv"
        assert run_cli("ssh-berry", "--v1", "1.0", "--u", "0.1", "--nk", "512",
                       "--out", str(out)) == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        fields = dict(zip(header, row))
        assert np.isfinite(float(fields["re_gamma"]))
        assert np.isfinite(float(fields["im_gamma"]))
        assert fields["error"] == ""


class TestBerryGridChange:
    """``ssh-berry`` reports the Richardson |gamma(2N) - gamma(N)|."""

    def _row(self, tmp_path, *argv):
        out = tmp_path / "berry.csv"
        assert run_cli("ssh-berry", *argv, "--out", str(out)) == 0
        header, row = [line.split(",") for line in out.read_text().splitlines()]
        assert header[-1] == "grid_change"
        return dict(zip(header, row))

    def test_broken_phase_loop_does_not_converge(self, tmp_path):
        fields = self._row(tmp_path, "--v1", "0.999", "--u", "0.1", "--nk", "512")
        assert float(fields["grid_change"]) > 0.1

    def test_unbroken_phase_loop_converges(self, tmp_path):
        fields = self._row(tmp_path, "--v1", "0.5", "--u", "0.2", "--nk", "512")
        assert float(fields["grid_change"]) < 1e-2

    def test_analytic_method_leaves_it_empty(self, tmp_path):
        fields = self._row(tmp_path, "--v1", "0.5", "--u", "0.2",
                           "--method", "analytic")
        assert fields["grid_change"] == ""
