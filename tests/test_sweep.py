import csv
import io
import math
import os

import numpy as np
import pytest

from ptfidelity import ConfigError, biorthogonal_eig, classify_pt
from ptfidelity.fidelity import FIDELITY_TAGS, fidelity_variant
from ptfidelity.ssh import SshParams, ground_state_pt_class, single_particle_states
from ptfidelity.sweep import (
    Axis,
    SweepConfig,
    SweepResult,
    parse_config,
    read_json,
    result_from_dict,
    result_to_dict,
    run_sweep,
    write_csv,
    write_json,
)

SSH_CONFIG = """\
[sweep]
model = ssh
epsilon = 1e-3
seed = 7
threads = 1
format = csv

[fixed]
v2 = 0.0
L = 21

[axis]
name = u
start = 0.05
stop = 0.15
count = 2

[axis]
name = v1
start = 0.7
stop = 0.9
count = 3
"""


def tiny_xxz_config(threads=1, seed=3):
    return SweepConfig(
        model="xxz",
        axes=[Axis(name="gamma", start=0.0, stop=0.4, count=5)],
        fixed={"jz": 1.0},
        sizes=[6],
        epsilon=1e-3,
        seed=seed,
        threads=threads,
    )


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config(SSH_CONFIG)
        assert cfg.model == "ssh"
        assert [ax.name for ax in cfg.axes] == ["u", "v1"]
        assert cfg.fixed == {"v2": 0.0, "L": 21.0}
        reparsed = parse_config(cfg.to_text())
        assert reparsed.axes == cfg.axes
        assert reparsed.epsilon == cfg.epsilon
        assert reparsed.seed == cfg.seed

    def test_single_point_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SSH_CONFIG.replace("count = 3", "count = 1"))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SSH_CONFIG.replace("model = ssh", "model = hubbard"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SSH_CONFIG.replace("name = v1", "name = t2"))

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[sweep]\nmodel ssh\n")

    @pytest.mark.parametrize("model, key", [("ssh", "tol_real"),
                                            ("dense-file", "seed")])
    def test_key_the_model_never_reads_is_refused(self, model, key):
        text = ("[sweep]\nmodel = {}\nh0 = h0.npy\nv = v.npy\n{} = 5\n\n"
                "[fixed]\nL = 21\n\n[axis]\nname = {}\nstart = 0.7\n"
                "stop = 0.9\ncount = 3\n").format(
                    model, key, "v1" if model == "ssh" else "lambda")
        cfg = parse_config(text.replace(f"{key} = 5", ""))
        setattr(cfg, key, 5)            # set in code: not echoed by to_text
        assert parse_config(cfg.to_text()).axes == cfg.axes
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    @pytest.mark.parametrize("key", ["epsilom", "Epsilon", "fmt", "h1", "v1"])
    def test_unknown_sweep_key_is_refused(self, key):
        # a misspelt key would leave its setting at the default
        text = SSH_CONFIG.replace("epsilon = 1e-3", f"{key} = 0.5")
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(text)

    @pytest.mark.parametrize("tol_real", ["-1", "nan"])
    def test_negative_or_nan_tol_real_is_refused(self, tol_real):
        cfg = tiny_xxz_config()
        cfg.tol_real = float(tol_real)
        with pytest.raises(ConfigError, match="tol_real"):
            cfg.validate()
        with pytest.raises(ConfigError, match="tol_real"):
            parse_config(cfg.to_text())

    @pytest.mark.parametrize("model, name", [
        ("xxz", "gama"), ("xxz", "L"), ("xxz", "u"), ("ssh", "gamma"),
        ("ssh", "jz"), ("dense-file", "v1"), ("dense-file", "lambda"),
    ])
    def test_fixed_name_the_model_never_reads_is_refused(self, model, name):
        # such a sweep would run as if the name were not there
        axis = {"ssh": "v1", "xxz": "gamma", "dense-file": "lambda"}[model]
        text = ("[sweep]\nmodel = {}\nh0 = h0.npy\nv = v.npy\n\n[fixed]\n"
                "{} = 0.3\n\n[axis]\nname = {}\nstart = 0.1\nstop = 0.2\n"
                "count = 2\n\n[sizes]\nL = 4\n")
        reads = {"ssh": "w", "xxz": "jz", "dense-file": "L"}[model]
        assert parse_config(text.format(model, reads, axis)).fixed == {reads: 0.3}
        with pytest.raises(ConfigError, match=f"do not read .*'{name}'"):
            parse_config(text.format(model, name, axis))

    @pytest.mark.parametrize("old, new", [
        ("epsilon = 1e-3", "epsilon = nan"),
        ("epsilon = 1e-3", "epsilon = inf"),
        ("start = 0.7", "start = nan"),
        ("stop = 0.15", "stop = -inf"),
        ("v2 = 0.0", "v2 = nan"),
        ("L = 21", "L = inf"),
    ])
    def test_non_finite_value_is_refused(self, old, new):
        assert old in SSH_CONFIG
        with pytest.raises(ConfigError, match="finite"):
            parse_config(SSH_CONFIG.replace(old, new))

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
    def test_non_finite_divergence_floor_is_refused(self, floor):
        # a NaN floor compares false with every density and flags no point
        text = SSH_CONFIG.replace("format = csv", f"divergence_floor = {floor}")
        with pytest.raises(ConfigError, match="divergence_floor must be finite"):
            parse_config(text)
        cfg = parse_config(SSH_CONFIG)
        cfg.divergence_floor = float(floor)
        with pytest.raises(ConfigError, match="finite"):
            run_sweep(cfg)


class TestRunSweep:
    def test_ssh_grid_values(self):
        result = run_sweep(parse_config(SSH_CONFIG))
        assert len(result.points) == 6
        # canonical ordering: u-major then v1
        assert [p.axis_values["v1"] for p in result.points[:3]] == [0.7, 0.8, 0.9]
        for p in result.points:
            assert p.error == ""
            assert p.pt_class_a == "unbroken"

    def test_single_point_density_matches_chi_total(self):
        from ptfidelity.ssh import SshParams, chi_total

        cfg = parse_config(SSH_CONFIG)
        result = run_sweep(cfg)
        p0 = result.points[0]
        expected = chi_total(SshParams(v1=p0.axis_values["v1"], v2=0.0,
                                       u=p0.axis_values["u"], L=21)).value / 21
        assert abs(p0.re_chi_density - expected) < 1e-12

    def test_per_point_error_isolation(self):
        # the v1 = 1, u = 0 point has an exceptional grid momentum (k = pi
        # for even L); the sweep records the error and keeps going
        cfg = SweepConfig(
            model="ssh",
            axes=[Axis(name="v1", start=0.5, stop=1.0, count=2)],
            fixed={"v2": 0.0, "u": 0.0, "L": 4},
        )
        result = run_sweep(cfg)
        errs = [p.error for p in result.points]
        assert errs[0] == ""
        assert "AtExceptionalMomentum" in errs[1]

    def test_ssh_shifted_endpoint_error_in_band(self):
        # v1 + epsilon reaches 1, where k = pi (m = 2 of L = 4) is exceptional
        cfg = SweepConfig(
            model="ssh",
            axes=[Axis(name="v1", start=0.5, stop=0.999, count=2)],
            fixed={"v2": 0.0, "u": 0.0, "L": 4},
        )
        result = run_sweep(cfg)
        assert result.points[0].error == ""
        assert result.points[1].error.startswith("AtExceptionalMomentumError")
        assert "m=2" in result.points[1].error

    def test_xxz_interval_candidates(self):
        result = run_sweep(tiny_xxz_config())
        intervals = [c for c in result.ep_candidates if c["kind"] == "interval"]
        assert intervals
        for cand in result.ep_candidates:
            assert {cand["pt_class_a"], cand["pt_class_b"]} == {"unbroken", "broken"}

    def test_xxz_record_straddle_flag(self):
        from ptfidelity import bisect_ep
        from ptfidelity.xxz import XxzParams, is_broken_at

        p = XxzParams(jz=1.0, gamma=0.0, L=6)
        lo, hi = bisect_ep(lambda g: is_broken_at(p, "gamma", g),
                           0.0, 0.8, tol=1e-7)
        eps = 1e-3
        start = 0.5 * (lo + hi) - 0.4 * eps   # record interval straddles the EP
        cfg = SweepConfig(
            model="xxz",
            axes=[Axis(name="gamma", start=start, stop=start + 0.2, count=3)],
            fixed={"jz": 1.0},
            sizes=[6],
            epsilon=eps,
        )
        result = run_sweep(cfg)
        assert "straddle" in result.points[0].ep_flag
        records = [c for c in result.ep_candidates if c["kind"] == "record"]
        assert records and abs(records[0]["re_F"] - 0.5) < 0.05

    def test_extrapolation_block_with_sizes(self):
        cfg = SweepConfig(
            model="xxz",
            axes=[Axis(name="jz", start=-1.4, stop=-0.9, count=6)],
            fixed={"gamma": 0.5},
            sizes=[6, 8, 10],
            epsilon=1e-3,
        )
        result = run_sweep(cfg)
        assert result.peak_table
        assert result.extrapolation is not None
        assert {row["L"] for row in result.peak_table} == {6, 8, 10}


# scan axis -> (fixed couplings, axis start/stop/count); each grid crosses
# the PT transition of the L = 21 ladder, and with epsilon = 0.1 one record
# per grid straddles it
SSH_SCANS = {
    "v1": ({"u": 0.2, "v2": 0.0}, (0.6, 1.0, 5)),
    "u": ({"v1": 0.9, "v2": 0.0}, (0.05, 0.3, 6)),
    "v2": ({"v1": 0.7, "u": 0.2}, (0.0, 0.4, 5)),
}


class TestSshStackedSweep:
    """SSH sweep points against the scalar per-momentum product."""

    @pytest.mark.parametrize("scan", sorted(SSH_SCANS))
    @pytest.mark.parametrize("tag", FIDELITY_TAGS)
    def test_every_tag_and_scan_axis(self, tag, scan):
        fixed, (start, stop, count) = SSH_SCANS[scan]
        cfg = SweepConfig(model="ssh", axes=[Axis(scan, start, stop, count)],
                          fixed={**fixed, "L": 21}, definition=tag, epsilon=0.1)
        result = run_sweep(cfg)
        classes = set()
        for point in result.points:
            assert point.error == ""
            vals = {**fixed, **point.axis_values}
            pa = SshParams(L=21, **vals)
            pb = SshParams(L=21, **{**vals, scan: vals[scan] + cfg.epsilon})
            want = 1.0 + 0j
            for k in pa.momenta():
                sa, sb = single_particle_states(k, pa), single_particle_states(k, pb)
                want *= fidelity_variant(tag, sa.left_minus, sa.right_minus,
                                         sb.left_minus, sb.right_minus)
            assert abs(point.F - want) < 1e-12
            assert point.pt_class_a == ground_state_pt_class(pa)
            assert point.pt_class_b == ground_state_pt_class(pb)
            classes.add(point.pt_class_a)
        assert classes == {"unbroken", "broken"}
        assert any("straddle" in p.ep_flag for p in result.points)

    def test_metricized_v1_chi_at_a_rung_hopping_of_two(self):
        # the closed-form chi of a metricized v1 scan, against the many-body
        # finite difference at w = 2
        from ptfidelity.ssh import many_body_fidelity

        fixed = {"v2": 0.6, "u": 0.4, "w": 2.0}
        cfg = SweepConfig(model="ssh", axes=[Axis("v1", 1.2, 1.6, 3)],
                          fixed={**fixed, "L": 21})
        h = 1e-5
        for point in run_sweep(cfg).points:
            assert point.error == ""
            p = SshParams(v1=point.axis_values["v1"], L=21, **fixed)
            F = many_body_fidelity(p, p.v1 - h, p.v1 + h).value
            oracle = ((1 - F) / (2 * h) ** 2).real
            assert abs(point.chi.real - oracle) < 1e-4 * abs(oracle)


class TestDeterminism:
    def _csv(self, cfg):
        result = run_sweep(cfg)
        buf = io.StringIO()
        write_csv(result, buf)
        return buf.getvalue()

    def test_repeat_runs_byte_identical(self):
        a = self._csv(tiny_xxz_config())
        b = self._csv(tiny_xxz_config())
        assert a == b

    def test_thread_count_invariance(self):
        serial = self._csv(tiny_xxz_config(threads=1))
        parallel = self._csv(tiny_xxz_config(threads=2))
        assert serial == parallel

    def test_one_line_starts_no_thread_pool(self, monkeypatch):
        serial = self._csv(tiny_xxz_config(threads=1))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-line sweep started a thread pool")

        monkeypatch.setattr("ptfidelity.sweep.ThreadPoolExecutor", no_pool)
        assert self._csv(tiny_xxz_config(threads=4)) == serial

    def test_at_most_one_worker_per_line(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        def two_lines(threads):
            cfg = tiny_xxz_config(threads=threads)
            cfg.sizes = [4, 6]
            return cfg

        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        serial = self._csv(two_lines(1))
        monkeypatch.setattr("ptfidelity.sweep.ThreadPoolExecutor", recording_pool)
        assert self._csv(two_lines(4)) == serial
        assert pools == [2]

    def test_seed_changes_nothing_for_closed_forms(self):
        cfg1 = parse_config(SSH_CONFIG)
        cfg2 = parse_config(SSH_CONFIG.replace("seed = 7", "seed = 8"))
        assert self._csv(cfg1).replace("seed = 7", "") \
            == self._csv(cfg2).replace("seed = 8", "")


class TestEmit:
    def test_empty_result_header_only(self):
        result = SweepResult(
            config_text="model = ssh\n", axis_names=["v1"], points=[],
            ep_candidates=[], peak_table=[], extrapolation=None,
            provenance={"epsilon": 1e-3, "definition": "metricized"},
        )
        buf = io.StringIO()
        write_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("model,L,v1,epsilon,definition,re_F")

    def test_model_column_ignores_model_like_keys(self):
        # a config file refuses the key, so it is set in code; the echo
        # writes it after the model line
        cfg = parse_config(SSH_CONFIG)
        cfg.options["model_note"] = "baseline"
        cfg.source_text = ""
        result = run_sweep(cfg)
        lines = result.config_text.splitlines()
        assert lines.index("model_note = baseline") > lines.index("model = ssh")
        buf = io.StringIO()
        write_csv(result, buf)
        rows = buf.getvalue().splitlines()[1:]
        assert rows and all(row.split(",")[0] == "ssh" for row in rows)
        assert result_from_dict(result_to_dict(result)).model == "ssh"

    def test_csv_columns(self):
        result = run_sweep(parse_config(SSH_CONFIG))
        buf = io.StringIO()
        write_csv(result, buf)
        header = buf.getvalue().splitlines()[0].split(",")
        assert header == ["model", "L", "u", "v1", "epsilon", "definition",
                          "re_F", "im_F", "re_chi", "im_chi", "re_chi_density",
                          "pt_class_a", "pt_class_b", "ep_flag", "error"]

    def test_json_round_trip(self):
        result = run_sweep(tiny_xxz_config())
        buf = io.StringIO()
        write_json(result, buf)
        buf.seek(0)
        back = read_json(buf)
        assert result_to_dict(back) == result_to_dict(result)

    def test_json_round_trip_with_error_points(self):
        cfg = SweepConfig(
            model="ssh",
            axes=[Axis(name="v1", start=0.5, stop=1.0, count=2)],
            fixed={"v2": 0.0, "u": 0.0, "L": 4},
        )
        result = run_sweep(cfg)
        buf = io.StringIO()
        write_json(result, buf)
        buf.seek(0)
        back = read_json(buf)
        assert result_to_dict(back) == result_to_dict(result)


    def test_json_round_trip_keeps_library_versions(self):
        import scipy

        result = run_sweep(tiny_xxz_config())
        buf = io.StringIO()
        write_json(result, buf)
        buf.seek(0)
        back = read_json(buf)
        assert back.provenance["numpy_version"] == np.__version__
        assert back.provenance["scipy_version"] == scipy.__version__

    def test_json_round_trip_keeps_blas_and_cpu_count(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result = run_sweep(tiny_xxz_config())
        buf = io.StringIO()
        write_json(result, buf)
        buf.seek(0)
        back = read_json(buf).provenance
        assert (back["blas_name"], back["blas_version"]) == (blas["name"], blas["version"])
        assert back["cpu_count"] == os.cpu_count()

    def test_csv_quotes_commas_and_quotes(self, tmp_path, rng):
        from conftest import random_pt_matrix

        np.save(tmp_path / "h0.npy", random_pt_matrix(6, rng))
        np.save(tmp_path / "v.npy", random_pt_matrix(6, rng))
        cfg = SweepConfig(
            model="dense-file",
            axes=[Axis(name="lam,bda", start=0.0, stop=0.2, count=3)],
            options={"h0": str(tmp_path / "h0.npy"), "v": str(tmp_path / "v.npy")},
        )
        result = run_sweep(cfg)
        result.points[1].error = 'ValueError: bad "x", then y'
        buf = io.StringIO()
        write_csv(result, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert len(rows) == len(result.points)
        for row, p in zip(rows, result.points):
            assert None not in row and None not in row.values()
            assert float(row["lam,bda"]) == p.axis_values["lam,bda"]
            assert float(row["re_F"]) == p.F.real
            assert row["error"] == p.error
        assert rows[1]["error"] == 'ValueError: bad "x", then y'


class TestJsonLayout:
    """The dataclass field order is the JSON layout, byte for byte."""

    def test_top_level_keys(self):
        assert list(result_to_dict(run_sweep(tiny_xxz_config()))) == [
            "schema_version", "model", "config_text", "axis_names",
            "provenance", "points", "ep_candidates", "peak_table",
            "extrapolation"]

    def test_point_keys(self):
        data = result_to_dict(run_sweep(tiny_xxz_config()))
        assert all(list(d) == [
            "index", "axis_values", "L", "F", "chi", "re_chi_density",
            "pt_class_a", "pt_class_b", "ep_flag", "error", "matvecs"]
            for d in data["points"])

    def test_write_read_write_is_byte_identical(self):
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", -0.03, 0.3, 5)],
                          fixed={"jz": 1.0}, sizes=[6], seed=5)
        result = run_sweep(cfg)
        assert result.points[0].error         # gamma < 0: an error row
        first = io.StringIO()
        write_json(result, first)
        assert '"re_chi_density": null' in first.getvalue()
        first.seek(0)
        again = io.StringIO()
        write_json(read_json(first), again)
        assert again.getvalue() == first.getvalue()

    def test_undeclared_key_is_refused(self):
        data = result_to_dict(run_sweep(tiny_xxz_config()))
        data["points"][0]["residual"] = 1e-12
        with pytest.raises(TypeError, match="residual"):
            result_from_dict(data)
        del data["points"][0]["residual"]
        data["notes"] = ""
        with pytest.raises(TypeError, match="notes"):
            result_from_dict(data)


class TestDenseFileModel:
    def test_sweep_over_file_matrices(self, tmp_path, rng):
        from conftest import random_pt_matrix

        H0 = random_pt_matrix(8, rng)
        V = random_pt_matrix(8, rng)
        np.save(tmp_path / "h0.npy", H0)
        np.save(tmp_path / "v.npy", V)
        cfg = SweepConfig(
            model="dense-file",
            axes=[Axis(name="lambda", start=0.0, stop=0.3, count=4)],
            options={"h0": str(tmp_path / "h0.npy"), "v": str(tmp_path / "v.npy")},
        )
        result = run_sweep(cfg)
        assert len(result.points) == 4
        for p in result.points:
            assert p.error == ""
            assert p.L == 8


    def test_tol_real_reaches_pt_classification(self, tmp_path):
        # eigenvalues +/- i sqrt(3 + lam(4 + lam)): broken under the default
        # threshold, unbroken once tol_real exceeds their imaginary parts
        sz = np.diag([1j, -1j])
        np.save(tmp_path / "h0.npy", np.array([[0, 1], [1, 0]]) + 2 * sz)
        np.save(tmp_path / "v.npy", sz)
        cfg = SweepConfig(
            model="dense-file",
            axes=[Axis(name="lambda", start=0.0, stop=0.3, count=3)],
            options={"h0": str(tmp_path / "h0.npy"), "v": str(tmp_path / "v.npy")},
        )
        classes = {(p.pt_class_a, p.pt_class_b) for p in run_sweep(cfg).points}
        assert classes == {("broken", "broken")}
        cfg.tol_real = 1e3
        classes = {(p.pt_class_a, p.pt_class_b) for p in run_sweep(cfg).points}
        assert classes == {("unbroken", "unbroken")}

    def test_one_run_at_the_matrix_dimension(self, tmp_path):
        # a size only labels a dense-file sweep: its points have the
        # matrix's dimension, and more than one size would repeat the run
        np.save(tmp_path / "h0.npy", np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.save(tmp_path / "v.npy", np.diag([1j, -1j]))
        text = (f"[sweep]\nmodel = dense-file\nh0 = {tmp_path / 'h0.npy'}\n"
                f"v = {tmp_path / 'v.npy'}\n\n[axis]\nname = lambda\n"
                "start = 0.1\nstop = 0.5\ncount = 5\n\n[sizes]\nL = 4\n")
        result = run_sweep(parse_config(text))
        assert [p.L for p in result.points] == [2] * 5
        assert result.peak_table == [] and result.extrapolation is None
        with pytest.raises(ConfigError, match="sizes"):
            parse_config(text.replace("L = 4", "L = 4 6 8"))

    def test_one_axis(self, tmp_path):
        # H0 + lambda V has one parameter: a second axis would only repeat
        # the lambda rows once per value of the other
        np.save(tmp_path / "h0.npy", np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.save(tmp_path / "v.npy", np.diag([1j, -1j]))
        text = (f"[sweep]\nmodel = dense-file\nh0 = {tmp_path / 'h0.npy'}\n"
                f"v = {tmp_path / 'v.npy'}\n\n[axis]\nname = foo\nstart = 0\n"
                "stop = 1\ncount = 3\n\n[axis]\nname = lambda\nstart = 0.1\n"
                "stop = 0.5\ncount = 3\n")
        with pytest.raises(ConfigError, match="one axis"):
            parse_config(text)


    @staticmethod
    def _dense_file_sweep(tmp_path, H0, V, start, stop, count, **cfg):
        np.save(tmp_path / "h0.npy", H0)
        np.save(tmp_path / "v.npy", V)
        return run_sweep(SweepConfig(
            model="dense-file", axes=[Axis(name="lambda", start=start, stop=stop,
                                           count=count)],
            options={"h0": str(tmp_path / "h0.npy"), "v": str(tmp_path / "v.npy")},
            **cfg))

    @pytest.mark.parametrize("n", [6, 11, 24, 40])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("definition", ["metricized", "RR"])
    def test_matches_full_eigensystem_points(self, tmp_path, n, seed, definition):
        # the ground pair alone reproduces what biorthogonal_eig plus
        # ground_index gave for every point, value and PT class
        from conftest import random_pt_matrix

        rng = np.random.default_rng(seed)
        H0, V = random_pt_matrix(n, rng), random_pt_matrix(n, rng)
        result = self._dense_file_sweep(tmp_path, H0, V, -0.5, 0.5, 5,
                                        definition=definition)

        def ground(lam):
            es = biorthogonal_eig(H0 + lam * V)
            g = es.ground_index()
            broken = classify_pt(es).is_broken(g)
            return es.left_vectors[g], es.right_vectors[:, g], \
                "broken" if broken else "unbroken"

        for p in result.points:
            lam = p.axis_values["lambda"]
            la, ra, ca = ground(lam)
            lb, rb, cb = ground(lam + 1e-3)
            assert p.error == ""
            assert abs(p.F - fidelity_variant(definition, la, ra, lb, rb)) < 1e-10
            assert (p.pt_class_a, p.pt_class_b) == (ca, cb)

    def test_jordan_block_above_the_ground_state_gives_a_value(self, tmp_path):
        # H0 = diag(-3, -1) + [[5, 1], [0, 5]], a Jordan block in the excited
        # levels; V mixes the two lowest levels only.  The full eigensystem
        # is defective at every lambda, the ground pair is not.
        H0 = np.zeros((4, 4))
        H0[:2, :2] = np.diag([-3.0, -1.0])
        H0[2:, 2:] = [[5.0, 1.0], [0.0, 5.0]]
        V = np.zeros((4, 4))
        V[0, 1] = V[1, 0] = 1.0
        result = self._dense_file_sweep(tmp_path, H0, V, 0.0, 0.5, 3)
        for p in result.points:
            lam = p.axis_values["lambda"]
            ends = [np.linalg.eigh(np.array([[-3.0, x], [x, -1.0]]))[1][:, 0]
                    for x in (lam, lam + 1e-3)]
            assert p.error == ""
            assert abs(p.F - abs(ends[0] @ ends[1]) ** 2) < 1e-12
            assert p.pt_class_a == p.pt_class_b == "unbroken"

    def test_defective_ground_pair_is_an_in_band_error(self, tmp_path):
        # lambda = 0 sits on the EP of the PT block [[i, 1], [1, -i]]
        sz = np.diag([1j, -1j])
        result = self._dense_file_sweep(
            tmp_path, np.array([[0, 1], [1, 0]]) + sz, sz, 0.0, 0.2, 2)
        assert result.points[0].error.startswith("DefectiveMatrixError")
        assert "below ep_guard 1.000e-12" in result.points[0].error
        assert result.points[1].error == ""

    def test_defective_shifted_endpoint_leaves_both_classes_empty(self, tmp_path):
        # the point at lambda = -epsilon solves, its shifted endpoint at
        # lambda = 0 sits on the EP of [[i, 1], [1, -i]]: a point gets its
        # classes only once both endpoints are solved
        sz = np.diag([1j, -1j])
        result = self._dense_file_sweep(
            tmp_path, np.array([[0, 1], [1, 0]]) + sz, sz, -1e-3, 0.5, 2)
        first = result.points[0]
        assert first.axis_values["lambda"] + 1e-3 == 0.0
        assert first.error.startswith("DefectiveMatrixError")
        assert first.pt_class_a == first.pt_class_b == ""
        assert first.F == 0j and math.isnan(first.re_chi_density)
        assert result.points[1].error == ""

    def test_unresolved_ground_cluster_is_an_in_band_error(self, tmp_path):
        # the jz = 0, gamma = 1, L = 6 XXZ sector at lambda = 0
        from ptfidelity.xxz import (XxzParams, build_hamiltonian, build_m0_basis,
                                    staggered_field_direction)

        H0 = build_hamiltonian(XxzParams(jz=0.0, gamma=1.0, L=6)).to_dense()
        V = np.diag(staggered_field_direction(build_m0_basis(6)))
        result = self._dense_file_sweep(tmp_path, H0, V, 0.0, 0.1, 2)
        assert result.points[0].error.startswith("NoConvergenceError")


class TestPeakInput:
    def test_level_crossing_point_does_not_feed_the_fit(self):
        # at L=8, jz=-1 the ground state crosses a level of another symmetry
        # block at gamma = 1.97400 (dense oracle), between the endpoints of
        # the point at 1.9736: F ~ 1e-23 with both endpoints unbroken and no
        # flag set, so only the |1 - F| guard keeps its 1e5 "peak" out of the
        # fit.  L=6 and 10 (broken there) only make the peak table appear.
        from ptfidelity.xxz import XxzParams, ground_state

        da, db = (ground_state(XxzParams(jz=-1.0, gamma=g, L=8), method="dense")
                  for g in (1.9736, 1.9746))
        assert abs((da.left @ db.right) * (db.left @ da.right)) < 1e-12
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", 1.9536, 1.9936, 5)],
                          fixed={"jz": -1.0}, sizes=[6, 8, 10], seed=13)
        result = run_sweep(cfg)
        crossing = next(p for p in result.points
                        if p.L == 8 and abs(p.axis_values["gamma"] - 1.9736) < 1e-12)
        assert abs(crossing.F) < 1e-12 and crossing.ep_flag == ""
        assert crossing.pt_class_a == crossing.pt_class_b == "unbroken"
        assert crossing.re_chi_density > 1e4
        peaks = {row["L"]: row for row in result.peak_table}
        assert abs(peaks[8]["position"] - 1.9536) < 1e-9
        assert peaks[8]["height"] < 1.0


class TestXxzSizeValidation:
    # an odd chain, one shorter than 4 sites, and an M=0 sector of
    # comb(30, 15) ~ 1.6e8 states, above the Lanczos basis cap
    @pytest.mark.parametrize("L", [7, 2, 30])
    def test_invalid_size_is_config_error(self, L):
        cfg = tiny_xxz_config()
        cfg.sizes = [6, L]
        with pytest.raises(ConfigError, match=f"L={L}"):
            cfg.validate()
        with pytest.raises(ConfigError):
            run_sweep(cfg)

    def test_non_integer_count_names_the_key(self):
        text = SSH_CONFIG.replace("count = 3", "count = 3.5")
        with pytest.raises(ConfigError, match="count"):
            parse_config(text)


class TestScanLineWarmStart:
    """Each XXZ point starts its solve at the scan value from the ground
    state of the previous point on its scan line."""

    def test_two_axis_sweep_is_thread_invariant(self):
        texts = set()
        for threads in (1, 2, 3):
            cfg = SweepConfig(model="xxz", axes=[Axis("jz", 0.5, 1.5, 3),
                                                 Axis("gamma", 0.1, 0.35, 6)],
                              sizes=[8], seed=11, threads=threads)
            buf = io.StringIO()
            write_csv(run_sweep(cfg), buf)
            texts.add(buf.getvalue())
        assert len(texts) == 1

    # level crossings between symmetry blocks of the sector (dense oracle):
    # the line walks from one block's ground state into the other's, and no
    # endpoint lies within 3e-4 of the crossing
    @pytest.mark.parametrize("L,jz,gamma_c", [(8, -1.0, 1.9740044539),
                                              (10, -2.0, 0.7888430440)])
    def test_line_across_a_level_crossing_matches_dense(self, monkeypatch, L, jz,
                                                        gamma_c):
        from ptfidelity import xxz
        from ptfidelity.xxz import XxzParams, ground_state

        solved, solve_pair = [], xxz._ground_state_pair

        def pair(*args, **kwargs):
            ga, gb, F = solve_pair(*args, **kwargs)
            solved.extend([ga, gb])
            return ga, gb, F

        monkeypatch.setattr(xxz, "_ground_state_pair", pair)
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", gamma_c - 0.0093,
                                                  gamma_c + 0.0067, 9)],
                          fixed={"jz": jz}, sizes=[L], seed=2)
        result = run_sweep(cfg)
        assert not any(p.error for p in result.points)
        assert len(solved) == 18
        for g in solved:
            dense = ground_state(XxzParams(jz=jz, gamma=g.params.gamma, L=L),
                                 method="dense")
            assert abs(g.energy - dense.energy) <= 1e-8, g.params.gamma

    def test_point_after_a_failure_starts_cold(self, monkeypatch):
        from ptfidelity import NoConvergenceError, xxz

        grid = np.linspace(0.0, 0.4, 5)
        starts, solve = {}, xxz.ground_state

        def failing(p, *, v0=None, **kwargs):
            if p.gamma == grid[2]:
                raise NoConvergenceError("injected")
            starts.setdefault(p.gamma, v0)      # the first solve is at lam
            return solve(p, v0=v0, **kwargs)

        monkeypatch.setattr(xxz, "ground_state", failing)
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", 0.0, 0.4, 5)],
                          fixed={"jz": 1.0}, sizes=[6], seed=4)
        errors = [bool(p.error) for p in run_sweep(cfg).points]
        assert errors == [False, False, True, False, False]
        cold = [starts[g] is None for g in grid[[0, 1, 3, 4]]]
        assert cold == [True, False, True, False]
        starts.clear()
        recs = xxz.fidelity_scan(xxz.XxzParams(jz=1.0, gamma=0.0, L=6), "gamma",
                                 grid, on_error="record")
        assert [bool(r.error) for r in recs] == errors
        assert [starts[g] is None for g in grid[[0, 1, 3, 4]]] == cold

    def test_warm_line_takes_fewer_matvecs_than_cold_points(self):
        from ptfidelity.xxz import XxzParams, _ground_state_pair, _point_seed

        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", 0.0, 0.4, 25)],
                          fixed={"jz": 1.0}, sizes=[10], seed=0)
        result = run_sweep(cfg)
        assert not any(p.error for p in result.points)
        assert all(p.matvecs > 0 for p in result.points)
        cold = 0
        for p in result.points:
            seed = _point_seed(cfg.seed, p.index[0])
            g = p.axis_values["gamma"]
            ga, gb, _ = _ground_state_pair(
                XxzParams(jz=1.0, gamma=g, L=10),
                XxzParams(jz=1.0, gamma=g + cfg.epsilon, L=10),
                seed, seed + 1, cfg.definition)
            cold += ga.matvecs + gb.matvecs
        assert sum(p.matvecs for p in result.points) < cold


class TestOneScanWalk:
    """``fidelity_scan`` and the sweep's XXZ lines are one walk with one
    seed rule."""

    @pytest.mark.parametrize("direction,fixed,L,seed,axis", [
        ("gamma", 1.0, 8, 0, (0.0, 0.4, 9)),
        ("gamma", -1.0, 10, 7, (-0.02, 0.3, 8)),    # in-band errors below 0
        ("gamma", 2.0, 6, 13, (0.1, 0.9, 7)),
        ("jz", 0.5, 8, 3, (-1.45, -0.95, 6)),
    ])
    def test_fidelity_scan_equals_the_one_axis_sweep(self, direction, fixed, L,
                                                     seed, axis):
        from ptfidelity.xxz import XxzParams, fidelity_scan

        other = "jz" if direction == "gamma" else "gamma"
        cfg = SweepConfig(model="xxz", axes=[Axis(direction, *axis)],
                          fixed={other: fixed}, sizes=[L], seed=seed)
        points = run_sweep(cfg).points
        p = XxzParams(L=L, **{other: fixed, direction: 0.0})
        recs = fidelity_scan(p, direction, cfg.axes[0].values(), seed=seed,
                             on_error="record")
        assert [(r.F, r.chi_fd, r.pt_class_a, r.pt_class_b, r.error) for r in recs] \
            == [(q.F, q.chi, q.pt_class_a, q.pt_class_b, q.error) for q in points]
        if direction == "gamma" and axis[0] < 0:
            assert recs[0].error == "ValueError: gamma must be nonnegative"
            assert not recs[-1].error

    def test_two_axis_sweep_equals_an_explicit_walk(self):
        # point (j, k) of size L is seeded from its ravel index j * count + k
        # in that size's grid, and starts from the ground state of point
        # (j, k - 1) unless that point raised
        from ptfidelity.errors import error_text
        from ptfidelity.xxz import XxzParams, _ground_state_pair, _point_seed

        cfg = SweepConfig(model="xxz", axes=[Axis("jz", 0.5, 1.5, 3),
                                             Axis("gamma", -0.03, 0.3, 5)],
                          sizes=[6, 8], seed=5, threads=2)
        want = []
        for L in cfg.sizes:
            for j, jz in enumerate(cfg.axes[0].values()):
                start = None
                for k, gamma in enumerate(cfg.axes[1].values()):
                    s = _point_seed(cfg.seed, j * cfg.axes[1].count + k)
                    try:
                        ga, gb, F = _ground_state_pair(
                            XxzParams(jz=jz, gamma=gamma, L=L),
                            XxzParams(jz=jz, gamma=gamma + cfg.epsilon, L=L),
                            s, s + 1, cfg.definition, start=start)
                    except ValueError as err:
                        want.append((0j, "", "", error_text(err)))
                        start = None
                        continue
                    want.append((complex(F), ga.pt_class, gb.pt_class, ""))
                    start = ga.right
        got = [(q.F, q.pt_class_a, q.pt_class_b, q.error) for q in run_sweep(cfg).points]
        assert got == want
        assert sum(bool(e) for *_, e in got) == 6


class TestPointObservability:
    def test_matvecs_round_trip_and_default(self):
        result = run_sweep(tiny_xxz_config())
        data = result_to_dict(result)
        assert [d["matvecs"] for d in data["points"]] \
            == [p.matvecs for p in result.points]
        assert all(p.matvecs > 0 for p in result.points)
        assert result_from_dict(data).points == result.points
        for d in data["points"]:        # a file written before the field
            del d["matvecs"]
        assert all(p.matvecs == 0 for p in result_from_dict(data).points)

    def test_failure_text_is_class_and_message(self, monkeypatch):
        from ptfidelity import NoConvergenceError, xxz

        grid, solve = np.linspace(0.0, 0.4, 5), xxz.ground_state

        def failing(p, **kwargs):
            if p.gamma == grid[2]:
                raise NoConvergenceError("injected")
            return solve(p, **kwargs)

        monkeypatch.setattr(xxz, "ground_state", failing)
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", 0.0, 0.4, 5)],
                          fixed={"jz": 1.0}, sizes=[6], seed=4)
        recs = xxz.fidelity_scan(xxz.XxzParams(jz=1.0, gamma=0.0, L=6), "gamma",
                                 grid, on_error="record")
        expected = "NoConvergenceError: injected"
        assert run_sweep(cfg).points[2].error == recs[2].error == expected

    def test_closed_form_points_count_no_matvecs(self):
        result = run_sweep(parse_config(SSH_CONFIG))
        assert all(p.matvecs == 0 for p in result.points)

    def test_provenance_records_wall_time_in_json_only(self):
        result = run_sweep(tiny_xxz_config())
        buf = io.StringIO()
        write_json(result, buf)
        buf.seek(0)
        assert read_json(buf).provenance["wall_s"] > 0
        buf = io.StringIO()
        write_csv(result, buf)
        assert "wall_s" not in buf.getvalue()
        assert "matvecs" not in buf.getvalue()


class TestLineExtractions:
    def test_warm_line_extracts_less_than_a_fixed_interval(self, monkeypatch):
        # the solves of a warm-started scan line take fewer projected
        # eigensolves than one every RITZ_INTERVAL steps would, and still
        # find the dense ground energy at every endpoint
        from ptfidelity import xxz
        from ptfidelity.lanczos import RITZ_INTERVAL
        from ptfidelity.xxz import ground_state

        solved, solve_pair = [], xxz._ground_state_pair

        def pair(*args, **kwargs):
            ga, gb, F = solve_pair(*args, **kwargs)
            solved.extend([ga, gb])
            return ga, gb, F

        monkeypatch.setattr(xxz, "_ground_state_pair", pair)
        cfg = SweepConfig(model="xxz", axes=[Axis("gamma", 0.0, 0.4, 25)],
                          fixed={"jz": 1.0}, sizes=[10], seed=0)
        result = run_sweep(cfg)
        assert not any(p.error for p in result.points)
        assert len(solved) == 50
        fixed = sum(-(-g.iterations // RITZ_INTERVAL) for g in solved)
        assert 0 < sum(g.extractions for g in solved) < fixed
        for g in solved:
            dense = ground_state(g.params, method="dense")
            assert dense.extractions == 0
            assert abs(g.energy - dense.energy) <= 1e-10, g.params.gamma


class TestSshStackedLine:
    """An SSH scan line is one stacked evaluation over its points and the
    momentum grid, in blocks of at most ``LINE_BLOCK_CELLS`` cells."""

    @staticmethod
    def _csv(cfg):
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        return buf.getvalue()

    @pytest.mark.parametrize("name", ["ssh_grid_metricized", "ssh_grid_RR",
                                      "ssh_exceptional_L4", "ssh_negative_u_scan",
                                      "ssh_sizes"])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_line_split_into_blocks_gives_the_same_bytes(self, monkeypatch,
                                                         tmp_path, name, rows):
        from test_sweep_golden import CASES, DATA

        from ptfidelity import sweep

        cfg = CASES[name](tmp_path)
        one_block = self._csv(cfg)
        assert one_block == (DATA / f"{name}.csv").read_text(encoding="utf-8")
        L_max = max(cfg.sizes or [int(cfg.fixed["L"])])
        stacks, stack = [], sweep._Bands

        def recording(p, *args, **kwargs):
            stacks.append(len(p))
            return stack(p, *args, **kwargs)

        monkeypatch.setattr(sweep, "LINE_BLOCK_CELLS", rows * L_max)
        monkeypatch.setattr(sweep, "_Bands", recording)
        assert self._csv(cfg) == one_block
        assert max(stacks) <= rows
        n_lines = len(cfg.sizes or [0]) * math.prod(ax.count for ax in cfg.axes[:-1])
        assert len(stacks) > 2 * n_lines      # some line took several blocks

    def test_two_axis_sweep_is_thread_invariant(self):
        texts = set()
        for threads in (1, 2, 3):
            cfg = SweepConfig(model="ssh", axes=[Axis("u", 0.05, 0.35, 5),
                                                 Axis("v1", 0.5, 1.3, 9)],
                              fixed={"v2": 0.1, "L": 31}, threads=threads)
            texts.add(self._csv(cfg))
        assert len(texts) == 1

    def test_points_equal_the_one_point_functions(self):
        from ptfidelity.ssh import chi_total, many_body_fidelity

        fixed = {"u": 0.2, "v2": 0.0, "L": 101}
        cfg = SweepConfig(model="ssh", axes=[Axis("v1", 0.5, 1.3, 25)],
                          fixed=fixed)
        result = run_sweep(cfg)
        p = SshParams(v1=0.5, u=0.2, L=101)
        classes = set()
        for point in result.points:
            v1 = point.axis_values["v1"]
            assert point.error == ""
            assert point.F == many_body_fidelity(p, v1, v1 + cfg.epsilon).value
            assert point.chi == chi_total(SshParams(v1=v1, u=0.2, L=101)).value
            classes.add(point.pt_class_a)
        assert classes == {"unbroken", "broken"}


class TestSshNeedsV1:
    def test_config_without_v1_is_refused(self):
        cfg = SweepConfig(model="ssh", axes=[Axis("u", 0.1, 0.3, 3)],
                          fixed={"L": 11})
        with pytest.raises(ConfigError, match="v1"):
            cfg.validate()
        with pytest.raises(ConfigError, match="v1"):
            run_sweep(cfg)

    def test_v1_fixed_or_on_an_axis_is_accepted(self):
        SweepConfig(model="ssh", axes=[Axis("u", 0.1, 0.3, 3)],
                    fixed={"L": 11, "v1": 0.8}).validate()
        SweepConfig(model="ssh", axes=[Axis("v1", 0.1, 0.3, 3)],
                    fixed={"L": 11}).validate()
