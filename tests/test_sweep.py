import io

import numpy as np
import pytest

from ptfidelity import ConfigError
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
