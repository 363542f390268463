import json
import os
import warnings

import numpy as np
import pytest

from cgoplane.cli import main as cli_main
from cgoplane.errors import BlobFormatError, ConfigError
from cgoplane.experiments import (ExperimentConfig, _save_far_field, load_far_field,
                                  run_counterexample, run_lemma_checks,
                                  run_scatter, run_stability, schedule_lambda)
from cgoplane.scattering import FarFieldData
from cgoplane.utils import write_json


class TestConfig:
    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", params={"lambdas": [8.0, 4.0]})

    def test_missing_description_file(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", params={"potential_file": "/nope/none.json"})

    def test_from_json_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "lemmas", "grid_n": 64, "seed": 7}))
        cfg = ExperimentConfig.from_json(path, out_dir=str(tmp_path / "o"))
        assert cfg.grid_n == 64
        assert cfg.seed == 7
        assert cfg.out_dir.endswith("o")


class TestScheduleLambda:
    def test_equation_roundoff(self):
        for gap in (1e-3, 1e-5, 2.5e-7):
            d = 0.3
            lam = schedule_lambda(gap, d)
            assert abs(lam - (-np.log(gap) / (6 * d**2))) <= 1e-12 * lam

    def test_guards(self):
        assert schedule_lambda(0.0, 1.0) == np.inf  # vanished gap: any lam allowed
        with pytest.raises(ConfigError):
            schedule_lambda(1.5, 1.0)
        with pytest.raises(ConfigError):
            schedule_lambda(-1e-3, 1.0)


def _small_ce_config(out, **extra):
    params = {"t_values": [1.0], "lambdas": [5.0, 7.0, 9.0, 11.0],
              "oracle_lambdas": [120.0, 150.0]}
    params.update(extra)
    return ExperimentConfig(name="counterexample", out_dir=str(out), grid_n=128,
                            params=params)


class TestDeterminism:
    def test_counterexample_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_counterexample(_small_ce_config(out1))
        run_counterexample(_small_ce_config(out2))
        for name in ("counterexample_sweep.csv", "counterexample_summary.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2

    def test_stability_outputs_byte_identical(self, tmp_path):
        cfgs = [ExperimentConfig(name="stability", out_dir=str(tmp_path / d),
                                 grid_n=128, params={"deltas": [0.1, 0.05]})
                for d in ("a", "b")]
        for cfg in cfgs:
            run_stability(cfg)
        b1 = (tmp_path / "a" / "stability_trend.csv").read_bytes()
        b2 = (tmp_path / "b" / "stability_trend.csv").read_bytes()
        assert b1 == b2


class TestJsonOutput:
    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), complex(1.0, float("nan")),
                                       np.float64("inf")])
    def test_write_json_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "s.json", {"v": [1.0, value]})
        assert not (tmp_path / "s.json").exists()


class TestStabilityRunner:
    def test_zero_gap_modulus_without_log_of_zero(self, tmp_path):
        cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path), grid_n=64,
                               params={"deltas": [0.0, 0.05]})
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="divide by zero")
            run = run_stability(cfg)["run"]
        assert run["dtn_gaps"][0] == 0.0
        assert run["moduli"][0] == 0.0  # |ln gap|^{1 - s/2} -> 0 as gap -> 0
        assert 0.0 < run["moduli"][1] < 1.0

    def test_zero_delta_gap_vanishes(self, tmp_path):
        cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path), grid_n=128,
                               params={"deltas": [1e-12, 0.05]})
        # delta ~ 0 reproduces the base potential: the gap collapses and the
        # schedule would diverge; expect the (recorded) clamp to kick in
        summary = run_stability(cfg)
        run = summary["run"]
        assert run["dtn_gaps"][0] < 1e-10
        assert run["lambda_clamped"][0]

    def test_gap_monotone_and_errors_trend(self, tmp_path):
        cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path), grid_n=256,
                               params={"deltas": [0.1, 0.05, 0.02]})
        run = run_stability(cfg)["run"]
        gaps = run["dtn_gaps"]
        assert gaps[0] > gaps[1] > gaps[2]
        # lambda schedule recomputation (round-off level) unless clamped
        for lam, gap, clamped in zip(run["lambdas"], gaps, run["lambda_clamped"]):
            if not clamped:
                assert abs(lam - (-np.log(gap) / (6 * 0.3**2))) < 1e-10 * lam


class TestScatterRunner:
    def test_far_field_blob_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(name="scatter", out_dir=str(tmp_path), grid_n=64,
                               params={"nystrom_n": 32, "n_angles": 64, "cutoff": 16})
        summary = run_scatter(cfg)
        assert summary["max_residual"] <= 1e-6
        data = load_far_field(os.path.join(tmp_path, "far_field.ffd"))
        assert data.consistency() < 1e-10

    def test_far_field_blob_exact_and_checked(self, tmp_path):
        rng = np.random.default_rng(3)
        data = FarFieldData.from_samples(
            4.0, rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128)))
        path = tmp_path / "f.ffd"
        _save_far_field(path, data)
        back = load_far_field(path)
        assert (back.k, back.n_eta, back.n_theta) == (4.0, 64, 128)
        assert np.array_equal(back.coeffs, data.coeffs)
        path.write_bytes(b"DTNBLOB1" + path.read_bytes()[8:])
        with pytest.raises(BlobFormatError):
            load_far_field(path)

    def test_one_epsilon_writes_null_halving_ratio(self, tmp_path, capsys):
        cfgfile = tmp_path / "s.json"
        cfgfile.write_text(json.dumps({"params": {"nystrom_n": 32, "n_angles": 64,
                                                  "cutoff": 16, "epsilons": [0.2]}}))
        assert cli_main(["scatter", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert "halving ratio n/a" in capsys.readouterr().out
        text = (tmp_path / "scatter_summary.json").read_text()
        assert '"halving_ratio": null' in text
        assert json.loads(text)["halving_ratio"] is None


class TestLemmaRunner:
    def test_zero_like_trivial(self, tmp_path):
        # smoke only: the full suite is exercised by the acceptance module
        cfg = ExperimentConfig(name="lemmas", out_dir=str(tmp_path), grid_n=64,
                               params={"growth": {"disk_radius": 1.0, "mesh_nodes": 64,
                                                  "n_r": 48, "lambdas": [2.0, 4.0],
                                                  "sigma": 0.25, "amp": 0.2,
                                                  "x": [0.2, -0.1], "side": 4.0}})
        summary = run_lemma_checks(cfg)
        names = {c["name"] for c in summary["checks"]}
        assert "phase_mul_duality_decay" in names
        assert "special_solution_growth" in names
        assert os.path.exists(os.path.join(tmp_path, "lemma_checks.csv"))


class TestCli:
    def test_counterexample_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "params": {"t_values": [1.0], "lambdas": [5.0, 7.0, 9.0],
                       "oracle_lambdas": [120.0]}}))
        rc = cli_main(["counterexample", "--config", str(cfgfile),
                       "--out", str(tmp_path / "o"), "--grid", "128", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rel err" in out
        assert (tmp_path / "o" / "counterexample_summary.json").exists()

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["does-not-exist"])
