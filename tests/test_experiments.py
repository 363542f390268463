import csv
import json
import os
import warnings

import numpy as np
import pytest

from cgoplane.cgo import PhaseParams, alias_margin, homogeneous_weight, s1_apply
from cgoplane.cli import main as cli_main
from cgoplane.errors import BlobFormatError, ConfigError, DomainError
from cgoplane.experiments import (_FF_MAGIC, PWC_DISK_POTENTIAL, RUNNERS, ExperimentConfig,
                                  _critical_field, _merge_params, _s1_opnorm, _save_far_field,
                                  lemma_defaults, load_far_field, run_counterexample,
                                  run_lemma_checks, run_scatter, run_stability,
                                  schedule_lambda)
from cgoplane.grid import ComplexField, FourierGrid, check_padding_support, fft2, ifft2
from cgoplane.potentials import potential_from_description, rasterize
from cgoplane.scattering import FarFieldData
from cgoplane.utils import write_blob, write_json


def _pwc_potential_config(edit):
    """Config file text for convergence on pwc-disk with a potential that edit breaks."""
    desc = json.loads(json.dumps(PWC_DISK_POTENTIAL))
    edit(desc)
    return json.dumps({"params": {"variant": "pwc-disk", "potential": desc}})


class TestConfig:
    def test_schedule_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(name="x", params={"lambdas": [8.0, 4.0]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_refused(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(name="convergence", params={"lambdas": [128.0, bad]})

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_lambda_in_config_file_refused_before_any_output(self, tmp_path, token):
        # json.load reads NaN and Infinity, and NaN <= 128 is False, so the
        # schedule's order check alone let NaN through to the whole sweep
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"params": {"variant": "pwc-disk", "lambdas": [128.0, %s]}}' % token)
        with pytest.raises(ConfigError):
            cli_main(["convergence", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                      "--grid", "64"])
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,params", [
        ("convergence", '{"variant": "pwc-disk", "side": NaN}'),
        ("stability", '{"deltas": [0.1, Infinity]}'),
        ("scatter", '{"k": NaN}'),
        ("stability", '{"lens": {"half_width": 0.08, "height": -Infinity}}'),
    ], ids=["convergence-side", "stability-deltas", "scatter-k", "stability-lens"])
    def test_non_finite_param_refused_before_any_output(self, tmp_path, experiment, params):
        # unchecked, these end in an untyped error, or in one raised only after
        # the CSV files are written (stability) or after 300 GMRES steps (scatter)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"params": %s}' % params)
        with pytest.raises(ConfigError, match="finite"):
            cli_main([experiment, "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                      "--grid", "64"])
        assert not (tmp_path / "o").exists()

    def test_grid_that_is_not_a_power_of_two_refused_before_any_output(self, tmp_path):
        # FourierGrid refuses it too, but with an untyped error and only once a
        # runner builds its grid
        for n in (100, 1, 3):
            with pytest.raises(ConfigError, match="power of two"):
                run_counterexample(ExperimentConfig(name="counterexample",
                                                    out_dir=str(tmp_path / "o"), grid_n=n))
        with pytest.raises(ConfigError, match="power of two"):
            cli_main(["counterexample", "--grid", "100", "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    def test_non_finite_number_in_potential_description_refused(self):
        desc = json.loads(json.dumps(PWC_DISK_POTENTIAL))
        desc["pieces"][0]["q"]["value"] = [1.0, float("nan")]
        with pytest.raises(ConfigError, match="potential"):
            ExperimentConfig(name="convergence", params={"variant": "pwc-disk",
                                                         "potential": desc})

    @pytest.mark.parametrize("key", ["delta", "potential_file"])
    def test_unknown_runner_param_refused(self, tmp_path, key):
        # a typo of "deltas", and a key only convergence reads
        path = tmp_path / "v.json"
        path.write_text(json.dumps(PWC_DISK_POTENTIAL))
        value = str(path) if key == "potential_file" else [0.1]
        cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path / "o"), grid_n=64,
                               params={key: value})
        with pytest.raises(ConfigError, match=key):
            run_stability(cfg)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,text", [
        ("convergence", '{"variant": "pwc-disk"}'),                 # params key at top level
        ("convergence", '[1, 2]'),                                  # not a JSON object
        ("convergence", '{"params": {"variant": "pwc-disk"'),       # unparseable
        ("convergence", '{"params": ["pwc-disk"]}'),                # params not an object
        ("stability", '{"params": {"lens": {"half_widht": 0.08}}}'),  # misspelt nested key
        # boundary-route keys with the route off, which nothing would read
        ("convergence", '{"params": {"variant": "pwc-disk", "n_r": 7}}'),
        ("convergence", '{"params": {"variant": "pwc-disk", "mesh_nodes": 99}}'),
        ("convergence", '{"params": {"boundary_route": false, "mesh_nodes": 128}}'),
        # the route follows the variant, and the counterexample's closed forms
        # hold for its rhombus only
        ("convergence", '{"params": {"variant": "pwc-disk", "boundary_route": true}}'),
        ("counterexample", '{"params": {"potential": {}}}'),
        # malformed potential descriptions, which ended in an untyped ValueError or KeyError
        ("convergence", _pwc_potential_config(lambda d: d["pieces"][0]["q"].update(type="x"))),
        ("convergence", _pwc_potential_config(lambda d: d.pop("s"))),
        ("convergence", _pwc_potential_config(lambda d: d["pieces"][0].update(domain="ball"))),
        ("convergence", _pwc_potential_config(lambda d: d.update(s=3.5))),
        # sizes out of range, which ended in an untyped error or a misnamed
        # NearSingular, most of them after the output directory was made
        ("scatter", '{"params": {"n_angles": 48}}'),
        ("scatter", '{"params": {"nystrom_n": 48}}'),
        ("scatter", '{"params": {"k": 0.0}}'),
        ("scatter", '{"params": {"k": -4.0}}'),
        ("stability", '{"params": {"lens": {"half_width": -0.08}}}'),
        ("convergence", '{"params": {"variant": "pwc-disk", '
                        '"mask_grid": {"lo": 0.5, "hi": -0.5, "n": 0}}}'),
        ("convergence", '{"params": {"variant": "pwc-disk", '
                        '"mask_grid": {"lo": -0.5, "hi": 0.5, "n": "5"}}}'),
    ], ids=["top-level-key", "not-an-object", "unparseable", "params-not-an-object",
            "nested-key", "unread-n_r", "unread-mesh_nodes", "route-off-mesh_nodes",
            "route-on-pwc-disk", "counterexample-potential", "potential-piece-type",
            "potential-missing-s", "potential-undefined-domain", "potential-s-3.5",
            "n_angles-48", "nystrom_n-48", "k-zero", "k-negative", "negative-half-width",
            "empty-mask-grid", "mask-grid-n-string"])
    def test_bad_config_file_refused_before_any_output(self, tmp_path, experiment, text):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(text)
        with pytest.raises(ConfigError):
            cli_main([experiment, "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                      "--grid", "64"])
        assert not (tmp_path / "o").exists()

    def test_boundary_mesh_refused_before_any_output(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text('{"params": {"mesh_nodes": 10}}')
        with pytest.raises(DomainError, match="64 nodes"):
            cli_main(["convergence", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                      "--grid", "64"])
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        '{"grid_n": "64"}', '{"grid_n": true}', '{"grid_n": 0}', '{"grid_n": 64.0}',
        '{"seed": -1}', '{"seed": "5"}', '{"jobs": 0}', '{"jobs": false}',
        '{"params": {"lambdas": 8}}', '{"params": {"lambdas": [5.0, "7"]}}',
        '{"params": {"lambdas": [5.0, true]}}',
    ])
    def test_config_value_of_wrong_type_refused(self, tmp_path, text):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(text)
        with pytest.raises(ConfigError):
            cli_main(["counterexample", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_jobs_refused_where_no_runner_reads_it(self, tmp_path, source):
        # only convergence runs its sweeps on workers; lemmas would run serially
        args = ["lemmas", "--out", str(tmp_path / "o"), "--grid", "64"]
        if source == "flag":
            args += ["--jobs", "2"]
        else:
            cfgfile = tmp_path / "c.json"
            cfgfile.write_text('{"jobs": 2}')
            args += ["--config", str(cfgfile)]
        with pytest.raises(ConfigError, match="convergence"):
            cli_main(args)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("params", [
        {"n_r": "64"}, {"n_r": 1}, {"n_r": 64.0}, {"lens": {"half_width": "0.08"}},
        {"deltas": 0.1},
    ], ids=["n_r-string", "n_r-one", "n_r-float", "nested-string", "list-as-number"])
    def test_runner_param_of_wrong_type_or_range_refused(self, tmp_path, params):
        cfg = ExperimentConfig(name="stability", out_dir=str(tmp_path / "o"), grid_n=64,
                               params=params)
        with pytest.raises(ConfigError):
            run_stability(cfg)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,params", [
        ("counterexample", {"t_values": ["0.5"]}),
        ("stability", {"deltas": ["0.1"]}),
        ("scatter", {"epsilons": ["0.2"]}),
        ("convergence", {"variant": "pwc-disk", "probes": [["a", 0.0]]}),
        ("stability", {"probes": [[0.1]]}),
        ("counterexample", {"t_values": []}),
        ("scatter", {"epsilons": []}),
        ("convergence", {"variant": "pwc-disk", "probes": []}),
        ("counterexample", {"lambdas": []}),
        ("lemmas", {"phase_probes": []}),
        ("stability", {"deltas": []}),
    ], ids=["string-element", "string-delta", "string-epsilon", "string-coordinate",
            "one-coordinate", "empty-t", "empty-epsilons", "empty-probes", "empty-lambdas",
            "empty-phase-probes", "empty-deltas"])
    def test_list_param_checked_element_by_element(self, tmp_path, experiment, params):
        # elements of the default's first element's kind, and no empty list for a
        # non-empty default, refused before the output directory exists
        cfg = ExperimentConfig(name=experiment, out_dir=str(tmp_path / "o"), grid_n=64,
                               params=params)
        with pytest.raises(ConfigError):
            RUNNERS[experiment](cfg)
        assert not (tmp_path / "o").exists()

    def test_lemma_side_too_small_for_the_taper_refused(self, tmp_path):
        # the critical fields' taper (radius 0.3) would reach the padding band at side/4
        cfg = ExperimentConfig(name="lemmas", out_dir=str(tmp_path / "o"), grid_n=64,
                               params={"side": 1.0})
        with pytest.raises(ConfigError, match="side"):
            run_lemma_checks(cfg)
        assert not (tmp_path / "o").exists()

    def test_growth_rings_checked_like_the_top_level(self, tmp_path):
        cfg = ExperimentConfig(name="lemmas", out_dir=str(tmp_path / "o"), grid_n=64,
                               params={"growth": {"n_r": 1}})
        with pytest.raises(ConfigError, match="n_r"):
            run_lemma_checks(cfg)
        assert not (tmp_path / "o").exists()

    def test_partial_lens_group_merges_over_its_defaults(self, tmp_path):
        base = {"deltas": [0.05], "mesh_nodes": 64, "n_r": 64}
        summaries = [run_stability(ExperimentConfig(
            name="stability", out_dir=str(tmp_path / d), grid_n=64, params=extra))
            for d, extra in (("a", base), ("b", {**base, "lens": {"half_width": 0.08}}))]
        assert summaries[0] == summaries[1]

    def test_partial_growth_group_keeps_the_other_defaults(self):
        cfg = ExperimentConfig(name="lemmas", params={"growth": {"lambdas": [4.0, 8.0]}})
        growth = _merge_params(cfg, lemma_defaults(), groups=("growth",))["growth"]
        assert growth == {**lemma_defaults()["growth"], "lambdas": [4.0, 8.0]}


class TestScheduleLambda:
    def test_equation_roundoff(self):
        for gap in (1e-3, 1e-5, 2.5e-7):
            d = 0.3
            lam = schedule_lambda(gap, d)
            assert abs(lam - (-np.log(gap) / (6 * d**2))) <= 1e-12 * lam

    def test_guards(self):
        assert schedule_lambda(0.0, 1.0) == np.inf  # vanished gap: any lam allowed
        for gap in (1.5, -1e-3, np.nan):
            with pytest.raises(ConfigError):
                schedule_lambda(gap, 1.0)


def _small_ce_config(out, **extra):
    params = {"t_values": [1.0], "lambdas": [5.0, 7.0, 9.0, 11.0]}
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

    def test_lemmas_outputs_byte_identical(self, tmp_path):
        # the smoothing-operator norms start ARPACK from a seeded vector; 64^2
        # under-resolves the largest lambdas
        for d in ("a", "b"):
            with pytest.warns(RuntimeWarning, match="under-resolved"):
                run_lemma_checks(ExperimentConfig(name="lemmas", out_dir=str(tmp_path / d),
                                                  grid_n=64))
        for name in ("lemma_summary.json", "lemma_checks.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_samples_csv_cells_are_numbers(self, tmp_path):
        cfg = ExperimentConfig(name="scatter", out_dir=str(tmp_path), grid_n=64,
                               params={"nystrom_n": 32, "n_angles": 64, "cutoff": 16})
        run_scatter(cfg)
        with open(tmp_path / "far_field_samples.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["i_eta", "j_theta", "re", "im"]
        # float() raises on a NumPy repr such as np.float64(0.1)
        values = [[float(cell) for cell in row] for row in rows[1:]]
        assert len(values) == 16 * 16

    def test_far_field_blob_exact_and_checked(self, tmp_path):
        rng = np.random.default_rng(3)
        data = FarFieldData.from_samples(
            4.0, rng.standard_normal((64, 128)) + 1j * rng.standard_normal((64, 128)))
        path = tmp_path / "f.ffd"
        _save_far_field(path, data)
        back = load_far_field(path)
        assert (back.k, back.samples.shape) == (4.0, (64, 128))
        assert np.array_equal(back.coeffs, data.coeffs)
        path.write_bytes(b"DTNBLOB1" + path.read_bytes()[8:])
        with pytest.raises(BlobFormatError):
            load_far_field(path)

    @pytest.mark.parametrize("shape", [(128,), (3, 64, 64), (32, 32), (64, 96)])
    def test_far_field_blob_off_the_angle_grid_refused(self, tmp_path, shape):
        path = tmp_path / "f.ffd"
        write_blob(path, _FF_MAGIC, {"k": 4.0}, np.ones(shape, dtype=complex))
        with pytest.raises(BlobFormatError):
            load_far_field(path)

    def test_far_field_blob_without_k_refused(self, tmp_path):
        path = tmp_path / "f.ffd"
        write_blob(path, _FF_MAGIC, {}, np.ones((64, 64), dtype=complex))
        with pytest.raises(BlobFormatError, match="'k'"):
            load_far_field(path)

    def test_one_epsilon_writes_null_halving_ratio(self, tmp_path, capsys):
        cfgfile = tmp_path / "s.json"
        cfgfile.write_text(json.dumps({"params": {"nystrom_n": 32, "n_angles": 64,
                                                  "cutoff": 16, "epsilons": [0.2]}}))
        assert cli_main(["scatter", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "halving ratio n/a" in out
        assert "np.float64" not in out
        text = (tmp_path / "scatter_summary.json").read_text()
        assert '"halving_ratio": null' in text
        assert json.loads(text)["halving_ratio"] is None


class TestLemmaRunner:
    @pytest.mark.parametrize("lam", [16.0, 64.0])
    @pytest.mark.parametrize("s1, s2", [(0.25, 0.5), (0.5, 0.25)])
    def test_s1_opnorm_is_the_dense_2_norm(self, lam, s1, s2):
        # the weighted operator on Fourier coefficients, one column per unit vector
        g = FourierGrid(32, 2.0)
        p = PhaseParams(lam, (0.03, -0.02))
        w_out, w_in_inv = homogeneous_weight(g, s2), homogeneous_weight(g, -s1)
        M = np.empty((32 * 32, 32 * 32), complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lam = 64 is under-resolved here
            for j in range(32 * 32):
                e = np.zeros(32 * 32, complex)
                e[j] = 1.0
                f = s1_apply(ComplexField(g, ifft2(w_in_inv * e.reshape(32, 32))), p,
                             check_support=False)
                M[:, j] = (w_out * fft2(f.values)).ravel()
            got = _s1_opnorm(g, lam, s1, s2, np.random.default_rng(0))
        assert got == pytest.approx(np.linalg.norm(M, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
    def test_critical_fields_keep_the_padding_margin(self, n):
        # the correction-field sweep hands these to solve_w, which guards the band
        g = FourierGrid(n, lemma_defaults()["side"])
        rng = np.random.default_rng(n)
        for _ in range(3):
            check_padding_support(_critical_field(g, rng, 0.25, 0.8))

    def test_zero_like_trivial(self, tmp_path):
        # smoke only: the full suite is exercised by the acceptance module
        cfg = ExperimentConfig(name="lemmas", out_dir=str(tmp_path), grid_n=64,
                               params={"growth": {"disk_radius": 1.0, "mesh_nodes": 64,
                                                  "n_r": 48, "lambdas": [2.0, 4.0],
                                                  "sigma": 0.25, "amp": 0.2,
                                                  "x": [0.2, -0.1], "side": 4.0}})
        with pytest.warns(RuntimeWarning, match="under-resolved"):  # 64^2 at the largest lambdas
            summary = run_lemma_checks(cfg)
        names = {c["name"] for c in summary["checks"]}
        assert "phase_mul_duality_decay" in names
        assert "special_solution_growth" in names
        assert os.path.exists(os.path.join(tmp_path, "lemma_checks.csv"))


class TestCli:
    def test_convergence_records_and_prints_the_worst_alias_margin(self, tmp_path, capsys):
        lams = [24.0, 32.0, 48.0]
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "params": {"variant": "pwc-disk", "lambdas": lams, "mask_grid": None}}))
        out_dir = tmp_path / "o"
        assert cli_main(["convergence", "--config", str(cfgfile),
                         "--out", str(out_dir), "--grid", "64"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("x=")]
        summary = json.loads((out_dir / "convergence_pwc-disk_summary.json").read_text())
        V = rasterize(potential_from_description(PWC_DISK_POTENTIAL), FourierGrid(64, 4.0))
        assert len(lines) == len(summary["per_point"]) > 0
        for line, e in zip(lines, summary["per_point"]):
            assert e["alias_margin"] == min(
                alias_margin(V, PhaseParams(lam, tuple(e["x"]))) for lam in lams)
            assert line.endswith(f"alias margin {e['alias_margin']:.3f}")

    def test_counterexample_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({
            "params": {"t_values": [1.0], "lambdas": [5.0, 7.0, 9.0]}}))
        rc = cli_main(["counterexample", "--config", str(cfgfile),
                       "--out", str(tmp_path / "o"), "--grid", "128", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rel err" in out
        assert (tmp_path / "o" / "counterexample_summary.json").exists()

    def test_config_file_sets_grid_and_seed(self, tmp_path, monkeypatch):
        seen = []

        def runner(cfg):
            seen.append(cfg)
            return {"checks": []}

        monkeypatch.setitem(RUNNERS, "lemmas", runner)
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"grid_n": 64, "seed": 7}))
        assert cli_main(["lemmas", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert cli_main(["lemmas", "--config", str(cfgfile), "--seed", "9"]) == 0
        assert [(c.name, c.grid_n, c.seed, c.out_dir) for c in seen] == [
            ("lemmas", 64, 7, str(tmp_path)), ("lemmas", 64, 9, "out_lemmas")]

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["does-not-exist"])
