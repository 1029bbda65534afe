"""Run configuration loading and the command-line entry points."""

import csv
import json

import numpy as np
import pytest
import yaml

import stationsense as ss
from stationsense import cli
from stationsense.cli import main
from stationsense.config import config_from_dict, config_to_dict
from stationsense.nnkit import read_bundle
from stationsense.pipeline import scenario_hash


class TestConfig:
    def test_defaults(self):
        cfg = ss.RunConfig()
        assert cfg.scenario.n_stations == 8
        assert cfg.windowing.width_s == 2.0
        assert cfg.training.downstream.batch_size == 256

    def test_round_trip_through_yaml(self, tmp_path):
        desk_run = ss.RunConfig(scenario=ss.desk_scenario(), windowing=ss.desk_windowing())
        desk_training = ss.RunConfig(training=ss.desk_settings())  # encoder_widths (64,)
        for cfg in (desk_run, desk_training):
            p = tmp_path / "cfg.yaml"
            ss.dump_config(cfg, p)
            back = ss.load_config(str(p))
            assert back.scenario == cfg.scenario
            assert back.windowing == cfg.windowing
            assert back.training == cfg.training
            assert back.sweep == cfg.sweep

    def test_partial_overrides(self):
        cfg = config_from_dict(
            {
                "scenario": {"duration_s": 60.0, "noise_std": 0.02},
                "windowing": {"label_rate_hz": 5.0},
                "training": {"downstream": {"learning_rate": 0.01, "batch_size": 64}},
                "sweep": {"seeds": [5]},
            }
        )
        assert cfg.scenario.duration_s == 60.0
        assert cfg.scenario.n_stations == 8  # untouched default
        assert cfg.windowing.label_rate_hz == 5.0
        assert cfg.training.downstream.learning_rate == 0.01
        assert cfg.sweep.seeds == (5,)

    @pytest.mark.parametrize(
        "section",
        ["scenario", "scenario.outage", "windowing", "training", "training.pretrain",
         "training.downstream", "training.vicreg", "sweep"],
    )
    def test_unknown_key_and_null_section_raise(self, section):
        def doc(leaf):
            for key in reversed(section.split(".")):
                leaf = {key: leaf}
            return leaf

        with pytest.raises(TypeError):
            config_from_dict(doc({"no_such_key": 1}))
        with pytest.raises(TypeError):
            config_from_dict(doc(None))

    @pytest.mark.parametrize(
        "doc",
        [{"training": {"mode": "bogus"}}, {"training": {"aug_strategy": "nope"}},
         {"training": {"naive_variant": "x"}}, {"windowing": {"ssl_rate_hz": 30.0}},
         {"windowing": {"split_ratios": [0, 0, 0]}}, {"windowing": {"split_ratios": [7, -1, 1.5]}},
         {"training": {"p_mask_sma": 1.5}}, {"training": {"p_mask_crossl": -0.2}},
         {"training": {"p_aug": 2.0}}, {"training": {"dae_lr": -1}},
         {"windowing": {"width_s": -1}}, {"windowing": {"label_rate_hz": 0}},
         {"windowing": {"label_rate_hz": -2.0, "ssl_rate_hz": -1.0}},
         {"scenario": {"outage": {"mean_gap_s": -60.0}}}, {"scenario": {"outage": {"mean_len_s": -5.0}}},
         {"scenario": {"noise_std": -0.01}}, {"scenario": {"n_stations": 0}},
         {"training": {"embedding_dim": 0}}, {"training": {"aggregator_hidden": [0, 8]}},
         {"training": {"encoder_widths": [0]}}, {"scenario": {"k_raw": 0}}, {"scenario": {"k_raw": -3}}],
        ids=["mode", "aug_strategy", "naive_variant", "ssl_rate", "zero_ratios", "negative_ratio",
             "p_mask_sma", "p_mask_crossl", "p_aug", "dae_lr", "width", "zero_label_rate",
             "negative_rates", "negative_gap", "negative_outage_len", "negative_noise",
             "no_stations", "zero_embedding", "zero_aggregator_width", "zero_encoder_width",
             "zero_subcarriers", "negative_subcarriers"],
    )
    def test_bad_values_raise_at_load(self, doc):
        # a bad string, rate, windowing, layer width or scenario fails when
        # the YAML loads, not part-way through a sweep, a simulation, a
        # dataset build or a training run, and not silently
        with pytest.raises(ValueError):
            config_from_dict(doc)

    def test_yaml_integers_in_float_fields_load_as_floats(self):
        # run_grid labels its Monte Carlo stream with the ratio, so [1] and
        # [1.0] must draw the same station combinations
        cfg = config_from_dict(
            {"sweep": {"label_ratios": [1], "available_station_counts": [1, 4]},
             "training": {"p_mask_sma": 1, "dae_lr": 1, "encoder_widths": [4]}}
        )
        assert cfg.sweep.label_ratios == (1.0,) and type(cfg.sweep.label_ratios[0]) is float
        assert type(cfg.training.p_mask_sma) is float and cfg.training.p_mask_sma == 1.0
        assert type(cfg.training.dae_lr) is float
        # integer hints keep their integers
        assert cfg.sweep.available_station_counts == (1, 4)
        assert type(cfg.sweep.available_station_counts[0]) is int
        assert type(cfg.training.encoder_widths[0]) is int

    def test_scenario_hash_ignores_how_a_float_is_written(self):
        def hashed(duration):
            return scenario_hash(config_from_dict({"scenario": {"duration_s": duration}}).scenario)

        assert hashed(600) == hashed(600.0)

    def test_to_dict_yaml_safe(self):
        doc = config_to_dict(ss.RunConfig())
        yaml.safe_dump(doc)  # must not choke on tuples/arrays
        json.dumps(doc)

    def test_load_none_gives_defaults(self):
        assert ss.load_config(None) == ss.RunConfig()

    def test_desk_presets(self):
        assert ss.desk_scenario().duration_s == 600.0
        w = ss.desk_windowing()
        assert w.ssl_rate_hz > w.label_rate_hz
        s = ss.desk_settings()
        assert s.mode == "frozen"
        assert s.aug_strategy == "online"


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Tiny scenario config + built datasets shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "scenario": {"duration_s": 60.0},
        "windowing": {"label_rate_hz": 4.0, "ssl_rate_hz": 6.0},
        "training": {
            "pretrain": {"learning_rate": 1e-3, "batch_size": 256, "max_epochs": 4, "patience": 2},
            "downstream": {"learning_rate": 1e-3, "batch_size": 128, "max_epochs": 6, "patience": 3},
        },
        "sweep": {
            "available_station_counts": [8],
            "label_ratios": [1.0],
            "seeds": [0],
        },
    }
    cfg_path = root / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    data_dir = root / "data"
    rc = main(
        ["--config", str(cfg_path), "--seed", "0", "--out-dir", str(data_dir), "build-dataset"]
    )
    assert rc == 0
    return root, cfg_path, data_dir


class TestCli:
    def test_build_dataset_outputs(self, cli_workspace):
        _, _, data_dir = cli_workspace
        for name in ("train", "val", "test", "unlabeled"):
            d = ss.load_dataset(data_dir / f"{name}.bin")
            assert d.n > 0
            assert (d.labels is None) == (name == "unlabeled")

    def test_build_dataset_is_build_datasets(self, cli_workspace):
        # build-dataset --seed 0 writes what the Python API builds for seed 0
        _, cfg_path, data_dir = cli_workspace
        cfg = ss.load_config(str(cfg_path))
        prov = {"scenario_hash": scenario_hash(cfg.scenario), "seed": 0}
        for want in ss.build_datasets(cfg.scenario, cfg.windowing, 0):
            got = ss.load_dataset(data_dir / f"{want.split}.bin")
            # the CLI adds the run's hash and seed to the built split's provenance
            assert got.split == want.split and got.provenance == {**want.provenance, **prov}
            for name in ("x", "missing", "labels", "timestamps"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), (want.split, name)

    def test_simulate_writes_the_frames_build_dataset_windows(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        cfg = ss.load_config(str(cfg_path))
        out = tmp_path / "sim"
        assert main(["--config", str(cfg_path), "--seed", "0", "--out-dir", str(out), "simulate"]) == 0
        rows = np.loadtxt(out / "frames.csv", delimiter=",", skiprows=1, ndmin=2)
        streams = []
        for d in range(cfg.scenario.n_stations):
            r = rows[rows[:, 0] == d]
            values = np.empty((len(r), cfg.scenario.k_raw), complex)
            values.real, values.imag = r[:, 2::2], r[:, 3::2]
            streams.append(ss.CsiStream(d, r[:, 1], values))
        traj = ss.gen_trajectory(cfg.scenario, ss.RandomStream(0, "sim"))
        train = ss.build_labeled_dataset(streams, traj, cfg.windowing.labeled_spec(), cfg.windowing.split_ratios)[0]
        want = ss.load_dataset(data_dir / "train.bin")
        assert train.x.tobytes() == want.x.tobytes()
        assert train.missing.tobytes() == want.missing.tobytes()

    def test_simulate_outputs(self, cli_workspace, tmp_path):
        _, cfg_path, _ = cli_workspace
        out = tmp_path / "sim"
        assert main(["--config", str(cfg_path), "--out-dir", str(out), "simulate"]) == 0
        with open(out / "trajectory.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 600  # 60 s probed at 10 Hz
        assert all(0.0 <= float(r["label"]) <= 1.0 for r in rows)
        with open(out / "frames.csv") as f:
            header = f.readline().strip().split(",")
        assert header[:2] == ["station", "timestamp"]
        assert len(header) == 2 + 2 * 64

    def test_pretrain_train_evaluate_chain(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        fx_path = tmp_path / "fx.ck"
        rc = main(
            ["--config", str(cfg_path), "pretrain",
             "--dataset", str(data_dir / "unlabeled.bin"), "--out", str(fx_path)]
        )
        assert rc == 0
        fx = ss.load_checkpoint(fx_path, "feature_extractor")
        assert fx.n_stations == 8

        model_path = tmp_path / "model.ck"
        rc = main(
            ["--config", str(cfg_path), "train",
             "--labeled", str(data_dir / "train.bin"),
             "--method", "proposed", "--extractor", str(fx_path), "--out", str(model_path)]
        )
        assert rc == 0
        model = ss.load_checkpoint(model_path, "sensing_model")
        assert model.extractor is not None

        # evaluate takes k, the policy and the draw count from the YAML's sweep
        metrics_path, eval_path = tmp_path / "metrics.csv", tmp_path / "eval.yaml"
        eval_path.write_text(yaml.safe_dump({"sweep": {"available_station_counts": [1, 8]}}))
        rc = main(
            ["--config", str(eval_path), "evaluate", "--model", str(model_path),
             "--dataset", str(data_dir / "test.bin"), "--out", str(metrics_path)]
        )
        assert rc == 0
        with open(metrics_path) as f:
            rows = list(csv.DictReader(f))
        assert [r["k_available"] for r in rows] == ["1", "8"]
        assert all(float(r["rmse"]) >= 0 for r in rows)
        eval_path.write_text(yaml.safe_dump(
            {"sweep": {"available_station_counts": [4], "combination_policy": "monte_carlo",
                       "n_draws": 3}}))
        assert main(["--config", str(eval_path), "--seed", "2", "evaluate", "--model", str(model_path),
                     "--dataset", str(data_dir / "test.bin"), "--out", str(metrics_path)]) == 0
        with open(metrics_path) as f:
            (row,) = csv.DictReader(f)
        want = ss.eval_at_availability(model, ss.load_dataset(data_dir / "test.bin"), 4,
                                       "monte_carlo", 3, ss.RandomStream(2, "mc/4"))
        assert float(row["rmse"]) == want
        eval_path.write_text(yaml.safe_dump(
            {"sweep": {"combination_policy": "monte_carlo", "n_draws": 0}}))
        with pytest.raises(ValueError, match="n_draws"):
            main(["--config", str(eval_path), "evaluate", "--model", str(model_path),
                  "--dataset", str(data_dir / "test.bin")])

    def test_train_identity_extractor(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        model_path = tmp_path / "naive.ck"
        rc = main(
            ["--config", str(cfg_path), "train",
             "--labeled", str(data_dir / "train.bin"), "--out", str(model_path)]
        )
        assert rc == 0
        assert ss.load_checkpoint(model_path, "sensing_model").extractor is None

    def test_cli_trains_what_train_method_trains(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        fx_path, model_path = tmp_path / "fx.ck", tmp_path / "model.ck"
        assert main(["--config", str(cfg_path), "pretrain",
                     "--dataset", str(data_dir / "unlabeled.bin"), "--out", str(fx_path)]) == 0
        assert main(["--config", str(cfg_path), "train",
                     "--labeled", str(data_dir / "train.bin"), "--method", "proposed",
                     "--extractor", str(fx_path), "--out", str(model_path)]) == 0
        train, test, unlabeled = (
            ss.load_dataset(data_dir / f"{n}.bin") for n in ("train", "test", "unlabeled")
        )
        want = ss.train_method(
            "proposed", train, unlabeled, ss.load_config(str(cfg_path)).training, 0
        ).predict(test.x)
        got = ss.load_checkpoint(model_path, "sensing_model").predict(test.x)
        np.testing.assert_array_equal(got, want)

    def test_pretrain_takes_every_setting_from_the_yaml(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        doc = yaml.safe_load(cfg_path.read_text())
        doc["training"].update(encoder_widths=[5], p_mask_crossl=0.3, vicreg={"gamma": 0.5})
        yaml_path = tmp_path / "cfg.yaml"
        yaml_path.write_text(yaml.safe_dump(doc))
        fx_path = tmp_path / "fx.ck"
        assert main(["--config", str(yaml_path), "pretrain",
                     "--dataset", str(data_dir / "unlabeled.bin"), "--out", str(fx_path)]) == 0
        fx = ss.load_checkpoint(fx_path, "feature_extractor")
        assert fx.encoders is not None and fx.encoder_dim == 5
        meta = read_bundle(fx_path)[0]["meta"]
        assert meta["p_mask"] == 0.3
        assert meta["vicreg"][3] == 0.5  # [lam, mu, nu, gamma, epsilon]

    def test_factory_naive_takes_its_extractor_shape_from_the_yaml(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        doc = yaml.safe_load(cfg_path.read_text())
        doc["training"].update(naive_variant="factory", encoder_widths=[5], embedding_dim=8)
        yaml_path = tmp_path / "cfg.yaml"
        yaml_path.write_text(yaml.safe_dump(doc))
        model_path = tmp_path / "naive.ck"
        assert main(["--config", str(yaml_path), "train",
                     "--labeled", str(data_dir / "train.bin"), "--out", str(model_path)]) == 0
        fx = ss.load_checkpoint(model_path, "sensing_model").extractor
        assert fx.encoders is not None and fx.encoder_dim == 5
        assert fx.embedding_dim == 8

    def test_train_rejects_other_methods_and_dropped_flags(self, cli_workspace, tmp_path,
                                                          monkeypatch):
        _, cfg_path, data_dir = cli_workspace

        def fail(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cli, "train_method", fail)
        labeled = ["--labeled", str(data_dir / "train.bin"), "--out", str(tmp_path / "m.ck")]
        for extra in (["--method", "constant"], ["--aug", "sma"], ["--mode", "joint"]):
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg_path), "train", *labeled, *extra])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["pretrain", "--dataset", str(data_dir / "unlabeled.bin"),
                  "--out", str(tmp_path / "fx.ck"), "--p-mask", "0.3"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit, match="--extractor"):
            main(["--config", str(cfg_path), "train", *labeled, "--method", "proposed"])
        with pytest.raises(ValueError, match="ratio"):
            main(["--config", str(cfg_path), "train", *labeled, "--label-ratio", "1.5"])
        assert not (tmp_path / "m.ck").exists() and not (tmp_path / "fx.ck").exists()

    def test_sweep_and_report(self, cli_workspace, tmp_path):
        _, cfg_path, data_dir = cli_workspace
        out = tmp_path / "sweep"
        rc = main(
            ["--config", str(cfg_path), "--out-dir", str(out), "sweep",
             "--data-dir", str(data_dir), "--methods", "constant,naive"]
        )
        assert rc == 0
        with open(out / "metrics.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["method"] for r in rows} == {"constant", "naive"}
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["methods"] == ["constant", "naive"]

        summary_path = tmp_path / "summary.csv"
        rc = main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(summary_path)])
        assert rc == 0
        with open(summary_path) as f:
            srows = list(csv.DictReader(f))
        assert {r["method"] for r in srows} == {"constant", "naive"}

    def test_pca_export(self, cli_workspace, tmp_path):
        _, _, data_dir = cli_workspace
        out = tmp_path / "pca.csv"
        rc = main(
            ["pca-export", "--train", str(data_dir / "train.bin"),
             "--test", str(data_dir / "test.bin"), "--k", "8", "4", "--out", str(out)]
        )
        assert rc == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        train, test = ss.load_dataset(data_dir / "train.bin"), ss.load_dataset(data_dir / "test.bin")
        assert len(rows) == 2 * test.n
        assert {r["availability"] for r in rows} == {"8", "4"}
        # k = 8 keeps every station, so its rows project the raw test vectors
        _, want = ss.pca_export(train.x.reshape(train.n, -1), test.x.reshape(test.n, -1))
        got = [[float(r["pc1"]), float(r["pc2"])] for r in rows if r["availability"] == "8"]
        np.testing.assert_array_equal(got, want)
