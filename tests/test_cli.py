"""End-to-end checks for the mtnn command line: each subcommand against a
small TCLab run, plus the default HVAC split sizes and the determinism
contract (same config, same seed => byte-identical outputs)."""

import json
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from mtnn import cli
from mtnn import evaluation as ev
from mtnn import model as md
from mtnn import plants as pl
from mtnn import training as tr


def base_config(out_dir, variants=("taylor1", "soft1")):
    return {
        "seed": 3,
        "out_dir": str(out_dir),
        "plant": {"kind": "tclab", "noise_sigma": 0.05},
        "split": {"n_train": 40, "n_test": 20},
        "train": {"variants": list(variants), "width": 4, "epochs": 30,
                  "learning_rate": 1e-3},
        "eval": {"steps": 3},
    }


def write_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return str(path)


def run(*args):
    return cli.main(list(args))


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One shared gen-data + train pass; tests that mutate it copy first."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    cfg = base_config(out)
    cfg_path = write_config(cfg, root / "config.json")
    assert run("gen-data", "--config", cfg_path) == 0
    assert run("train", "--config", cfg_path) == 0
    return out, cfg


def clone_run(trained_run, tmp_path):
    """Private copy of the shared run for tests that delete or overwrite."""
    out, cfg = trained_run
    dest = tmp_path / "run"
    shutil.copytree(out, dest)
    new_cfg = dict(cfg, out_dir=str(dest))
    return dest, write_config(new_cfg, tmp_path / "config.json")


class TestGenData:
    def test_default_hvac_split_counts(self, tmp_path):
        cfg = {"seed": 0, "out_dir": str(tmp_path / "d"),
               "plant": {"kind": "hvac"}}
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 0
        train = pl.to_transitions(pl.load_csv(tmp_path / "d" / "train.csv"))
        test = pl.to_transitions(pl.load_csv(tmp_path / "d" / "test.csv"))
        assert len(train) == 180
        assert len(test) == 100
        manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["plant"]["kind"] == "hvac"

    def test_default_tclab_split_counts(self, tmp_path):
        # the split the library's builder defaults to, recorded as it came out
        cfg = {"seed": 0, "out_dir": str(tmp_path / "d"),
               "plant": {"kind": "tclab"}}
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 0
        train = pl.to_transitions(pl.load_csv(tmp_path / "d" / "train.csv"))
        test = pl.to_transitions(pl.load_csv(tmp_path / "d" / "test.csv"))
        assert len(train) == 250
        assert len(test) == 60
        manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
        assert manifest["split"] == {"n_train": 250, "n_test": 60}
        assert manifest["plant"]["kind"] == "tclab"

    def test_seed_below_zero_is_an_error_naming_the_key(self, tmp_path, capsys):
        cfg = dict(base_config(tmp_path / "d"), seed=-1)
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 1
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "d" / "train.csv").exists()

    def test_split_matches_library_transitions(self, tmp_path):
        cfg = base_config(tmp_path / "d")
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 0
        ds = pl.tclab_dataset(3, n_train=40, n_test=20, noise_sigma=0.05)
        got_train = pl.to_transitions(pl.load_csv(tmp_path / "d" / "train.csv"))
        got_test = pl.to_transitions(pl.load_csv(tmp_path / "d" / "test.csv"))
        assert len(got_train) == len(ds.train)
        for got, want in zip(got_train, ds.train):
            np.testing.assert_array_equal(got.z_curr, want.z_curr)
            np.testing.assert_array_equal(got.x_next, want.x_next)
        np.testing.assert_array_equal(got_test[0].z_prev, ds.test[0].z_prev)
        np.testing.assert_array_equal(got_test[-1].x_next, ds.test[-1].x_next)

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg = base_config(tmp_path / tag)
            assert run("gen-data", "--config",
                       write_config(cfg, tmp_path / f"{tag}.json")) == 0
            outs.append(tmp_path / tag)
        for name in ("train.csv", "test.csv", "gen_manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_seed_changes_the_data(self, tmp_path):
        blobs = []
        for seed in (0, 1):
            cfg = dict(base_config(tmp_path / str(seed)), seed=seed)
            assert run("gen-data", "--config",
                       write_config(cfg, tmp_path / f"{seed}.json")) == 0
            blobs.append((tmp_path / str(seed) / "train.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_simulates_the_configured_plant(self, tmp_path):
        cfg = dict(base_config(tmp_path / "d"),
                   plant={"kind": "tclab", "alpha1": 0.008, "noise_sigma": 0.0})
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 0
        manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
        assert manifest["plant"] == {"kind": "tclab",
                                     **asdict(pl.TcLabPlant(alpha1=0.008))}
        # noise-free, so every sample is the configured plant stepped
        plant = pl.TcLabPlant(alpha1=0.008)
        series = pl.load_csv(tmp_path / "d" / "train.csv")
        np.testing.assert_allclose(series.x[1:], plant.step(series.x[:-1], series.u[:-1]),
                                   rtol=1e-14)
        default = pl.TcLabPlant().step(series.x[:-1], series.u[:-1])
        assert not np.allclose(series.x[1:], default)

    def test_cooler_room_keeps_the_range_shift(self, tmp_path):
        cfg = {"seed": 0, "out_dir": str(tmp_path / "d"),
               "plant": {"kind": "hvac", "T_amb": 70.0}}
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 0
        manifest = json.loads((tmp_path / "d" / "gen_manifest.json").read_text())
        assert manifest["plant"]["T_amb"] == 70.0
        train = pl.to_transitions(pl.load_csv(tmp_path / "d" / "train.csv"))
        test = pl.to_transitions(pl.load_csv(tmp_path / "d" / "test.csv"))
        assert max(t.x_next[0] for t in train) < min(t.x_next[0] for t in test) + 1.0

    @pytest.mark.parametrize("k_a,message", [(0.5, "range shift failed"),
                                             ("hot", "bad plant field")])
    def test_unusable_room_is_a_one_line_error(self, tmp_path, capsys, k_a, message):
        cfg = {"seed": 0, "out_dir": str(tmp_path / "d"),
               "plant": {"kind": "hvac", "k_a": k_a}}
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "d" / "gen_manifest.json").exists()

    @pytest.mark.parametrize("kind,split", [("tclab", {"n_train": 0}),
                                            ("tclab", {"n_train": -1, "n_test": 3}),
                                            ("tclab", {"n_train": -5, "n_test": 1}),
                                            ("hvac", {"n_train": -10, "n_test": 3})])
    def test_split_sizes_must_be_positive(self, tmp_path, capsys, kind, split):
        # checked before simulating: a split too small to simulate names itself
        cfg = dict(base_config(tmp_path / "d"), split=split, plant={"kind": kind})
        assert run("gen-data", "--config", write_config(cfg, tmp_path / "c.json")) == 1
        err = capsys.readouterr().err
        assert err == f"error: split.n_train must be an integer >= 1, got {split['n_train']}\n"
        assert not (tmp_path / "d" / "train.csv").exists()

    def test_missing_plant_section_names_the_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "d")
        del cfg["plant"]
        rc = run("gen-data", "--config", write_config(cfg, tmp_path / "c.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "plant" in err

    def test_bad_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert run("gen-data", "--config", str(path)) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("gen-data", "--config", str(tmp_path / "nope.json")) == 1
        assert "not found" in capsys.readouterr().err


class TestTrain:
    def test_one_bundle_per_variant(self, trained_run):
        out, cfg = trained_run
        bundles = sorted(p.name for p in out.glob("*.json")
                         if not p.name.endswith("manifest.json"))
        assert bundles == ["soft1.json", "taylor1.json"]
        assert (out / "taylor1_history.csv").exists()
        assert (out / "soft1_history.csv").exists()

    def test_manifest_records_rate_and_bundle_records_soft_gate(self, trained_run):
        out, _ = trained_run
        manifest = json.loads((out / "train_manifest.json").read_text())
        entry = manifest["variants"]["soft1"]
        assert entry["learning_rate"] == 1e-3 and entry["bundle"] == "soft1.json"
        # the hinges a variant trains with follow from its bundle's gate mode
        bundle = json.loads((out / "soft1.json").read_text())
        assert (bundle["gate_mode"], bundle["order"]) == ("soft", "first")

    def test_bundles_load_and_roll(self, trained_run):
        out, _ = trained_run
        model = md.load_bundle(out / "soft1.json")
        data = pl.to_transitions(pl.load_csv(out / "test.csv"))
        res = ev.rollout(model, data, steps=2)
        assert np.all(np.isfinite(res.rmse))

    def test_retrain_is_byte_identical(self, trained_run, tmp_path):
        dest, cfg_path = clone_run(trained_run, tmp_path)
        before = {p.name: p.read_bytes() for p in dest.iterdir()}
        assert run("train", "--config", cfg_path) == 0
        for name in ("taylor1.json", "soft1.json", "train_manifest.json",
                      "taylor1_history.csv"):
            assert dest.joinpath(name).read_bytes() == before[name], name

    def test_variants_flag_overrides_config(self, tmp_path):
        cfg = base_config(tmp_path / "d")
        cfg_path = write_config(cfg, tmp_path / "c.json")
        assert run("gen-data", "--config", cfg_path) == 0
        assert run("train", "--config", cfg_path, "--variants", "mono1") == 0
        out = tmp_path / "d"
        assert (out / "mono1.json").exists()
        assert not (out / "taylor1.json").exists()

    def test_unknown_variant_is_an_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "d", variants=("taylor9",))
        cfg_path = write_config(cfg, tmp_path / "c.json")
        assert run("gen-data", "--config", cfg_path) == 0
        assert run("train", "--config", cfg_path) == 1
        assert "taylor9" in capsys.readouterr().err

    def test_train_without_data_says_gen_first(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "empty")
        rc = run("train", "--config", write_config(cfg, tmp_path / "c.json"))
        assert rc == 1
        assert "gen-data" in capsys.readouterr().err

    def test_sweep_path_records_rate_and_report(self, tmp_path):
        cfg = base_config(tmp_path / "d", variants=("taylor1",))
        del cfg["train"]["learning_rate"]
        cfg["train"]["epochs"] = 10
        cfg_path = write_config(cfg, tmp_path / "c.json")
        assert run("gen-data", "--config", cfg_path) == 0
        assert run("train", "--config", cfg_path) == 0
        manifest = json.loads((tmp_path / "d" / "train_manifest.json").read_text())
        entry = manifest["variants"]["taylor1"]
        assert entry["learning_rate"] in tr.SWEEP_RATES
        assert len(entry["sweep"]) == len(tr.SWEEP_RATES)


class TestEval:
    def test_table_matches_direct_library_call(self, trained_run, tmp_path):
        dest, cfg_path = clone_run(trained_run, tmp_path)
        assert run("eval", "--config", cfg_path) == 0
        data = pl.to_transitions(pl.load_csv(dest / "test.csv"))
        models = {name: md.load_bundle(dest / f"{name}.json")
                  for name in ("taylor1", "soft1")}
        want = ev.comparison_table(models, data, steps=3)
        want.save_csv(tmp_path / "want.csv")
        assert (dest / "table.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_column_order_follows_config(self, trained_run, tmp_path):
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = base_config(dest, variants=("soft1", "taylor1"))
        cfg_path = write_config(cfg, tmp_path / "rev.json")
        assert run("eval", "--config", cfg_path) == 0
        header = (dest / "table.csv").read_text().splitlines()[0]
        assert header.index("soft1") < header.index("taylor1")

    def test_missing_bundle_skipped_and_listed(self, trained_run, tmp_path, capsys):
        dest, cfg_path = clone_run(trained_run, tmp_path)
        (dest / "soft1.json").unlink()
        assert run("eval", "--config", cfg_path) == 0
        err = capsys.readouterr().err
        assert "soft1" in err
        header = (dest / "table.csv").read_text().splitlines()[0]
        assert "taylor1" in header and "soft1" not in header

    def test_bundle_that_is_not_an_object_is_a_clean_error(self, trained_run, tmp_path,
                                                           capsys):
        dest, cfg_path = clone_run(trained_run, tmp_path)
        (dest / "soft1.json").write_text("[]\n")
        assert run("eval", "--config", cfg_path) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [("weights", float("nan")),
                                            ("in_scale", float("inf"))])
    def test_bundle_with_a_non_finite_number_is_a_clean_error(self, trained_run, tmp_path,
                                                              capsys, field, bad):
        dest, cfg_path = clone_run(trained_run, tmp_path)
        d = json.loads((dest / "soft1.json").read_text())
        row = d["nets"][0][field]
        while isinstance(row[0], list):
            row = row[0]
        row[0] = bad
        (dest / "soft1.json").write_text(json.dumps(d))  # writes NaN / Infinity
        assert run("eval", "--config", cfg_path) == 1
        assert f"'{field}' holds a non-finite number" in capsys.readouterr().err

    def test_no_bundles_at_all_is_an_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "d")
        cfg_path = write_config(cfg, tmp_path / "c.json")
        assert run("gen-data", "--config", cfg_path) == 0
        assert run("eval", "--config", cfg_path) == 1
        assert "error:" in capsys.readouterr().err


class TestMpc:
    def mpc_section(self, **kw):
        sec = {"bundle": "taylor1.json", "steps": 4, "horizon": 2,
               "iterations": 3, "x_ref": [50.0, 40.0],
               "u_min": [30.0, 20.0], "u_max": [65.0, 65.0],
               "x0": [30.0, 30.0]}
        sec.update(kw)
        return sec

    def test_trace_written_with_expected_shape(self, trained_run, tmp_path):
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = dict(base_config(dest), mpc=self.mpc_section())
        assert run("mpc", "--config", write_config(cfg, tmp_path / "m.json")) == 0
        lines = (dest / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,T1,T2,Q1,Q2,cost,converged,iterations,exit"
        assert len(lines) == 1 + 4

    def test_rerun_is_byte_identical(self, trained_run, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            dest, _ = clone_run(trained_run, tmp_path / tag)
            cfg = dict(base_config(dest), mpc=self.mpc_section(steps=6, iterations=20))
            assert run("mpc", "--config", write_config(cfg, tmp_path / f"{tag}.json")) == 0
            blobs.append((dest / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]
        rows = blobs[0].decode().splitlines()[1:]
        assert len(rows) == 6 and all(int(r.split(",")[-2]) >= 1 for r in rows)

    def test_pinned_inputs_stay_pinned(self, trained_run, tmp_path):
        dest, _ = clone_run(trained_run, tmp_path)
        pinned = self.mpc_section(u_min=[40.0, 25.0], u_max=[40.0, 25.0])
        cfg = dict(base_config(dest), mpc=pinned)
        assert run("mpc", "--config", write_config(cfg, tmp_path / "m.json")) == 0
        rows = (dest / "trace.csv").read_text().splitlines()[1:]
        q1 = [float(r.split(",")[3]) for r in rows]
        q2 = [float(r.split(",")[4]) for r in rows]
        assert q1 == [40.0] * 4
        assert q2 == [25.0] * 4

    def test_missing_bundle_is_a_clean_error(self, trained_run, tmp_path, capsys):
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = dict(base_config(dest), mpc=self.mpc_section(bundle="nope.json"))
        rc = run("mpc", "--config", write_config(cfg, tmp_path / "m.json"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "not found" in err

    def test_missing_mpc_section(self, trained_run, tmp_path, capsys):
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = base_config(dest)
        rc = run("mpc", "--config", write_config(cfg, tmp_path / "m.json"))
        assert rc == 1
        assert "mpc" in capsys.readouterr().err


class TestHvacRoom:
    def test_mpc_controls_the_room_gen_data_simulates(self, tmp_path):
        out = tmp_path / "run"
        cfg = {"seed": 0, "out_dir": str(out), "plant": {"kind": "hvac"},
               "train": {"variants": ["taylor1"], "width": 4, "epochs": 30,
                         "learning_rate": 1e-3},
               "mpc": {"bundle": "taylor1.json", "steps": 4, "horizon": 2,
                       "iterations": 3, "x_ref": [72.0], "u_min": [55.0, 0.1],
                       "u_max": [60.0, 1.0], "x0": [74.0]}}
        path = write_config(cfg, tmp_path / "c.json")
        for command in ("gen-data", "train", "mpc"):
            assert run(command, "--config", path) == 0
        manifest = json.loads((out / "gen_manifest.json").read_text())
        assert manifest["plant"] == {"kind": "hvac", **asdict(pl.HvacPlant())}
        # every traced state is the manifest's plant stepped from the last one
        fields = {k: v for k, v in manifest["plant"].items() if k != "kind"}
        plant = pl.HvacPlant(**fields)
        rows = np.array([[float(v) for v in line.split(",")[:-1]]  # the last is the exit
                         for line in (out / "trace.csv").read_text().splitlines()[1:]])
        x, u = rows[:, 1:2], rows[:, 2:4]
        want = [plant.step(np.array([74.0]), np.zeros(2))]
        want += [plant.step(x[k], u[k]) for k in range(len(x) - 1)]
        assert np.array_equal(x, np.array(want))


class TestConfigKeys:
    INTEGER_KEYS = [  # (command, section or None for the root, key)
        ("gen-data", None, "seed"),
        ("gen-data", "split", "n_train"),
        ("gen-data", "split", "n_test"),
        ("train", "train", "width"),
        ("train", "train", "epochs"),
        ("eval", "eval", "steps"),
        ("mpc", "mpc", "steps"),
        ("mpc", "mpc", "horizon"),
        ("mpc", "mpc", "iterations"),
    ]

    def run_with(self, trained_run, tmp_path, command, section, key, value):
        """Run `command` on a copy of the shared run with one config key set."""
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = dict(base_config(dest), mpc=TestMpc().mpc_section())
        (cfg if section is None else cfg[section])[key] = value
        return run(command, "--config", write_config(cfg, tmp_path / "k.json"))

    @pytest.mark.parametrize("value", [2.5, float("inf"), "3", True, "least - 1",
                                       pytest.param(10**400, id="huge_int")])
    @pytest.mark.parametrize("command,section,key", INTEGER_KEYS)
    def test_non_integer_is_an_error_naming_the_key(self, trained_run, tmp_path, capsys,
                                                     command, section, key, value):
        least = 0 if key == "seed" else 1
        if value == "least - 1":  # 0, or -1 for the seed
            value = least - 1
        assert self.run_with(trained_run, tmp_path, command, section, key, value) == 1
        name = key if section is None else f"{section}.{key}"
        err = capsys.readouterr().err
        assert err == f"error: {name} must be an integer >= {least}, got {value!r}\n"

    @pytest.mark.parametrize("command,section", [("eval", "eval"), ("mpc", "mpc")])
    def test_bad_steps_rejected_before_any_bundle_loads(self, trained_run, tmp_path, capsys,
                                                        monkeypatch, command, section):
        def load_bundle(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(md, "load_bundle", load_bundle)
        assert self.run_with(trained_run, tmp_path, command, section, "steps", 0) == 1
        err = capsys.readouterr().err
        assert err == f"error: {section}.steps must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("key,value,message", [
        ("tol", "1e-3", "mpc.tol must be a number or a vector of numbers, got '1e-3'"),
        ("tol", 0.0, "mpc.tol must be positive"),
        ("u_min", [70.0, 20.0], "need mpc.u_min <= mpc.u_max elementwise"),
        ("u_max", [65.0], "mpc.u_max must have length 2"),
        ("q_diag", -1.0, "mpc.q_diag entries must be nonnegative"),
        ("x_max", [10.0, 10.0], "need mpc.x_min <= mpc.x_max elementwise"),
        ("x0", [30.0, float("inf")], "mpc.x0 must be finite"),
        ("x_ref", None, "mpc.x_ref is required"),  # None: the key is left out
    ])
    def test_bad_mpc_field_is_an_error_naming_its_key(self, trained_run, tmp_path, capsys,
                                                       key, value, message):
        dest, _ = clone_run(trained_run, tmp_path)
        section = TestMpc().mpc_section(x_min=[20.0, 20.0], **{key: value})
        if value is None:
            del section[key]
        cfg = dict(base_config(dest), mpc=section)
        assert run("mpc", "--config", write_config(cfg, tmp_path / "m.json")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command,section,key,value,message", [
        ("gen-data", None, "out_dir", 5, "out_dir must be a string, got 5"),
        ("mpc", "mpc", "bundle", 5, "mpc.bundle must be a string, got 5"),
        ("gen-data", "plant", "kind", ["hvac"],
         "plant.kind must be 'hvac' or 'tclab', got ['hvac']"),
        ("train", "plant", "kind", "room", "plant.kind must be 'hvac' or 'tclab', got 'room'"),
        ("train", "train", "variants", 5, "train.variants must be a list of variant names, got 5"),
        ("eval", "train", "variants", "taylor1",
         "train.variants must be a list of variant names, got 'taylor1'"),
        ("train", "train", "variants", [], "train.variants must be a list of variant names, got []"),
        ("eval", "train", "variants", None,
         "train.variants must be a list of variant names, got None"),
        ("train", "train", "weight_decay", -1,
         "train.weight_decay must be a finite real number >= 0, got -1"),
        ("train", "train", "learning_rate", 0,
         "train.learning_rate must be a finite real number > 0, got 0"),
        ("train", "train", "learning_rate", -1e-3,
         "train.learning_rate must be a finite real number > 0, got -0.001"),
        ("gen-data", "plant", "noise_sigma", -1,
         "plant.noise_sigma must be a finite real number >= 0, got -1"),
    ])
    def test_bad_value_is_one_error_line_naming_its_key(self, trained_run, tmp_path, capsys,
                                                        command, section, key, value, message):
        assert self.run_with(trained_run, tmp_path, command, section, key, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integral_float_is_accepted(self, trained_run, tmp_path):
        assert self.run_with(trained_run, tmp_path, "train", "train", "epochs", 3.0) == 0
        manifest = json.loads((tmp_path / "run" / "train_manifest.json").read_text())
        assert manifest["epochs"] == 3 and isinstance(manifest["epochs"], int)
        assert len((tmp_path / "run" / "taylor1_history.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("command,section,key", [
        ("gen-data", None, "sed"),
        ("gen-data", "split", "n_trian"),
        ("train", "train", "learning_rte"),
        ("eval", "eval", "step"),
        ("gen-data", "plant", "bogus"),
        ("mpc", "plant", "bogus"),
    ])
    def test_unknown_key_is_an_error_naming_it(self, trained_run, tmp_path, capsys,
                                               command, section, key):
        assert self.run_with(trained_run, tmp_path, command, section, key, 1) == 1
        where = "top-level" if section is None else section
        assert f"unknown {where} config keys: ['{key}']" in capsys.readouterr().err

    def test_plant_fields_are_accepted(self, trained_run, tmp_path):
        assert self.run_with(trained_run, tmp_path, "mpc", "plant", "k_loss", 0.008) == 0

    @pytest.mark.parametrize("command,kind,section,key,value", [
        ("gen-data", "tclab", "plant", "noise_sigma", None),
        ("gen-data", "tclab", "plant", "noise_sigma", [1]),
        ("gen-data", "tclab", "plant", "noise_sigma", -0.05),
        ("gen-data", "hvac", "plant", "noise_sigma", -0.05),
        ("gen-data", "hvac", "plant", "T_amb", None),
        ("gen-data", "tclab", "plant", "T_amb", None),
        ("gen-data", "tclab", "plant", "T_amb", float("nan")),
        ("gen-data", "tclab", "plant", "dt", 0),
        ("gen-data", "hvac", "plant", "mdot_max", 0.0),
        ("train", "tclab", "train", "weight_decay", None),
        ("train", "tclab", "train", "learning_rate", "0.01"),
        ("mpc", "tclab", "bundle", "symmetrize_hessian", "false"),
        # integers too large for a float
        pytest.param("gen-data", "tclab", "plant", "T_amb", 10**400,
                     id="gen-data-tclab-plant-T_amb-huge_int"),
        pytest.param("gen-data", "tclab", "plant", "noise_sigma", 10**400,
                     id="gen-data-tclab-plant-noise_sigma-huge_int"),
        pytest.param("train", "tclab", "train", "epochs", 10**400,
                     id="train-tclab-train-epochs-huge_int"),
        pytest.param("train", "tclab", "train", "learning_rate", 10**400,
                     id="train-tclab-train-learning_rate-huge_int"),
        pytest.param("train", "tclab", "train", "weight_decay", 10**400,
                     id="train-tclab-train-weight_decay-huge_int"),
    ])
    def test_malformed_number_is_an_error_naming_its_key(self, trained_run, tmp_path, capsys,
                                                          command, kind, section, key, value):
        dest, _ = clone_run(trained_run, tmp_path)
        cfg = dict(base_config(dest), mpc=TestMpc().mpc_section())
        if kind == "hvac":  # the default room and split, whose range shift holds
            cfg["plant"] = {"kind": "hvac"}
            del cfg["split"]
        if section == "bundle":  # a field of the bundle the mpc section names
            path = dest / cfg["mpc"]["bundle"]
            path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
        else:
            cfg[section][key] = value
        csvs = {p.name: p.read_bytes() for p in dest.glob("*.csv")}
        assert run(command, "--config", write_config(cfg, tmp_path / "k.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert {p.name: p.read_bytes() for p in dest.glob("*.csv")} == csvs


class TestFullChain:
    def test_gen_train_eval_rerun_matches_bytes(self, tmp_path):
        tables = []
        for tag in ("a", "b"):
            cfg = base_config(tmp_path / tag, variants=("mono1",))
            cfg["train"]["epochs"] = 25
            cfg_path = write_config(cfg, tmp_path / f"{tag}.json")
            for command in ("gen-data", "train", "eval"):
                assert run(command, "--config", cfg_path) == 0
            out = tmp_path / tag
            tables.append((out / "table.csv").read_bytes()
                          + (out / "mono1.json").read_bytes()
                          + (out / "train_manifest.json").read_bytes())
        assert tables[0] == tables[1]
