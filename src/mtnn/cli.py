"""Experiment plumbing: gen-data, train, eval, and mpc subcommands.

Config-file-first: every command reads one JSON file and pulls its own
section out of it, so any run is reproducible from the file and the seed it
records. Outputs land in the config's out_dir; manifests are written last
and never carry timestamps, which keeps reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import model as md
from . import mpc as ctrl
from . import plants as pl
from . import training as tr
from .net import TrainingFault


class ConfigError(Exception):
    """Bad or incomplete experiment configuration."""


PLANTS = {"hvac": pl.HvacPlant, "tclab": pl.TcLabPlant}

# accepted keys of the root and fixed sections; plant takes kind, noise_sigma and
# its plant class's fields, mpc takes bundle, steps and the fields of MpcConfig
TOP_KEYS = {"seed", "out_dir", "plant", "split", "train", "eval", "mpc"}
SECTION_KEYS = {
    "split": {"n_train", "n_test"},
    "train": {"variants", "width", "epochs", "weight_decay", "learning_rate"},
    "eval": {"steps"},
}


def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} not found")
    with open(p) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(config, TOP_KEYS, "top-level")
    for key in sorted(SECTION_KEYS.keys() & config.keys()):
        _check_keys(_section(config, key), SECTION_KEYS[key], key)
    return config


def _check_keys(section: dict, known, where: str) -> None:
    unknown = section.keys() - known
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {sorted(unknown)}")


def _section(config: dict, key: str) -> dict:
    if key not in config:
        raise ConfigError(f"config missing required section {key!r}")
    sec = config[key]
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return sec


def _path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return Path(value)


def _out_dir(config: dict) -> Path:
    if "out_dir" not in config:
        raise ConfigError("config missing required key 'out_dir'")
    out = _path(config["out_dir"], "out_dir")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(config: dict) -> int:
    if "seed" not in config:
        raise ConfigError("config missing required key 'seed'")
    return pl.integer(config["seed"], "seed", 0)


def _plant_kind(section: dict) -> str:
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in PLANTS:
        raise ConfigError(f"plant.kind must be 'hvac' or 'tclab', got {kind!r}")
    _check_keys(section, {"kind", "noise_sigma", *PLANTS[kind].__dataclass_fields__},
                "plant")
    return kind


def _plant(section: dict):
    """(kind, plant) of the plant section: the kind's class on its fields."""
    kind = _plant_kind(section)
    fields = {k: v for k, v in section.items() if k not in ("kind", "noise_sigma")}
    try:
        return kind, PLANTS[kind](**fields)
    except ValueError as e:  # a field of the wrong type or out of range
        raise ConfigError(f"bad plant field: {e}") from None


def _variant_list(config: dict, override=None) -> list:
    """The variants to run: the `--variants` list when given, else
    `train.variants`, which must be a non-empty list when present; all seven
    when the key is absent."""
    key, names = ("--variants", override) if override is not None else (
        "train.variants", _section(config, "train").get("variants", list(tr.VARIANTS)))
    if not (isinstance(names, list) and names):
        raise ConfigError(f"{key} must be a list of variant names, got {names!r}")
    unknown = [n for n in names if n not in tr.VARIANTS]
    if unknown:
        raise ConfigError(
            f"{key} names unknown variants {unknown}; choose from {list(tr.VARIANTS)}"
        )
    return list(names)


def _slice(series: pl.Series, a: int, b: int) -> pl.Series:
    return pl.Series(series.t[a:b], series.x[a:b], series.u[a:b])


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen_data(config: dict) -> int:
    """Simulate the configured benchmark and write train/test CSVs."""
    out = _out_dir(config)
    seed = _seed(config)
    plant_sec = _section(config, "plant")
    kind, plant = _plant(plant_sec)
    # the split keys the config sets; the builder's defaults fill the rest
    sizes = {k: pl.integer(v, f"split.{k}", 1) for k, v in config.get("split", {}).items()}
    noise = pl.real(plant_sec.get("noise_sigma", 0.05), "plant.noise_sigma")
    build = pl.hvac_benchmark if kind == "hvac" else pl.tclab_dataset
    try:
        ds = build(seed, noise_sigma=noise, plant=plant, **sizes)
    except RuntimeError as e:  # the hvac range shift failed on this room
        raise ConfigError(f"{kind} benchmark on {plant}: {e}") from None
    series, n_train, n_test = ds.series, len(ds.train), len(ds.test)
    # consecutive transitions need a 2-sample overlap between the files
    pl.save_csv(_slice(series, 0, n_train + 2), out / "train.csv", *plant.columns)
    pl.save_csv(_slice(series, n_train, n_train + n_test + 2), out / "test.csv",
                *plant.columns)
    _write_json(out / "gen_manifest.json", {
        "seed": seed,
        "plant": {"kind": kind, **asdict(plant)},
        "noise_sigma": noise,
        "split": {"n_train": n_train, "n_test": n_test},
        "files": {"train": "train.csv", "test": "test.csv"},
    })
    return 0


def _load_transitions(path) -> pl.Transitions:
    if not Path(path).exists():
        raise ConfigError(f"dataset {path} not found; run gen-data first")
    return pl.to_transitions(pl.load_csv(path))


def cmd_train(config: dict, variants=None) -> int:
    """Fit the requested variants on train.csv; one bundle file each."""
    out = _out_dir(config)
    seed = _seed(config)
    kind = _plant_kind(_section(config, "plant"))
    train_sec = _section(config, "train")
    names = _variant_list(config, variants)
    width = pl.integer(train_sec.get("width", tr.STUDY_WIDTH), "train.width", 1)
    epochs = pl.integer(train_sec.get("epochs", tr.STUDY_EPOCHS), "train.epochs", 1)
    wd = pl.real(train_sec.get("weight_decay", tr.STUDY_WEIGHT_DECAY), "train.weight_decay")
    fixed_rate = train_sec.get("learning_rate")
    if fixed_rate is not None:
        fixed_rate = pl.real(fixed_rate, "train.learning_rate", positive=True)
    data = _load_transitions(out / "train.csv")
    spec = PLANTS[kind]().mono_spec()
    manifest = {"seed": seed, "width": width, "epochs": epochs,
                "weight_decay": wd, "variants": {}}
    failures = []
    for name in names:
        entry = {}
        try:
            if fixed_rate is None:
                cfg = tr.TrainConfig(epochs=epochs, weight_decay=wd)
                untrained = tr.build_variant(name, spec, data, width=width, seed=seed)
                model, hist, rate, report = tr.lr_sweep(untrained, data, cfg)
                entry["learning_rate"] = rate
                entry["sweep"] = {
                    repr(r): (float(v) if np.isfinite(v) else None)
                    for r, v in report.items()
                }
            else:
                model, hist = tr.train_variant(
                    name, spec, data, seed=seed, width=width, epochs=epochs,
                    weight_decay=wd, learning_rate=fixed_rate,
                )
                entry["learning_rate"] = fixed_rate
            md.save_bundle(model, out / f"{name}.json")
            hist.save_csv(out / f"{name}_history.csv")
            entry["bundle"] = f"{name}.json"
            entry["final_loss"] = float(hist.total[-1])
        except TrainingFault as e:
            print(f"warning: variant {name} diverged: {e}", file=sys.stderr)
            entry["fault"] = str(e)
            failures.append(name)
        manifest["variants"][name] = entry
    _write_json(out / "train_manifest.json", manifest)
    if failures:
        print(f"error: {len(failures)} variant(s) failed: {failures}",
              file=sys.stderr)
        return 1
    return 0


def cmd_eval(config: dict) -> int:
    """Multi-step rollout table over the trained bundles, in config order."""
    out = _out_dir(config)
    names = _variant_list(config)
    steps = pl.integer(config.get("eval", {}).get("steps", 5), "eval.steps", 1)
    data = _load_transitions(out / "test.csv")
    models = {}
    for name in names:
        path = out / f"{name}.json"
        if not path.exists():
            print(f"skipping {name}: no bundle at {path}", file=sys.stderr)
            continue
        models[name] = md.load_bundle(path)
    if not models:
        raise ConfigError(f"no bundles found in {out}; run train first")
    table = ev.comparison_table(models, data, steps=steps)
    table.save_csv(out / "table.csv")
    return 0


def cmd_mpc(config: dict) -> int:
    """Closed-loop run of a saved model against the configured simulator."""
    out = _out_dir(config)
    _, plant = _plant(_section(config, "plant"))
    mpc_sec = _section(config, "mpc")
    steps = pl.integer(mpc_sec.get("steps", 60), "mpc.steps", 1)
    cfg = ctrl.MpcConfig.from_dict({k: v for k, v in mpc_sec.items()
                                    if k not in ("bundle", "steps")})
    if "bundle" not in mpc_sec:
        raise ConfigError("mpc section needs a 'bundle' path")
    bundle = _path(mpc_sec["bundle"], "mpc.bundle")
    if not bundle.is_absolute():
        bundle = out / bundle
    if not bundle.exists():
        raise ConfigError(f"bundle {bundle} not found")
    model = md.load_bundle(bundle)
    trace = ctrl.run_closed_loop(plant, model, cfg, steps)
    trace.save_csv(out / "trace.csv")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtnn",
        description="Taylor-predictor identification and control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("gen-data", "simulate a benchmark and write train/test CSVs"),
        ("train", "fit model variants on the generated data"),
        ("eval", "tabulate multi-step rollout metrics per variant"),
        ("mpc", "run the receding-horizon loop against the simulator"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment JSON file")
        if name == "train":
            p.add_argument(
                "--variants",
                help="comma-separated subset overriding the config's list",
            )
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "gen-data":
            return cmd_gen_data(config)
        if args.command == "train":
            override = None if args.variants is None else args.variants.split(",")
            return cmd_train(config, override)
        if args.command == "eval":
            return cmd_eval(config)
        return cmd_mpc(config)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
