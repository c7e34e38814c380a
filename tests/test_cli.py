"""End-to-end tests of the command line interface."""

import configparser
import csv
import dataclasses
import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from pedorient import cli as cli_module
from pedorient import config
from pedorient import synth as synth_module
from pedorient.cli import (
    CompareSettings,
    GradcheckSettings,
    _load_ini,
    _model_config,
    _parse_factors,
    _settings,
    _synth_config,
    main,
)
from pedorient.model import ModelConfig, forward_batch, load_model, make_batch
from pedorient.nn_core import Tape
from pedorient.synth import SynthConfig, gen_dataset, read_dataset

TINY_INI = """\
[synth]
n = 60
seed = 0
context_width = 8
box_noise_sd = 1.0
context_noise = 0.5

[model]
num_bins = 4
encoder_hidden = 8, 8
proc_hidden = 8, 12
head_hidden = 8

[train]
seed = 0
batch_size = 8
momentum = 0.9
lr_schedule = 60:1e-3
holdout_fraction = 0.2

[compare]
seeds = 0

[gradcheck]
batch_size = 4
max_entries_per_param = 4
"""

GT_LINES = """\
Pedestrian 0.0 0 0.1 100 100 130 160 1.7 0.6 0.5 1 1 10 0.5
Pedestrian 0.0 0 0.2 300 100 340 170 1.8 0.7 0.4 2 1 12 -2.0
DontCare -1 -1 -10 500 100 560 160 -1 -1 -1 -1000 -1000 -1000 -10
Person_sitting 0.0 0 0.3 700 100 730 150 1.2 0.6 0.8 3 1 15 1.0
"""

DET_LINES = """\
Pedestrian 0.0 0 0.1 100 100 130 160 1.7 0.6 0.5 1 1 10 0.5 0.90
Pedestrian 0.0 0 0.2 300 100 340 170 1.8 0.7 0.4 2 1 12 -2.0 0.85
Pedestrian 0.0 0 0.3 505 105 555 155 1.7 0.6 0.5 5 1 20 1.2 0.95
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny ini plus generated data and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    assert main(["gen", "--config", str(ini), "--out", str(root / "gen")]) == 0
    assert main(["train", "--config", str(ini),
                 "--data", str(root / "gen" / "dataset.txt"),
                 "--out", str(root / "train")]) == 0
    return {"root": root, "ini": ini,
            "data": root / "gen" / "dataset.txt",
            "model": root / "train" / "model.npz"}


def assert_refused_by_name(argv, flag, capsys):
    """A deleted flag: the parser names it, exits 2 and prints nothing."""
    with pytest.raises(SystemExit) as info:
        main([*argv, flag])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {flag}\n" in err


SCHEDULE = tuple[tuple[int, float], ...]


class TestScheduleParsing:
    def test_parse(self):
        assert config.coerce("600:1e-3,1400:1e-4", SCHEDULE) == ((600, 1e-3), (1400, 1e-4))
        assert config.coerce("10:0.5", SCHEDULE) == ((10, 0.5),)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            config.coerce("600", SCHEDULE)
        with pytest.raises(ValueError):
            config.coerce("", SCHEDULE)


def ini_text(value) -> str:
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        return ",".join(f"{a}:{b}" for a, b in value)
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else str(value)


class TestConfig:
    SYNTH = dict(n=7, seed=3, box_noise_sd=0.5, context_noise=0.25, context_width=9)
    MODEL = dict(num_bins=3, encoder_hidden=(5, 6),
                 proc_hidden=(7, 8), head_hidden=9, use_feedforward=False,
                 use_consistency_loss=True)
    TRAIN = dict(seed=4, batch_size=5, momentum=0.8, lr_schedule=((3, 0.01), (4, 0.001)))
    COMPARE = dict(seeds=(4, 5))
    GRADCHECK = dict(batch_size=3, max_entries_per_param=7)

    def write(self, tmp_path, sections) -> str:
        path = tmp_path / "cfg.ini"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {ini_text(v)}\n" for k, v in values.items())
            for name, values in sections.items()))
        return str(path)

    def test_every_field_reaches_the_dataclass(self, tmp_path):
        for cls, values in ((SynthConfig, self.SYNTH), (ModelConfig, {**self.MODEL, **self.TRAIN}),
                            (CompareSettings, self.COMPARE),
                            (GradcheckSettings, self.GRADCHECK)):
            defaults = {f.name: f.default for f in dataclasses.fields(cls)}
            assert set(values) == set(defaults)
            assert all(defaults[k] != v for k, v in values.items())
        cp = _load_ini(self.write(tmp_path, {"synth": self.SYNTH, "model": self.MODEL,
                                             "train": self.TRAIN, "compare": self.COMPARE,
                                             "gradcheck": self.GRADCHECK}))
        assert _settings(CompareSettings, cp, "compare") == CompareSettings(**self.COMPARE)
        assert _settings(GradcheckSettings, cp, "gradcheck") == GradcheckSettings(**self.GRADCHECK)
        assert _synth_config(cp) == SynthConfig(**self.SYNTH)
        assert _model_config(cp) == ModelConfig(**self.MODEL, **self.TRAIN)
        assert _synth_config(cp, seed=11, n=2) == SynthConfig(**{**self.SYNTH, "seed": 11, "n": 2})
        assert _model_config(cp, seed=12).seed == 12

    def test_defaults(self, tmp_path):
        cp = _load_ini(self.write(tmp_path, {"synth": {"seed": 2}}))
        assert _synth_config(cp) == SynthConfig(n=1000, seed=2)
        assert _model_config(cp) == ModelConfig()
        assert _settings(GradcheckSettings, cp, "gradcheck") == GradcheckSettings()

    def test_bad_keys_exit_1_naming_file_section_and_key(self, tmp_path, capsys):
        cases = [
            ({"synth": {"sede": 3}}, "synth", "sede"),
            ({"model": {"use_feedfoward": False}}, "model", "use_feedfoward"),
            ({"train": {"batch_sise": 8}}, "train", "batch_sise"),
            ({"synth": {"h1_min": 1.3}}, "synth", "h1_min"),
            ({"model": {"seed": 1}, "train": {"seed": 2}}, "train", "seed"),
            ({"model": {"use_feedforward": "maybe"}}, "model", "use_feedforward"),
            ({"model": {"encoder_hidden": (8, 8, 8)}}, "model", "encoder_hidden"),
            ({"compare": {"seed": 1}}, "compare", "seed"),
            ({"compare": {"seeds": "0, x"}}, "compare", "seeds"),
            ({"gradcheck": {"include_consistancy": False}}, "gradcheck", "include_consistancy"),
            ({"gradcheck": {"eps": 1e-5}}, "gradcheck", "eps"),
            ({"gradcheck": {"max_entries_per_param": "small"}}, "gradcheck",
             "max_entries_per_param"),
            ({"gradcheck": {"batch_size": 0}}, "gradcheck", "batch_size"),
            # Fixed by the method, in any unit: the vote threshold, the
            # consistency weight and the input scaling.
            ({"model": {"exclusion_tau_deg": 15}}, "model", "exclusion_tau_deg"),
            ({"model": {"exclusion_tau": 0.2618}}, "model", "exclusion_tau"),
            ({"model": {"consistency_weight": 0.01}}, "model", "consistency_weight"),
            ({"model": {"dims2d_scale": 0.01}}, "model", "dims2d_scale"),
        ]
        for sections, section, key in cases:
            path = self.write(tmp_path, sections)
            assert main(["gen", "--config", path, "--out", str(tmp_path / "g")]) == 1
            err = capsys.readouterr().err
            assert path in err and f"[{section}] {key}" in err, err

    def test_bad_synth_values_exit_1_naming_file_and_field(self, tmp_path, capsys):
        # Values that parse but that SynthConfig rejects: named by the
        # file, the key and the dataclass field.
        quick = (Path(__file__).resolve().parents[1] / "configs" / "quick.ini").read_text()
        for key, old, new in (("box_noise_sd", "1.0", "-1"), ("context_noise", "0.5", "1.5"),
                              ("context_width", "16", "2"), ("n", "4000", "-1")):
            path = tmp_path / "bad.ini"
            path.write_text(quick.replace(f"\n{key} = {old}\n", f"\n{key} = {new}\n", 1))
            assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: [synth] {key} = '{new}': {key} must"), err
        assert not (tmp_path / "g").exists()

    def test_first_rejected_key_as_written_is_named(self, tmp_path, capsys):
        # With two bad values the message names the one written first, and
        # gives that key's reason, whatever order the dataclass checks in.
        path = tmp_path / "bad.ini"
        for text, named in (
                ("[synth]\nbox_noise_sd = -1\ncontext_noise = 2\n",
                 "[synth] box_noise_sd = '-1': box_noise_sd must be finite and >= 0, got -1.0"),
                ("[synth]\ncontext_noise = 2\nbox_noise_sd = -1\n",
                 "[synth] context_noise = '2': context_noise must be in [0, 1], got 2.0"),
                ("[model]\nhead_hidden = 0\nnum_bins = 0\n",
                 "[model] head_hidden = '0': widths and batch_size must be >= 1")):
            path.write_text(text)
            assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
            assert capsys.readouterr() == ("", f"error: {path}: {named}\n")
        assert not (tmp_path / "g").exists()

    def test_bad_model_values_exit_1_naming_section_and_key(self, tmp_path, capsys):
        # Values that parse but that ModelConfig rejects, in [model] and
        # [train]; a key is named as written.
        quick = (Path(__file__).resolve().parents[1] / "configs" / "quick.ini").read_text()
        for section, key, old, new in (("model", "head_hidden", "64", "0"),
                                       ("model", "num_bins", "4", "0"),
                                       ("train", "momentum", "0.9", "1.5"),
                                       ("train", "lr_schedule", "400:1e-3,400:1e-4", "0:1e-3")):
            path = tmp_path / "bad.ini"
            path.write_text(quick.replace(f"{key} = {old}\n", f"{key} = {new}\n"))
            assert main(["train", "--config", str(path), "--data", "unread.txt",
                         "--out", str(tmp_path / "t")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: [{section}] {key} = '{new}': "), err
        # A bad value from the command line names its flag, not the file.
        path.write_text(quick)
        assert main(["gen", "--config", str(path), "--n", "-1",
                     "--out", str(tmp_path / "g")]) == 1
        assert capsys.readouterr().err == "error: --n -1: n must be >= 0, got -1\n"
        assert not (tmp_path / "t").exists() and not (tmp_path / "g").exists()

    def test_rejected_seed_flag_is_named(self, tmp_path, capsys):
        # A negative seed cannot seed an RNG; each command's --seed override
        # is rejected by its config, by name, before any output is written.
        quick = str(Path(__file__).resolve().parents[1] / "configs" / "quick.ini")
        for argv in (["gen", "--out", str(tmp_path / "g")],
                     ["train", "--data", "unread.txt", "--out", str(tmp_path / "t")],
                     ["gradcheck", "--out", str(tmp_path / "c")]):
            assert main([*argv, "--config", quick, "--seed", "-1"]) == 1
            assert capsys.readouterr().err == "error: --seed -1: seed must be >= 0, got -1\n"
        assert main(["compare", "--config", quick, "--data", "unread.txt",
                     "--out", str(tmp_path / "m"), "--seeds=0,-1"]) == 1
        assert capsys.readouterr().err == "error: --seeds 0,-1: seeds must be >= 0, got (0, -1)\n"
        # An empty list does not fall back to the [compare] seeds.
        assert main(["compare", "--config", quick, "--data", "unread.txt",
                     "--out", str(tmp_path / "m"), "--seeds="]) == 1
        assert capsys.readouterr().err == "error: --seeds : expected a non-empty list, got []\n"
        path = tmp_path / "bad.ini"
        path.write_text("[compare]\nseeds = 1, -1\n")
        assert main(["compare", "--config", str(path), "--data", "unread.txt",
                     "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err == (f"error: {path}: [compare] seeds = '1, -1':"
                                           " seeds must be >= 0, got (1, -1)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.ini"]

    def test_override_is_named_before_the_file_and_unknown_key_first(self):
        # _synth_config read directly, with no _load_ini pass first: an
        # unknown key is named before any value is checked, then a bad
        # override before a bad file value, and a file value is checked
        # even where an override replaces it.
        def named(text, **given):
            cp = configparser.ConfigParser()
            cp.read_string(text)
            with pytest.raises(ValueError) as e:
                _synth_config(cp, **given)
            return str(e.value)

        assert named("[synth]\nn = -1\nsede = 3\n", seed=-2) == "[synth] sede = '3': unknown key"
        assert named("[synth]\nn = -1\n", seed=-2) == "--seed -2: seed must be >= 0, got -2"
        assert named("[synth]\nn = -1\n", n=5) == "[synth] n = '-1': n must be >= 0, got -1"
        assert named("[synth]\ncontext_noise = 2\nn = -1\n") == \
            "[synth] context_noise = '2': context_noise must be in [0, 1], got 2.0"

    def test_unreadable_ini_exits_1_naming_the_file(self, tmp_path, capsys):
        for text, why in (("[synth]\nn = 5\nn = 6\n", "option 'n' in section 'synth' already exists"),
                          ("n = 5\n", "no section headers"),
                          ("[synth]\nseed = 5%\n", "'%' must be followed by")):
            path = tmp_path / "bad.ini"
            path.write_text(text)
            assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and why in err, err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("value, why", [("abc", "could not convert"),
                                            ("nan", "finite"),
                                            ("0.95", "outside")])
    def test_bad_holdout_fraction_exits_1_at_load(self, tmp_path, capsys, value, why):
        quick = (Path(__file__).resolve().parents[1] / "configs" / "quick.ini").read_text()
        path = tmp_path / "bad.ini"
        path.write_text(quick.replace("holdout_fraction = 0.1", f"holdout_fraction = {value}"))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: [train] holdout_fraction = '{value}': "), err
        assert why in err
        assert not (tmp_path / "g").exists()

    def test_teacher_forcing_key_is_unknown(self, tmp_path, capsys):
        # proc3d always reads the regressor's predicted 3D dimensions.
        path = tmp_path / "tf.ini"
        path.write_text(TINY_INI.replace("[model]\n", "[model]\nteacher_force_dims3d = true\n"))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
        assert capsys.readouterr().err == (f"error: {path}: [model] teacher_force_dims3d"
                                           " = 'true': unknown key\n")
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("section", ["model", "train"])
    def test_context_width_is_not_a_model_key(self, tmp_path, capsys, section):
        # The network reads the data's width: [synth] context_width sets it.
        path = tmp_path / "cw.ini"
        path.write_text(f"[{section}]\ncontext_width = 8\n")
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "g")]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: [{section}] context_width"
                                           " = '8': unknown key\n")
        assert not (tmp_path / "g").exists()


class TestGen:
    def test_outputs(self, workspace):
        data = workspace["data"]
        assert data.is_file()
        samples = read_dataset(data)
        assert len(samples) == 60
        assert samples[0].context.shape == (8,)
        manifest = json.loads((data.parent / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["n"] == 60
        assert str(data) in manifest["outputs"]
        assert manifest["tool_version"]

    def test_n_override(self, tmp_path, workspace):
        out = tmp_path / "gen5"
        assert main(["gen", "--config", str(workspace["ini"]),
                     "--out", str(out), "--n", "5"]) == 0
        assert len(read_dataset(out / "dataset.txt")) == 5

    def test_missing_config_fails(self, tmp_path, capsys):
        rc = main(["gen", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_outputs(self, workspace):
        out = workspace["model"].parent
        assert workspace["model"].is_file()
        with open(out / "loss_log.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "lr", "total", "dims",
                           "orientation", "consistency"]
        assert len(rows) == 61
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["evaluated_on"] == "validation"
        assert metrics["n_train"] == 48 and metrics["n_val"] == 12
        assert math.isfinite(metrics["loss"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            str(out / "model.npz"), str(out / "loss_log.csv"),
            str(out / "metrics.json"),
        }

    def test_width_comes_from_the_data(self, tmp_path, capsys):
        # Only [synth] sets the width; gen, train and sweep all run at it.
        ini = tmp_path / "w5.ini"
        ini.write_text(TINY_INI.replace("context_width = 8", "context_width = 5")
                       .replace("lr_schedule = 60:1e-3", "lr_schedule = 4:1e-3"))
        data, model = tmp_path / "g" / "dataset.txt", tmp_path / "t" / "model.npz"
        assert main(["gen", "--config", str(ini), "--out", str(tmp_path / "g")]) == 0
        assert main(["train", "--config", str(ini), "--data", str(data),
                     "--out", str(tmp_path / "t")]) == 0
        assert main(["sweep", "--checkpoint", str(model), "--data", str(data),
                     "--out", str(tmp_path / "s"), "--which", "2d"]) == 0
        assert "error" not in capsys.readouterr().err
        assert load_model(model).context_width == 5
        assert "context_width" not in json.loads(
            (tmp_path / "t" / "manifest.json").read_text())["config"]

    def test_missing_data_fails(self, tmp_path, workspace, capsys):
        rc = main(["train", "--config", str(workspace["ini"]),
                   "--data", str(tmp_path / "none.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_zero_step_schedule_exits_1_at_load(self, tmp_path, workspace, capsys):
        path = tmp_path / "zero.ini"
        path.write_text(TINY_INI.replace("lr_schedule = 60:1e-3", "lr_schedule = 0:1e-3"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--config", str(path), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: [train] lr_schedule = '0:1e-3':"
                              " lr_schedule must total at least one step"), err
        assert list(out.iterdir()) == []

    def test_divergence_names_the_gradient_and_writes_nothing(self, tmp_path, capsys):
        # Both loss terms are still finite at the step whose gradient overflows.
        ini = tmp_path / "diverge.ini"
        ini.write_text("[synth]\nn = 200\ncontext_width = 8\n"
                       "[model]\nencoder_hidden = 8, 8\nproc_hidden = 8, 8\nhead_hidden = 8\n"
                       "[train]\nlr_schedule = 200:1e12\n")
        assert main(["gen", "--config", str(ini), "--out", str(tmp_path / "gen")]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--config", str(ini), "--data", str(tmp_path / "gen" / "dataset.txt"),
                     "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        # One line: no NumPy warning escapes, and pytest fails on any that does.
        (line,) = err.splitlines()
        assert line.startswith("error: non-finite gradient at step 7: in 16 of 18 parameter"
                               " arrays, first encoder.0.weights; loss terms dims="), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("n, holdout, held_out", [(0, 0.2, 0), (1, 0.9, 1)])
    def test_empty_training_set_exits_1_naming_the_file(self, tmp_path, capsys, command,
                                                        n, holdout, held_out):
        path = tmp_path / "cfg.ini"
        path.write_text(TINY_INI.replace("holdout_fraction = 0.2",
                                         f"holdout_fraction = {holdout}"))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path / "gen"),
                     "--n", str(n)]) == 0
        data = tmp_path / "gen" / "dataset.txt"
        assert len(read_dataset(data)) == n
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--data", str(data),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: no samples left to train on:"
                              f" read {n}, held out {held_out}"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare", "sweep"])
    def test_non_utf8_data_exits_1_naming_the_file(self, tmp_path, workspace, capsys,
                                                   command):
        data = tmp_path / "binary.txt"
        data.write_bytes(b"90 40 1.7 0.6 0.5 0.3 \xd0\xff 0 0\n")
        out = tmp_path / "out"
        args = (["--checkpoint", str(workspace["model"]), "--which", "2d"]
                if command == "sweep" else ["--config", str(workspace["ini"])])
        assert main([command, *args, "--data", str(data), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: {data}: 'utf-8' codec can't decode"), err
        assert not out.exists()


class TestCompare:
    def test_four_variant_table(self, tmp_path, workspace, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(workspace["ini"]),
                   "--data", str(workspace["data"]), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        for name in ("proposed", "proposed+consistency", "plain",
                     "plain+consistency"):
            assert name in text
        assert "finding: proposed median val loss is" in text
        report = json.loads((out / "compare.json").read_text())
        assert report["seeds"] == [0]
        assert len(report["runs"]) == 4
        assert set(report["medians"]) == {
            "proposed", "proposed+consistency", "plain", "plain+consistency",
        }
        for m in report["medians"].values():
            assert set(m) == {"val_loss", "dims_loss", "orientation_loss",
                              "mae_deg"}

    def test_nan_run_is_named_and_left_out_of_the_median(self, tmp_path, workspace,
                                                         capsys, monkeypatch):
        real = cli_module.evaluate_model

        def nan_for_proposed_seed_1(model, samples):
            metrics = real(model, samples)
            cfg = model.cfg
            if cfg.seed == 1 and cfg.use_feedforward and not cfg.use_consistency_loss:
                metrics["mae_deg"] = math.nan
            return metrics

        monkeypatch.setattr(cli_module, "evaluate_model", nan_for_proposed_seed_1)
        medians = []
        for order in ("0,1,2", "1,2,0"):
            out = tmp_path / order.replace(",", "")
            assert main(["compare", "--config", str(workspace["ini"]),
                         "--data", str(workspace["data"]), "--out", str(out),
                         "--seeds", order]) == 0
            assert ("1 run(s) with a NaN metric, left out of its median:"
                    " proposed seed 1 (mae_deg)\n") in capsys.readouterr().out
            report = json.loads((out / "compare.json").read_text())
            assert report["nan_runs"] == [{"variant": "proposed", "seed": 1,
                                           "metrics": ["mae_deg"]}]
            finite = [r["mae_deg"] for r in report["runs"]
                      if r["variant"] == "proposed" and r["seed"] != 1]
            assert report["medians"]["proposed"]["mae_deg"] == (finite[0] + finite[1]) / 2
            medians.append(report["medians"])
        assert medians[0] == medians[1]

    def test_seed_list_override(self, tmp_path, workspace):
        out = tmp_path / "cmp2"
        rc = main(["compare", "--config", str(workspace["ini"]),
                   "--data", str(workspace["data"]), "--out", str(out),
                   "--seeds", "1,2"])
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["seeds"] == [1, 2]
        assert len(report["runs"]) == 8


class TestEval:
    def write_labels(self, tmp_path):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        gt.write_text(GT_LINES)
        det.write_text(DET_LINES)
        return gt, det

    def test_perfect_detections(self, tmp_path, capsys):
        gt, det = self.write_labels(tmp_path)
        out = tmp_path / "eval"
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        # Two pedestrians matched perfectly; the stray detection sits on the
        # DontCare region and is absorbed.
        assert report["n_gt"] == 2
        assert report["n_matched"] == 2
        assert report["aos"] == pytest.approx(1.0)
        assert report["ap"] == pytest.approx(1.0)
        assert report["mean_abs_angular_error_deg"] == pytest.approx(0.0)
        assert report["n_ignore_regions"] == 2
        # KITTI's match threshold, which no flag changes.
        assert report["iou_threshold"] == 0.5
        with open(out / "os_recall.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["recall", "orientation_similarity"]
        assert len(rows) == 3
        assert "AOS 1.0000" in capsys.readouterr().out

    def test_difficulty_filter_moves_gt_to_ignore(self, tmp_path):
        gt = tmp_path / "gt.txt"
        # Occlusion 2 lands in the Hard tier.
        gt.write_text(GT_LINES + "Pedestrian 0.0 2 0.1 900 100 930 160 1.7 0.6 0.5 1 1 30 0.7\n")
        det = tmp_path / "det.txt"
        det.write_text(DET_LINES + "Pedestrian 0.0 0 0.1 900 100 930 160 1.7 0.6 0.5 1 1 30 0.7 0.99\n")
        out = tmp_path / "eval"
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(out), "--difficulty", "Moderate"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_gt"] == 2
        assert report["ap"] == pytest.approx(1.0)
        assert report["n_ignore_regions"] == 3

    def test_alpha_orientation_field(self, tmp_path):
        gt, det = self.write_labels(tmp_path)
        out = tmp_path / "eval"
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(out), "--orientation", "alpha"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["orientation_field"] == "alpha"
        assert report["aos"] == pytest.approx(1.0)

    def test_scoreless_detection_fails(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text(GT_LINES)
        det = tmp_path / "det.txt"
        det.write_text(GT_LINES.splitlines()[0] + "\n")  # 15 fields, no score
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        assert "confidence score" in capsys.readouterr().err

    def test_errors_name_the_file_and_its_line(self, tmp_path, capsys):
        # Blank lines 1 and 3 count: the row at fault is line 4 of its file.
        gt, det = self.write_labels(tmp_path)
        scored, unscored = DET_LINES.splitlines()[0], GT_LINES.splitlines()[0]
        cases = [(det, f"\n{scored}\n\n{unscored}\n",
                  f"{det}: line 4: detection has no confidence score"),
                 (det, f"\n{scored}\n  \n{scored} 7\n",
                  f"{det}: line 4: expected 15 or 16 fields, got 17"),
                 (gt, f"\n{unscored}\n\n{unscored.replace(' 0.5', ' x', 1)}\n",
                  f"{gt}: line 4: field 'length_3d' is not numeric: 'x'")]
        for path, text, message in cases:
            path.write_text(text)
            rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                       "--out", str(tmp_path / "eval")])
            assert rc == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not (tmp_path / "eval").exists()
            self.write_labels(tmp_path)

    @pytest.mark.parametrize("flag", ["--labels", "--detections"])
    def test_non_utf8_label_file_names_the_file(self, tmp_path, capsys, flag):
        gt, det = self.write_labels(tmp_path)
        bad = gt if flag == "--labels" else det
        bad.write_bytes(b"Pedestrian \xd0\xff 0 0.1 100 100 130 160 1.7 0.6 0.5 1 1 10 0.5\n")
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: {bad}: 'utf-8' codec can't decode"), err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("labels, difficulty", [
        ("", "Hard"),
        ("DontCare -1 -1 -10 500 100 560 160 -1 -1 -1 -1000 -1000 -1000 -10\n", "Hard"),
        # Occlusion 2 puts this pedestrian in the Hard tier only.
        ("Pedestrian 0.0 2 0.1 100 100 130 160 1.7 0.6 0.5 1 1 10 0.5\n", "Moderate")])
    def test_no_ground_truth_names_the_file_and_tier(self, tmp_path, capsys, labels,
                                                     difficulty):
        gt, det = self.write_labels(tmp_path)
        gt.write_text(labels)
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(tmp_path / "eval"), "--difficulty", difficulty])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {gt}: no Pedestrian label at difficulty"
                                           f" {difficulty} or easier; evaluation undefined"
                                           " without ground truths\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("corner", ["560", "nan"])
    def test_bad_dont_care_box_names_the_file_and_its_line(self, tmp_path, capsys, corner):
        # DontCare rows skip validation at parse time; their boxes are
        # checked as they become ignore regions.
        gt, det = self.write_labels(tmp_path)
        gt.write_text(GT_LINES.splitlines()[0] + "\nDontCare -1 -1 -10 " + corner
                      + " 100 500 160 -1 -1 -1 -1000 -1000 -1000 -10\n")
        rc = main(["eval", "--labels", str(gt), "--detections", str(det),
                   "--out", str(tmp_path / "eval")])
        assert rc == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: {gt}: line 2: degenerate or non-finite box"), err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("iou", ["0", "-0.5", "1.5", "nan", "inf"])
    def test_iou_outside_unit_interval_names_the_flag(self, tmp_path, capsys, iou):
        # The match threshold is KITTI's 0.5, with no flag.
        gt, det = self.write_labels(tmp_path)
        argv = ["eval", "--labels", str(gt), "--detections", str(det),
                "--out", str(tmp_path / "eval")]
        assert_refused_by_name(argv, f"--iou={iou}", capsys)
        assert not (tmp_path / "eval").exists()


class TestSweep:
    def test_width_sweep_csv(self, tmp_path, workspace):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                   "--data", str(workspace["data"]), "--out", str(out),
                   "--which", "2d", "--factors", "0.5:1.5:5"])
        assert rc == 0
        with open(out / "sweep_2d.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["factor", "model_theta_deg", "analytic_theta_deg",
                           "n_excluded", "bin0_deg", "bin1_deg", "bin2_deg",
                           "bin3_deg"]
        assert len(rows) == 6
        factors = [float(r[0]) for r in rows[1:]]
        np.testing.assert_allclose(factors, np.linspace(0.5, 1.5, 5))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert str(workspace["model"]) in manifest["inputs"]

    def test_large_factors_keep_csv_lines_short(self, tmp_path, workspace):
        # A factor of 1e6 or more is written with an exponent: in fixed
        # point, 1e306 alone would take 307 digits.
        for text, first_column in (("1:1e306:2", ["1.000000", "1.000000e+306"]),
                                   ("0:2e6:3", ["0.000000", "1.000000e+06", "2.000000e+06"])):
            out = tmp_path / text
            rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                       "--data", str(workspace["data"]), "--out", str(out),
                       "--which", "3d", f"--factors={text}"])
            assert rc == 0
            lines = (out / "sweep_3d.csv").read_text().splitlines()
            assert all(len(line) < 120 for line in lines)
            factors = [line.split(",")[0] for line in lines[1:]]
            assert factors == first_column
            np.testing.assert_allclose([float(f) for f in factors], _parse_factors(text),
                                       rtol=1e-6)

    def test_height_sweep(self, tmp_path, workspace):
        out = tmp_path / "sweep3d"
        rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                   "--data", str(workspace["data"]), "--out", str(out),
                   "--which", "3d", "--index", "3"])
        assert rc == 0
        assert (out / "sweep_3d.csv").is_file()

    def test_bad_factors(self, tmp_path, workspace, capsys):
        rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                   "--data", str(workspace["data"]),
                   "--out", str(tmp_path / "s"), "--which", "2d",
                   "--factors", "nonsense"])
        assert rc == 1

    @pytest.mark.parametrize("which", ["2d", "3d"])
    def test_negative_or_nonfinite_factor_names_the_flag(self, tmp_path, workspace, capsys,
                                                         which):
        for text, factor in (("-1:1:3", "-1.0"), ("0.5:-0.5:3", "-0.5"),
                             ("nan:1:2", "nan"), ("0:inf:3", "inf")):
            rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                       "--data", str(workspace["data"]), "--out", str(tmp_path / "s"),
                       "--which", which, f"--factors={text}"])
            assert rc == 1
            assert capsys.readouterr().err == (f"error: --factors '{text}': factor {factor}"
                                               " is not finite and >= 0\n")
        assert not (tmp_path / "s").exists()
        # Zero is a factor the height sweep takes; the width sweep does not.
        rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                   "--data", str(workspace["data"]), "--out", str(tmp_path / "s"),
                   "--which", which, "--factors=0:1:3"])
        assert rc == (0 if which == "3d" else 1)
        sample = read_dataset(workspace["data"])[0]
        width = sample.dims2d.w
        if which == "2d":
            assert capsys.readouterr() == ("", f"error: --factors '0:1:3': factor 0.0 scales"
                                               f" the 2D width {width!r} to 0.0, not finite"
                                               " and > 0\n")
            assert not (tmp_path / "s").exists()
        else:
            capsys.readouterr()
            shutil.rmtree(tmp_path / "s")
        # A factor whose swept input overflows is named, and NumPy does not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                       "--data", str(workspace["data"]), "--out", str(tmp_path / "s"),
                       "--which", which, "--factors=1:1e308:2"])
        assert rc == 1
        if which == "2d":
            what = f"2D width {width!r} to inf, not finite and > 0"
        else:
            batch = make_batch([sample, sample])  # the sweep's two rows
            h1 = float(forward_batch(load_model(workspace["model"]), batch)[0][0, 0])
            what = f"fed 3D height {h1!r} to {h1 * 1e308!r}, " + (
                "not finite" if math.isinf(h1 * 1e308) else "where the network's outputs overflow")
        assert capsys.readouterr() == ("", f"error: --factors '1:1e308:2': factor 1e+308"
                                           f" scales the {what}\n")
        assert not (tmp_path / "s").exists()

    def test_bad_checkpoint_exits_1(self, tmp_path, workspace, capsys):
        with np.load(workspace["model"], allow_pickle=False) as data:
            good = {k: data[k] for k in data.files}
        meta = json.loads(str(good["__meta__"][()]))
        meta["config"]["use_feedfoward"] = True
        cases = [
            ({**good, "__meta__": np.array(json.dumps(meta))}, "use_feedfoward"),
            ({k: v for k, v in good.items() if k != "__meta__"}, "__meta__"),
            ({**good, "__meta__": np.array(json.dumps([1, 2]))}, "__meta__"),
            # The width is read from encoder.0.weights: missing or 1-D, it is named.
            ({k: v for k, v in good.items() if k != "encoder__0__weights"},
             "missing array encoder.0.weights"),
            ({**good, "encoder__0__weights": np.zeros(8)}, "array encoder.0.weights"),
        ]
        raw = workspace["model"].read_bytes()
        flipped = bytearray(raw)
        for at in (len(raw) // 2, len(raw) // 2 + 1):
            flipped[at] ^= 0xFF
        unreadable = [(b"", "No data left in file"), (raw[:300], "File is not a zip file"),
                      (bytes(flipped), "Bad CRC-32"), (b"not a checkpoint\n", "pickled")]
        bad = tmp_path / "bad.npz"
        for payload, name in cases + unreadable:
            if isinstance(payload, bytes):
                bad.write_bytes(payload)
            else:
                np.savez(bad, **payload)
            rc = main(["sweep", "--checkpoint", str(bad), "--data", str(workspace["data"]),
                       "--out", str(tmp_path / "s"), "--which", "2d"])
            assert rc == 1, name
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: checkpoint {bad}: ") and name in err
            assert not (tmp_path / "s").exists()

    def test_context_width_mismatch_names_both_files(self, tmp_path, workspace, capsys):
        # Not a --factors error, though the sweep would meet it first.
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.ini"
        assert main(["gen", "--config", str(quick), "--n", "3", "--out", str(tmp_path / "g")]) == 0
        capsys.readouterr()
        data = tmp_path / "g" / "dataset.txt"
        rc = main(["sweep", "--checkpoint", str(workspace["model"]), "--data", str(data),
                   "--out", str(tmp_path / "s"), "--which", "3d", "--factors=1:2:2"])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {data}: context width 16, but checkpoint"
                                           f" {workspace['model']} reads 8\n")
        assert not (tmp_path / "s").exists()

    def test_bad_index(self, tmp_path, workspace, capsys):
        for index in ("999", "60", "-1"):
            rc = main(["sweep", "--checkpoint", str(workspace["model"]),
                       "--data", str(workspace["data"]),
                       "--out", str(tmp_path / "s"), "--which", "2d",
                       f"--index={index}"])
            assert rc == 1
            assert capsys.readouterr() == ("", f"error: --index {index}: outside"
                                               f" {workspace['data']}, which holds 60 samples\n")
            assert not (tmp_path / "s").exists()


EXEMPLAR = ["invert", "--h2d", "86", "--w2d", "33", "--h1", "1.68", "--w1", "0.50", "--l1", "0.42"]


class TestInvert:
    def test_known_exemplar(self, capsys):
        rc = main(EXEMPLAR)
        assert rc == 0
        text = capsys.readouterr().out
        assert "8 yaw candidate(s)" in text
        assert "grid-search cross-check: 8 hit(s), agrees with the analytic set\n" in text

    @pytest.mark.parametrize("step", ["0.05", "0.2", "0.5", "5"])
    def test_cross_check_tolerance_follows_the_grid_step(self, capsys, monkeypatch, step):
        # The oracle scans at synth.GRID_STEP, and its hits sit up to half a
        # step from the analytic roots; invert's tolerance must widen with it.
        monkeypatch.setattr(synth_module, "GRID_STEP", math.radians(float(step)))
        monkeypatch.setattr(cli_module, "GRID_STEP", synth_module.GRID_STEP)
        rc = main(EXEMPLAR)
        assert rc == 0
        assert "agrees with the analytic set" in capsys.readouterr().out

    def test_cross_check_agrees_on_every_feasible_sample(self, capsys):
        # At the fixed 1e-3 degree step no kink of the span function gives
        # the grid a false hit.
        samples, _ = gen_dataset(SynthConfig(n=400, seed=11))
        agreed = 0
        for s in samples:
            d2, d3 = s.dims2d, s.dims3d
            assert main(["invert", "--h2d", repr(d2.h), "--w2d", repr(d2.w), "--h1", repr(d3.h1),
                         "--w1", repr(d3.w1), "--l1", repr(d3.l1)]) == 0
            agreed += "agrees with the analytic set" in capsys.readouterr().out
        assert agreed == 349

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        real = cli_module.invert_orientation_candidates

        def shifted(d2, dims):
            res = real(d2, dims)
            return dataclasses.replace(res, candidates=tuple(c + 0.01 for c in res.candidates))

        monkeypatch.setattr(cli_module, "invert_orientation_candidates", shifted)
        assert main(EXEMPLAR) == 1
        assert "DISAGREES with the analytic set" in capsys.readouterr().out

    def test_infeasible(self, capsys):
        rc = main(["invert", "--h2d", "50", "--w2d", "200", "--h1", "1.7",
                   "--w1", "0.6", "--l1", "0.5"])
        assert rc == 0
        assert "infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "9e-05"])
    def test_bad_grid_step_names_the_flag_before_any_output(self, capsys, step):
        # The cross-check's step is fixed at 1e-3 degrees, with no flag.
        assert_refused_by_name(EXEMPLAR, f"--grid-step-deg={step}", capsys)

    def test_overflowing_span_names_its_flags(self, capsys):
        # Each flag is finite and > 0, but h1 * w2d / h2d overflows.
        argv = list(EXEMPLAR)
        argv[argv.index("--h2d") + 1] = "1e-320"
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: --h1 1.68 * --w2d 33.0 / --h2d 1e-320:"), err

    def test_huge_dimensions_keep_lines_short(self, capsys):
        argv = list(EXEMPLAR)
        argv[argv.index("--w1") + 1] = argv[argv.index("--l1") + 1] = "1e308"
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "max possible 1.414214e+308 m" in lines[0]
        assert all(len(line) < 120 for line in lines), lines

    def test_degenerate_box_rejected(self, capsys):
        # Each is rejected by its flag before anything is printed.
        for flag, value in (("--h2d", "-1"), ("--h1", "nan"), ("--w2d", "0")):
            argv = list(EXEMPLAR)
            argv[argv.index(flag) + 1] = value
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {flag} {float(value)}:"
                                               " must be finite and > 0\n")


class TestGradcheck:
    def test_passes_and_writes_report(self, tmp_path, workspace, capsys):
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(workspace["ini"]),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        assert "vs threshold 1.0e-04: PASS" in text
        report = json.loads((out / "gradcheck.json").read_text())
        assert text.count(" at step 1e-05\n") == len(report["per_param"])
        assert " at step 1e-06" not in text
        assert report["passed"] is True and report["threshold"] == 1e-4
        assert report["remeasured"] is None
        assert report["max_rel_error"] < 1e-4
        assert "encoder.0.weights" in report["per_param"]
        # The check covers the consistency term, which TINY_INI does not train with.
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["use_consistency_loss"] is True

    def test_probe_batch_is_the_synth_data(self, tmp_path, monkeypatch):
        # The probe is [synth]'s generator at the [gradcheck] batch size and
        # the model seed, whatever its noise settings and width.
        ini = tmp_path / "gc.ini"
        ini.write_text(TINY_INI.replace("context_width = 8", "context_width = 6")
                       .replace("box_noise_sd = 1.0", "box_noise_sd = 0.25")
                       .replace("context_noise = 0.5", "context_noise = 0.75"))
        seen = []
        real = cli_module.model_gradient_check

        def recording(model, batch, **kwargs):
            seen.append(batch)
            return real(model, batch, **kwargs)

        monkeypatch.setattr(cli_module, "model_gradient_check", recording)
        assert main(["gradcheck", "--config", str(ini), "--seed", "2"]) == 0
        want = make_batch(gen_dataset(SynthConfig(n=4, seed=2, context_width=6,
                                                  box_noise_sd=0.25, context_noise=0.75))[0])
        assert seen
        for batch in seen:
            for key in ("context", "dims2d", "dims3d", "theta"):
                assert getattr(batch, key).tobytes() == getattr(want, key).tobytes(), key

    def test_seed_comes_from_the_file_unless_given(self, tmp_path):
        ini, out = tmp_path / "gc.ini", tmp_path / "gc"
        ini.write_text(TINY_INI.replace("[train]\nseed = 0\n", "[train]\nseed = 3\n"))
        for extra, seed in (([], 3), (["--seed", "5"], 5)):
            assert main(["gradcheck", "--config", str(ini), "--out", str(out), *extra]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == seed and manifest["config"]["seed"] == seed

    def test_failed_check_exits_1(self, tmp_path, workspace, capsys, monkeypatch):
        real = cli_module.model_gradient_check

        def off_by_a_tenth_percent(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, max_rel_error=1e-3)

        monkeypatch.setattr(cli_module, "model_gradient_check", off_by_a_tenth_percent)
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(workspace["ini"]), "--out", str(out)])
        assert rc == 1
        assert ("overall max rel err 1.000e-03 vs threshold 1.0e-04: FAIL\n"
                in capsys.readouterr().out)
        assert json.loads((out / "gradcheck.json").read_text())["passed"] is False

    @pytest.mark.parametrize("errors, verdict", [((1e-3, 1e-5), "PASS"), ((2e-4, 5e-5), "FAIL")])
    def test_error_at_the_threshold_is_measured_again(self, tmp_path, workspace, capsys,
                                                      monkeypatch, errors, verdict):
        # A kink's error falls with the step; it passes at a tenth of the
        # step only if it falls below the threshold and tenfold.
        real = cli_module.model_gradient_check
        by_step = dict(zip((1e-5, 1e-6), errors))

        def kinked(*args, eps, **kwargs):
            return dataclasses.replace(real(*args, eps=eps, **kwargs), max_rel_error=by_step[eps])

        monkeypatch.setattr(cli_module, "model_gradient_check", kinked)
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(workspace["ini"]), "--out", str(out)])
        assert rc == (0 if verdict == "PASS" else 1)
        text = capsys.readouterr().out
        assert text.endswith(f"overall max rel err {errors[1]:.3e} vs threshold 1.0e-04:"
                             f" {verdict}\n")
        report = json.loads((out / "gradcheck.json").read_text())
        # One line per parameter array at each step.
        for step in ("1e-05", "1e-06"):
            assert text.count(f" at step {step}\n") == len(report["per_param"])
        assert report["passed"] is (rc == 0) and report["max_rel_error"] == errors[0]
        assert report["remeasured"]["eps"] == 1e-6
        assert report["remeasured"]["max_rel_error"] == errors[1]
        assert report["remeasured"]["per_param"].keys() == report["per_param"].keys()

    def test_wrong_gradient_fails_at_both_steps(self, tmp_path, workspace, capsys, monkeypatch):
        real = Tape.backward

        def one_percent_high(self, output):
            return {nid: 1.01 * grad for nid, grad in real(self, output).items()}

        monkeypatch.setattr(Tape, "backward", one_percent_high)
        out = tmp_path / "gc"
        rc = main(["gradcheck", "--config", str(workspace["ini"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().out.endswith(": FAIL\n")
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["passed"] is False
        assert report["max_rel_error"] > 1e-3 and report["remeasured"]["max_rel_error"] > 1e-3


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2
