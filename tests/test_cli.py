"""End-to-end CLI tests: config parsing, subcommands, exit codes, outputs."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cluster_sense
from cluster_sense import cli, distance, experiment
from cluster_sense.dataset import LabeledDataset, save_dataset
from cluster_sense.experiment import FileSource, GeneratorSource, SweepConfig
from cluster_sense.metrics import METRIC_NAMES
from cluster_sense.perturb import NoiseKind
from cluster_sense.scale import ScalingKind

SMALL_CONFIG = textwrap.dedent(
    """\
    # small sweep for tests
    noise = gaussian, uniform
    scaling = none
    max_ratio = 1:2
    ratio_step = 1
    repeats = 2
    master_seed = 7

    [dataset]
    name = mini
    dims = 6
    clusters = 3
    per_cluster = 8
    separation = 10.0
    seed = 5
    """
)


@st.composite
def _summary_rows(draw):
    """One summary record: valid fields that mostly share a panel, and
    sometimes one field replaced by "x" or the record cut short."""
    number = st.one_of(
        st.sampled_from(["0", "1e308", "-1e308", "5e-324", "1e16", "1.0000000000000004e16"]),
        st.floats().map(repr),
    )
    row = [
        draw(st.sampled_from(["a", "b"])),
        draw(st.sampled_from(["gaussian", "gaussian", " Uniform"])),
        draw(st.sampled_from(["none", "none", "standardized"])),
        draw(number),
        draw(st.sampled_from(["ari", "ari", "silhouette"])),
        draw(number),
        draw(number),
        "2",
        draw(st.sampled_from(["ok", "ok", "error:value-error"])),
    ]
    flaw = draw(st.sampled_from([None] * 20 + ["short", *range(len(row))]))
    if flaw == "short":
        return row[:4]
    if flaw is not None:
        row[flaw] = "x"
    return row


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _main_under_memory_cap(argv, cap_bytes=1 << 30):
    """Run cli.main(argv) in a new process whose address space is capped at
    `cap_bytes`, so that a run that tries to hold too much fails in that
    process instead of exhausting the machine's memory."""
    src = str(Path(cli.__file__).resolve().parents[1])
    # OpenBLAS reserves address space per thread, so one thread keeps the
    # child's start-up well under the cap whatever the CPU count.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap_bytes}, {cap_bytes}))\n"
        "from cluster_sense import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )


class TestGenerate:
    def test_writes_both_files(self, tmp_path, capsys):
        rc = cli.main(
            [
                "generate",
                "--dims",
                "4",
                "--clusters",
                "3",
                "--per-cluster",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        data_lines = (tmp_path / "data.txt").read_text().splitlines()
        label_lines = (tmp_path / "labels.txt").read_text().splitlines()
        assert len(data_lines) == 15
        assert len(label_lines) == 15
        assert all(len(line.split()) == 4 for line in data_lines)
        out = capsys.readouterr().out
        assert "15 points" in out and "4 features" in out

    def test_deterministic_for_fixed_seed(self, tmp_path):
        for sub in ("a", "b"):
            cli.main(
                ["generate", "--dims", "3", "--clusters", "2", "--out", str(tmp_path / sub)]
            )
        assert (tmp_path / "a" / "data.txt").read_bytes() == (
            tmp_path / "b" / "data.txt"
        ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        for sub, seed in (("a", "0"), ("b", "1")):
            cli.main(
                [
                    "generate",
                    "--dims",
                    "3",
                    "--clusters",
                    "2",
                    "--seed",
                    seed,
                    "--out",
                    str(tmp_path / sub),
                ]
            )
        assert (tmp_path / "a" / "data.txt").read_bytes() != (
            tmp_path / "b" / "data.txt"
        ).read_bytes()

    def test_bad_dims_exits_2(self, tmp_path, capsys):
        rc = cli.main(["generate", "--dims", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "--dims" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--clusters", "0"), ("--per-cluster", "-1"), ("--separation", "0"), ("--separation", "nan")],
    )
    def test_bad_shape_flag_exits_2(self, tmp_path, capsys, flag, value):
        rc = cli.main(["generate", "--dims", "2", flag, value, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{flag}: " in err and value in err
        assert not (tmp_path / "out").exists()

    def test_separation_that_overflows_the_grid_exits_1(self, tmp_path, capsys):
        argv = ["generate", "--dims", "2", "--clusters", "3", "--separation", "1e308"]
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: separation 1e+308 with 3 clusters") and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_infinite_separation_exits_2(self, tmp_path, capsys):
        rc = cli.main(
            ["generate", "--dims", "2", "--separation", "inf", "--out", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "--separation: expected a finite number, got 'inf'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--dims", "\u0662"),
            ("--clusters", "1_0"),
            ("--per-cluster", "\uff12"),
            ("--separation", "1_0.0"),
            ("--seed", "\u0663"),
            ("--dims", "2.0"),
        ],
    )
    def test_flags_take_the_config_keys_forms(self, tmp_path, capsys, flag, value):
        # A repeated flag takes its last value, so `flag value` overrides the defaults before it.
        argv = ["generate", "--dims", "2", "--clusters", "2", "--per-cluster", "2", flag, value]
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEnumTokens:
    # Config files and summary files name noise kinds and scalings by token;
    # cli._member reads one, stripped and in any case.
    def test_noise_kind_tokens(self):
        assert cli._member(NoiseKind, "gaussian") is NoiseKind.GAUSSIAN
        assert cli._member(NoiseKind, " Uniform ") is NoiseKind.UNIFORM

    def test_unknown_noise_kind(self):
        message = "unknown noise kind 'blue' (expected gaussian or uniform)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli._member(NoiseKind, "blue")

    def test_scaling_tokens(self):
        assert cli._member(ScalingKind, "none") is ScalingKind.NONE
        assert cli._member(ScalingKind, " Centered ") is ScalingKind.CENTERED
        assert cli._member(ScalingKind, "STANDARDIZED") is ScalingKind.STANDARDIZED

    def test_unknown_scaling(self):
        message = "unknown scaling 'minmax' (expected none, centered or standardized)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cli._member(ScalingKind, "minmax")

    @pytest.mark.parametrize(
        "key, token, message",
        [
            ("noise", "blue", "unknown noise kind 'blue' (expected gaussian or uniform)"),
            (
                "scaling",
                "minmax",
                "unknown scaling 'minmax' (expected none, centered or standardized)",
            ),
        ],
        ids=["noise", "scaling"],
    )
    def test_config_and_summary_name_an_unknown_token_alike(
        self, tmp_path, capsys, key, token, message
    ):
        path = _write(tmp_path / "sweep.cfg", f"{key} = {token}\n[dataset]\ndims = 4\n")
        with pytest.raises(cli.ConfigError) as exc:
            cli.parse_config(path)
        assert str(exc.value) == f"{path}:1: {key}: {message}"
        row = {"noise": "gaussian", "scaling": "none", key: token}
        summary = _write(
            tmp_path / "summary.csv",
            f"{','.join(cli.SUMMARY_HEADER)}\n"
            f"mini,{row['noise']},{row['scaling']},0.0,ari,1.0,0.0,2,ok\n",
        )
        assert cli.main(["report", "--summary", str(summary), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {summary}: line 2: {message}\n"


class TestParseConfig:
    def test_small_config(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        assert cli.parse_config(path) == SweepConfig(
            datasets=(
                GeneratorSource(
                    name="mini", dims=6, clusters=3, per_cluster=8, separation=10.0, seed=5
                ),
            ),
            noise_kinds=(NoiseKind.GAUSSIAN, NoiseKind.UNIFORM),
            scalings=(ScalingKind.NONE,),
            max_ratio=Fraction(1, 2),
            ratio_step=1,
            repeats=2,
            master_seed=7,
        )

        # Every key set to a value other than its default: a key missing from
        # the parser's tables, or mapped to the wrong field, fails here.
        path = _write(
            tmp_path / "full.cfg",
            textwrap.dedent(
                """\
                noise = uniform
                scaling = standardized centered
                max_ratio = 5:4
                ratio_step = 3
                repeats = 4
                master_seed = 11
                redraw_noise_per_repeat = true
                workers = 2

                [dataset]
                name = gen
                dims = 5
                clusters = 2
                per_cluster = 9
                separation = 7.5
                seed = 3

                [dataset]
                name = ext
                data = files/points.txt
                labels = files/labels.txt
                """
            ),
        )
        assert cli.parse_config(path) == SweepConfig(
            datasets=(
                GeneratorSource(
                    name="gen", dims=5, clusters=2, per_cluster=9, separation=7.5, seed=3
                ),
                FileSource(
                    name="ext",
                    data_path=(tmp_path / "files" / "points.txt").as_posix(),
                    labels_path=(tmp_path / "files" / "labels.txt").as_posix(),
                ),
            ),
            noise_kinds=(NoiseKind.UNIFORM,),
            scalings=(ScalingKind.STANDARDIZED, ScalingKind.CENTERED),
            max_ratio=Fraction(5, 4),
            ratio_step=3,
            repeats=4,
            master_seed=11,
            redraw_noise_per_repeat=True,
            workers=2,
        )

    def test_defaults_when_only_dataset_given(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "[dataset]\ndims = 4\n")
        config = cli.parse_config(path)
        assert config.max_ratio == Fraction(3)
        assert config.ratio_step == 1
        assert config.repeats == 50
        assert config.datasets[0].name == "dim4"
        assert config.datasets[0].clusters == 16

    def test_ratio_formats(self, tmp_path):
        for text, expected in (("3", Fraction(3)), ("1.5", Fraction(3, 2)), ("3:1", Fraction(3))):
            path = _write(
                tmp_path / "sweep.cfg", f"max_ratio = {text}\n[dataset]\ndims = 4\n"
            )
            assert cli.parse_config(path).max_ratio == expected

    def test_unknown_key_names_line(self, tmp_path, capsys):
        # Noise parameters come only from the pooled mean and std: there is no
        # noise_stats key to choose another source.
        for line, key in (("bogus = 1", "bogus"), ("noise_stats = pooled", "noise_stats")):
            path = _write(
                tmp_path / "sweep.cfg", f"noise = gaussian\n{line}\n[dataset]\ndims = 4\n"
            )
            with pytest.raises(cli.ConfigError, match=rf"sweep\.cfg:2: unknown key '{key}'"):
                cli.parse_config(path)
            assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
            assert f"sweep.cfg:2: unknown key '{key}'" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "repeats = 2\nrepeats = 3\n[dataset]\ndims = 4\n")
        with pytest.raises(cli.ConfigError, match=r"sweep\.cfg:2.*duplicate.*repeats"):
            cli.parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "[mystery]\n")
        with pytest.raises(cli.ConfigError, match=r"sweep\.cfg:1.*mystery"):
            cli.parse_config(path)

    def test_missing_dataset_section(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "repeats = 2\n")
        with pytest.raises(cli.ConfigError, match="dataset"):
            cli.parse_config(path)

    def test_dims_and_files_conflict(self, tmp_path):
        path = _write(
            tmp_path / "sweep.cfg",
            "[dataset]\ndims = 4\ndata = d.txt\nlabels = l.txt\n",
        )
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.parse_config(path)

    def test_file_dataset_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        cli.main(["generate", "--dims", "3", "--clusters", "2", "--out", str(sub)])
        path = _write(
            sub / "sweep.cfg", "[dataset]\ndata = data.txt\nlabels = labels.txt\n"
        )
        config = cli.parse_config(path)
        source = config.datasets[0]
        assert source.name == "data"
        loaded = source.load()
        assert loaded.points.shape == (128, 3)

    def test_file_dataset_needs_both_paths(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "[dataset]\ndata = d.txt\n")
        with pytest.raises(cli.ConfigError, match="both data and labels"):
            cli.parse_config(path)

    def test_generator_only_keys_rejected_for_files(self, tmp_path):
        path = _write(
            tmp_path / "sweep.cfg",
            "[dataset]\ndata = d.txt\nlabels = l.txt\nclusters = 4\n",
        )
        with pytest.raises(cli.ConfigError, match="generator"):
            cli.parse_config(path)

    def test_bad_noise_value(self, tmp_path):
        path = _write(tmp_path / "sweep.cfg", "noise = pink\n[dataset]\ndims = 4\n")
        with pytest.raises(cli.ConfigError, match="pink"):
            cli.parse_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise", ""),
            ("noise", "pink"),
            ("scaling", ""),
            ("max_ratio", "0"),
            ("max_ratio", "1:0"),
            ("max_ratio", "3:"),
            ("max_ratio", "x"),
            ("ratio_step", "0"),
            ("ratio_step", "1.5"),
            ("repeats", "0"),
            ("master_seed", "x"),
            ("redraw_noise_per_repeat", "yes"),
            ("workers", "-1"),
            ("dims", "0"),
            ("clusters", "0"),
            ("per_cluster", "-2"),
            ("separation", "0"),
            ("separation", "nan"),
            ("seed", "x"),
            # int(), float() and Fraction() read these; numbers are ASCII base-10.
            ("repeats", "1_0"),
            ("ratio_step", "\u0662"),
            ("master_seed", "\u0661"),
            ("max_ratio", "1_5"),
            # Fraction() reads these too; a ratio is `3`, `1.5` or `3:1`.
            ("max_ratio", "1/2"),
            ("max_ratio", "1/2:1"),
            ("max_ratio", "3:1/2"),
            ("separation", "1_0"),
            ("separation", "\u0661"),
            ("workers", "\u0663"),
            ("workers", "1_0"),
            ("workers", "\uff12"),
        ],
    )
    def test_rejected_value_names_its_line(self, tmp_path, key, value):
        lines = ["# rejected value", "[dataset]", "dims = 4"]
        if key in cli._TOP_KEYS:
            lines.insert(1, f"{key} = {value}")
        elif key == "dims":
            lines[2] = f"dims = {value}"
        else:
            lines.append(f"{key} = {value}")
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
        path = _write(tmp_path / "sweep.cfg", "\n".join(lines) + "\n")
        with pytest.raises(cli.ConfigError) as exc:
            cli.parse_config(path)
        assert f"sweep.cfg:{lineno}: {key}" in str(exc.value)
        assert value in str(exc.value)

    def test_duplicate_dataset_names_rejected(self, tmp_path, capsys):
        path = _write(
            tmp_path / "sweep.cfg",
            "[dataset]\ndims = 4\nseed = 1\n\n[dataset]\ndims = 4\nseed = 2\n",
        )
        with pytest.raises(cli.ConfigError, match=r"sweep\.cfg.*'dim4'"):
            cli.parse_config(path)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "dim4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, repeated",
        [("noise", "gaussian, uniform, gaussian", "gaussian"), ("scaling", "none NONE", "none")],
    )
    def test_repeated_kind_names_its_line(self, tmp_path, capsys, key, value, repeated):
        # A repeated kind would run, and write, every cell of its curves twice.
        path = _write(tmp_path / "sweep.cfg", f"# repeated\n{key} = {value}\n[dataset]\ndims = 4\n")
        message = rf"sweep\.cfg:2: {key}: '{repeated}' is listed more than once"
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(path)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inline_comments_are_cut(self, tmp_path):
        path = _write(
            tmp_path / "sweep.cfg",
            "repeats = 2 # two\n[dataset] # first\nname = mine # my data\ndims = 4\n",
        )
        config = cli.parse_config(path)
        assert config.repeats == 2
        assert config.datasets[0].name == "mine"

    def test_lines_end_only_at_newlines(self, tmp_path):
        # U+2028 is a line boundary to str.splitlines but not to the config
        # format: line 1 holds one key whose value is not an integer.
        path = _write(
            tmp_path / "sweep.cfg", "repeats = 2\u2028master_seed = 7\n[dataset]\ndims = 4\n"
        )
        with pytest.raises(cli.ConfigError, match=r"sweep\.cfg:1: repeats"):
            cli.parse_config(path)

    def test_multiple_datasets_in_order(self, tmp_path):
        path = _write(
            tmp_path / "sweep.cfg",
            "[dataset]\ndims = 4\n\n[dataset]\ndims = 8\nname = wide\n",
        )
        config = cli.parse_config(path)
        assert [d.name for d in config.datasets] == ["dim4", "wide"]


class TestRun:
    def test_run_produces_summary_and_manifest(self, tmp_path, capsys):
        config_path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", config_path, "--out", str(out)])
        assert rc == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "dataset,noise,scaling,ratio,metric,mean,std,repeats,status"
        # levels 0..3 for dims=6 and max_ratio 1/2; 2 noises, 1 scaling, 5 metrics.
        assert len(lines) == 1 + 2 * 1 * 4 * 5
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "mini"
            assert fields[1] in ("gaussian", "uniform")
            assert fields[2] == "none"
            float(fields[3]), float(fields[5]), float(fields[6])
            assert fields[7] == "2"
            assert fields[8] == "ok"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == cluster_sense.__version__
        assert "created" in manifest
        # run always writes the same three files, the manifest last.
        assert manifest["emitted_files"] == [
            {"kind": "summary_csv", "path": "summary.csv"},
            {"kind": "raw_csv", "path": "raw.csv"},
            {"kind": "manifest", "path": "manifest.json"},
        ]
        # 8 sweep cells (4 levels x 2 noises x 1 scaling), not their 40 metric rows.
        assert capsys.readouterr().out == f"wrote {out / 'summary.csv'} (8 cells)\n"

    def test_separation_that_overflows_the_grid_exits_1(self, tmp_path, capsys):
        text = SMALL_CONFIG.replace("separation = 10.0", "separation = 1e308")
        config_path = _write(tmp_path / "sweep.cfg", text)
        rc = cli.main(["run", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: separation 1e+308 with 3 clusters") and "Warning" not in err

    @pytest.mark.parametrize(
        "max_ratio, redraw, message",
        [
            ("1e400", "false", "error: max_ratio is too large for dataset 'tiny': its widest "
             "matrix would have 2.00e+400 columns"),
            ("1e400", "true", "error: max_ratio is too large for dataset 'tiny'"),
            # Numpy can index this one, but the noise draw alone is 1.2 GiB.
            ("1e7", "false", "error: Unable to allocate"),
            # Numpy can index the widest draw, so only allocating it stops
            # the sweep before it builds a cell per level (2e15 of them).
            ("1e15", "true", "error: Unable to allocate"),
        ],
        ids=["1e400", "1e400-redraw", "1e7", "1e15-redraw"],
    )
    def test_sweep_too_large_to_run_exits_1(self, tmp_path, max_ratio, redraw, message):
        # Under the cap, a sweep that sets out to build more than memory
        # holds ends in one error line, in seconds, not in a traceback.
        config = textwrap.dedent(
            f"""\
            max_ratio = {max_ratio}
            redraw_noise_per_repeat = {redraw}
            repeats = 1
            [dataset]
            name = tiny
            dims = 2
            clusters = 2
            per_cluster = 4
            """
        )
        config_path = _write(tmp_path / "sweep.cfg", config)
        done = _main_under_memory_cap(["run", "--config", config_path, "--out", str(tmp_path / "out")])
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith(message)
        assert done.stderr.count("\n") == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        for sub in ("a", "b"):
            cli.main(["run", "--config", config_path, "--out", str(tmp_path / sub)])
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    @staticmethod
    def _run_with_workers(tmp_path, workers):
        """Run SMALL_CONFIG with a `workers = <workers>` line; return its manifest."""
        config = f"workers = {workers}\n{SMALL_CONFIG}"
        config_path = _write(tmp_path / f"{workers}.cfg", config)
        out = tmp_path / str(workers)
        assert cli.main(["run", "--config", config_path, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        self._run_with_workers(tmp_path, 1)
        assert self._run_with_workers(tmp_path, 4)["workers"] == 4
        assert (tmp_path / "1" / "summary.csv").read_bytes() == (
            tmp_path / "4" / "summary.csv"
        ).read_bytes()

    def test_manifest_records_workers_and_blas_threads(self, tmp_path):
        default = experiment.blas_thread_count()
        manifests = {workers: self._run_with_workers(tmp_path, workers) for workers in (1, 2)}
        assert manifests[1]["workers"] == 1
        assert manifests[1]["blas_threads"] == default
        assert manifests[2]["workers"] == 2
        assert manifests[2]["blas_threads"] == (None if default is None else 1)

    def test_manifest_names_the_blas_kernel_beside_the_summary(self, tmp_path):
        config_path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", config_path, "--out", str(out)]) == 0
        core = distance.blas_core_name()
        assert json.loads((out / "manifest.json").read_text())["blas_core"] == core
        summary = (out / "summary.csv").read_text()
        assert summary.splitlines()[0] == ",".join(cli.SUMMARY_HEADER)
        if core is not None:
            assert core not in summary

    def test_manifest_records_the_config_builds_and_degraded_cells(self, tmp_path, monkeypatch):
        # A generator dataset and a file dataset whose mu + 2 sigma < 0, so
        # its one uniform cell above level 0 is error:uniform-range. The
        # config is named relative to the working directory, and so are the
        # data paths it resolves.
        points = np.random.default_rng(0).normal(size=(24, 3)) - 10.0
        (tmp_path / "data").mkdir()
        save_dataset(
            LabeledDataset(points=points, labels=np.repeat([0, 1], 12)),
            tmp_path / "data" / "neg.txt",
            tmp_path / "data" / "neg_labels.txt",
        )
        config = textwrap.dedent(
            """\
            scaling = none
            max_ratio = 1:3
            repeats = 2
            [dataset]
            name = gen
            dims = 3
            clusters = 2
            per_cluster = 6
            [dataset]
            data = data/neg.txt
            labels = data/neg_labels.txt
            """
        )
        _write(tmp_path / "sweep.cfg", config)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", "sweep.cfg", "--out", "out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        data_dir = (tmp_path / "data").resolve()
        assert manifest["config"] == {
            "datasets": [
                {
                    "kind": "generator",
                    "name": "gen",
                    "dims": 3,
                    "clusters": 2,
                    "per_cluster": 6,
                    "separation": 10.0,
                    "seed": 0,
                },
                {
                    "kind": "file",
                    "name": "neg",
                    "data_path": (data_dir / "neg.txt").as_posix(),
                    "labels_path": (data_dir / "neg_labels.txt").as_posix(),
                },
            ],
            "noise_kinds": ["gaussian", "uniform"],
            "scalings": ["none"],
            "max_ratio": "1:3",
            "ratio_step": 1,
            "repeats": 2,
            "master_seed": 0,
            "redraw_noise_per_repeat": False,
            "workers": 1,
        }
        assert list(manifest["config"]) == [f.name for f in dataclasses.fields(SweepConfig)]
        # max_ratio reads back as a config file value.
        max_ratio = cli.parse_config(tmp_path / "sweep.cfg").max_ratio
        assert cli._ratio(manifest["config"]["max_ratio"]) == max_ratio
        assert manifest["numpy_version"] == np.__version__
        assert manifest["blas_build"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # 2 datasets x 2 noises x 2 levels; only (neg, uniform, level 1) failed.
        statuses = {}
        for row in csv.DictReader(io.StringIO((tmp_path / "out" / "summary.csv").read_text())):
            key = (row["dataset"], row["noise"], row["ratio"])
            statuses.setdefault(key, set()).add(row["status"])
        assert len(statuses) == 8
        assert [key for key, seen in statuses.items() if seen != {"ok"}] == [
            ("neg", "uniform", repr(1 / 3))
        ]
        assert manifest["degraded_cells"] == 1

    def test_raw_csv_is_written_without_a_flag(self, tmp_path):
        config_path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", config_path, "--out", str(out)])
        assert rc == 0
        lines = (out / "raw.csv").read_text().splitlines()
        assert lines[0] == "dataset,noise,scaling,ratio,repeat,metric,value"
        assert len(lines) == 1 + 40 * 2  # cells * repeats

    def test_raw_flag_is_gone(self, tmp_path):
        config_path = _write(tmp_path / "sweep.cfg", SMALL_CONFIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", config_path, "--out", str(tmp_path / "out"), "--raw"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_degraded_cells_warn_but_exit_zero(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 3)) - 10.0
        points[:10] += 2.0
        np.savetxt(data_dir / "data.txt", points)
        (data_dir / "labels.txt").write_text("\n".join("01"[i // 10] for i in range(20)) + "\n")
        config_path = _write(
            tmp_path / "sweep.cfg",
            textwrap.dedent(
                """\
                noise = uniform
                scaling = none
                max_ratio = 2:3
                repeats = 2
                [dataset]
                data = data/data.txt
                labels = data/labels.txt
                """
            ),
        )
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", config_path, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "error:uniform-range" in captured.err
        text = (out / "summary.csv").read_text()
        assert "error:uniform-range" in text
        assert ",ok" in text  # baseline rows still fine

    def test_overflowing_stats_degrade_uniform_cells(self, tmp_path, capsys):
        # Finite entries whose pooled sigma overflows give a uniform bound that
        # is not finite: every noisy uniform cell degrades, and the run exits 0.
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "data.txt").write_text("1e308 1e308\n-1e308 -1e308\n1e308 -1e308\n-1e308 1e308\n")
        (data_dir / "labels.txt").write_text("0\n0\n1\n1\n")
        config_path = _write(
            tmp_path / "sweep.cfg",
            textwrap.dedent(
                """\
                noise = uniform
                scaling = none
                max_ratio = 1
                repeats = 2
                [dataset]
                data = data/data.txt
                labels = data/labels.txt
                """
            ),
        )
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", config_path, "--out", str(out)])
        assert rc == 0
        assert "error:uniform-range" in capsys.readouterr().err
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 * 5
        for row in rows:
            fields = row.split(",")
            if float(fields[3]) > 0:
                assert fields[-1] == "error:uniform-range", row

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 1
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, code", [("config", 2), ("data", 1), ("labels", 1), ("summary", 1)]
    )
    def test_input_that_is_not_utf8_names_its_file(self, tmp_path, capsys, kind, code):
        files = {
            "config": "noise = uniform\nrepeats = 2\n[dataset]\ndata = data.txt\nlabels = labels.txt\n",
            "data": "1 2\n3 4\n5 6\n",
            "labels": "0\n1\n0\n",
            "summary": ",".join(cli.SUMMARY_HEADER) + "\nmini,gaussian,none,0.0,ari,1.0,0.0,2,ok\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_bytes(text.encode("utf-8"))
        bad = tmp_path / f"{kind}.txt"
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
        out = tmp_path / "out"
        if kind == "summary":
            rc = cli.main(["report", "--summary", str(bad), "--out", str(out)])
        else:
            rc = cli.main(["run", "--config", str(tmp_path / "config.txt"), "--out", str(out)])
        assert rc == code
        assert capsys.readouterr().err == (
            f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n"
        )
        assert not (out / "summary.csv").exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        config_path = _write(tmp_path / "sweep.cfg", "bogus = 1\n[dataset]\ndims = 4\n")
        rc = cli.main(["run", "--config", config_path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


@pytest.fixture(scope="module")
def summary_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    config_path = root / "sweep.cfg"
    config_path.write_text(SMALL_CONFIG, encoding="utf-8")
    out = root / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return out / "summary.csv"


class TestReport:
    def test_panels_written(self, summary_path, tmp_path, capsys):
        rc = cli.main(["report", "--summary", str(summary_path), "--out", str(tmp_path)])
        assert rc == 0
        svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
        # 5 metrics x 2 noises x 1 scaling, mean and std panels each.
        assert len(svgs) == 20
        assert "mean_ari_gaussian_none.svg" in svgs
        assert "std_silhouette_uniform_none.svg" in svgs
        assert "20" in capsys.readouterr().out
        text = (tmp_path / "mean_ari_gaussian_none.svg").read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "mini" in text

    def test_unknown_metric_row_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "summary.csv"
        bad.write_text(
            "dataset,noise,scaling,ratio,metric,mean,std,repeats,status\n"
            "mini,gaussian,none,0.0,accuracy,1.0,0.0,2,ok\n",
            encoding="utf-8",
        )
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "accuracy" in capsys.readouterr().err

    def test_wrong_header_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "summary.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, row",
        [
            ("ratio", "mini,gaussian,none,1_0,ari,1.0,0.0,2,ok"),
            ("mean", "mini,gaussian,none,0.0,ari,\u0661.\u0665,0.0,2,ok"),
            ("std", "mini,gaussian,none,0.0,ari,1.0,x,2,ok"),
        ],
    )
    def test_bad_number_exits_1(self, tmp_path, capsys, field, row):
        bad = tmp_path / "summary.csv"
        bad.write_text(",".join(cli.SUMMARY_HEADER) + "\n" + row + "\n", encoding="utf-8")
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"line 2: {field}: expected a number" in capsys.readouterr().err

    def test_all_rows_error_marked_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "summary.csv"
        bad.write_text(
            "dataset,noise,scaling,ratio,metric,mean,std,repeats,status\n"
            "mini,uniform,none,0.5,ari,nan,nan,2,error:uniform-range\n",
            encoding="utf-8",
        )
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error-marked" in capsys.readouterr().err

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "summary.csv"
        row = "x" * 131073 + ",gaussian,none,0.0,ari,1.0,0.0,2,ok"
        bad.write_text(",".join(cli.SUMMARY_HEADER) + "\n" + row + "\n", encoding="utf-8")
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 2: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize(
        "rows",
        [
            [
                "mini,gaussian,none,0.0,silhouette,1e308,0.0,2,ok",
                "mini,gaussian,none,0.5,silhouette,-1e308,0.0,2,ok",
            ],
            ["mini,gaussian,none,0.0,silhouette,0.0,1e308,2,ok"],
            [
                "mini,gaussian,none,0.0,silhouette,1e16,0.0,2,ok",
                "mini,gaussian,none,0.5,silhouette,1.0000000000000004e16,0.0,2,ok",
            ],
        ],
        ids=["means", "std-band", "narrow"],
    )
    def test_panel_whose_range_cannot_be_ticked_names_the_panel(self, tmp_path, capsys, rows):
        # The silhouette mean panel's values (and +-std band) span more than
        # float64 holds, or so little for their size that a tick step of 1
        # added to 1e16 rounds back to 1e16 (the tick loop used to run
        # forever). The ari panels sort first and are drawable, but no panel
        # is written.
        bad = tmp_path / "summary.csv"
        good = "mini,gaussian,none,0.0,ari,0.5,0.1,2,ok"
        bad.write_text(
            "\n".join([",".join(cli.SUMMARY_HEADER), good, *rows]) + "\n", encoding="utf-8"
        )
        rc = cli.main(["report", "--summary", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        panel = "panel mean_silhouette_gaussian_none.svg"
        assert err.startswith(f"error: {bad}: {panel}: the axis range")
        assert err.endswith("cannot be ticked in float64\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(rows=st.lists(_summary_rows(), max_size=6))
    def test_report_on_any_summary_exits_0_or_1(self, rows):
        # Any rows under a valid header: report writes its panels or names
        # what it cannot use on one error line; it never raises.
        with tempfile.TemporaryDirectory() as directory:
            summary = Path(directory) / "summary.csv"
            with open(summary, "w", encoding="utf-8", newline="") as handle:
                csv.writer(handle).writerows([cli.SUMMARY_HEADER, *rows])
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["report", "--summary", str(summary), "--out", directory + "/out"])
        assert rc in (0, 1)
        if rc == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_missing_summary_exits_1(self, tmp_path):
        rc = cli.main(
            ["report", "--summary", str(tmp_path / "none.csv"), "--out", str(tmp_path)]
        )
        assert rc == 1


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "cluster-sense" in capsys.readouterr().out

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


def test_readme_lists_exactly_the_top_level_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Top-level keys:", 1)[1].lstrip("\n").split("\n\n", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert sorted(keys) == sorted(cli._TOP_KEYS)


def test_sweep_config_fields_are_exactly_the_top_level_keys_fields():
    # One knob, one key: every SweepConfig field is set by one top-level key,
    # apart from the [dataset] sections.
    fields = {field.name for field in dataclasses.fields(SweepConfig)}
    keyed = [field for field, _ in cli._TOP_KEYS.values()]
    assert len(keyed) == len(set(keyed))
    assert fields == set(keyed) | {"datasets"}


def test_readme_imports_exactly_the_package_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1]
    imported = re.search(r"from cluster_sense import \(([^)]*)\)", block.split("```", 1)[0])
    names = [name.strip() for name in imported.group(1).split(",") if name.strip()]
    assert sorted(names) == sorted(cluster_sense.__all__)
