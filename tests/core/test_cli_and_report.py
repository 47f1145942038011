"""CLI and report-rendering tests."""

import numpy as np
import pytest

from repro.cli import _parse_values, build_parser, main
from repro.core.report import format_table, render_models
from repro.core.hybrid import ModelComparison
from repro.modeling import Modeler, SearchPrior, fit_constant


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_empty_rows(self):
        text = format_table(("x",), [])
        assert "x" in text


class TestRenderModels:
    def _comparison(self):
        X = np.arange(1, 6, dtype=float).reshape(-1, 1)
        hybrid = fit_constant(X, np.full(5, 3.0), ("p",))
        bb = Modeler().model(X, 2 * X[:, 0] + 1, ("p",))
        return ModelComparison("fn", hybrid, bb, SearchPrior.constant())

    def test_renders_both_columns(self):
        text = render_models({"fn": self._comparison()})
        assert "hybrid model" in text and "black-box model" in text
        assert "fn" in text

    def test_max_rows(self):
        comps = {f"f{i}": self._comparison() for i in range(10)}
        text = render_models(comps, max_rows=3)
        assert text.count("\n") <= 6

    def test_false_dependencies_property(self):
        cmp = self._comparison()
        assert cmp.false_dependencies == frozenset({"p"})


class TestCLIParsing:
    def test_parse_values(self):
        out = _parse_values(["p=1,2,3", "size=10,20"])
        assert out == {"p": [1.0, 2.0, 3.0], "size": [10.0, 20.0]}

    def test_parse_values_rejects_missing_eq(self):
        with pytest.raises(SystemExit):
            _parse_values(["oops"])

    def test_parse_values_rejects_empty(self):
        with pytest.raises(SystemExit):
            _parse_values(["p="])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "notanapp"])


class TestCLICommands:
    def test_analyze_lulesh(self, capsys):
        assert main(["analyze", "lulesh"]) == 0
        out = capsys.readouterr().out
        assert "Functions" in out
        assert "parameter coverage" in out

    def test_segments_milc(self, capsys):
        assert main(["segments", "milc", "--p", "4,32"]) == 0
        out = capsys.readouterr().out
        assert "do_gather" in out

    def test_taint_fingerprint_identical_across_engines(self, capsys):
        """`repro taint` prints the report fingerprint every taint engine
        has printed: the taint stage digests that
        tests/integration/test_stage_digests.py pins."""
        pinned = {
            "lulesh": "625f56609f9aa49cf9486cb2ab9a926aff2cf1e579f61f49c8384ba94bf65954",
            "milc": "5cb42ef5805ebcbccdd4a2b59ca0c9773c4eb6fbbfd59f4278b4b5d8168064ac",
        }
        for app, fingerprint in pinned.items():
            assert main(["taint", "--app", app]) == 0
            out = capsys.readouterr().out
            line = next(
                l for l in out.splitlines() if "report fingerprint" in l
            )
            assert line.split(":", 1)[1].strip() == fingerprint

    def test_taint_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["taint", "--app", "notanapp"])

    def test_model_small(self, capsys):
        rc = main(
            [
                "model",
                "lulesh",
                "--values", "p=27,64,125", "size=6,9,12",
                "--repetitions", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hybrid model" in out

    def test_model_search_backend_flag(self, capsys):
        """--search-backend is gone: the model search is the modeler's
        (``Modeler.backend``).  Any value is rejected with one error
        line, before anything runs."""
        for backend in ("loop", "batched"):
            with pytest.raises(SystemExit) as exc:
                main(
                    [
                        "model",
                        "synthetic",
                        "--values", "p=2,4", "s=3,5",
                        "--repetitions", "2",
                        "--search-backend", backend,
                    ]
                )
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [
                line for line in captured.err.splitlines() if "error:" in line
            ]
            assert errors == [
                "repro: error: unrecognized arguments: "
                f"--search-backend {backend}"
            ]

    def test_model_rejects_unknown_search_backend(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"app": "synthetic", "parameters": {"p": [2, 4], "s": [3, 5]}}'
        )
        for argv in (
            ["model", "synthetic", "--values", "p=2,4", "s=3,5",
             "--search-backend", "gpu"],
            ["run", str(spec), "--search-backend", "loop"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                "repro: error: unrecognized arguments: "
                f"--search-backend {argv[-1]}"
            ]

    def test_contention_small(self, capsys):
        rc = main(
            [
                "contention",
                "lulesh",
                "--r", "2,4,8",
                "--size", "10",
                "--repetitions", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "application model over r" in out


class TestCLISweepAndParallel:
    def test_sweep_synthetic_parallel(self, capsys):
        rc = main(
            [
                "sweep", "synthetic",
                "--values", "p=2,4", "s=3,5",
                "--jobs", "2",
                "--repetitions", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "swept 4 configurations (4 executed, 0 from cache) " in out

    def test_sweep_cache_reuse(self, capsys, tmp_path):
        argv = [
            "sweep", "synthetic",
            "--values", "p=2,4", "s=3,5",
            "--cache-dir", str(tmp_path / "cache"),
            "--repetitions", "2",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 from cache" in out

    def test_sweep_counts_repeated_points(self, capsys):
        """A repeated design point is measured once; the summary line
        accounts for every point of the design."""
        argv = [
            "sweep", "synthetic",
            "--values", "p=2,2,4", "s=3,5",
            "--repetitions", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "swept 6 configurations (4 executed, 0 from cache, 2 repeated)"
            in out
        )
        assert "collected 24 measurements" in out

    def test_sweep_unknown_app_one_line_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "notanapp", "--values", "p=1,2"])
        message = str(exc.value)
        assert "unknown app 'notanapp'" in message
        assert "lulesh" in message and "milc" in message
        assert "\n" not in message

    def test_sweep_writes_measurements(self, tmp_path, capsys):
        out_file = tmp_path / "meas.json"
        rc = main(
            [
                "sweep", "synthetic",
                "--values", "p=2", "s=3",
                "--repetitions", "2",
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        from repro.measure import load_measurements

        meas = load_measurements(out_file)
        assert meas.parameters == ("p", "s")
        assert meas.functions()

    def test_model_accepts_jobs_and_cache(self, capsys, tmp_path):
        rc = main(
            [
                "model", "lulesh",
                "--values", "p=27,64", "size=6,9",
                "--repetitions", "2",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0
        assert "hybrid model" in capsys.readouterr().out
        # The cache was populated: a rerun hits it for every configuration.
        rc = main(
            [
                "model", "lulesh",
                "--values", "p=27,64", "size=6,9",
                "--repetitions", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert rc == 0

    def test_sweep_rejects_removed_engine(self, capsys):
        """The closure compiler is gone: ``--engine`` takes its choices
        from the engine registry, and argparse rejects the old name with
        its one-line usage error."""
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sweep", "synthetic",
                    "--values", "p=2,4", "s=3,5",
                    "--engine", "compiled",
                ]
            )
        assert exc.value.code == 2
        errors = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert "invalid choice" in errors[0] and "compiled" in errors[0]
        assert "tree" in errors[0] and "vectorized" in errors[0]

    def test_sweep_rejects_nonpositive_jobs_and_repetitions(self, capsys):
        for argv in (
            ["sweep", "synthetic", "--values", "p=2", "s=3", "--jobs", "0"],
            ["sweep", "synthetic", "--values", "p=2", "s=3",
             "--repetitions", "0"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "must be >= 1" in err


class TestCLIRegistryCommands:
    def test_apps_lists_registered_workloads(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("lulesh", "milc", "synthetic"):
            assert name in out

    def test_stages_lists_the_graph(self, capsys):
        assert main(["stages"]) == 0
        out = capsys.readouterr().out
        for name in (
            "static", "taint", "volumes", "classify", "design",
            "plan", "measure", "model", "validate",
        ):
            assert name in out
        assert "measure" in out and "design" in out

    def test_unknown_app_shows_user_registered_apps(self, capsys):
        """The app list is the live registry, not a frozen literal."""
        from repro.registry import WORKLOAD_REGISTRY, register_workload
        from repro.apps.synthetic import make_scaling_workload

        register_workload("userapp-test")(make_scaling_workload)
        try:
            with pytest.raises(SystemExit) as exc:
                main(["model", "badname", "--values", "p=1,2"])
            message = str(exc.value)
            assert "unknown app 'badname'" in message
            assert "userapp-test" in message
            assert "lulesh" in message
            assert "\n" not in message
        finally:
            WORKLOAD_REGISTRY._entries.pop("userapp-test", None)

    def test_unsupported_app_one_line_error_not_traceback(self):
        """Commands whose hard-coded inputs an app lacks must exit with a
        one-line error, not a raw KeyError."""
        for argv in (
            ["contention", "synthetic", "--r", "2,4"],
            ["segments", "synthetic", "--p", "4,8"],
            ["model", "synthetic", "--values", "p=2,4"],  # missing s
            ["sweep", "synthetic", "--values", "p=2,4"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            message = str(exc.value)
            assert "does not support this command" in message
            assert "\n" not in message

    def test_user_registered_app_is_runnable(self, capsys):
        from repro.registry import WORKLOAD_REGISTRY, register_workload
        from repro.apps.synthetic import make_scaling_workload

        register_workload("userapp-test")(make_scaling_workload)
        try:
            rc = main(
                [
                    "sweep", "userapp-test",
                    "--values", "p=2", "s=3",
                    "--repetitions", "2",
                ]
            )
            assert rc == 0
            assert "swept 1 configurations" in capsys.readouterr().out
        finally:
            WORKLOAD_REGISTRY._entries.pop("userapp-test", None)


class TestCLICampaignRun:
    SPEC = """
app = "synthetic"
repetitions = 2
seed = 7

[parameters]
p = [2, 4]
s = [3, 5]
"""

    def _spec_file(self, tmp_path):
        spec = tmp_path / "campaign.toml"
        spec.write_text(self.SPEC)
        return spec

    def test_run_and_resume(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        argv = ["run", str(spec), "--workspace", str(tmp_path / "ws")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "9 computed, 0 resumed" in out
        assert "hybrid model" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 computed, 9 resumed" in out

    def test_run_without_workspace(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        assert main(["run", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "9 computed" in out
        assert "workspace:" not in out

    def test_run_missing_spec_one_line_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "nope.toml")])
        assert "cannot read spec file" in str(exc.value)

    def test_run_rejects_removed_taint_option(self, capsys, tmp_path):
        """The taint stage has one engine: the option is gone, and
        argparse rejects it with its one-line usage error."""
        spec = self._spec_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec), "--taint-engine", "tree"])
        assert exc.value.code == 2
        errors = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert "unrecognized arguments: --taint-engine tree" in errors[0]

    def test_run_bad_spec_one_line_error(self, tmp_path):
        spec = tmp_path / "bad.toml"
        spec.write_text('app = "synthetic"\nbogus_key = 1\n'
                        "[parameters]\np = [2]\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec)])
        assert "bogus_key" in str(exc.value)

    def test_run_json_spec(self, capsys, tmp_path):
        """``run`` and ``submit`` read specs alike: a JSON copy of the
        example TOML campaign runs."""
        import json
        import pathlib

        from repro.core.stages import Campaign

        example = (
            pathlib.Path(__file__).parents[2]
            / "examples"
            / "synthetic_campaign.toml"
        )
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(Campaign.read_spec(example)))
        assert main(["run", str(spec)]) == 0
        assert "9 computed, 0 resumed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "submit"])
    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.json", "{nope", "is not valid JSON"),
            ("list.json", "[1, 2]", "must contain a mapping, got list"),
            ("bad.toml", "x = [", "is not valid TOML"),
        ],
    )
    def test_unreadable_spec_one_line_error(
        self, tmp_path, command, name, text, message
    ):
        """A malformed or non-mapping spec ends both commands with one
        ``error:`` line, before any server is contacted."""
        spec = tmp_path / name
        spec.write_text(text)
        argv = [command, str(spec)]
        if command == "submit":
            argv += ["--server", "http://127.0.0.1:9"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        lines = str(exc.value).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
