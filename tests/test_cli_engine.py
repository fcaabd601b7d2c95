"""The unified --engine CLI surface: policy choices on every
campaign-driven command, the removed --packed/--serial aliases,
suite-level overrides, engine-free store keys, and the resolved engine
in --json payloads."""

import json
import os

import pytest

from repro.cli import ENGINE_CHOICES, main
from repro.faultsim.vectorsim import numpy_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy (repro[vector]) not installed"
)


class TestEngineChoices:
    def test_choices_cover_the_campaign_policies(self):
        assert set(ENGINE_CHOICES) == {
            "serial", "packed", "vector", "auto",
        }

    def test_unknown_engine_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["march", "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestEngineFlag:
    def test_march_packed_json(self, capsys):
        assert main(["march", "--engine", "packed", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "packed"

    def test_march_serial_json(self, capsys):
        assert main(["march", "--engine", "serial", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "serial"

    @needs_numpy
    def test_march_vector_json(self, capsys):
        assert main(["march", "--engine", "vector", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "vector"

    @needs_numpy
    def test_auto_reports_the_resolved_engine(self, capsys):
        # "auto" is a policy; the payload surfaces what actually ran
        assert main(["march", "--engine", "auto", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "vector"

    def test_serial_engine_rejects_workers(self, capsys):
        assert main(
            ["transient", "--engine", "serial", "--workers", "2"]
        ) == 1
        assert "--workers requires the packed or vector engine" in (
            capsys.readouterr().err
        )


def _rejected(argv, capsys):
    """Run ``argv`` and assert argparse rejects it as an unknown flag."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


class TestDeprecatedAliases:
    """The 1.7 --packed/--serial aliases were removed in 2.0. These tests
    keep their 1.x names and pin what each former alias usage does now:
    argparse rejects it with exit 2, and --engine is the one spelling."""

    def test_serial_alias_still_works(self, capsys):
        _rejected(["march", "--serial"], capsys)
        assert main(["march", "--engine", "serial", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "serial"

    def test_packed_alias_still_works(self, capsys):
        _rejected(["march", "--packed"], capsys)
        _rejected(["submit", "smoke", "--packed"], capsys)
        assert main(["march", "--engine", "packed", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "packed"

    def test_alias_help_says_deprecated(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["march", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--engine" in out
        assert "--packed" not in out
        assert "--serial" not in out

    def test_alias_conflicts_with_engine_flag(self, capsys):
        _rejected(["march", "--engine", "serial", "--packed"], capsys)


class TestSuiteEngineOverride:
    def test_suite_run_engine_override_json(self, tmp_path, capsys):
        assert main(
            ["suite", "run", "smoke", "--engine", "serial",
             "--store", str(tmp_path / "store"), "--quiet", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["execution"]["errors"] == 0
        engines = {
            cell["provenance"].get("engine")
            for cell in report["cells"]
            if cell["family"] != "design"  # design cells are analytic
        }
        assert engines == {"serial"}

    @needs_numpy
    def test_suite_run_vector_matches_packed_payload(
        self, tmp_path, capsys
    ):
        # the acceptance contract: an --engine vector suite run is
        # stable-payload identical to the packed run (engine names and
        # wall times aside)
        def run(engine, store):
            assert main(
                ["suite", "run", "smoke", "--engine", engine,
                 "--store", str(store), "--quiet", "--json"]
            ) == 0
            return json.loads(capsys.readouterr().out)

        def stable(report):
            # everything but the engine labels: the scientific payload
            # and the (engine-free) store keys must be identical
            cells = []
            for cell in report["cells"]:
                cell = dict(cell)
                cell.pop("execution")
                cell["summary"] = {
                    k: v
                    for k, v in cell["summary"].items()
                    if k != "engine"
                }
                cell["provenance"] = {
                    k: v
                    for k, v in cell["provenance"].items()
                    if k != "engine"
                }
                cells.append(cell)
            return cells

        packed = run("packed", tmp_path / "packed-store")
        vector = run("vector", tmp_path / "vector-store")
        assert stable(packed) == stable(vector)

    @needs_numpy
    def test_engine_switch_is_served_from_one_store(self, tmp_path, capsys):
        # the engine is an execution detail, like workers and chunk: a
        # vector run over a store the packed run filled is all hits
        store = tmp_path / "store"

        def run(engine):
            assert main(
                ["suite", "run", "smoke", "--engine", engine,
                 "--store", str(store), "--quiet", "--json"]
            ) == 0
            return json.loads(capsys.readouterr().out)["execution"]

        def files():
            return sorted(
                os.path.relpath(os.path.join(root, name), store)
                for root, _, names in os.walk(store)
                for name in names
            )

        assert run("packed")["simulated"] == 8
        filled = files()
        execution = run("vector")
        assert execution["cells"] == 8
        assert execution["hits"] == execution["verified_hits"] == 8
        assert execution["simulated"] == 0
        assert files() == filled

    def test_suite_run_alias_conflicts_with_engine(self, capsys):
        # suite run lost the aliases with the other commands in 2.0
        _rejected(
            ["suite", "run", "smoke", "--engine", "serial", "--packed"],
            capsys,
        )
