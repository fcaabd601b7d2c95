"""Suite/spec lint rules plus the eager-validation regression: a
malformed spec exits non-zero with a one-line diagnostic, never a
traceback, and the lint rules catch what eager validation cannot —
cross-cell collisions, provenance gaps, registries mutated after load.
"""

import json

import pytest

from repro.analysis import AnalysisError, analyze
from repro.cli import main
from repro.suite import builtin_suite
from repro.suite.populations import POPULATIONS
from repro.suite.runner import SuiteRunner
from repro.suite.spec import MatrixBlock, SuiteSpec, _validate_workload

ORG = {"words": 64, "bits": 8, "column_mux": 4}
UPSETS = {"population": "upset-stride", "stride": 16}
PINNED = {"family": "uniform", "cycles": 64, "seed": 1}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def transient_block(**overrides):
    kwargs = dict(
        family="transient",
        targets=(ORG,),
        workloads=(PINNED,),
        scenarios=UPSETS,
    )
    kwargs.update(overrides)
    return MatrixBlock(**kwargs)


class TestSuiteRules:
    def test_builtin_suites_lint_clean(self):
        for name in ("paper_grid", "smoke"):
            report = analyze(builtin_suite(name))
            assert report.kind == "suite"
            assert report.clean, report.render()

    def test_matrix_block_is_wrapped_into_a_suite(self):
        report = analyze(transient_block(label="solo"))
        assert report.kind == "suite"
        assert report.target == "solo"
        assert report.clean, report.render()

    def test_duplicate_cells_collide_on_one_store_key(self):
        block = transient_block(targets=(ORG, dict(ORG)))
        report = analyze(SuiteSpec(name="dupes", blocks=(block,)))
        assert report.errors == 0
        assert report.warnings == 1
        finding = report.findings[0]
        assert finding.rule == "suite-duplicate"
        assert len(finding.counterexample["cells"]) == 2
        # warnings only gate in strict mode
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_cells_differing_only_in_execution_policy_collide(self):
        # engine, workers and chunk stay out of the store key
        block = transient_block(
            policies=(
                {"engine": "packed"},
                {"engine": "serial"},
                {"engine": "packed", "workers": 2, "chunk": 64},
                {"collapse": False},
            )
        )
        report = analyze(SuiteSpec(name="engines", blocks=(block,)))
        duplicates = [
            f for f in report.findings if f.rule == "suite-duplicate"
        ]
        assert len(duplicates) == 1
        assert len(duplicates[0].counterexample["cells"]) == 3

    def test_unpinned_workload_is_a_provenance_warning(self):
        block = transient_block(workloads=({"family": "uniform"},))
        report = analyze(SuiteSpec(name="loose", blocks=(block,)))
        warnings = [
            f for f in report.findings if f.rule == "suite-provenance"
        ]
        assert len(warnings) == 1
        assert "cycles" in warnings[0].message
        assert "seed" in warnings[0].message

    def test_march_workloads_need_no_cycle_pin(self):
        block = transient_block(workloads=({"family": "march"},))
        report = analyze(SuiteSpec(name="march", blocks=(block,)))
        assert all(
            f.rule != "suite-provenance" for f in report.findings
        )

    def test_unknown_engine_policy_can_never_run(self):
        block = transient_block(policies=({"engine": "warp"},))
        report = analyze(SuiteSpec(name="engines", blocks=(block,)))
        errors = [f for f in report.findings if f.rule == "suite-engine"]
        assert len(errors) == 1
        assert "never run" in errors[0].message

    def test_population_unregistered_after_load_is_caught(self):
        POPULATIONS.register("test-tmp-pop", lambda target, params: [])
        try:
            block = transient_block(
                scenarios={"population": "test-tmp-pop"}
            )
        finally:
            POPULATIONS.unregister("test-tmp-pop")
        report = analyze(SuiteSpec(name="stale", blocks=(block,)))
        errors = [
            f for f in report.findings if f.rule == "suite-population"
        ]
        assert len(errors) == 1
        assert "test-tmp-pop" in errors[0].message

    def test_workload_mutated_after_load_is_caught(self):
        block = transient_block()
        block.workloads[0]["family"] = "bogus"  # in-place mutation
        report = analyze(SuiteSpec(name="mutated", blocks=(block,)))
        errors = [
            f for f in report.findings if f.rule == "suite-workload"
        ]
        assert len(errors) == 1
        assert "bogus" in errors[0].message

    def test_unbuildable_target_is_caught(self):
        block = transient_block(targets=({"words": 64},))
        report = analyze(SuiteSpec(name="targets", blocks=(block,)))
        errors = [f for f in report.findings if f.rule == "suite-target"]
        assert len(errors) == 1
        assert "does not build" in errors[0].message


class TestEagerSpecValidation:
    def test_unknown_workload_family(self):
        with pytest.raises(ValueError, match="unknown workload family"):
            _validate_workload({"family": "warp"}, "b")

    def test_unknown_workload_kind(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            _validate_workload({"kind": "warp"}, "b")

    def test_unknown_march_test(self):
        with pytest.raises(ValueError, match="unknown march test"):
            _validate_workload({"test": "March Z"}, "b")

    def test_workload_without_a_recognised_key(self):
        with pytest.raises(ValueError, match="'family', 'kind' or 'test'"):
            _validate_workload({"cycles": 64}, "b")

    def test_block_construction_validates_workloads_eagerly(self):
        with pytest.raises(ValueError, match="unknown workload family"):
            transient_block(workloads=({"family": "warp"},))

    def test_malformed_spec_file_exits_one_line_no_traceback(
        self, capsys, tmp_path
    ):
        spec = builtin_suite("smoke").to_dict()
        spec["blocks"][0]["workloads"] = [{"family": "warp"}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "suite", "show", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert "unknown workload family" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestRunnerLintHook:
    def test_lint_true_runs_a_clean_suite(self, tmp_path):
        suite = SuiteSpec(
            name="ok",
            blocks=(
                MatrixBlock(family="design", targets=(dict(ORG),)),
            ),
        )
        result = SuiteRunner(store=str(tmp_path / "store")).run(
            suite, lint=True
        )
        assert result is not None

    def test_lint_true_refuses_a_suite_that_can_never_run(self, tmp_path):
        POPULATIONS.register("test-doomed-pop", lambda target, params: [])
        try:
            block = transient_block(
                scenarios={"population": "test-doomed-pop"}
            )
        finally:
            POPULATIONS.unregister("test-doomed-pop")
        suite = SuiteSpec(name="doomed", blocks=(block,))
        runner = SuiteRunner(store=str(tmp_path / "store"))
        with pytest.raises(AnalysisError) as excinfo:
            runner.run(suite, lint=True)
        assert "suite-population" in str(excinfo.value)
        assert excinfo.value.report.errors == 1
