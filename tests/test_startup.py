"""The startup contract: ``import repro`` loads one module, every package
root serves its public names on first use (PEP 562), and NumPy loads
only when the vector engine needs it.

Module-loading checks run in fresh interpreters, since this process has
long since imported everything."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: every package whose ``__init__`` resolves its names lazily
LAZY_PACKAGES = (
    "repro",
    "repro.area",
    "repro.checkers",
    "repro.circuits",
    "repro.codes",
    "repro.core",
    "repro.decoder",
    "repro.design",
    "repro.faultsim",
    "repro.memory",
    "repro.results",
    "repro.rom",
    "repro.scenarios",
    "repro.service",
    "repro.suite",
    "repro.utils",
)


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it sets ``result`` to a
    JSON-able value, which is returned."""
    wrapper = (
        "import json, sys\n"
        f"{script}\n"
        "sys.stdout.write('\\n' + json.dumps(result))\n"
    )
    path = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    completed = subprocess.run(
        [sys.executable, "-c", wrapper],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def modules_after_cli(argv) -> set:
    """``sys.modules`` after ``python -m repro <argv>`` in a new
    interpreter (the command's own output is discarded)."""
    loaded = fresh(
        "import contextlib, io, runpy\n"
        f"sys.argv = ['repro'] + {list(argv)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, None), exc.code\n"
        "result = sorted(sys.modules)"
    )
    return set(loaded)


class TestImportCost:
    def test_import_repro_loads_only_repro(self):
        added = fresh(
            "before = set(sys.modules)\n"
            "import repro\n"
            "result = sorted(set(sys.modules) - before)"
        )
        assert added == ["repro"]

    def test_import_repro_skips_heavy_layers(self):
        loaded = set(fresh("import repro\nresult = sorted(sys.modules)"))
        for heavy in (
            "numpy",
            "http",
            "http.client",
            "repro.analysis",
            "repro.service",
            "repro.analytics",
            "repro.experiments",
        ):
            assert heavy not in loaded, heavy

    def test_version_loads_no_numpy(self):
        assert "numpy" not in modules_after_cli(["--version"])

    def test_packed_suite_run_loads_no_numpy(self, tmp_path):
        store = str(tmp_path / "store")
        loaded = modules_after_cli(
            ["suite", "run", "smoke", "--engine", "packed",
             "--store", store, "--quiet"]
        )
        assert "repro.suite.runner" in loaded
        assert "numpy" not in loaded
        assert "repro.analysis" not in loaded

    def test_numpy_loads_when_the_vector_engine_is_resolved(self):
        state = fresh(
            "import importlib.util\n"
            "from repro.faultsim import vectorsim\n"
            "available = vectorsim.numpy_available()\n"
            "installed = importlib.util.find_spec('numpy') is not None\n"
            "probed = 'numpy' in sys.modules\n"
            "auto = vectorsim.resolve_engine('auto')\n"
            "after_auto = 'numpy' in sys.modules\n"
            "if available:\n"
            "    vectorsim.resolve_engine('vector')\n"
            "result = [available, installed, probed, auto, after_auto,\n"
            "          'numpy' in sys.modules]"
        )
        available, installed, probed, auto, after_auto, loaded = state
        assert available == installed
        assert not probed and not after_auto
        assert auto == ("vector" if available else "packed")
        assert loaded == available


class TestLazyNames:
    def test_every_public_name_resolves_in_a_fresh_interpreter(self):
        # each package is imported afresh (repro.* purged in between),
        # so a name that only resolves after some other import fails
        report = fresh(
            "import importlib\n"
            "result = {}\n"
            f"for package in {list(LAZY_PACKAGES)!r}:\n"
            "    for name in [m for m in sys.modules\n"
            "                 if m.split('.')[0] == 'repro']:\n"
            "        del sys.modules[name]\n"
            "    module = importlib.import_module(package)\n"
            "    listed = set(dir(module))\n"
            "    star = {}\n"
            "    exec(f'from {package} import *', star)\n"
            "    result[package] = {\n"
            "        'all': list(module.__all__),\n"
            "        'not_in_dir': sorted(set(module.__all__) - listed),\n"
            "        'not_starred': sorted(set(module.__all__) - set(star)),\n"
            "    }"
        )
        assert set(report) == set(LAZY_PACKAGES)
        for package, found in report.items():
            assert found["all"], package
            assert found["not_in_dir"] == [], package
            assert found["not_starred"] == [], package

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_names_are_the_defining_objects(self, package):
        module = importlib.import_module(package)
        for name, source in _type_checking_imports(package).items():
            defining = importlib.import_module(source)
            assert getattr(module, name) is getattr(defining, name), name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_attribute_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"'{package}'"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")

    def test_assigned_name_wins_over_the_lazy_table(self, monkeypatch):
        # instrumentation patches package attributes with setattr; the
        # patched value must be what later lookups see
        import repro.suite

        def patched(name):
            return name

        monkeypatch.setattr(repro.suite, "load_suite", patched)
        from repro.suite import load_suite

        assert load_suite is patched
        assert repro.suite.load_suite is patched

    def test_version_is_a_literal_for_static_readers(self):
        # pyproject's dynamic version is read from the source without
        # importing the package
        versions = [
            node.value.value
            for node in _init_tree("repro").body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets]
            == ["__version__"]
            and isinstance(node.value, ast.Constant)
        ]
        assert versions == [repro.__version__]


# -- static typing: the lazy table and the TYPE_CHECKING block agree ---------


def _init_tree(package: str) -> ast.Module:
    spec = importlib.util.find_spec(package)
    assert spec is not None and spec.origin is not None
    return ast.parse(pathlib.Path(spec.origin).read_text())


def _type_checking_imports(package: str) -> dict:
    """name -> defining module, from the ``if TYPE_CHECKING:`` block."""
    names = {}
    for node in _init_tree(package).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == (
            "TYPE_CHECKING"
        ):
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.ImportFrom)
                    and stmt.module != "typing"
                ):
                    for alias in stmt.names:
                        names[alias.asname or alias.name] = stmt.module
    return names


def _lazy_table(package: str) -> dict:
    """name -> module, from the ``_lazy(globals(), {...})`` call."""
    for node in _init_tree(package).body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_lazy"
        ):
            table = ast.literal_eval(node.value.args[1])
            return {
                name: importlib.util.resolve_name(module, package)
                for module, names in table.items()
                for name in names
            }
    raise AssertionError(f"{package} has no lazy table")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_table_matches_type_checking_block(package):
    table = _lazy_table(package)
    assert table == _type_checking_imports(package)
    exported = set(importlib.import_module(package).__all__)
    assert set(table) == exported - {"__version__"}
