"""The public surface is the modules' ``__all__``; the package itself re-exports nothing."""
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import folbend

# Each library module's public names, pinned so that a name is added or
# dropped on purpose.
PUBLIC = {
    "quadrature": {
        "QuadratureConfig", "UndecidedError", "EndpointScan", "OpenResult",
        "adaptive_quadrature", "ratio_quadrature", "integrate_open",
    },
    "torsion": {
        "SplitDims", "TorsionCoefficients", "DerivedTensors", "BlockFlags",
        "random_coefficients", "umbilical_coefficients", "derive", "classify",
        "mu_identity_residual", "sigma_inequality_slack", "mean_curvature_bound_slack",
        "block_mean_curvature_slacks",
    },
    "spaces": {
        "Family", "ModelSpace", "FocalVariety", "parse_space", "parse_focal", "ricci_curvature",
    },
    "tubes": {
        "InitKind", "JacobiBranch", "TubeProfile", "NotComputableError", "tube_profile",
        "write_profile_csv",
    },
    "bending": {
        "BendingResult", "TorusResult", "total_bending", "epsilon_deformed_bending",
        "torus_bending", "complex_radial_bending",
    },
    "bounds": {
        "BoundCase", "LowerBound", "lower_bound", "einstein_lower_bound",
        "IntegralCheckResult", "integral_formula_check", "DEFAULT_CHECK_PAIRS", "TableRow",
        "DEFAULT_TABLE_ROWS", "table1_report", "MinimizerReport", "minimizer_report",
    },
}
LIBRARY_MODULES = tuple(PUBLIC)
SOURCES = sorted(Path(folbend.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# Code that calls the library: the library itself, the benchmark, the tools
# and the demos, without their tests.
CALLERS = sorted(path for folder in ("src/folbend", "perfbench", "tools", "demos")
                 for path in (ROOT / folder).rglob("*.py")
                 if "tests" not in path.relative_to(ROOT).parts)


def test_package_holds_only_its_version():
    public = {name for name, value in vars(folbend).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set()
    assert isinstance(folbend.__version__, str)
    assert not hasattr(folbend, "__all__")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"folbend.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_public_names_are_pinned(name):
    module = importlib.import_module(f"folbend.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == PUBLIC[name]


def test_only_what_a_caller_needs():
    # A profile evaluates its primitives and the two integrands at fixed
    # sample radii; the minimizer decides attainment by its bar; classify has
    # one fixed tolerance; Table 1's report is the tuple of its reference rows;
    # a bound does not echo n and q; main handles no NotComputableError, which
    # every command answers or turns into a usage error itself; and one helper
    # states the normal-float range.
    from folbend import bounds, cli, torsion, tubes

    def parameters(function):
        return set(inspect.signature(function).parameters)

    assert not {"sum_alpha", "second_mean_curvature"} & set(dir(tubes.TubeProfile))
    assert "tol" not in parameters(bounds.minimizer_report)
    assert parameters(torsion.classify) == {"coeffs"}
    assert parameters(tubes.TubeProfile.samples) == {"self"}
    assert parameters(tubes.write_profile_csv) == {"profile", "path"}
    assert parameters(bounds.table1_report) == {"lam", "rtol", "quad"}
    assert not hasattr(bounds, "Table1Report")
    assert [f.name for f in dataclasses.fields(bounds.LowerBound)] == [
        "case", "coefficient", "value"]
    assert not hasattr(bounds, "_VERDICT_KIND")
    assert "NotComputableError" not in inspect.getsource(cli.main)
    assert sum(path.read_text().count("float_info.min") for path in SOURCES) == 1


def referenced_names(source: str) -> set[str]:
    """Names a module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_has_a_caller():
    # A public name that nothing outside the tests reaches is dead code.  The
    # benchmark's tracer resolves its layer functions by string, which counts.
    spec = importlib.util.spec_from_file_location("benchmark_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    reached = set().union(*(referenced_names(path.read_text()) for path in CALLERS))
    reached |= {name for names in tracer.LAYERS.values() for name in names}
    uncalled = [f"{module}.{name}" for module in LIBRARY_MODULES
                for name in importlib.import_module(f"folbend.{module}").__all__
                if name not in reached]
    assert uncalled == []


def test_caller_check_sees_every_kind_of_reference():
    source = "import a.b\nfrom c import d as e\nf.g(h)\ni = 1\n"
    assert referenced_names(source) == {"b", "d", "f", "g", "h"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_leftovers():
    source = "from dataclasses import dataclass, replace\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["replace"]
