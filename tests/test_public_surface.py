"""The public surface is the modules' ``__all__``; the package itself re-exports nothing."""
import ast
import dataclasses
import importlib
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
        "BendingResult", "TorusResult", "EnergyResult", "total_bending",
        "epsilon_deformed_bending", "torus_bending", "complex_radial_bending", "energy",
    },
    "bounds": {
        "BoundCase", "LowerBound", "lower_bound", "einstein_lower_bound",
        "IntegralCheckResult", "integral_formula_check", "DEFAULT_CHECK_PAIRS", "TableRow",
        "Table1Report", "DEFAULT_TABLE_ROWS", "table1_report", "MinimizerReport",
        "minimizer_report",
    },
}
LIBRARY_MODULES = tuple(PUBLIC)
SOURCES = sorted(Path(folbend.__file__).parent.glob("*.py"))


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
    # A profile evaluates its primitives and the two integrands; the minimizer
    # decides attainment by its bar; Table 1's report is its rows; main handles
    # no NotComputableError, which every command answers or turns into a usage
    # error itself; and one helper states the normal-float range.
    from folbend import bounds, cli, tubes

    assert not {"sum_alpha", "second_mean_curvature"} & set(dir(tubes.TubeProfile))
    assert "tol" not in inspect.signature(bounds.minimizer_report).parameters
    assert [f.name for f in dataclasses.fields(bounds.Table1Report)] == ["rows"]
    assert not hasattr(bounds, "_VERDICT_KIND")
    assert "NotComputableError" not in inspect.getsource(cli.main)
    assert sum(path.read_text().count("float_info.min") for path in SOURCES) == 1


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
