"""The package root exports what the commands, scripts, benchmark and the
paper's closed forms need; everything else is reached through its module."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import tprabi

ROOT = Path(__file__).parents[1]

PUBLIC = {
    "analytic": [
        "Regime",
        "SpectralCollapseError",
        "classify_regime",
        "critical_coupling",
        "degenerate_spectrum",
        "fock_to_position",
        "general_solution",
        "hermite_gauss",
        "plane_wave",
    ],
    "model": [
        "ALL_SUBSPACES",
        "FULL",
        "ModelParams",
        "SubspaceLabel",
        "build_full_fock",
        "build_subspace_tridiagonal",
        "subspace_from_name",
    ],
    "solver": ["convergence_filter", "solve_hermitian", "solve_tridiagonal"],
    "sweep": [
        "RelativeComb",
        "SweepConfig",
        "detect_collapse",
        "exceptional_state",
        "locate_collapse",
        "refine_collapse",
        "refine_comb",
        "run_sweep",
        "solve_point",
    ],
}

# no longer at the package root; each stays importable from its module
MODULE_ONLY = {
    "analytic": ["RegimeData", "degenerate_energies", "kummer_1f1"],
    "model": [
        "HermitianMatrix",
        "TridiagonalMatrix",
        "build_phase_space",
        "build_rotated_fock",
        "full_fock_band",
    ],
    "solver": [
        "Alignment",
        "EigenPair",
        "FilteredSpectrum",
        "align_spectra",
        "solve_band",
        "tail_norm_of",
    ],
    "sweep": [
        "CollapseEstimate",
        "ExceptionalState",
        "FAILURE_COUNT",
        "SweepResult",
        "SweepRow",
    ],
}


def test_root_exports_exactly_the_public_names():
    public = sorted(name for names in PUBLIC.values() for name in names)
    assert len(public) == 28
    assert sorted(tprabi.__all__) == sorted([*public, "__version__"])
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"tprabi.{module}")
        assert all(getattr(tprabi, name) is getattr(home, name) for name in names)


def test_dropped_names_import_from_their_modules():
    for module, names in MODULE_ONLY.items():
        home = importlib.import_module(f"tprabi.{module}")
        for name in names:
            assert hasattr(home, name), f"tprabi.{module}.{name}"
            assert not hasattr(tprabi, name), name


def _root_names_used(path: Path) -> set[str]:
    """Names path takes from the package root: `from tprabi import X` and
    `tprabi.X` where X is not a submodule."""
    submodules = {info.name for info in pkgutil.iter_modules(tprabi.__path__)}
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "tprabi" and node.level == 0:
            used.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "tprabi"
            and node.attr not in submodules
        ):
            used.add(node.attr)
    return used


def test_scripts_and_benchmark_use_only_public_names():
    paths = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    paths = [p for p in paths if not any(s.startswith(".") for s in p.relative_to(ROOT).parts)]
    assert paths
    for path in paths:
        missing = _root_names_used(path) - set(tprabi.__all__)
        assert not missing, f"{path.relative_to(ROOT)} imports {sorted(missing)} from tprabi"


def test_readme_library_tour_runs():
    # the first python block, with its own locate_collapse == full-scan assert
    tour = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(tour, "README.md", "exec"), {})
