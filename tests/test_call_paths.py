"""Every public function of the library modules is called by the library or
the benchmark, or is a named reference the tests compare against; every
public class of the library modules is read by the library or the
benchmark; every private function and class of the package is used by the
package itself; numpy.linalg is called only through ``_solve``."""

import ast
from pathlib import Path

import numpy as np

from condexp import product_space_example
from condexp.verification import summarize, verify_instance

ROOT = Path(__file__).resolve().parents[1]

#: the library modules: every one but the re-exporting ``__init__`` and
#: ``cli``, whose ``cmd_*`` handlers are wired in through ``set_defaults``
#: and never called by name
LIBRARY_MODULES = sorted(
    path
    for path in (ROOT / "src" / "condexp").glob("*.py")
    if path.name not in ("__init__.py", "cli.py")
)

#: the public functions nothing in ``src`` or ``bench`` calls: the dense
#: references the tests check the oracle with (``kernel_projection`` is the
#: one the coimage rule of the polar kernel check is compared with), the
#: inner product the adjoint identities are checked against, and the paper's
#: sigma_jp identity, which the tests check on its own
NOT_ON_A_CALL_PATH = {
    "apply",
    "fractional_power",
    "kernel_projection",
    "polar_isometry_numeric",
    "loewner_geq",
    "weighted_inner",
    "joint_spectrum_range_check",
}


def _called_names() -> set:
    """Names called anywhere in src and bench, outside the package's
    ``__init__`` (which only re-exports)."""
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def _public_functions(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_public_oracle_function_is_called_or_a_named_reference():
    assert LIBRARY_MODULES
    public = set().union(*map(_public_functions, LIBRARY_MODULES))
    assert public - _called_names() == NOT_ON_A_CALL_PATH


def _top_level_reads(paths) -> list:
    """(file, top-level node, the names it reads) for every statement at
    module level in ``paths``; a name counts when it is loaded as a name or
    an attribute, so an import alone does not count."""
    out = []
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
            }
            out.append((path, top, names))
    return out


def _is_unread(top, reads) -> bool:
    """No statement of ``reads`` but ``top`` itself reads ``top``'s name."""
    return not any(top.name in names for _, other, names in reads if other is not top)


def test_every_public_class_is_read_in_src_or_bench():
    """A public class of the library modules must be read outside its own
    definition and the re-exporting ``__init__``: one that only tests read
    is a holder type whose readers are gone."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    reads = _top_level_reads([p for p in paths if p.name != "__init__.py"])
    classes = [
        top
        for path, top, _ in reads
        if path in LIBRARY_MODULES
        and isinstance(top, ast.ClassDef)
        and not top.name.startswith("_")
    ]
    assert classes
    assert [top.name for top in classes if _is_unread(top, reads)] == []


def test_every_private_function_and_class_is_used_in_src():
    """A private module-level function or class that only tests use is dead
    code: references from ``tests`` do not count, and neither does the
    definition's own body."""
    reads = _top_level_reads((ROOT / "src" / "condexp").glob("*.py"))
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [
        f"{path.name}:{top.name}"
        for path, top, _ in reads
        if isinstance(top, definitions)
        and top.name.startswith("_")
        and not top.name.startswith("__")
        and _is_unread(top, reads)
    ]
    assert unused == []


def _linalg_uses(tree) -> list:
    """(line, function) of each use of numpy.linalg in ``tree`` other than
    its LinAlgError, with the enclosing top-level function (None outside
    one); an import of numpy.linalg counts as a use."""
    uses = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        nodes = list(ast.walk(top))
        errors = {
            id(n.value) for n in nodes if isinstance(n, ast.Attribute) and n.attr == "LinAlgError"
        }
        for node in nodes:
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                named = [node.module or ""]
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                named = [] if id(node) in errors else ["numpy.linalg"]
            else:
                named = []
            if any(name.startswith("numpy.linalg") for name in named):
                uses.append((node.lineno, owner))
    return uses


def test_numpy_linalg_is_called_only_through_solve():
    """Every solver call goes through ``operator_algebra._solve``, which logs
    it at DEBUG and looks the routine up at call time, so a probe on
    numpy.linalg sees it: no other code in ``src`` names numpy.linalg, save
    for its LinAlgError."""
    stray = []
    for path in (ROOT / "src").rglob("*.py"):
        for line, owner in _linalg_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if not (path.name == "operator_algebra.py" and owner == "_solve"):
                stray.append(f"{path.name}:{line}")
    assert stray == []
    # the scan sees a direct use and an import, and lets LinAlgError through
    probe = ast.parse(
        "import numpy.linalg\n"
        "def f(m):\n    return np.linalg.svd(m)\n"
        "def g():\n    raise np.linalg.LinAlgError\n"
    )
    assert _linalg_uses(probe) == [(1, None), (3, "f")]


def test_verify_runs_only_t_s_svds_at_full_size(monkeypatch):
    """A verify of product_space_example(4, 80) runs exactly four 80 x 80
    SVDs, T's own, and no other SVD of a matrix with a side above 2 (the
    polar checks factor stacks of 2 x 2 cores)."""
    shapes = []

    def probe(a, *args, _original=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", probe)
    assert summarize(verify_instance(product_space_example(4, 80)))["all_passed"]
    large = [s for s in shapes if max(s[-2:]) > 2]
    assert large == [(80, 80)] * 4
