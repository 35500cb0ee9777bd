"""Every public function of the library modules is called by the library or
the benchmark, or is a named reference the tests compare against; every
public class of the library modules, and every public method, static
method and property of one, is read by the library or the benchmark; every
private function and class of the package is used by the package itself;
numpy.linalg is called only through ``_solve``."""

import ast
from pathlib import Path

import numpy as np

from condexp import MeasurableFunction, WeightedOperator, product_space_example, random_instance
from condexp import operator_algebra as oa
from condexp import wce_operator as wce
from condexp.verification import summarize, verify_instance
from conftest import block_factors

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
#: generic product the tests build T*T, T^2 and T*(.)T with, the inner
#: product the adjoint identities are checked against, the paper's
#: sigma_jp identity, which the tests check on its own, and the
#: conditional expectation of one function, which the closed forms take on
#: arrays (``_conditional_means``) and the tests check them against
NOT_ON_A_CALL_PATH = {
    "apply",
    "compose",
    "conditional_expectation",
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


def _public_members(trees) -> list:
    """(class, member) for every public method, static method, class method
    and property defined in a class body at the top level of ``trees``."""
    return [
        (top.name, member.name)
        for tree in trees
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for member in top.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    ]


def test_every_public_member_is_read_in_src_or_bench():
    """A public method, static method or property of a library class must
    be read, by attribute name, somewhere in ``src`` or ``bench`` outside
    the re-exporting ``__init__``: one that only tests call is API nothing
    uses. A name counts wherever it is read, so the scan errs toward
    keeping a member."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    reads = {
        node.attr
        for path in paths
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY_MODULES]
    members = _public_members(trees)
    assert ("WeightedOperator", "entries") in members
    assert [m for m in members if m[1] not in reads] == []
    # the scan sees static methods and properties, and skips private members
    probe = ast.parse(
        "class C:\n"
        "    @staticmethod\n    def s():\n        pass\n"
        "    @property\n    def p(self):\n        pass\n"
        "    def _q(self):\n        pass\n"
    )
    assert _public_members([probe]) == [("C", "s"), ("C", "p")]


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


def _qr_callers(tree) -> list:
    """The enclosing top-level function (None outside one) of each QR call
    in ``tree``: ``_solve("qr", ...)``, or a call of an attribute ``qr``."""
    callers = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            solved = (
                isinstance(func, ast.Name)
                and func.id == "_solve"
                and args
                and isinstance(args[0], ast.Constant)
                and args[0].value == "qr"
            )
            if solved or (isinstance(func, ast.Attribute) and func.attr == "qr"):
                callers.append(owner)
    return callers


def test_no_src_function_calls_qr():
    """No function of ``src`` calls QR: an operator held as its lines, T
    among them, is factored by one stacked SVD of its cores, and one held
    as its blocks by the full SVD of each block."""
    callers = {
        f"{path.name}:{owner}"
        for path in (ROOT / "src").rglob("*.py")
        for owner in _qr_callers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert callers == set()
    # the scan sees a QR through _solve and a direct one, and no other routine
    probe = ast.parse(
        'def f(m):\n    return _solve("qr", m)\n'
        "def g(m):\n    return np.linalg.qr(m)\n"
        'def h(m):\n    return _solve("svd", m)\n'
    )
    assert _qr_callers(probe) == ["f", "g"]


def _verify_inputs() -> list:
    """The inputs of the structural verify tests: product_space_example(4, 80)
    as it is, and with w replaced by the constant 1, so that verify runs the
    normality check too."""
    instance = product_space_example(4, 80)
    return [instance, instance._replace(w=MeasurableFunction.constant(instance.space, 1.0))]


def test_verify_runs_no_svd_with_a_side_above_two(monkeypatch):
    """A verify of product_space_example(4, 80), with its own w or w = 1,
    makes no LAPACK call but SVDs of stacks of 2 x 2 cores, the joint point
    spectrum's: T's four atoms of 80 points are factored in closed form
    from their 1 x 1 cores, and the eigenvalues, the class margins and the
    normality check read T's factors and joint cores in closed form."""
    calls = []
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

        def probe(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    for w_one, instance in enumerate(_verify_inputs()):
        calls.clear()
        checks = verify_instance(instance)
        assert summarize(checks)["all_passed"]
        assert ("normality_equivalence_consistent" in [c.name for c in checks]) == w_one
        assert calls and {name for name, _ in calls} == {"svd"}
        assert [shape for _, shape in calls if shape[-2:] != (2, 2)] == []


def _operator_algebra_calls(tree) -> list:
    """(enclosing qualified name, called name) of each call in ``tree`` into
    operator_algebra, by a name imported from it or through the module
    itself; a call at module level has the scope None."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "operator_algebra":
                names |= {alias.asname or alias.name for alias in node.names}
            else:
                modules |= {
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "operator_algebra"
                }
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id in names:
                    calls.append((scope, func.id))
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in modules
                ):
                    calls.append((scope, func.attr))
            visit(child, scope)

    visit(tree, None)
    return calls


def test_closed_forms_never_call_the_oracle():
    """A closed form must never call the oracle it is checked against: the
    only call from ``wce_operator`` into ``operator_algebra`` builds T
    itself, in ``WCEOperator._matrix`` (T's definition)."""
    tree = ast.parse((ROOT / "src" / "condexp" / "wce_operator.py").read_text(encoding="utf-8"))
    assert _operator_algebra_calls(tree) == [("WCEOperator._matrix", "expectation_operator")]
    # the scan sees imported names and module attributes, in their scopes
    probe = ast.parse(
        "from .operator_algebra import adjoint\n"
        "from . import operator_algebra as oa\n"
        "class C:\n    def f(self, T):\n        return adjoint(T), oa.gram_power(T, 1)\n"
    )
    assert _operator_algebra_calls(probe) == [("C.f", "adjoint"), ("C.f", "gram_power")]


def test_verify_constructs_thirteen_operators(monkeypatch):
    """A verify of product_space_example(4, 80), with its own w or w = 1,
    constructs T, T* and the oracle's eleven operators (``gram_power`` at
    four powers of T and of T*, and the Aluthge transforms of T, of that
    transform and of T*), no closed-form operator, and none for the
    normality check; each checks its own cores finite and no line, and only
    T's lines are checked, once, where they are made."""
    built, checked = [], []

    def counted(op, _original=WeightedOperator.__post_init__):
        built.append(op)
        _original(op)

    def finite(p, _original=oa._finite):
        checked.append(p)
        return _original(p)

    monkeypatch.setattr(WeightedOperator, "__post_init__", counted)
    monkeypatch.setattr(oa, "_finite", finite)
    for instance in _verify_inputs():
        built.clear()
        checked.clear()
        assert summarize(verify_instance(instance))["all_passed"]
        assert len(built) == 13
        cores = [op._memo[oa._LINES].core for op in built]
        t_lines = built[0]._memo[oa._LINES].lines
        assert len(checked) == 14 and checked[0].size == t_lines.size
        assert np.shares_memory(checked[0], t_lines)
        assert all(x is c for x, c in zip(checked[1:], cores))


def test_a_derived_operator_rechecks_no_line_it_shares_with_t(monkeypatch):
    """The powers of T*T and the Aluthge transforms hold lines that are
    views of T's record (Y of T's factors), and the adjoint holds T's lines
    swapped: constructing them runs no finiteness check on a line."""
    instance = random_instance(3, 64, 8)
    T = oa.expectation_operator(*instance[:2], instance.w.values, instance.u.values)
    record = oa._atoms(T)
    checked = []

    def finite(p, _original=oa._finite):
        checked.append(p.shape)
        return _original(p)

    monkeypatch.setattr(oa, "_finite", finite)
    derived = [oa.gram_power(T, p) for p in (0.5, 1.0, 2.0, 3.5)] + [oa.aluthge_numeric(T)]
    derived.append(oa.adjoint(T))
    assert checked == [(instance.algebra.block_count, 1, 1)] * 6
    for op in derived[:-1]:
        assert np.shares_memory(op._memo[oa._LINES].lines, record.lines)
    assert np.shares_memory(derived[-1]._memo[oa._LINES].lines, T._memo[oa._LINES].lines)


def test_verify_makes_one_record_pass_for_t_and_none_for_its_adjoint(monkeypatch):
    """A verify of random_instance(7, 64, 8) reads T's per-atom record off
    T's lines in one pass, and one more off the lines of T's Aluthge
    transform, whose own transform is checked: two passes in all. T*'s
    record is T's swapped, read with no pass over lines: its lines are T's
    record's, and its inner products T's, swapped."""
    passes, made = [], []

    class Counted(oa._Atoms):
        def __new__(cls, *fields):
            passes.append(fields[4].shape)
            return super().__new__(cls, *fields)

    def capture(*args, _original=oa.expectation_operator, **kwargs):
        made.append(_original(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oa, "_Atoms", Counted)
    for module in (oa, wce):
        monkeypatch.setattr(module, "expectation_operator", capture)
    assert summarize(verify_instance(random_instance(7, 64, 8)))["all_passed"]
    assert passes == [(2, 64, 1)] * 2
    (T,) = made
    record, swapped = T._memo["_atoms"], oa.adjoint(T)._memo["_atoms"]
    assert np.shares_memory(swapped.lines, record.lines)
    assert swapped.g is record.g_adjoint and swapped.g_adjoint is record.g
    assert swapped.s is record.s


def test_verify_reads_the_parts_of_no_operator(monkeypatch):
    """A verify of product_space_example(4, 80), with its own w or w = 1,
    reads the blocks of no operator: T, T* and the oracle's operators are
    held as their lines, and every operator check compares them on their
    cores (``core_distances``)."""
    built, read = [], []

    def counted(op, _original=WeightedOperator.__post_init__):
        built.append(op)
        _original(op)

    def parts(op, _original=WeightedOperator.parts):
        read.append(op)
        return _original.fget(op)

    monkeypatch.setattr(WeightedOperator, "__post_init__", counted)
    monkeypatch.setattr(WeightedOperator, "parts", property(parts))
    for instance in _verify_inputs():
        built.clear()
        read.clear()
        assert summarize(verify_instance(instance))["all_passed"]
        assert len(built) == 13
        assert read == []
        assert all(op._parts is None for op in built)
    # the probe sees a read; a read builds the blocks, and the operator keeps none
    blocks = _counted_blocks(monkeypatch)
    assert len(built[1].parts) == len(blocks) == len(built[1].blocks) and read == [built[1]]
    assert built[1]._parts is None


def _counted_blocks(monkeypatch) -> list:
    """A list that records, for each block the one builder
    (``_built_block``) builds from now on, the form it is built from:
    ``_LINES``, the one form it builds from."""
    built = []

    def counted(T, k, _original=oa._built_block):
        built.append(oa._LINES if oa._LINES in T._memo else None)
        return _original(T, k)

    monkeypatch.setattr(oa, "_built_block", counted)
    return built


def test_verify_builds_no_block(monkeypatch):
    """A verify of product_space_example(4, 80), with its own w or w = 1,
    never calls the one builder of blocks (``_built_block``), from the
    lines of T, of T* or of the oracle's operators: no block is built."""
    built = _counted_blocks(monkeypatch)
    for instance in _verify_inputs():
        assert summarize(verify_instance(instance))["all_passed"]
        assert built == []
    # the probe sees a block built from T's lines and from a derived operator's
    T = oa.expectation_operator(instance.space, instance.algebra)
    list(T.parts)
    list(oa.adjoint(oa.gram_power(T, 1.0)).parts)
    assert built == [oa._LINES] * 8


def test_verify_of_one_point_atoms_builds_no_block(monkeypatch):
    """A verify of random_instance(1, 40, 40), whose 40 atoms are one point
    each, builds no block either: T's eigenvalues are s g on each atom, read
    off its factors, not off its 1 x 1 blocks. Verifies of
    random_instance(7, 64, 8) and product_space_example(4, 80) build none."""
    built = _counted_blocks(monkeypatch)
    inputs = (random_instance(1, 40, 40), random_instance(7, 64, 8), product_space_example(4, 80))
    for instance in inputs:
        assert summarize(verify_instance(instance))["all_passed"]
    assert inputs[0].algebra.block_count == 40
    assert built == []


def test_every_operator_of_a_verify_holds_one_form(monkeypatch):
    """Each of the 13 operators a verify of product_space_example(4, 80),
    with its own w or w = 1, builds holds exactly one of its blocks or its
    lines: T, T* and the oracle's eleven their lines. Reading ``parts`` of
    one gives its blocks, the product of its factors on each, and leaves
    ``_parts`` None."""
    built = []

    def counted(op, _original=WeightedOperator.__post_init__):
        built.append(op)
        _original(op)

    monkeypatch.setattr(WeightedOperator, "__post_init__", counted)
    for instance in _verify_inputs():
        built.clear()
        assert summarize(verify_instance(instance))["all_passed"]
        forms = [[op._parts is not None, oa._LINES in op._memo] for op in built]
        assert forms == [[False, True]] * 13
        assert all(oa._atoms(op) is not None for op in built)  # each reads a record
        d = np.sqrt(instance.space.weights)
        for op in built:
            for (b, x, s, y), p in zip(block_factors(op), op.parts, strict=True):
                expected = (((x * s) @ y.conj().T) / d[b][:, None]) * d[b][None, :]
                scale = 1.0 + np.abs(expected).max()
                assert np.abs(p - expected).max() <= 1e-12 * scale
            assert op._parts is None


def test_verify_calls_expectation_operator_once(monkeypatch):
    """A verify of product_space_example(4, 80) calls
    ``expectation_operator`` once, to build T."""
    calls = []

    def counted(*args, _original=oa.expectation_operator, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    for module in (oa, wce):
        monkeypatch.setattr(module, "expectation_operator", counted)
    assert summarize(verify_instance(product_space_example(4, 80)))["all_passed"]
    assert len(calls) == 1


def _solver_calls(monkeypatch, instance) -> int:
    """The numpy.linalg calls of a verify of ``instance``, whose T is read
    off its 1 x 1 cores in one pass over its lines (``_atoms``), with no
    solver call: there is no per-block factorization of T to leave out."""
    calls = []
    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

        def probe(*args, _original=getattr(np.linalg, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    assert summarize(verify_instance(instance))["all_passed"]
    monkeypatch.undo()
    return len(calls)


def test_verify_makes_no_solver_call_per_atom(monkeypatch):
    """A verify makes as many solver calls at 16 atoms as at 8 on the same
    64 points: T's factors are read off its record, and every question
    asked of them is one stacked call over the atoms."""
    for seed in range(2):
        counts = [_solver_calls(monkeypatch, random_instance(seed, 64, atoms)) for atoms in (8, 16)]
        assert counts[0] == counts[1] > 0


def test_verify_compares_each_section_in_one_call(monkeypatch):
    """A verify of random_instance(7, 64, 8) makes 2 solver calls, none for
    T's factors, and calls ``core_distances`` once per side: T's (the
    powers of T*T, the polar decomposition, the Aluthge transforms; 9
    comparisons) and T*'s (the powers of TT* and the adjoint; 6). T's
    atoms are rank one, so every comparison's core is 2 x 2, taken by the
    rank-one kernel, inside which no numpy.linalg routine runs."""
    instance = random_instance(7, 64, 8)
    assert _solver_calls(monkeypatch, instance) == 2
    calls, inside = [], []

    def counted(*args, _original=oa.core_distances, **kwargs):
        calls.append(len(args[2]))
        inside.append(1)
        try:
            return _original(*args, **kwargs)
        finally:
            inside.pop()

    for name in ("svd", "eig", "eigvals", "eigh", "eigvalsh", "qr"):

        def probe(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            assert not inside, f"{_name} ran inside a comparison"
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, probe)
    monkeypatch.setattr(oa, "core_distances", counted)
    assert summarize(verify_instance(instance))["all_passed"]
    assert calls == [9, 6]
