"""Static checks on the package source that need no installed linter."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mcor").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses; a name listed in
    ``__all__`` counts as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom .errors import A, B\nB()\n") == [
        "line 1: os", "line 2: A"]
    assert unused_imports("from .x import A\n__all__ = ['A']\n") == []


def rule_sites(source: str, module: str, matches) -> list[str]:
    """Dotted name of the innermost function (or of the module) holding
    each node of ``source`` that ``matches``, one entry per node."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            else:
                if matches(child):
                    found.append(owner)
                visit(child, owner)

    visit(ast.parse(source), module)
    return found


def calls_frexp(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Attribute) and func.attr == "frexp"
            or isinstance(func, ast.Name) and func.id == "frexp")


def raises_beyond_roundoff(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "NumericInconsistency"
            and any(isinstance(part, ast.Constant) and "beyond roundoff" in str(part.value)
                    for part in ast.walk(exc)))


def package_sites(matches) -> list[str]:
    return [site for path in SOURCES
            for site in rule_sites(path.read_text(encoding="utf-8"), path.stem, matches)]


# Each float rule is written once: the power-of-two scaling that keeps sums
# and squares in range, and the clamp that tells roundoff from a fault.
def test_power_of_two_scaling_is_written_once():
    assert package_sites(calls_frexp) == ["linalg._scaled"]


def test_roundoff_clamp_is_written_once():
    assert package_sites(raises_beyond_roundoff) == ["linalg._clamp"]


def calls(name: str, on: str | None = None):
    """Matches a call of ``on.name(...)``, or of ``<anything>.name(...)``
    when ``on`` is None."""
    def matches(node) -> bool:
        func = node.func if isinstance(node, ast.Call) else None
        return (isinstance(func, ast.Attribute) and func.attr == name
                and (on is None or isinstance(func.value, ast.Name) and func.value.id == on))
    return matches


def calls_bare(name: str):
    """Matches a call of the bare name ``name(...)``."""
    def matches(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)
    return matches


def compares_name(name: str):
    """Matches a comparison with the bare name ``name`` as one of its operands."""
    def matches(node) -> bool:
        return isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Name) and side.id == name
            for side in (node.left, *node.comparators))
    return matches


# Matrix-file entry rules are judged by the verdicts on CheckedMatrix and by
# mcor_from_matrix, not again by the CLI.
def test_matrix_entry_tolerance_is_compared_in_two_homes():
    assert package_sites(compares_name("MATRIX_ENTRY_TOL")) == [
        "io.CheckedMatrix.symmetric", "io.CheckedMatrix.unit_diagonal",
        "io.CheckedMatrix.off_diagonal_in_range", "multiway.mcor_from_matrix"]


# Only multiway measures a correlation matrix's entries against their bounds;
# matrix and the CheckedMatrix record read the one measure.
def test_matrix_entries_are_measured_once():
    assert package_sites(calls_bare("_entry_excesses")) == [
        "io.CheckedMatrix.max_diagonal_deviation", "io.CheckedMatrix.max_off_diagonal_excess",
        "multiway.mcor_from_matrix"]


# A matrix is only ever built from a checked lower triangle.
def test_symmetric_matrices_are_built_in_one_place():
    assert package_sites(calls_bare("SymmetricMatrix")) == ["linalg.make_symmetric"]


def loads_name(name: str):
    """Matches a read of the bare name ``name``."""
    def matches(node) -> bool:
        return isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    return matches


# The SplitMix64 finalizer is written once, in the block generator every draw reads.
@pytest.mark.parametrize("name", ["_MULT1", "_MULT2"])
def test_splitmix_multipliers_are_read_once(name):
    assert package_sites(loads_name(name)) == ["rng._blocks"]


# The uniform formula (k + 0.5) * 2**-53 is written once, in the function
# every uniform draw reads.
def test_uniform_scale_is_read_once():
    assert package_sites(loads_name("_U53_SCALE")) == ["rng._uniforms"]


def calls_on_one_element_tuple(name: str):
    """Matches a call of the bare name ``name`` on a one-element tuple."""
    def matches(node) -> bool:
        return (calls_bare(name)(node) and len(node.args) == 1
                and isinstance(node.args[0], ast.Tuple) and len(node.args[0].elts) == 1)
    return matches


# One function locates the first non-finite entry of a matrix or data set.
def test_non_finite_entries_are_located_once():
    assert package_sites(calls_on_one_element_tuple("_all_finite")) == [
        "linalg._first_non_finite"]


# Handlers return their record; one function writes stdout and main writes stderr.
def test_printing_is_written_in_cli_emit_and_main():
    assert set(package_sites(calls_bare("print"))) == {"cli._emit", "cli.main"}


# Processes are started, fed, killed and reaped in one place, whose children
# leave only by os._exit.
@pytest.mark.parametrize("name", ["fork", "_exit", "pipe", "kill", "waitpid"])
def test_process_forking_is_written_once(name):
    assert set(package_sites(calls(name, on="os"))) == {"parallel.chunk_map"}


def calls_either(name: str):
    """Matches a call of the bare name ``name(...)`` or of ``<anything>.name(...)``."""
    def matches(node) -> bool:
        return calls_bare(name)(node) or calls(name)(node)
    return matches


# Three computations fork: the Monte Carlo replicates, a large data set's
# dot products and the parse of a large data file's second half. A map
# inside a map runs serially, so none forks within another.
def test_forked_map_has_three_callers():
    assert package_sites(calls_either("chunk_map")) == [
        "corestats.correlation_matrix", "datafile._parse_halves", "simulate.monte_carlo"]


# The forked map binds each of its children off the caller's CPU and later
# frees it, and nothing else in the package sets an affinity: the caller's
# own mask is never changed.
def test_cpu_binding_is_written_once():
    assert package_sites(calls_either("sched_setaffinity")) == ["parallel._bind"]
    assert set(package_sites(calls_either("_bind"))) == {"parallel.chunk_map"}


def forms_products(node) -> bool:
    """Matches a call of ``_dot(...)`` or of ``map(mul, ...)``."""
    return calls_bare("_dot")(node) or (
        calls_bare("map")(node) and bool(node.args) and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "mul")


# The correlation triangle's products, sums of squares included, are formed
# in the one task function of its map, which the scaled route calls again:
# there is no second product loop.
def test_triangle_products_are_formed_in_one_function():
    assert [site for site in package_sites(forms_products)
            if site.startswith("corestats.correlation_matrix")] == [
        "corestats.correlation_matrix.product"]


# Values cross between processes in one format, written and read by the map.
@pytest.mark.parametrize("name", ["dumps", "loads"])
def test_marshal_is_called_once(name):
    assert package_sites(calls(name, on="marshal")) == ["parallel.chunk_map"]


# Cyclic collection is a process-wide switch, paused only while a data file's
# cells are alive.
def test_garbage_collection_is_paused_once():
    assert package_sites(calls("disable", on="gc")) == ["datafile.read_csv_data"]


# The heap is frozen once, by the script entry after main returns: no
# library call, and no in-process main call, changes its caller's collector
# for good.
def test_heap_is_frozen_only_by_the_script_entry():
    assert package_sites(calls_either("freeze")) == ["cli.script_main"]


# Only a forked child of the map skips the interpreter's exit; every CLI run
# ends through it, atexit handlers and the stream flushes included.
def test_interpreter_exit_is_skipped_only_by_a_forked_child():
    assert package_sites(calls_either("_exit")) == ["parallel.chunk_map"]


# A data file becomes a DataMatrix by one route: both parsers, the split
# and the serial one, are called only from read_csv_data, which compute
# and compare alike go through.
@pytest.mark.parametrize("name", ["_parse_halves", "_parse_selected_columns"])
def test_data_files_are_parsed_by_one_reader(name):
    assert package_sites(calls_bare(name)) == ["datafile.read_csv_data"]


# CSV text is tokenised in one place, the row stream, so whole-file reads
# and the block reader share one tokeniser and one error mapping.
def test_csv_is_tokenised_once():
    assert package_sites(calls("reader", on="csv")) == ["io._rows"]


# Listwise deletion is written once, and every data file goes through it.
def test_listwise_deletion_is_written_once():
    assert package_sites(calls_bare("compress")) == ["datafile.read_csv_data"]


# Only producers whose values are finite floats by construction skip the checks.
def test_unchecked_data_matrix_core_has_three_callers():
    assert package_sites(calls("_from_finite")) == [
        "corestats.DataMatrix.from_columns", "datafile.read_csv_data", "simulate.generate"]


def squares_off_the_diagonal(node) -> bool:
    """Matches a comprehension of squares ``v * v`` that reads ``v`` from
    rows cut before their last entry, ``row[:-1]``: the off-diagonal
    entries of a lower triangle."""
    def cut_before_last(it) -> bool:
        return (isinstance(it, ast.Subscript) and isinstance(it.slice, ast.Slice)
                and it.slice.lower is None and it.slice.step is None
                and isinstance(it.slice.upper, ast.UnaryOp)
                and isinstance(it.slice.upper.op, ast.USub)
                and isinstance(it.slice.upper.operand, ast.Constant)
                and it.slice.upper.operand.value == 1)
    if not isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return False
    square = node.elt
    return (isinstance(square, ast.BinOp) and isinstance(square.op, ast.Mult)
            and isinstance(square.left, ast.Name) and isinstance(square.right, ast.Name)
            and square.left.id == square.right.id
            and any(isinstance(g.target, ast.Name) and g.target.id == square.left.id
                    and cut_before_last(g.iter) for g in node.generators))


# The coefficient from R is the RMS of its off-diagonal entries, written
# once: mcor, mcor_from_matrix and the Monte Carlo replicates all read it.
def test_off_diagonal_rms_is_written_once():
    assert package_sites(squares_off_the_diagonal) == ["multiway._off_diagonal_rms"]


def test_rule_sites_are_caught():
    source = (
        "import math\n"
        "math.frexp(0.5)\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return frexp(1.0)\n"
        "        return math.frexp(2.0), frexp\n"
        "def h(r):\n"
        "    if r > 1:\n"
        "        raise NumericInconsistency(f'r = {r} rose above 1 beyond roundoff')\n"
        "    raise NumericInconsistency('correlation is not finite')\n"
    )
    assert rule_sites(source, "m", calls_frexp) == ["m", "m.A.f.g", "m.A.f"]
    assert rule_sites(source, "m", raises_beyond_roundoff) == ["m.h"]
    assert rule_sites("import os\nos.fork()\ndef f():\n    os._exit(1)\n    fork()\n",
                      "m", calls("_exit", on="os")) == ["m.f"]
    assert rule_sites("chunk_map(f, 2)\ndef g():\n    return parallel.chunk_map(f, 3)\n"
                      "def h():\n    return chunk_map, map(f, x)\n",
                      "m", calls_either("chunk_map")) == ["m", "m.g"]
    assert rule_sites("def f(a, b):\n    def g(k):\n        return _dot(a[k], b[k])\n"
                      "    return g, _dot, map(add, a, b), [fsum(map(mul, a, b))], x._dot(a)\n",
                      "m", forms_products) == ["m.f.g", "m.f"]
    assert rule_sites("import gc\ngc.disable()\ndef f():\n    gc.enable()\n    gc.disable\n"
                      "class C:\n    def g(self):\n        x.disable()\n        gc.disable()\n",
                      "m", calls("disable", on="gc")) == ["m", "m.C.g"]
    assert rule_sites("class D:\n    @classmethod\n    def h(cls):\n        cls._from_finite(a, b)\n"
                      "def f():\n    D._from_finite(a, b)\n    _from_finite(a, b)\n"
                      "    return D._from_finite\n",
                      "m", calls("_from_finite")) == ["m.D.h", "m.f"]
    assert rule_sites("print(1)\ndef f():\n    log.print(2)\n    print\n"
                      "def g():\n    return print(3)\n",
                      "m", calls_bare("print")) == ["m", "m.g"]
    assert rule_sites("T = 1\nif x <= T:\n    pass\ndef f(y):\n    return T * y, y > T, y < m.T\n"
                      "class C:\n    @property\n    def g(self):\n        return 0 < self.v <= T\n",
                      "m", compares_name("T")) == ["m", "m.f", "m.C.g"]
    assert rule_sites("f((v,))\ndef g(v):\n    return f(v), f((v, v)), f([v]), h((v,))\n"
                      "def k(v):\n    return x.f((v,)) or f((v,))\n",
                      "m", calls_on_one_element_tuple("f")) == ["m", "m.k"]
    assert rule_sites("M = 3\ndef f(x):\n    M = x\n    return x * M\nclass C:\n    k = M\n",
                      "m", loads_name("M")) == ["m.f", "m.C"]
    assert rule_sites("s = sum(v * v for r in low for v in r[:-1])\n"
                      "def f(low):\n    return [x * x for x in low[:-1]], [x * x for x in low]\n"
                      "def g(low):\n    return [x * y for r in low for x in r[:-1]], "
                      "[x * x for r in low for x in r[1:]], [w * w for w in x[:-2]]\n",
                      "m", squares_off_the_diagonal) == ["m", "m.f"]
