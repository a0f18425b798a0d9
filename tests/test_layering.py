"""Import rules, read from the source with ``ast``.

No module of ``src/`` calls a library root or eigenvalue solver
(``numpy.roots``, ``numpy.linalg.eig*``): the per-J solve in ``models``
brackets its roots by cut points in closed form.  ``oracle`` checks the
closed forms, so it shares no code with them: it imports no hopfdiag
module, and neither does ``tests/brute_reference.py``, the references
that only tests call.  The symbolic and property-test tools (sympy, mpmath,
hypothesis) stay in the tests.  ``acceptance`` calls the other modules
through their module objects, never through names imported from them.
Files are read and written by one codec: in ``src/`` only ``spectrum``
calls ``open`` (the builtin, ``io.open`` or a ``Path.open`` method) or
``numpy.loadtxt``; there ``numpy.loadtxt`` is called once, by the row
parser ``_parse_rows``, and ``open`` once each by the CSV writer and
reader (``_write_csv``, ``_read_csv``) and the diagram JSON writer and
reader, so no table grows a reader or writer of its own.  Imports run
``spectrum`` -> ``models`` only, and every
hopfdiag import sits at module top except ``cli.cmd_verify``'s
``acceptance``, which drives the CLI.  Every public top-level function
and class of ``src/`` is referred to by ``src/``, ``scripts/`` or
perfbench, not by the tests alone, a bare name counting only for the file
that defines it; ``spectrum.read_raster_csv``, which perfbench is to move
onto from a reader of its own, is the one exception.  No module of ``src/`` has an
``assert`` statement, which ``python -O`` strips, and no ``__post_init__``
refers to ``math.isfinite`` or calls ``isinstance(..., bool)`` itself:
every record checks its numbers by ``symplin.finite_float``.  ``os.fork``
appears once in ``src/``, in ``spectrum._forked``, which only the cloud
writer, the cloud reader and ``acceptance.run_all`` refer to (by name, by
attribute or by import), and ``src/`` imports no ``subprocess``,
``multiprocessing`` or ``concurrent``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfdiag"
TEST_ONLY = {"sympy", "mpmath", "hypothesis"}
PROCESS_LIBRARIES = {"subprocess", "multiprocessing", "concurrent"}


def imported_modules(tree) -> set[str]:
    """Absolute names of every module imported; relative ones as hopfdiag.*."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "hopfdiag" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def numpy_aliases(tree) -> dict[str, str]:
    """Each name that an import of ``tree`` binds to numpy or to a numpy
    member, mapped to its dotted numpy name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def numpy_names(node, bound) -> set[str]:
    """Dotted numpy names used in ``node``, ``bound`` as ``numpy_aliases``
    gives it for the whole tree."""
    refs = set()
    for node in ast.walk(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *reversed(parts)]))
    return refs


def numpy_references(tree) -> set[str]:
    """Dotted numpy names used in ``tree``, with the ``import numpy as np``
    aliases of ``tree`` resolved."""
    return numpy_names(tree, numpy_aliases(tree))


def forbidden_solvers(refs) -> set[str]:
    return {r for r in refs if r == "numpy.roots" or r.startswith("numpy.roots.")
            or r.startswith("numpy.linalg.eig")}


def opener_sites(module) -> list[tuple[str, str]]:
    """(innermost function, opener) for each call of a file opener, sorted:
    "open" for ``open``/``*.open``, "numpy.loadtxt" for ``numpy.loadtxt``
    under any import alias; a call outside a function is in "<module>".
    The aliases are read once, so the scan is linear in the tree's size."""
    bound = numpy_aliases(module)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "open"
                        or isinstance(func, ast.Attribute)
                        and func.attr == "open"):
                    yield function, "open"
                elif "numpy.loadtxt" in numpy_names(func, bound):
                    yield function, "numpy.loadtxt"
            yield from visit(child, function)
    return sorted(visit(module, "<module>"))


def file_openers(tree) -> set[str]:
    """Calls that open a file or parse one: ``open``/``*.open`` as "open",
    and ``numpy.loadtxt`` under any import alias, called or not."""
    return {opener for _, opener in opener_sites(tree)} | {
        r for r in numpy_references(tree) if r == "numpy.loadtxt"}


def parse(path) -> ast.AST:
    return ast.parse(Path(path).read_text(), filename=str(path))


def test_oracle_imports_no_hopfdiag_module():
    for path in (SRC / "oracle.py", ROOT / "tests" / "brute_reference.py"):
        modules = imported_modules(parse(path))
        assert not {m for m in modules if m.split(".")[0] == "hopfdiag"}, path


def test_oracle_calls_no_library_solver():
    assert not forbidden_solvers(numpy_references(parse(SRC / "oracle.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_src_solves_with_eigvals_only_in_models(path):
    # the name predates the rule: models calls no library solver either
    assert not forbidden_solvers(numpy_references(parse(path)))


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_src_imports_no_test_only_tool(path):
    modules = imported_modules(parse(path))
    assert not {m for m in modules if m.split(".")[0] in TEST_ONLY}


@pytest.mark.parametrize("source, modules", [
    ("from . import hopf", {"hopfdiag", "hopfdiag.hopf"}),
    ("from .models import Branch", {"hopfdiag.models", "hopfdiag.models.Branch"}),
    ("import hopfdiag.spectrum as sp", {"hopfdiag.spectrum"}),
    ("def f():\n    import sympy\n", {"sympy"}),
    ("from mpmath import mp", {"mpmath", "mpmath.mp"}),
])
def test_import_scan_sees(source, modules):
    assert imported_modules(ast.parse(source)) == modules


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.roots([1, 0, -1])", {"numpy.roots"}),
    ("import numpy\nnumpy.linalg.eig(m)", {"numpy.linalg.eig"}),
    ("import numpy.linalg as la\nla.eigvals(m)", {"numpy.linalg.eigvals"}),
    ("from numpy import roots\nroots(c)", {"numpy.roots"}),
    ("from numpy.linalg import eig as e\ne(m)", {"numpy.linalg.eig"}),
    ("import numpy as np\nnp.sqrt(2.0); np.linalg.det(m)", set()),
])
def test_solver_scan_sees(source, found):
    assert forbidden_solvers(numpy_references(ast.parse(source))) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_src_opens_and_parses_files_only_in_spectrum(path):
    if path.name != "spectrum.py":
        assert not file_openers(parse(path))


def test_spectrum_is_the_codec():
    assert file_openers(parse(SRC / "spectrum.py")) == {"open",
                                                       "numpy.loadtxt"}


@pytest.mark.parametrize("source, found", [
    ("with open(p, 'w') as fh:\n    fh.write(s)", {"open"}),
    ("import io\nio.open(p)", {"open"}),
    ("from pathlib import Path\nPath(p).open()", {"open"}),
    ("import numpy as np\nnp.loadtxt(lines, delimiter=',')",
     {"numpy.loadtxt"}),
    ("from numpy import loadtxt as lt\nlt(f)", {"numpy.loadtxt"}),
    ("import numpy\nx = numpy.loadtxt\nopen(p)", {"open", "numpy.loadtxt"}),
    ("import numpy as np\nPath(p).read_bytes(); fh.read(); np.load(p)",
     set()),
])
def test_file_scan_sees(source, found):
    assert file_openers(ast.parse(source)) == found


def test_src_parses_rows_at_one_site():
    sites = [(path.name, function) for path in sorted(SRC.glob("**/*.py"))
             for function, opener in opener_sites(parse(path))
             if opener == "numpy.loadtxt"]
    assert sites == [("spectrum.py", "_parse_rows")]


def test_spectrum_opens_files_only_in_the_codec():
    # one CSV writer, one CSV reader and the diagram JSON pair, once each
    opens = [function for function, opener
             in opener_sites(parse(SRC / "spectrum.py")) if opener == "open"]
    assert opens == ["_read_csv", "_write_csv", "read_diagram_json",
                     "write_diagram_json"]


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\ndef f(lines):\n    return np.loadtxt(lines)",
     [("f", "numpy.loadtxt")]),
    ("def w(p):\n    with open(p, 'w') as fh:\n        pass\n"
     "def r(p):\n    return Path(p).open()", [("r", "open"), ("w", "open")]),
    ("from numpy import loadtxt as lt\nclass C:\n    def m(self):\n"
     "        return lt(x)", [("m", "numpy.loadtxt")]),
    ("import io\nio.open(p)", [("<module>", "open")]),
    ("import numpy as np\ndef f():\n    def g():\n        np.loadtxt(a)\n"
     "    np.loadtxt(b)\n    open(np.loadtxt(c))",
     [("f", "numpy.loadtxt"), ("f", "numpy.loadtxt"), ("f", "open"),
      ("g", "numpy.loadtxt")]),
    ("import numpy as np\nread = np.loadtxt\ndef f(p):\n    np.load(p)\n"
     "    loadtxt(p)", []),
])
def test_opener_site_scan_sees(source, found):
    assert opener_sites(ast.parse(source)) == found


def names_imported_from_hopfdiag_modules(tree) -> set[str]:
    """Every ``from .<module> import <name>`` (or the absolute form
    ``from hopfdiag.<module> import <name>``), as ``<module>.<name>``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "hopfdiag" if node.level else ""
            module = ".".join(filter(None, [package, node.module]))
            if module.startswith("hopfdiag."):
                found.update(f"{module.removeprefix('hopfdiag.')}.{alias.name}"
                             for alias in node.names)
    return found


def test_acceptance_reaches_hopfdiag_through_its_modules():
    # perfbench traces a layer by swapping the module attribute: a function
    # that acceptance imported by name would keep the untraced original
    assert not names_imported_from_hopfdiag_modules(
        parse(SRC / "acceptance.py"))


@pytest.mark.parametrize("source, found", [
    ("from . import cli, hopf", set()),
    ("from hopfdiag import models", set()),
    ("from .models import PolyG", {"models.PolyG"}),
    ("from hopfdiag.hopf import torus_count as tc", {"hopf.torus_count"}),
    ("def f():\n    from .oracle import eig4\n", {"oracle.eig4"}),
    ("from pathlib import Path", set()),
])
def test_module_import_scan_sees(source, found):
    assert names_imported_from_hopfdiag_modules(ast.parse(source)) == found


def test_models_imports_nothing_from_spectrum():
    modules = imported_modules(parse(SRC / "models.py"))
    assert not {m for m in modules if m.startswith("hopfdiag.spectrum")}


def hopfdiag_modules(node) -> set[str]:
    """The hopfdiag modules an import statement names: ``from . import cli``
    gives ``hopfdiag.cli``, ``from .models import Branch``
    ``hopfdiag.models``."""
    if isinstance(node, ast.Import):
        return {a.name for a in node.names
                if a.name.split(".")[0] == "hopfdiag"}
    module = ".".join(filter(None, ["hopfdiag" if node.level else "",
                                    node.module]))
    if module == "hopfdiag":
        return {f"hopfdiag.{a.name}" for a in node.names}
    return {module} if module.startswith("hopfdiag.") else set()


def local_hopfdiag_imports(tree, function=None) -> set[tuple[str, str]]:
    """(innermost function, module) for each hopfdiag module imported inside
    a function body."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= local_hopfdiag_imports(node, node.name)
        elif function and isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(function, m) for m in hopfdiag_modules(node)}
        else:
            found |= local_hopfdiag_imports(node, function)
    return found


def test_only_cmd_verify_imports_hopfdiag_in_a_function():
    found = {(path.name, *hit) for path in SRC.glob("**/*.py")
             for hit in local_hopfdiag_imports(parse(path))}
    assert found == {("cli.py", "cmd_verify", "hopfdiag.acceptance")}


@pytest.mark.parametrize("source, found", [
    ("from . import models\nimport hopfdiag.spectrum", set()),
    ("def f():\n    from . import acceptance\n",
     {("f", "hopfdiag.acceptance")}),
    ("def f():\n    from .models import Branch, CriticalKind\n",
     {("f", "hopfdiag.models")}),
    ("def f():\n    import tempfile\n    from pathlib import Path\n", set()),
    ("class C:\n    def m(self):\n        import hopfdiag.spectrum as sp\n",
     {("m", "hopfdiag.spectrum")}),
    ("def f():\n    def g():\n        from hopfdiag import oracle\n",
     {("g", "hopfdiag.oracle")}),
    ("async def f():\n    if x:\n        from .hopf import q_poly\n",
     {("f", "hopfdiag.hopf")}),
])
def test_local_import_scan_sees(source, found):
    assert local_hopfdiag_imports(ast.parse(source)) == found


def referenced_names(tree, own=frozenset()) -> set[str]:
    """Every name a tree refers to: names, attributes, imported names and
    their aliases, and string constants (perfbench wraps a function by
    its name); a bare name in ``own`` is left out."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in own:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
            if node.asname:
                refs.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def defined_names(module) -> set[str]:
    """The top-level functions and classes a module defines itself."""
    return {node.name for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def unreached_public_names(root) -> set[str]:
    """``module.name`` of each public top-level function and class of
    ``src/hopfdiag`` that no code of ``src/``, ``scripts/`` or a non-test
    ``perfbench/*.py`` file refers to outside its own definition.  A bare
    name that a file defines itself refers to its own definition only, so
    perfbench's ``workloads.read_raster_csv`` does not reach
    ``spectrum.read_raster_csv``."""
    readers = [*(root / "src" / "hopfdiag").glob("*.py"),
               *(root / "scripts").glob("*.py"),
               *(p for p in (root / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    statements = []         # (file, statement, its refs, its refs elsewhere)
    for path in readers:
        module = parse(path)
        own = defined_names(module)
        statements += [(path, node, referenced_names(node),
                        referenced_names(node, own)) for node in module.body]
    return {f"{path.stem}.{node.name}" for path, node, _, _ in statements
            if path.parent.name == "hopfdiag"
            and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not any(node.name in (refs if other_path == path else foreign)
                        for other_path, other, refs, foreign in statements
                        if other is not node)}


def test_src_ships_only_what_runs_outside_the_tests():
    # perfbench reads its raster with a reader of its own until it moves
    # onto this one
    assert unreached_public_names(ROOT) == {"spectrum.read_raster_csv"}


@pytest.mark.parametrize("source, own, found", [
    ("tracer.wrap(hopf, 'critical_curve_point')", set(),
     {"tracer", "wrap", "hopf", "critical_curve_point"}),
    ("from .models import PolyG as G\nG(0.8)", set(), {"PolyG", "G"}),
    ("import hopfdiag.spectrum\nhopfdiag.spectrum.boundary(c, 8)", set(),
     {"hopfdiag", "spectrum", "boundary", "c"}),
    ("def f():\n    return 1", set(), set()),
    # a file's own read_raster_csv is not another module's
    ("x = read_raster_csv(p)", {"read_raster_csv"}, {"x", "p"}),
    ("spectrum.read_raster_csv(p); read_raster_csv(q)", {"read_raster_csv"},
     {"spectrum", "read_raster_csv", "p", "q"}),
    ("from .spectrum import read_raster_csv", {"read_raster_csv"},
     {"read_raster_csv"}),
    ("attempt(read_raster_csv, 'read_raster_csv')", {"read_raster_csv"},
     {"attempt", "read_raster_csv"}),
])
def test_reference_scan_sees(source, own, found):
    assert referenced_names(ast.parse(source), own) == found


def test_reach_scan_sees_through_a_name_collision(tmp_path):
    # a bare name that a reader file defines itself reaches its own
    # definition, in src/ too, and no other module's
    (tmp_path / "src" / "hopfdiag").mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "hopfdiag" / "a.py").write_text(
        "def load():\n    pass\ndef helper():\n    pass\n"
        "def run():\n    return helper()\n")
    (tmp_path / "src" / "hopfdiag" / "b.py").write_text(
        "def go():\n    pass\n")
    (tmp_path / "perfbench" / "w.py").write_text(
        "def load():\n    pass\ndef go():\n    pass\n"
        "load(); go(); a.run()\n")
    assert unreached_public_names(tmp_path) == {"a.load", "b.go"}


def assert_statements(tree) -> list[int]:
    """Line of each ``assert`` statement."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_src_has_no_assert_statement(path):
    assert not assert_statements(parse(path))


@pytest.mark.parametrize("source, found", [
    ("assert x, 'message'", [1]),
    ("def f(ok):\n    if ok:\n        assert ok\n", [3]),
    ("raise AssertionError('x')\nself.assertEqual(a, b)", []),
    ("x = 'assert y'  # assert z", []),
])
def test_assert_scan_sees(source, found):
    assert assert_statements(ast.parse(source)) == found


def private_number_checks(tree) -> set[str]:
    """What a ``__post_init__`` body does to check a number itself: refer to
    ``math.isfinite`` (or ``isfinite`` imported from math), or call
    ``isinstance`` with ``bool`` among its classes."""
    found = set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "math"
                    or isinstance(node, ast.Name) and node.id == "isfinite"):
                found.add("math.isfinite")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and any(isinstance(n, ast.Name) and n.id == "bool"
                          for n in ast.walk(node.args[1]))):
                found.add("isinstance bool")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_records_leave_the_number_rule_to_symplin(path):
    assert not private_number_checks(parse(path))


POST_INIT = "class R:\n    def __post_init__(self):\n        "


@pytest.mark.parametrize("source, found", [
    (POST_INIT + "if not math.isfinite(self.a):\n            raise E",
     {"math.isfinite"}),
    (POST_INIT + "all(map(math.isfinite, (self.a, self.b)))",
     {"math.isfinite"}),
    ("from math import isfinite\n" + POST_INIT + "isfinite(self.a)",
     {"math.isfinite"}),
    (POST_INIT + "isinstance(self.sigma, bool)", {"isinstance bool"}),
    (POST_INIT + "isinstance(x, (int, float)) and not isinstance(x, bool)",
     {"isinstance bool"}),
    (POST_INIT + "np.isfinite(self.points).all()", set()),
    (POST_INIT + "symplin.finite_fields(self, 'a', 'b')", set()),
    ("def check(x):\n    return math.isfinite(x) and not isinstance(x, bool)",
     set()),
])
def test_number_check_scan_sees(source, found):
    assert private_number_checks(ast.parse(source)) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("**/*.py")),
                         ids=lambda p: p.name)
def test_src_imports_no_process_library(path):
    modules = imported_modules(parse(path))
    assert not {m for m in modules if m.split(".")[0] in PROCESS_LIBRARIES}


def sites(tree, hit) -> list[str]:
    """Innermost function of each node for which ``hit(node)`` holds,
    sorted; "<module>" outside a function."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if hit(child):
                yield function
            yield from visit(child, function)
    return sorted(visit(tree, "<module>"))


def is_os_fork(node) -> bool:
    """``os.fork`` as an attribute of a name ``os``, or ``fork`` imported
    from ``os`` (the import is the site)."""
    return (isinstance(node, ast.Attribute) and node.attr == "fork"
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name == "fork" for alias in node.names))


def is_forked(node) -> bool:
    """``_forked`` as a bare name, an attribute of anything, or a name
    imported."""
    return (isinstance(node, ast.Name) and node.id == "_forked"
            or isinstance(node, ast.Attribute) and node.attr == "_forked"
            or isinstance(node, ast.alias) and node.name == "_forked")


def src_sites(hit) -> list[tuple[str, str]]:
    return [(path.name, function) for path in sorted(SRC.glob("**/*.py"))
            for function in sites(parse(path), hit)]


def test_src_forks_only_for_the_cloud_codec_and_verify():
    assert src_sites(is_os_fork) == [("spectrum.py", "_forked")]
    assert src_sites(is_forked) == [("acceptance.py", "run_all"),
                                    ("spectrum.py", "read_cloud_csv"),
                                    ("spectrum.py", "write_cloud_csv")]


@pytest.mark.parametrize("source, found", [
    ("import os\ndef f():\n    return os.fork()", ["f"]),
    ("from os import fork\ndef g():\n    fork()", ["<module>"]),
    ("def f():\n    from os import fork as spawn\n    spawn()", ["f"]),
    ("import os\npid = os.fork()\nclass C:\n    def m(self):\n"
     "        os.fork", ["<module>", "m"]),
    ("import os\nos.forkpty(); os.getpid(); x.fork()", []),
])
def test_fork_scan_sees(source, found):
    assert sites(ast.parse(source), is_os_fork) == found


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return _forked(a, b)", ["f"]),
    ("def g():\n    spectrum._forked(a, b)", ["g"]),
    ("def h():\n    run = hopfdiag.spectrum._forked\n", ["h"]),
    ("from .spectrum import _forked as split\ndef f():\n    split()",
     ["<module>"]),
    ("def _forked(work, run):\n    return work, run", []),
    ("forked(); x._forks; _forked_text(); '_forked'", []),
])
def test_forked_scan_sees(source, found):
    assert sites(ast.parse(source), is_forked) == found
