"""Reachability guard: every module and exported name under ``src/repro`` has a user.

A module counts as reached when an import chain leads to it from one of
the package's entry points:

- the CLI (``repro.cli``, ``repro.__main__``);
- an ``examples/*.py`` script;
- a ``benchmarks/bench_*.py`` script;
- a module that calls ``register_component`` (the scenario registry).

Edges are ``import`` and ``from`` statements anywhere in a module,
function-local ones included.  ``from pkg import name`` leads to the
module that defines ``name``: re-exports through a package
``__init__`` (plain ``from .mod import name`` lines, or a PEP 562
``_EXPORTS`` table of name -> submodule) are followed to their source.
A package ``__init__`` adds no edges of its own, so a module imported
only by its ``__init__`` and its tests is unreached.

The symbol guard goes one level down: every name in a non-``__init__``
module's ``__all__`` must be read somewhere under ``src``, ``examples``,
``benchmarks`` or ``tests``.  A read is a loaded identifier or an
attribute name, its own module included: a result type counts as used
when its module's functions construct it.  Re-export lists never count,
because ``__all__`` and ``_EXPORTS`` entries are strings and
``from .mod import name`` binds a name without reading it.  A function
or class decorated with ``@register_component`` counts as used: the
scenario registry reaches it by name.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent

#: Modules kept although no entry point imports them, with the reason.
ALLOWLIST = {
    # Theorem 1 (the optimal adversary's strategy); docs/THEORY.md cites it.
    "repro.core.strategy",
}


class ImportGraph:
    """Static import graph of one package directory."""

    def __init__(self, package_dir):
        package_dir = Path(package_dir)
        self.modules = {}
        self.packages = set()
        for path in sorted(package_dir.rglob("*.py")):
            parts = (package_dir.name,) + path.relative_to(package_dir).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.modules[".".join(parts)] = path
        self._trees = {}

    def tree(self, path):
        if path not in self._trees:
            self._trees[path] = ast.parse(Path(path).read_text(encoding="utf-8"))
        return self._trees[path]

    def _base(self, node, module):
        """Absolute module named by an ``ImportFrom`` inside ``module``."""
        if not node.level:
            return node.module or ""
        package = module if module in self.packages else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}" if node.module else package

    def _reexports(self, package):
        """name -> (module, name) for what a package ``__init__`` re-exports."""
        table = {}
        for node in self.tree(self.modules[package]).body:
            if isinstance(node, ast.ImportFrom):
                base = self._base(node, package)
                for alias in node.names:
                    table[alias.asname or alias.name] = (base, alias.name)
            elif (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
                and isinstance(node.value, ast.Dict)
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    table[key.value] = (f"{package}.{value.value}", key.value)
        return table

    def defining_module(self, base, name):
        """The module a ``from base import name`` ultimately reaches."""
        if f"{base}.{name}" in self.modules:
            return f"{base}.{name}"
        if base not in self.packages:
            return base
        source = self._reexports(base).get(name)
        if source is None or source[0] == base:
            return base
        return self.defining_module(*source)

    def edges(self, path, module=None):
        """Package modules that the file at ``path`` imports."""
        if module in self.packages:
            return set()
        found = set()
        for node in ast.walk(self.tree(path)):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = self._base(node, module)
                found.update(self.defining_module(base, a.name) for a in node.names)
        return found & set(self.modules)

    def reached(self, root_modules=(), root_scripts=()):
        """Every module reachable from the given modules and scripts."""
        frontier = set(root_modules)
        for script in root_scripts:
            frontier |= self.edges(script)
        seen = set()
        while frontier:
            module = frontier.pop()
            if module in seen:
                continue
            seen.add(module)
            frontier |= self.edges(self.modules[module], module) - seen
        return seen

    def unreached(self, root_modules=(), root_scripts=()):
        """Non-``__init__`` modules that no root reaches, sorted."""
        seen = self.reached(root_modules, root_scripts)
        return sorted(set(self.modules) - self.packages - seen)


def _registering_modules(graph):
    """Modules that call ``register_component`` (the registry's roots)."""
    out = set()
    for module, path in graph.modules.items():
        for node in ast.walk(graph.tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "register_component":
                    out.add(module)
                    break
    return out


def repo_unreached():
    graph = ImportGraph(SRC)
    roots = {"repro.cli", "repro.__main__"} | _registering_modules(graph)
    scripts = sorted(REPO.glob("examples/*.py")) + sorted(REPO.glob("benchmarks/bench_*.py"))
    return graph.unreached(roots, scripts)


def _exported(tree):
    """The names a module lists in ``__all__`` (none when it has no list)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _registered(tree):
    """Top-level definitions decorated with ``@register_component(...)``."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                func = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "register_component":
                    out.add(node.name)
    return out


def _reads(tree):
    """Every identifier a file loads and every attribute name it uses."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unused_exports(graph, scripts=()):
    """``module.name`` for every ``__all__`` entry that no file reads."""
    reads = set()
    for path in list(graph.modules.values()) + list(scripts):
        reads |= _reads(graph.tree(path))
    unused = []
    for module, path in sorted(graph.modules.items()):
        if module in graph.packages:
            continue
        tree = graph.tree(path)
        registered = _registered(tree)
        unused += [
            f"{module}.{name}"
            for name in _exported(tree)
            if name not in reads and name not in registered
        ]
    return unused


def test_every_module_is_reached_from_an_entry_point():
    unreached = [m for m in repo_unreached() if m not in ALLOWLIST]
    assert unreached == [], (
        "modules no CLI command, example, bench or registered component "
        f"imports; wire them in or delete them: {unreached}"
    )


def test_allowlist_has_no_stale_entries():
    assert ALLOWLIST <= set(repo_unreached())


def test_every_exported_name_is_read_somewhere():
    scripts = [
        path
        for directory in ("examples", "benchmarks", "tests")
        for path in sorted((REPO / directory).rglob("*.py"))
    ]
    unused = unused_exports(ImportGraph(SRC), scripts)
    assert unused == [], (
        "names in __all__ that nothing under src, examples, benchmarks or "
        f"tests reads; use them or delete them: {unused}"
    )


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


class TestScanner:
    """The scanner itself, on a throwaway package tree."""

    def test_module_reached_only_through_its_init_is_unreached(self, tmp_path):
        _write(tmp_path, {
            "pkg/__init__.py": "from .sub import helper, used\n",
            "pkg/main.py": "from pkg import used\n",
            "pkg/sub/__init__.py": "from .orphan import helper\nfrom .live import used\n",
            "pkg/sub/orphan.py": "def helper(): pass\n",
            "pkg/sub/live.py": "def used(): pass\n",
        })
        graph = ImportGraph(tmp_path / "pkg")
        assert graph.unreached({"pkg.main"}) == ["pkg.sub.orphan"]

    def test_function_local_import_is_an_edge(self, tmp_path):
        _write(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/main.py": "def run():\n    from .lazy import go\n    return go()\n",
            "pkg/lazy.py": "def go(): pass\n",
            "pkg/dead.py": "",
        })
        graph = ImportGraph(tmp_path / "pkg")
        assert graph.edges(tmp_path / "pkg/main.py", "pkg.main") == {"pkg.lazy"}
        assert graph.unreached({"pkg.main"}) == ["pkg.dead"]

    def test_from_package_import_name_reaches_the_defining_module(self, tmp_path):
        _write(tmp_path, {
            "pkg/__init__.py": "from .inner import Thing as Thing\n",
            "pkg/inner/__init__.py": "from .impl import Thing\n",
            "pkg/inner/impl.py": "class Thing: pass\n",
            "pkg/inner/other.py": "",
            "pkg/lazy/__init__.py": "_EXPORTS = {'Late': 'late'}\n",
            "pkg/lazy/late.py": "class Late: pass\n",
            "script.py": "from pkg import Thing\nfrom pkg.lazy import Late\n",
        })
        graph = ImportGraph(tmp_path / "pkg")
        script = tmp_path / "script.py"
        assert graph.edges(script) == {"pkg.inner.impl", "pkg.lazy.late"}
        assert graph.unreached(root_scripts=[script]) == ["pkg.inner.other"]

    def test_import_statement_and_submodule_from_import_are_edges(self, tmp_path):
        _write(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "import pkg.b\nfrom . import c\n",
            "pkg/b.py": "",
            "pkg/c.py": "",
        })
        graph = ImportGraph(tmp_path / "pkg")
        assert graph.edges(tmp_path / "pkg/a.py", "pkg.a") == {"pkg.b", "pkg.c"}

    def test_export_read_only_by_a_reexport_list_is_unused(self, tmp_path):
        _write(tmp_path, {
            "pkg/__init__.py": "from .mod import dead, live, Made\n__all__ = ['dead']\n",
            "pkg/mod.py": (
                "__all__ = ['dead', 'live', 'Made', 'built']\n"
                "def dead(): pass\n"
                "def live(): pass\n"
                "class Made: pass\n"
                "def make(): return Made()\n"
                "@register_component('cache', 'x')\n"
                "def built(): pass\n"
            ),
            "script.py": "import pkg\npkg.live()\n",
        })
        graph = ImportGraph(tmp_path / "pkg")
        assert unused_exports(graph, [tmp_path / "script.py"]) == ["pkg.mod.dead"]
