import ast
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_submodule_imports_bind_modules():
    import spanscope.align as align_mod
    import spanscope.pipeline as pipeline_mod
    import spanscope.reconstruct as reconstruct_mod

    for mod in (align_mod, pipeline_mod, reconstruct_mod):
        assert isinstance(mod, types.ModuleType), mod


def test_pipeline_calls_the_stages_through_module_globals(comfort_samples, monkeypatch):
    # bench/tracer.py times these stages by replacing exactly these globals
    import spanscope.align as align_mod
    import spanscope.pipeline as pipeline_mod
    from spanscope.sampler import SamplingConfig

    calls: dict[str, list] = {}

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("align", "partition", "sample_trace"):
        counting(pipeline_mod, name)
    counting(align_mod, "trace_signature")

    graph, mapping, _meta, samples = comfort_samples
    first, second = [s.trace for s in samples if len(s.trace) == 4][:2]
    pipeline = pipeline_mod.SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3))
    pipeline.process(first)
    assert (pipeline.cache.hits, pipeline.cache.misses) == (0, 1)
    result = pipeline.process(second)
    assert (pipeline.cache.hits, pipeline.cache.misses) == (1, 1)
    # selection reads the path's slots, so processing names no set
    assert {name: len(args) for name, args in calls.items()} == {
        "align": 2, "sample_trace": 2, "trace_signature": 2}
    assert all(any(a is pipeline.cache for a in args) for args in calls["align"])
    # the named sets are built on first read, once
    assert result.dss_list is result.dss_list
    assert calls["partition"] == [(result.path, second)]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references.

    A name listed in the module's __all__ counts as used, and so does
    every `from __future__` import.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    files = [*sorted((ROOT / "src" / "spanscope").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    assert len(files) > 20
    unused = {}
    for path in files:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_unused_import_scan_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as j\n"
        "from a import b, c as d\n"
        "from e import f\n"
        "__all__ = ['f']\n"
        "print(os, b)\n"
    )
    assert unused_imports(source) == ["d (line 4)", "j (line 3)"]


def unreferenced_definitions(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Module-level functions and classes of `package` that no file reads.

    Both maps take a file name to its source. A name is read where a file
    loads it, reads it as an attribute or imports it by name, outside its own
    definition. A package's `__init__.py` only re-exports, so it reads nothing.
    """
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path, source in [*package.items(), *readers.items()]:
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if path in package:
                    defined[stmt.name] = path
            if Path(path).name != "__init__.py":
                read |= names
    return sorted(f"{name} ({path})" for name, path in defined.items() if name not in read)


def test_every_package_definition_has_a_reader_outside_the_tests():
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}

    package = sources(sorted((ROOT / "src" / "spanscope").glob("*.py")))
    readers = sources(sorted((ROOT / "bench").rglob("*.py")))
    assert len(package) > 10 and len(readers) > 3
    assert unreferenced_definitions(package, readers) == []


def test_unreferenced_definition_scan_sees_each_kind():
    package = {
        "pkg/__init__.py": "from .a import C, D, f, g, h\n",
        "pkg/a.py": (
            "def f():\n    return f()\n"  # reads only itself
            "def g():\n    return D\n"  # read by nothing
            "def h():\n    pass\n"  # imported by name elsewhere
            "class C:\n    pass\n"  # read as an attribute elsewhere
            "class D:\n    pass\n"
            "e = 1\n"  # not a function or class
        ),
    }
    readers = {"bench/b.py": "import pkg.a\nfrom pkg.a import h\nprint(pkg.a.C)\n"}
    assert unreferenced_definitions(package, readers) == ["f (pkg/a.py)", "g (pkg/a.py)"]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
                isinstance(target, ast.Attribute) and target.attr == "dataclass"):
            return True
    return False


def unread_fields(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Fields of the `@dataclass` classes of `package` that no file reads.

    Both maps take a file name to its source. A field is read where any file,
    the package's own included, loads an attribute of that name; the scan
    goes by name, so a field shares its readers with every attribute of the
    same name. Writing the attribute does not read it.
    """
    declared: list[tuple[str, str, str]] = []
    read: set[str] = set()
    for path, source in [*package.items(), *readers.items()]:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif path in package and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                declared += [(stmt.target.id, node.name, path) for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name)]
    return sorted(f"{cls}.{name} ({path})" for name, cls, path in declared if name not in read)


def test_every_dataclass_field_has_a_reader_outside_the_tests():
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}

    package = sources(sorted((ROOT / "src" / "spanscope").glob("*.py")))
    readers = sources(sorted((ROOT / "bench").rglob("*.py")))
    assert unread_fields(package, readers) == []


def test_unread_field_scan_sees_each_kind():
    package = {
        "pkg/a.py": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class A:\n    x: int\n    y: int = 0\n"
            "    def total(self):\n        return self.x\n"  # a method reads x
            "@dataclasses.dataclass\n"
            "class B:\n    z: int\n    w: int\n"
            "class C:\n    v: int\n"  # not a dataclass
            "def f(b):\n    b.w = 1\n"  # a write is no read
        ),
    }
    readers = {"bench/b.py": "def g(b):\n    return b.z\n"}
    assert unread_fields(package, readers) == ["A.y (pkg/a.py)", "B.w (pkg/a.py)"]


def unread_parameters(source: str) -> list[str]:
    """Parameters of the functions in `source` that their bodies never read.

    `self` and `cls` are exempt, and so are protocol signatures: a dunder
    method, or a module-level function installed as one (`X.__setattr__ =
    f`). A nested function's read counts for the function around it.
    """
    tree = ast.parse(source)
    protocol = set()
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                and any(isinstance(t, ast.Attribute) and t.attr.startswith("__")
                        and t.attr.endswith("__") for t in stmt.targets)):
            protocol.add(stmt.value.id)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name in protocol or (name.startswith("__") and name.endswith("__")):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p}) (line {node.lineno})" for p in params
                   if p not in read and p not in ("self", "cls")]
    return unread


def test_every_parameter_is_read():
    unread = {}
    for path in sorted((ROOT / "src" / "spanscope").glob("*.py")):
        names = unread_parameters(path.read_text(encoding="utf-8"))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}


def test_unread_parameter_scan_sees_each_kind():
    source = (
        "def f(a, b, *c, d=1, **e):\n    return a, c, e\n"  # b and d unread
        "def g(x):\n    def h():\n        return x\n    return h\n"  # read when nested
        "class K:\n    def m(self, y):\n        pass\n"  # y unread, self exempt
        "    def __eq__(self, other):\n        return True\n"  # protocol
        "def _set(self, name, value):\n    raise TypeError(name)\n"
        "K.__setattr__ = _set\n"  # installed as a protocol method
        "k = lambda z: 0\n"  # z unread
    )
    assert unread_parameters(source) == [
        "f(b) (line 1)", "f(d) (line 1)", "m(y) (line 8)", "<lambda>(z) (line 15)"]
