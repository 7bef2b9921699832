"""Which public names of ``src/repro`` a root reaches (docs/REACHABILITY.md).

The roots are the traffic the library exists for: every name in the
facades' ``__all__`` (``repro``, ``repro.api``, ``repro.sparse``), the
``report`` / ``bench`` CLIs, ``perf/``, ``benchmarks/``, ``examples/``
and every ``python`` block of README.md and ``docs/*.md``.  A name is
*reached* when the closure of the import-and-name graph from the roots
holds it, *test-only* when only the closure from ``tests/`` does.

The graph's nodes are a module's top-level names and the module itself.
A name leads to what its definition references and to its module; a
module leads to its package and to what its top-level statements other
than definitions reference.  A definition whose decorator is a ``repro``
function (a registry such as ``register_guest``) counts as used when its
module loads.

    python -m tests.reachability --write   # regenerate docs/REACHABILITY.md
    python -m tests.reachability --check   # exit 1 on drift, an unresolved
                                           # root import or a broken block
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
MAP = REPO / "docs" / "REACHABILITY.md"
FACADES = ("repro", "repro.api", "repro.sparse")
CLIS = ("repro.tools.report", "repro.tools.bench", "repro.tools.__main__")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _flat(body):
    """Top-level statements, looking inside ``if`` / ``try`` / ``with``."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            yield from _flat(stmt.body + getattr(stmt, "orelse", []) + getattr(stmt, "finalbody", []))
            for handler in getattr(stmt, "handlers", []):
                yield from _flat(handler.body)
        else:
            yield stmt


def _module(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(nodes):
    """``(alias, module, name)`` per imported alias; *name* is None for ``import m``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname, a.name, None) if a.asname else (a.name.split(".")[0], a.name.split(".")[0], None)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                yield a.asname or a.name, node.module, a.name


class Graph:
    """Modules of ``src/repro``, their bindings and the references between names."""

    def __init__(self):
        self.trees = {_module(p): ast.parse(p.read_text()) for p in sorted((SRC / "repro").rglob("*.py"))}
        self.packages = {m for m in self.trees if (SRC / m.replace(".", "/") / "__init__.py").exists()}
        self.defs, self.binds, self.lazy = {}, {}, {}
        for mod, tree in self.trees.items():
            top = list(_flat(tree.body))
            self.defs[mod] = {n.name: n for n in top if isinstance(n, DEFS)}
            for n in top:
                if isinstance(n, (ast.Assign, ast.AnnAssign)):
                    for t in n.targets if isinstance(n, ast.Assign) else [n.target]:
                        if isinstance(t, ast.Name):
                            self.defs[mod][t.id] = n
            self.binds[mod] = {alias: (m, name) for alias, m, name in _imports(top)}
            lazy = self.defs[mod].get("_LAZY")
            self.lazy[mod] = ast.literal_eval(lazy.value) if lazy else {}
        self.through: dict[tuple[str, str], set[str]] = {}

    def resolve(self, mod, name):
        """``(module, name)`` a name of *mod* is defined as, ``(module, None)``
        for a module, None when it does not resolve."""
        if mod not in self.trees:
            return None
        if name in self.defs[mod]:
            return mod, name
        if name in self.binds[mod]:
            return self.bound(*self.binds[mod][name])
        if f"{mod}.{name}" in self.trees:
            return f"{mod}.{name}", None
        return self.resolve(self.lazy[mod][name], name) if name in self.lazy[mod] else None

    def bound(self, module, name):
        """What ``from module import name`` binds (``import module`` when
        *name* is None), resolved like :meth:`resolve`."""
        if name is None:
            return (module, None) if module in self.trees else None
        sub = f"{module}.{name}"
        return self.resolve(module, name) or ((sub, None) if sub in self.trees else None)

    def refs(self, mod, nodes, origin, unresolved=None):
        """Nodes that *nodes* (ASTs of module *mod*, or of a root file when
        *mod* is None) reference.  A name used through a package root is noted
        under *origin*; a ``repro`` name that does not resolve, in *unresolved*."""
        imported = [i for i in _imports(n for t in nodes for n in ast.walk(t)) if i[1].split(".")[0] == "repro"]
        local = {alias: (m, name) for alias, m, name in imported}
        out = {(m, None) for _, m, _ in imported if m in self.trees}

        def lookup(name):
            if name in local:
                return self.bound(*local[name])
            return self.resolve(mod, name) if mod else None

        def through(pkg, name):
            if pkg in self.packages and name not in self.defs[pkg]:
                self.through.setdefault((pkg, name), set()).add(origin)

        for alias, m, name in imported:
            if name is not None:
                through(m, name)
            if unresolved is not None and (m not in self.trees or lookup(alias) is None):
                unresolved.add(f"{m}.{name}" if name else m)
        for t in nodes:
            for node in ast.walk(t):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.insert(0, node.attr)
                    node = node.value
                if not isinstance(node, ast.Name) or not isinstance(node.ctx, ast.Load):
                    continue
                target = lookup(node.id)
                for attr in chain:
                    if target is None or target[1] is not None:
                        break
                    out.add(target)
                    through(target[0], attr)
                    resolved = self.resolve(target[0], attr)
                    if resolved is None and unresolved is not None:
                        unresolved.add(f"{target[0]}.{attr}")
                    target = resolved
                if target is not None:
                    out.add(target)
        return out

    @functools.lru_cache(maxsize=None)
    def edges(self, node):
        mod, name = node
        parent = mod.rpartition(".")[0]
        out = {(parent, None)} if parent in self.trees else set()
        if name is not None:
            return out | {(mod, None)} | self.refs(mod, [self.defs[mod][name]], mod)
        pieces, named = [], {id(n) for n in self.defs[mod].values()}
        for stmt in _flat(self.trees[mod].body):
            if isinstance(stmt, DEFS):
                if any(t[1] for t in self.refs(mod, stmt.decorator_list, mod)):
                    out.add((mod, stmt.name))  # registered by its decorator
                pieces += stmt.decorator_list + getattr(stmt, "bases", []) + getattr(stmt, "keywords", [])
                pieces += getattr(getattr(stmt, "args", None), "defaults", [])
            elif id(stmt) not in named:  # a named assignment is a node of its own
                pieces.append(stmt)
        return out | self.refs(mod, pieces, mod)

    def closure(self, start):
        seen, todo = set(), list(start)
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(self.edges(node))
        return seen


def _blocks(path):
    return re.findall(r"```python\n(.*?)```", path.read_text(), flags=re.DOTALL)


def _all(graph, mod):
    """A facade's ``__all__``: its literal names, plus its lazy table's keys
    when the list splices them in."""
    elts = graph.defs[mod]["__all__"].value.elts
    return [e.value for e in elts if isinstance(e, ast.Constant)] + (
        sorted(graph.lazy[mod]) if any(isinstance(e, ast.Starred) for e in elts) else []
    )


@functools.lru_cache(maxsize=None)
def analyse():
    """``(graph, reached, by_test, problems)``: the closure from the roots,
    the closure from each test file, and what keeps the roots from resolving."""
    graph, unresolved, problems = Graph(), set(), []
    start = {(mod, None) for mod in CLIS} | {graph.resolve(f, n) or (f, n) for f in FACADES for n in _all(graph, f)}
    for path in sorted([*REPO.glob("perf/*.py"), *REPO.glob("benchmarks/*.py"), *REPO.glob("examples/*.py")]):
        start |= graph.refs(None, [ast.parse(path.read_text())], str(path.relative_to(REPO)), unresolved)
    for path in [REPO / "README.md", *sorted(REPO.glob("docs/*.md"))]:
        for i, block in enumerate(_blocks(path), 1):
            origin = f"{path.relative_to(REPO)} block {i}"
            try:
                start |= graph.refs(None, [ast.parse(block)], origin, unresolved)
            except SyntaxError as exc:
                problems.append(f"{origin} does not parse: {exc.msg} (line {exc.lineno})")
    problems += [f"a root imports {name}, which does not resolve" for name in sorted(unresolved)]
    reached = graph.closure(start)
    by_test = {}
    for path in sorted(REPO.glob("tests/**/*.py")):
        origin = str(path.relative_to(REPO))
        by_test[origin] = graph.closure(graph.refs(None, [ast.parse(path.read_text())], origin))
    for mod, tree in graph.trees.items():
        graph.refs(mod, [tree], mod)  # note every re-export a src module uses
    return graph, reached, by_test, problems


def public(graph, mod):
    """The public top-level functions and classes of *mod*."""
    return sorted(n for n, node in graph.defs[mod].items() if isinstance(node, DEFS) and not n.startswith("_"))


def reexports(pkg):
    """``(re-exported, used)``: the ``repro`` names package root *pkg* binds
    by import, and those a root or a ``src`` module imports through it."""
    graph = analyse()[0]
    bound = {
        alias
        for alias, (m, name) in graph.binds[pkg].items()
        if name and m.split(".")[0] == "repro" and graph.resolve(pkg, alias)[1]
    } | set(graph.lazy[pkg])
    used = {
        name
        for (root, name), origins in graph.through.items()
        if root == pkg and any(not origin.startswith("tests/") for origin in origins)
    }
    return bound, used | (set(_all(graph, pkg)) if pkg in FACADES else set())


def render():
    graph, reached, by_test, problems = analyse()
    tested = {}
    for path, seen in by_test.items():
        for node in seen - reached:
            tested.setdefault(node, []).append(pathlib.Path(path).stem)
    lines, unreached, counts = [], [], [0, 0]
    for mod in sorted(graph.trees):
        doc = (ast.get_docstring(graph.trees[mod]) or "").strip().splitlines()
        lines += ["", f"### `{mod}`", "", doc[0] if doc else "(no docstring)"]
        names = public(graph, mod)
        hit = [f"`{n}`" for n in names if (mod, n) in reached]
        test_only = [f"`{n}` ({', '.join(sorted(tested[mod, n]))})" for n in names if (mod, n) in tested]
        unreached += [f"- `{mod}.{n}`" for n in names if (mod, n) not in reached and (mod, n) not in tested]
        counts[0] += len(hit)
        counts[1] += len(test_only)
        if hit:
            lines += ["", "reached: " + ", ".join(hit)]
        if test_only:
            lines += ["", "test-only: " + "; ".join(test_only)]
    head = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python -m tests.reachability --write`; CI runs `--check`.",
        "Do not edit by hand.",
        "",
        "A public name is a top-level function or class whose name has no",
        "leading underscore.  It is *reached* when the import-and-name graph",
        "leads to it from a root: the facades' `__all__` (`repro`, `repro.api`,",
        "`repro.sparse`), the `report` and `bench` CLIs, `perf/`, `benchmarks/`,",
        "`examples/` and every `python` block of README.md and `docs/*.md`.",
        "It is *test-only* when only `tests/` leads to it; the test files that",
        "do are named after it.",
        "",
        f"{len(graph.trees)} modules, {counts[0]} reached names, {counts[1]} test-only names,"
        f" {len(unreached)} unreached.",
        "",
        "## Modules",
    ]
    return "\n".join(head + lines + ["", "## Unreached", "", *(unreached or ["(none)"]), ""]), list(problems)


def main(argv):
    if argv not in (["--write"], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    text, problems = render()
    if argv == ["--write"]:
        MAP.write_text(text)
    elif not MAP.exists() or MAP.read_text() != text:
        problems.append(f"{MAP.relative_to(REPO)} has drifted; run python -m tests.reachability --write")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
