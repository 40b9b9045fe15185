"""Every top-level definition in `src/primpoints` is reached from an entry point.

The roots are what runs the package: `cli.main` and `cli.run_guarded`,
every name a script in `scripts/` imports from `primpoints`, and every
name in `perfbench/tracer.TRACED`, which the traced benchmark wraps by
name (read as source, as `test_traced_names.py` reads it).  From the
roots the scan follows, with `ast`, the names each reached definition
uses: its own module's top-level names, names imported from a sibling
module, and `module.name` through a sibling module imported whole.
Statements that run at import and define nothing are roots too.

A local that shadows a top-level name counts as a use, so the scan can
miss dead code but never reports live code.  What only tests use
belongs in `tests/oracles.py`.

A method, defined in a class body, is reached when its name appears as
an attribute, `.name`, somewhere in `src/`, `scripts/` or `perfbench/`
outside its own definition.  Any object's attribute of that name counts,
so this check too can miss dead code but never reports live code.
Dunders, which Python calls by protocol, are exempt.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.join(HERE, "..")
PACKAGE = os.path.join(REPO, "src", "primpoints")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _scan_module(tree):
    """({name: [nodes]} of the top-level definitions, {alias: (module, name
    or None)} of the relative imports, [statements that define nothing])."""
    defs, aliases, loose = {}, {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.setdefault(name.id, []).append(node)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                key = alias.asname or alias.name
                if node.module is None:
                    aliases[key] = (alias.name, None)
                else:
                    aliases[key] = (node.module, alias.name)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            loose.append(node)
    return defs, aliases, loose


def _uses(module, node, defs, aliases):
    """The (module, name) pairs of the package that `node` refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in defs:
                out.add((module, sub.id))
            elif sub.id in aliases and aliases[sub.id][1] is not None:
                out.add(aliases[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = aliases.get(sub.value.id)
            if target is not None and target[1] is None:
                out.add((target[0], sub.attr))
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            out.update((sub.module, alias.name) for alias in sub.names)
    return out


def _roots():
    roots = {("cli", "main"), ("cli", "run_guarded")}
    scripts = os.path.join(REPO, "scripts")
    for filename in sorted(os.listdir(scripts)):
        if not filename.endswith(".py"):
            continue
        for node in ast.walk(_parse(os.path.join(scripts, filename))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("primpoints."):
                module = node.module.split(".", 1)[1]
                roots.update((module, alias.name) for alias in node.names)
    for node in _parse(os.path.join(REPO, "perfbench", "tracer.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            roots.update(tuple(q.split(".")) for q in ast.literal_eval(node.value))
    return roots


def unreached():
    """Sorted 'module.name' of every top-level definition nothing reaches."""
    modules = {}
    queue = set(_roots())
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            module = filename[:-3]
            defs, aliases, loose = _scan_module(_parse(os.path.join(PACKAGE, filename)))
            modules[module] = (defs, aliases)
            for node in loose:
                queue |= _uses(module, node, defs, aliases)
    reached = set()
    while queue:
        key = queue.pop()
        if key in reached or key[0] not in modules:
            continue
        reached.add(key)
        defs, aliases = modules[key[0]]
        if aliases.get(key[1], (None, None))[1] is not None:
            queue.add(aliases[key[1]])
        for node in defs.get(key[1], ()):
            queue |= _uses(key[0], node, defs, aliases)
    return sorted(
        f"{module}.{name}"
        for module, (defs, _) in modules.items()
        for name in defs
        if (module, name) not in reached and not (name.startswith("__") and name.endswith("__"))
    )


def test_the_roots_resolve_to_package_definitions():
    # a root that names nothing would make the scan vacuous
    for module, name in _roots():
        defs, aliases, _ = _scan_module(_parse(os.path.join(PACKAGE, module + ".py")))
        assert name in defs or name in aliases, f"{module}.{name}"


def test_every_top_level_definition_is_reached():
    assert unreached() == []


def _python_files(*parts):
    for dirpath, _, filenames in os.walk(os.path.join(REPO, *parts)):
        yield from (os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))


def uncalled_methods():
    """Sorted 'module.Class.method' of every method defined in a class body
    of the package whose name no attribute outside its definition names."""
    uses = {}  # attribute name -> [(path, line)]
    for path in (*_python_files("src"), *_python_files("scripts"), *_python_files("perfbench")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    out = []
    for path in _python_files("src", "primpoints"):
        for cls in ast.walk(_parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                inside = range(method.lineno, method.end_lineno + 1)
                if all(p == path and line in inside for p, line in uses.get(name, ())):
                    module = os.path.basename(path)[:-3]
                    out.append(f"{module}.{cls.name}.{name}")
    return sorted(out)


def test_every_method_is_named_outside_its_definition():
    assert uncalled_methods() == []
