"""Every def and class of the package is reachable from the command line.

The package source is parsed with ast, not imported.  Reachability starts at
the top-level statements of every module (cli.py's call of main among them)
and follows references through the bodies of what it reaches:

- a bare name resolves through the enclosing functions, then the module,
  then the module's relative imports;
- an attribute name reaches every method of that name, in any class;
- a class reaches its body, its bases and its dunder methods, which no
  attribute name reaches (super().__init__ names the base's).

Import statements and annotations are not references.  A def that only tests
call fails here: its claim belongs in tests/ as an oracle, or in a report row
that a subcommand runs.
"""
import ast
from pathlib import Path

import aqgrec

SRC = Path(aqgrec.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(statements):
    """The defs of one scope and the names it loads, nested scopes excluded.

    A nested def's decorators, bases and argument defaults are evaluated in
    the enclosing scope, so they count there.  References are pairs
    (is_attribute, name).
    """
    defs, refs, todo = [], [], list(statements)
    while todo:
        n = todo.pop()
        if isinstance(n, DEFS):
            defs.append(n)
            todo += n.decorator_list
            if isinstance(n, ast.ClassDef):
                todo += n.bases + [k.value for k in n.keywords]
            else:
                todo += n.args.defaults + [d for d in n.args.kw_defaults if d]
            continue
        if isinstance(n, ast.AnnAssign):
            todo += [n.value] if n.value else []
            continue
        if isinstance(getattr(n, "ctx", None), ast.Load):
            if isinstance(n, ast.Name):
                refs.append((False, n.id))
            elif isinstance(n, ast.Attribute):
                refs.append((True, n.attr))
        todo += ast.iter_child_nodes(n)
    return defs, refs


def unreached(src: Path = SRC) -> list[str]:
    """'module:qualname' of every def and class no subcommand can reach."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    imports = {
        mod: {a.asname or a.name: (n.module or "__init__", a.name)
              for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
              for a in n.names}
        for mod, tree in trees.items()
    }
    env = {}      # def -> (module, name tables of its body, references, label)
    methods = {}  # method name -> defs
    dunders = {}  # class -> its dunder methods
    top, roots = {}, []

    def register(mod, statements, chain, prefix, owner=None):
        defs, refs = _scan(statements)
        for d in defs:
            name = prefix + d.name
            if isinstance(d, ast.ClassDef):
                # a method body does not see the class scope
                _, body_refs = register(mod, d.body, chain, name + ".", d)
                env[d] = (mod, chain, body_refs, f"{mod}:{name}")
                continue
            local = {}
            inner, body_refs = register(mod, d.body, [local] + chain, name + ".")
            local.update((x.name, x) for x in inner)
            env[d] = (mod, [local] + chain, body_refs, f"{mod}:{name}")
            if owner is not None and d.name.startswith("__") and d.name.endswith("__"):
                dunders.setdefault(owner, []).append(d)
            elif owner is not None:
                methods.setdefault(d.name, []).append(d)
        return defs, refs

    for mod, tree in trees.items():
        top[mod] = {}
        defs, refs = register(mod, tree.body, [top[mod]], "")
        top[mod].update((d.name, d) for d in defs)
        roots.append((mod, [top[mod]], refs))

    def lookup(mod, chain, name):
        for table in chain:
            if name in table:
                return table[name]
        target, original = imports[mod].get(name, (None, None))
        return lookup(target, [top[target]], original) if target in trees else None

    seen, todo = set(), list(roots)
    while todo:
        mod, chain, refs = todo.pop()
        for is_attr, name in refs:
            for d in methods.get(name, []) if is_attr else [lookup(mod, chain, name)]:
                if d is None or d in seen:
                    continue
                for t in [d] + dunders.get(d, []):
                    seen.add(t)
                    todo.append(env[t][:3])
    return sorted(label for d, (_, _, _, label) in env.items() if d not in seen)


def test_every_def_is_reachable_from_the_cli():
    assert unreached() == []


def test_the_guard_flags_a_def_no_subcommand_calls(tmp_path):
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    extra = ("\n\ndef _orphan():\n    return helper()\n\n\ndef helper():\n    return 1\n"
             "\n\nclass Box:\n    def __init__(self):\n        self.n = 0\n\n"
             "    def peek_orphan_only(self):\n        return self.n\n")
    (tmp_path / "linalg.py").write_text((tmp_path / "linalg.py").read_text() + extra)
    assert unreached(tmp_path) == [
        "linalg:Box", "linalg:Box.__init__", "linalg:Box.peek_orphan_only",
        "linalg:_orphan", "linalg:helper",
    ]
