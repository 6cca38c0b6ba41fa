"""Every public name in the package has a caller outside the tests.

A public function, class, method or property that only tests reach is a
second way to build or read what the pipeline already builds, with its own
checks to keep in step. This scan reads ``src/survbench/*.py`` with
``ast``. A name counts as reached when code that runs uses it: code in
another module, or in its own module beyond its definition, a benchmark
script, or a Python example in README.md. A use inside a definition counts
only once that definition is reached itself, and annotations and a
function's own local names are not uses. A string names an attribute only
as the key of ``getattr``, ``setattr`` or ``hasattr``, or as an argument
of a benchmark's ``Hook(...)``; any other string, such as a CSV header
that spells a property's name, is data and reaches nothing.

The scan matches names, not objects: a name or attribute that runs
reaches every definition spelt the same, so a public name that shares its
spelling with a reached one is never flagged. A public ``cdf`` or
``quantile`` in ``distributions`` would look reached through
``np.quantile`` and the family registry's ``cdf`` and ``quantile``
fields, even if only tests called it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names kept with no caller outside the tests, each with its reason
ALLOWED = {
    "evaluate.cox_partial_loglik": "the Efron/Breslow partial likelihood that the Cox tests hold to its "
    "definition; closed-form anchors are to replace it (ROADMAP item 8)",
    "evaluate.cox_score": "its derivative, held to a finite difference of it; goes with it (ROADMAP item 8)",
}


def _uses(node: ast.AST) -> set[str]:
    """The names `node` reads: globals, attributes, imported names, and
    the strings of attribute-access keys and ``Hook`` arguments."""
    for sub in ast.walk(node):  # annotations are not run
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sub.returns = None
            for arg in (*sub.args.posonlyargs, *sub.args.args, *sub.args.kwonlyargs):
                arg.annotation = None
        elif isinstance(sub, ast.AnnAssign):
            sub.annotation = ast.Constant(None)
    local = set()
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        local = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        local |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id not in local:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Call):
            names = _name_arguments(sub)
            out |= {arg.value for arg in names if isinstance(arg, ast.Constant) and isinstance(arg.value, str)}
    return out


def _name_arguments(call: ast.Call) -> list[ast.expr]:
    """The arguments of `call` that name an attribute: the key of
    ``getattr``/``setattr``/``hasattr``, every argument of ``Hook``."""
    callee = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
    if callee in ("getattr", "setattr", "hasattr"):
        return call.args[1:2]
    if callee == "Hook":
        return [*call.args, *(keyword.value for keyword in call.keywords)]
    return []


def _definitions(module: str, tree: ast.Module):
    """(public qualified name or None, the name a caller writes, the names
    its body uses) per module-level function and class and per method; a
    class's dunder methods and its other statements run once the class is
    reached."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = [*node.bases, *node.decorator_list, *(s for s in node.body if s not in methods)]
            yield _public(module, node.name), node.name, set().union(*map(_uses, rest))
            for m in methods:
                key = node.name if m.name.startswith("__") else m.name
                yield _public(module, node.name, m.name), key, _uses(m)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _public(module, node.name), node.name, _uses(node)


def _public(module: str, *names: str) -> str | None:
    return None if names[-1].startswith("_") else ".".join((module, *names))


def unreached_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reached = set().union(*(_uses(ast.parse(block)) for block in re.findall(r"```python\n(.*?)```", readme, re.S)))
    for path in (ROOT / "benchmarks").glob("*.py"):
        reached |= _uses(ast.parse(path.read_text(encoding="utf-8")))
    definitions = []
    for path in sorted((ROOT / "src" / "survbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += _definitions(path.stem, tree)
        for node in tree.body:  # module-level code runs on import
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                reached |= _uses(node)
    grown = True
    while grown:  # a reached definition's body reaches what it uses
        grown = False
        for _, key, uses in definitions:
            if key in reached and not uses <= reached:
                reached |= uses
                grown = True
    return {name for name, key, _ in definitions if name and key not in reached}


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = unreached_names()
    assert not unreached - set(ALLOWED), f"only tests reach {sorted(unreached - set(ALLOWED))}"
    assert not set(ALLOWED) - unreached, f"drop {sorted(set(ALLOWED) - unreached)} from ALLOWED: they have callers"
