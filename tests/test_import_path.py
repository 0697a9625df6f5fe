"""The modules that importing the package loads.

`dca/__init__.py` holds only its docstring: each name is imported from the
module that defines it, so `import dca.perm` loads `perm` and what `perm`
imports, and no numpy. `import dca.harness` loads every `dca` module but
`cli`, and with them every module they import at module level; perfbench's
`setup_s` times that import on every workload. The pinned set covers `cli`
too, the `dca` command's entry point. A change that adds a module to this
set changes this test in the same diff, and says why the import is worth
its cost there.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dca"

MODULE_LEVEL_IMPORTS = {
    "__future__",
    "argparse",
    "bisect",
    "collections",
    "contextlib",
    "dataclasses",
    "enum",
    "functools",
    "gc",
    "hashlib",
    "importlib.resources",
    "itertools",
    "json",
    "math",
    "numpy",
    "operator",
    "os",
    "pathlib",
    "select",
    "subprocess",
    "sys",
    "threading",
    "time",
    "typing",
}


def module_level_imports(tree: ast.Module) -> set[str]:
    """The modules outside the package that `tree` imports outside any function or class body."""
    found, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                found.add(node.module)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pending.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
    return {name for name in found if name.split(".")[0] != "dca"}


def test_the_package_imports_only_the_pinned_modules():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= module_level_imports(ast.parse(path.read_text(), filename=str(path)))
    assert found == MODULE_LEVEL_IMPORTS


def test_an_import_in_a_function_body_is_not_module_level():
    tree = ast.parse("import a\nif b:\n    from c.d import e\ndef f():\n    import g\nclass H:\n    import i\n")
    assert module_level_imports(tree) == {"a", "c.d"}


def test_the_package_and_its_light_modules_load_nothing_they_do_not_import():
    code = (
        "import sys\n"
        "import dca\n"
        "print(sorted(m for m in sys.modules if m.startswith('dca.')))\n"
        "import dca.perm, dca.constraints\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\nFalse\n"
