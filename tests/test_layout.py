"""Package layout: the modules of blockstat share only public names."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import blockstat

PACKAGE = pathlib.Path(blockstat.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            sibling = isinstance(node, ast.ImportFrom) and node.module and (
                node.level == 1 or node.module.startswith("blockstat.")
            )
            if sibling:
                found += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _parsed(name):
    return ast.parse((PERFBENCH / name).read_text())


def _string_set(tree, target):
    """The strings of the module-level set literal assigned to target."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    raise AssertionError(f"no {target} in the tracer")


def _resolve(dotted):
    """blockstat.<module>.<name>[.<attribute>], importing the module."""
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"blockstat.{module}")
    for name in names:
        obj = vars(obj)[name]
    return obj


def test_perfbench_reads_only_names_the_package_has():
    # the benchmark is read here, not imported: a name it reads that the
    # package dropped would otherwise surface only as a failed bench run
    import blockstat.cli  # noqa: F401  (the cli workload calls bs.cli.main)

    workloads, tracer = _parsed("workloads.py"), _parsed("tracer.py")
    read = {
        node.attr
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "bs"
    }
    assert read and not [name for name in sorted(read) if not hasattr(blockstat, name)]
    for entry in _string_set(tracer, "WRITERS") | _string_set(tracer, "PRIVATE"):
        assert callable(_resolve(entry)), entry
    # the tracer's hooks bind some arguments by name
    hooks = next(
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_HOOKS"
    )
    hooked = [(k.value, getattr(v, "id", None)) for k, v in zip(hooks.keys, hooks.values)]
    binds = {
        fn.name: [
            call.args[-1].value for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_bound"
        ]
        for fn in tracer.body if isinstance(fn, ast.FunctionDef)
    }
    bound = [(dotted, param) for dotted, hook in hooked for param in binds.get(hook, ())]
    assert {param for _, param in bound} >= {"K", "n_reps"}
    for dotted, param in bound:
        assert param in inspect.signature(_resolve(dotted)).parameters, (dotted, param)
    for dotted, _ in hooked:
        assert callable(_resolve(dotted)), dotted


_IMPORT_THEN_SOLVE = """
import contextlib, io, sys
import blockstat, blockstat.cli
loaded = lambda: [m for m in {deferred!r} if m in sys.modules]
print(loaded())
from blockstat import ModelParams, MoranParams, bs_w_generating, solve_moran
solve_moran(MoranParams(12, 0.7, 0.25, 0.15))
bs_w_generating(ModelParams(1.0, 0.5, 0.5), n_taylor=4)
with contextlib.redirect_stdout(io.StringIO()):
    code = blockstat.cli.main(["validate", "--suite", "full"])
print(code, loaded())
"""


def test_import_leaves_the_ode_and_banded_solvers_unloaded():
    # scipy.linalg is imported by the banded solve that uses it, not by
    # `import blockstat`; scipy.integrate (with the optimize and sparse it
    # pulls in) is never imported, as the generating function is
    # collocated with numpy alone; a fresh interpreter sees what loads
    deferred = ["scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse"]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_THEN_SOLVE.format(deferred=deferred)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    on_import, after_solves = run.stdout.splitlines()
    assert on_import == "[]"
    assert after_solves == "0 ['scipy.linalg']"


def test_no_module_imports_scipy_integrate():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names if n.startswith("scipy.integrate")]
    assert not found, found
