"""The afcmem API that the benchmark under benchmarks/ calls and traces.

The benchmark's tracer wraps the functions named in its TARGETS and binds
each call's arguments by name, so a renamed function or argument breaks
the benchmark, not the package.  These tests read the benchmark's files
as text and hold the package to them.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCHMARKS = Path(__file__).parents[1] / "benchmarks"


def _parse(name: str) -> ast.Module:
    return ast.parse((BENCHMARKS / name).read_text())


def _subscripted_names(node) -> set[str]:
    """The string keys of every x["key"] in node."""
    return {sub.slice.value for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript)
            and isinstance(sub.slice, ast.Constant)
            and isinstance(sub.slice.value, str)}


def _traced() -> dict:
    """(module, function) of each tracer target: the argument names its
    span and counter read."""
    tree = _parse("tracer.py")
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    [targets] = [node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TARGETS"]]
    traced = {}
    for entry in targets.elts:
        module, function, *hooks = entry.elts
        reads = set()
        for hook in hooks:
            if isinstance(hook, ast.Call):  # a counter factory and its args
                reads |= {a.value for a in hook.args
                          if isinstance(a, ast.Constant)}
                hook = hook.func
            if isinstance(hook, ast.Name):
                reads |= _subscripted_names(functions[hook.id])
        traced[module.value, function.value] = reads
    return traced


def test_traced_functions_bind_the_arguments_their_counters_read():
    traced = _traced()
    assert set().union(*traced.values()) == {
        "params", "waveform", "detuning_grid", "dd", "bath", "errors",
        "line", "argv", "name"}
    for (module, function), reads in traced.items():
        fn = getattr(importlib.import_module(module), function)
        missing = reads - set(inspect.signature(fn).parameters)
        assert not missing, f"{module}.{function} lacks {sorted(missing)}"


def _dotted(node) -> list[str] | None:
    """["afcmem", ...] for an attribute chain rooted at the name afcmem."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "afcmem" and parts:
        return ["afcmem", *parts]
    return None


def test_workloads_call_existing_names_with_existing_arguments():
    tree = _parse("workloads.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "afcmem":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "afcmem"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
    afcmem = importlib.import_module("afcmem")
    for node in ast.walk(tree):
        chain = _dotted(node.func if isinstance(node, ast.Call) else node)
        if chain is None:
            continue
        obj = afcmem
        for part in chain[1:]:
            assert hasattr(obj, part), ".".join(chain)
            obj = getattr(obj, part)
        if isinstance(node, ast.Call) and not any(
                isinstance(a, ast.Starred) for a in node.args):
            # the call's arity and keyword names fit the signature
            try:
                inspect.signature(obj).bind_partial(
                    *node.args, **{k.arg: None for k in node.keywords
                                   if k.arg})
            except TypeError as exc:
                raise AssertionError(f"{'.'.join(chain)}: {exc}") from None
