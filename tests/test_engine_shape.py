"""The slot engine keeps one path: every rule chooses its whole (seeds x
slots) table through ``choices_vector``, so ``_advance`` loops over no slot
and asks no rule how it decides."""

import ast
from pathlib import Path

SIM = Path(__file__).resolve().parent.parent / "src" / "oppsched" / "sim.py"


def function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_advance_has_no_loop_and_no_second_branch():
    body = function(ast.parse(SIM.read_text()), "_advance")
    loops = [node.lineno for node in ast.walk(body)
             if isinstance(node, (ast.For, ast.AsyncFor, ast.While))]
    # An attribute read (policy.select) or a bare name (select).
    reads = [node.lineno for node in ast.walk(body)
             if getattr(node, "attr", getattr(node, "id", None)) in ("select", "stationary")]
    assert loops == [] and reads == []
