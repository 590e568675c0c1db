"""The slot engine keeps one path: every rule chooses its whole (seeds x
slots) table through ``choices_vector``, so ``_advance`` loops over no slot
and asks no rule how it decides.  Each rule's conditional mean has one path
too: the mean of its ``slot_law``."""

import ast
from pathlib import Path

SIM = Path(__file__).resolve().parent.parent / "src" / "oppsched" / "sim.py"
POLICY = SIM.with_name("policy.py")


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


def methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def test_slot_mean_has_one_body_and_custom_rules_one_lookup():
    classes = [node for node in ast.parse(POLICY.read_text()).body
               if isinstance(node, ast.ClassDef)]
    defining = [cls.name for cls in classes
                if any(f.name == "slot_mean" for f in methods(cls))]
    custom = next(cls for cls in classes if cls.name == "CustomPolicy")
    # Entry reads (self.table.get(...), self.table[...]) and the chained range
    # guard on an entry (0 <= entry < n); listing the keys does not count.
    lookups = [f.name for f in methods(custom) for node in ast.walk(f)
               if isinstance(node, (ast.Call, ast.Subscript))
               and ast.unparse(node).startswith(("self.table.get(", "self.table["))]
    guards = [f.name for f in methods(custom) for node in ast.walk(f)
              if isinstance(node, ast.Compare) and len(node.ops) == 2]
    assert defining == ["Policy"]
    assert len(lookups) == 1 and guards == lookups
