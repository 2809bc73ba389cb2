"""Other modules reach the exact layer through its public names only."""

import ast
import pathlib

import stalab

SRC = pathlib.Path(stalab.__file__).parent


def _kinematics_private_attributes() -> set[str]:
    """Private methods and instance attributes of the kinematics classes."""
    tree = ast.parse((SRC / "kinematics.py").read_text())
    names = set()
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


PRIVATE = _kinematics_private_attributes()


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "kinematics"):
            found += [f"import {a.name}" for a in node.names
                      if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id == "kinematics"
                    and node.attr.startswith("_")):
                found.append(f"kinematics.{node.attr}")
            elif node.attr in PRIVATE:
                found.append(f".{node.attr}")
    return found


def test_private_names_are_known():
    assert {"_fpos", "_flocal", "_fvel", "_ftimes"} <= PRIVATE


def test_checker_flags_reach_ins():
    bad = ("from .kinematics import _fvec\n"
           "x = kinematics._float3(v)\n"
           "c = pd._fpos[0]\n")
    assert violations(bad) == ["import _fvec", "kinematics._float3", "._fpos"]


def test_no_module_reaches_into_kinematics():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "kinematics.py":
            assert violations(path.read_text()) == [], path.name
