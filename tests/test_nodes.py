"""Node classes of both languages: copying, pickling, and what import compiles."""

import copy
import json
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from conftest import CORPUS, CORPUS_NAMES, corpus_expr
from foldcost import complexity, syntax
from foldcost.translate import translate, translate_ty
from foldcost.typecheck import typecheck

SRC = CORPUS.parent / "src"

BASES = (syntax.Expr, syntax.Ty, complexity.CplxExpr, complexity.CTy)
NODE_CLASSES = [c for m in (syntax, complexity) for c in vars(m).values()
                if isinstance(c, type) and issubclass(c, BASES) and c not in BASES]


def _samples() -> list:
    """One node of every class, with fields 0, 1, ..., and each corpus
    program, its type, its translation and the translated type."""
    samples = [c(*range(len(fields(c)))) for c in NODE_CLASSES]
    for name in CORPUS_NAMES:
        e = corpus_expr(name)
        ty = typecheck({}, e)
        samples += [e, ty, translate(e), translate_ty(ty)]
    return samples


COPIERS = [pytest.param(lambda x, p=p: pickle.loads(pickle.dumps(x, p)), id=f"pickle{p}")
           for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [
    pytest.param(copy.copy, id="copy"), pytest.param(copy.deepcopy, id="deepcopy")]


@pytest.mark.parametrize("copier", COPIERS)
def test_nodes_survive_pickle_and_copy(copier):
    # Pickle and copy restore a node's state by assignment unless the class
    # says otherwise, and assignment to a node raises.
    for x in _samples():
        y = copier(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)
        for field in fields(y)[:1]:
            with pytest.raises(FrozenInstanceError):
                setattr(y, field.name, None)


def test_nodes_keep_match_args_and_replace():
    for cls in NODE_CLASSES:
        names = tuple(f.name for f in fields(cls))
        assert cls.__match_args__ == names
        x = cls(*range(len(names)))
        if names:
            assert replace(x, **{names[-1]: -1}) == cls(*range(len(names) - 1), -1)
    match corpus_expr("ins"):
        case syntax.Lam("x", syntax.IntTy(), syntax.Lam(_, _, syntax.Fold(syntax.Var("xs")))):
            pass
        case other:
            pytest.fail(f"no match: {other!r}")


# sha256 of the reprs of each corpus program, its type, its translation and
# the translated type, and of one node of every class with fields 0, 1, ...;
# recorded while `dataclass` still compiled every node method at import.
REPR_SHA256 = "e26b8eb807cf0b256fe537bfaf9d6d99ae2bf8a714783cd4a1bdde61938eca4d"

_CHILD = r"""
import hashlib, inspect, json, sys
from dataclasses import fields
from pathlib import Path

calls = []
signature = inspect.signature
inspect.signature = lambda *args, **kwargs: calls.append(args) or signature(*args, **kwargs)
sys.path.insert(0, sys.argv[1])
import foldcost
from foldcost import complexity, syntax

bases = (syntax.Expr, syntax.Ty, complexity.CplxExpr, complexity.CTy)
classes = [c for m in (syntax, complexity) for c in vars(m).values()
           if isinstance(c, type) and issubclass(c, bases) and c not in bases]
methods = ("__eq__", "__hash__", "__repr__")
stubs = {m: vars(classes[0])[m] for m in methods}
compiled = sorted(f"{c.__name__}.{m}" for c in classes for m in methods if vars(c)[m] is not stubs[m])

h = hashlib.sha256()
for name in sys.argv[3:]:
    e = foldcost.parse(Path(sys.argv[2], name + ".tgt").read_text(encoding="utf-8"))
    ty = foldcost.typecheck({}, e)
    for x in (e, ty, foldcost.translate(e), foldcost.translate_ty(ty)):
        h.update(repr(x).encode() + b"\n")
wrong = []
for c in classes:
    n = len(fields(c))
    x = c(*range(n))
    h.update(repr(x).encode() + b"\n")
    if not (x == c(*range(n)) and hash(x) == hash(tuple(range(n)))
            and (n == 0 or x != c(*range(1, n + 1))) and x.__eq__(0) is NotImplemented):
        wrong.append(c.__name__)
left = sorted(f"{c.__name__}.{m}" for c in classes for m in methods if vars(c)[m] is stubs[m])
print(json.dumps({"signature_calls": len(calls), "classes": len(classes), "compiled": compiled,
                  "repr_sha256": h.hexdigest(), "wrong": wrong, "stubs_left": left}))
"""


def test_import_compiles_no_node_method():
    """`import foldcost` compiles no node class's `__eq__`, `__hash__` or
    `__repr__` and makes no `inspect.signature` call, which would compile
    `tokenize`'s regex; the methods compiled at first use give the reprs,
    comparisons and hashes that `dataclass(frozen=True)` gave.  Counted in a
    fresh interpreter, with no timing."""
    child = subprocess.run(
        [sys.executable, "-I", "-c", _CHILD, str(SRC), str(CORPUS), *CORPUS_NAMES],
        capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(child.stdout)
    assert out["signature_calls"] == 0
    assert out["classes"] == len(NODE_CLASSES) >= 36
    assert out["compiled"] == []
    assert out["stubs_left"] == [] and out["wrong"] == []
    assert out["repr_sha256"] == REPR_SHA256
