"""Static checks on the package source that need no linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgoplane"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_sees_unused_and_used_names():
    src = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
           "from typing import Callable, Sequence\n"
           "def f(g: Callable) -> None:\n    np.zeros(1)\n")
    assert unused_imports(src) == ["Sequence (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def json_calls_allowing_nan(source: str) -> list[int]:
    """Lines of json.dump/json.dumps calls that do not pass allow_nan=False."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("dump", "dumps")):
            continue
        if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in node.keywords):
            lines.append(node.lineno)
    return lines


def test_detector_sees_json_calls_allowing_nan():
    src = ("import json\njson.dumps({})\njson.dump({}, fh, allow_nan=False)\n"
           "json.dumps({}, allow_nan=True)\njson.loads('1')\n")
    assert json_calls_allowing_nan(src) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_output_refuses_nan(path):
    # JSON has no NaN or Infinity; Python's default writes them anyway
    assert json_calls_allowing_nan(path.read_text()) == []


def global_caches(source: str) -> list[str]:
    """Module-level names bound to an empty dict that a function fills by subscript."""
    tree = ast.parse(source)
    empty = {}
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        value = getattr(node, "value", None)
        if isinstance(target, ast.Name) and (
                (isinstance(value, ast.Dict) and not value.keys)
                or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "dict" and not value.args and not value.keywords)):
            empty[target.id] = node.lineno
    filled = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [getattr(node, "target", None)])
            filled.update(t.value.id for t in targets
                          if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                          and t.value.id in empty)
    return [f"{name} (line {empty[name]})" for name in sorted(filled)]


def test_detector_sees_global_caches():
    src = ("_A: dict = {}\n_B = dict()\n_C = {}\n_D = {'k': 1}\n_E = {}\n"
           "def f(k):\n    _A[k] = 1\n    _B[k] += 1\n    _D[k] = 2\n    return _C[k]\n"
           "def g(k):\n    local = {}\n    local[k] = 1\n    return local\n"
           "_E['k'] = 3\n")
    assert global_caches(src) == ["_A (line 1)", "_B (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unbounded_global_cache(path):
    # a module-level dict that calls fill grows for the life of the process
    assert global_caches(path.read_text()) == []


def per_thread_state(source: str) -> list[str]:
    """Module-level names bound to threading.local(), however threading or local was imported."""
    tree = ast.parse(source)
    modules, locals_ = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "threading")
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            locals_.update(a.asname or a.name for a in node.names if a.name == "local")
    found = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [getattr(node, "target", None)])
        f = getattr(getattr(node, "value", None), "func", None)
        if (isinstance(f, ast.Name) and f.id in locals_) or (
                isinstance(f, ast.Attribute) and f.attr == "local"
                and isinstance(f.value, ast.Name) and f.value.id in modules):
            found.extend(f"{t.id} (line {node.lineno})" for t in targets
                         if isinstance(t, ast.Name))
    return sorted(found)


def test_detector_sees_per_thread_state():
    src = ("import threading\nimport threading as th\nfrom threading import local, local as L\n"
           "_a = threading.local()\n_b: object = th.local()\n_c = _c2 = local()\n_d = L()\n"
           "_e = threading.Lock()\n_f = other.local()\n"
           "def f():\n    g = threading.local()\n    return g\n")
    assert per_thread_state(src) == ["_a (line 4)", "_b (line 5)", "_c (line 6)",
                                     "_c2 (line 6)", "_d (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_thread_module_state(path):
    # a per-thread slot keeps one entry per thread for the life of the process,
    # and a value built per call cannot be served to the wrong caller
    assert per_thread_state(path.read_text()) == []


TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")


def overwritten_inputs(source: str) -> list[int]:
    """Lines of overwrite_x=True transforms whose array may belong to a caller.

    Allowed: an arithmetic expression or another transform (both make a new
    array), or a name local to the function that is never bound to a bare
    name, attribute or subscript (an alias).  Everything else is flagged: a
    parameter, an attribute such as ``F.values``, a slice, any other call.
    """
    lines = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
        params |= {arg.arg for arg in (a.vararg, a.kwarg) if arg is not None}
        aliases = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                   and isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript))
                   for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and any(
                    k.arg == "overwrite_x" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in node.keywords)):
                continue
            x = node.args[0] if node.args else None
            fresh = isinstance(x, (ast.BinOp, ast.UnaryOp)) or (
                isinstance(x, ast.Call)
                and getattr(x.func, "attr", getattr(x.func, "id", None)) in TRANSFORMS)
            local = isinstance(x, ast.Name) and x.id not in params | aliases
            if not (fresh or local):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_detector_sees_transforms_of_caller_arrays():
    src = ("def f(F, u, phase, mult):\n"
           "    a = phase * F.values\n"
           "    a = fft2(a, overwrite_x=True)\n"                 # local: ok
           "    b = ifft2(mult * a, overwrite_x=True)\n"         # fresh product: ok
           "    c = fft2(ifft2(b, overwrite_x=True), overwrite_x=True)\n"  # ok
           "    fft2(F.values, overwrite_x=True)\n"              # attribute: 6
           "    fft2(u, overwrite_x=True)\n"                     # parameter: 7
           "    u = u.reshape(4, 4)\n"
           "    fft2(u, overwrite_x=True)\n"                     # rebound parameter: 9
           "    d = F.values\n"
           "    fft2(d, overwrite_x=True)\n"                     # alias: 11
           "    fft2(a[:2], overwrite_x=True)\n"                 # slice: 12
           "    fft2(u, overwrite_x=False)\n"
           "    fft2(F.values)\n"
           "    sfft.fft2(np.asarray(u), overwrite_x=True)\n"    # other call: 15
           "    return a, b, c\n")
    assert overwritten_inputs(src) == [6, 7, 9, 11, 12, 15]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_in_place_transforms_own_their_array(path):
    # an in-place FFT of a caller's array would silently change the caller's data
    assert overwritten_inputs(path.read_text()) == []


def support_checks_skipped(source: str) -> list[str]:
    """The enclosing top-level definition of each call passing check_support=False,
    one entry per call; ``<module>`` for a call outside every definition."""
    found = []
    for top in ast.parse(source).body:
        label = getattr(top, "name", "<module>")
        found.extend(label for node in ast.walk(top) if isinstance(node, ast.Call)
                     and any(k.arg == "check_support" and isinstance(k.value, ast.Constant)
                             and k.value.value is False for k in node.keywords))
    return sorted(found)


def test_detector_sees_skipped_support_checks():
    src = ("def f(F, p):\n    dz_inv(F, check_support=False)\n"
           "    def g():\n        return cgo.s1_apply(F, p, check_support=False)\n"
           "    dz_inv(F, check_support=True)\n"
           "def h(F):\n    return dz_inv(F)\n"
           "class C:\n    def m(self, F):\n        return s1_apply(F, check_support=False)\n"
           "z = dz_inv(F, check_support=False)\n")
    assert support_checks_skipped(src) == ["<module>", "C", "f", "f"]


# calls that apply an operator without the padding guard, each for a stated reason
SUPPORT_CHECK_ALLOWLIST = {
    # S1's norm is taken over all grid functions, so its forward pass meets
    # full-square fields by design
    "experiments.py:_s1_opnorm",
}


def test_padding_guard_skipped_only_where_allowed():
    # the periodic inverses stand in for the Cauchy transforms only inside the margin
    found = [f"{path.name}:{name}" for path in MODULES
             for name in support_checks_skipped(path.read_text())]
    assert found == sorted(SUPPORT_CHECK_ALLOWLIST)


def unused_public_api(*sources: str) -> list[str]:
    """Public top-level functions and classes, and public non-property methods,
    whose name no Name or Attribute node of any of ``sources`` mentions.

    A method is matched by its name only, so a mention of any attribute of
    that name counts: a method that shares its name with a numpy array's or
    another class's escapes the check (``ComplexField.conj`` and
    ``ComplexField.max_abs`` did, beside ``ndarray.conj`` and
    ``PiecewisePotential.max_abs``).  Dunder methods are not public.
    """
    trees = [ast.parse(s) for s in sources]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def is_property(fn):
        return any(getattr(d, "id", None) == "property" or getattr(d, "attr", None) == "setter"
                   for d in fn.decorator_list)

    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, defs + (ast.ClassDef,)) and not node.name.startswith("_"):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend((f"{node.name}.{m.name}", m.name) for m in node.body
                               if isinstance(m, defs) and not m.name.startswith("_")
                               and not is_property(m))
    used = {getattr(n, "id", None) or getattr(n, "attr", None) for tree in trees
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    return sorted(label for label, name in defined if name not in used)


def test_detector_sees_unused_public_api():
    src = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
           "class Used:\n    @property\n    def prop(self): return 1\n"
           "    def method(self): return used()\n    def called(self): pass\n"
           "    def _helper(self): pass\nclass Unused: pass\n")
    other = "x = Used()\nx.called()\n"
    assert unused_public_api(src, other) == ["Unused", "Used.method", "unused"]


# public API kept without a caller in the package, each for a stated reason
API_ALLOWLIST = {
    "dz_inv",                     # public inverse d; tests pin it, perfbench/tracer.py wraps it
    "dzbar_inv",                  # public inverse d-bar; tests pin it, perfbench/tracer.py wraps it
    "DtnMatrix.symmetry_defect",  # acceptance criterion 5
    "load_far_field",             # reads the far-field blob the scatter runner writes
    "dsr_norm_upper",             # ROADMAP item 13 (the D^{s,r} stability norm)
    "degenerate_locus",           # acceptance criterion 6
    "stationarity_residuals",     # acceptance criterion 6
    "tangent_set_area",           # acceptance criterion 6
    "track_roots",                # ROADMAP item 6 (root tracking in stability)
}


def test_no_dead_public_api():
    # a public name nothing in the package calls is either dead or needs a reason here
    assert set(unused_public_api(*(p.read_text() for p in MODULES))) == API_ALLOWLIST


def defaults_never_set(source: str, *callers: str) -> list[str]:
    """Defaulted parameters of the public functions, and of the public methods and
    ``__init__`` of the public classes, in ``source`` that no call in ``callers``
    passes, by keyword or by position.

    A call is matched by the callee's name: a Name (through its caller's import
    aliases), an Attribute's attr, or the class name for ``__init__``.  A call
    with ``*args`` or ``**kwargs`` passes every parameter it could reach.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def defaulted(fn, method):
        a = fn.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        positional = [arg.arg for arg in a.posonlyargs + a.args][int(method and not static):]
        out = [(name, i) for i, name in enumerate(positional)
               if i >= len(positional) - len(a.defaults)]
        return out + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]

    params = []  # (label, callee name, parameter, position or None)
    for node in ast.parse(source).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            params += [(f"{node.name}.{p}", node.name, p, i) for p, i in defaulted(node, False)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, defs) and (m.name == "__init__" or not m.name.startswith("_")):
                    callee = node.name if m.name == "__init__" else m.name
                    params += [(f"{node.name}.{m.name}.{p}", callee, p, i)
                               for p, i in defaulted(m, True)]

    calls = {}
    for text in callers:
        tree = ast.parse(text)
        aliases = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   for a in n.names if a.asname}
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                f = n.func
                name = (aliases.get(f.id, f.id) if isinstance(f, ast.Name)
                        else getattr(f, "attr", None))
                calls.setdefault(name, []).append(n)

    def passes(call, param, pos):
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        return pos is not None and (len(call.args) > pos
                                    or any(isinstance(a, ast.Starred) for a in call.args))

    return sorted(label for label, callee, param, pos in params
                  if not any(passes(c, param, pos) for c in calls.get(callee, ())))


def test_detector_sees_defaults_never_set():
    src = ("def f(a, b=1, *, c=2, d=3): pass\ndef g(x=0): pass\ndef h(y=0): pass\n"
           "def _private(z=0): pass\n"
           "class K:\n    def __init__(self, p=1, q=2): pass\n"
           "    def m(self, r=1, s=2): pass\n"
           "    @staticmethod\n    def st(t=1): pass\n"
           "    def _helper(self, v=1): pass\n"
           "class _P:\n    def m2(self, u=1): pass\n")
    caller = ("from mod import f as ff, K\nff(1, 2)\nff(1, c=3)\nK(5)\nk.m(s=1)\nK.st(1)\n"
              "g(*args)\nh(**opts)\nf(0)\n")
    assert defaults_never_set(src, caller) == ["K.__init__.q", "K.m.r", "f.d"]


PROGRAM_SOURCES = [p.read_text() for root in (SRC, SRC.parents[1] / "tests",
                                               SRC.parents[1] / "perfbench")
                   for p in sorted(root.glob("*.py"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_default_that_no_call_sets(path):
    # a default no caller overrides is a constant dressed up as an option
    assert defaults_never_set(path.read_text(), *PROGRAM_SOURCES) == []


# defaults that only tests set, each for a stated reason
TEST_ONLY_DEFAULTS = {
    "dz_inv.check_support",        # the bit-identity tests build S1's reference composition
    "dzbar_inv.check_support",     # on full-square fields, as _s1_opnorm's forward pass does
    "solve_w.max_iter",            # the NonConvergence test runs out a short Picard budget
    "main.argv",                   # the in-process CLI tests pass the command line
    "degenerate_locus.delta",      # acceptance criterion 6
    "degenerate_locus.n_samples",  # acceptance criterion 6
    "tangent_set_area.band",       # acceptance criterion 6
    "tangent_set_area.n_mc",       # acceptance criterion 6
    "tangent_set_area.seed",       # acceptance criterion 6
}

LIBRARY_SOURCES = [p.read_text() for root in (SRC, SRC.parents[1] / "perfbench")
                   for p in sorted(root.glob("*.py")) if not p.name.startswith("test_")]


def test_defaults_only_tests_set_are_allowed():
    # a default the package and the benchmark never set serves the tests alone
    found = {label for path in MODULES
             for label in defaults_never_set(path.read_text(), *LIBRARY_SOURCES)}
    assert found == TEST_ONLY_DEFAULTS


def unread_dataclass_fields(source: str, *readers: str) -> list[str]:
    """Fields of the ``@dataclass`` classes in ``source`` whose name no attribute
    load in ``readers`` mentions, as ``Class.field``.

    A field is matched by name only, so a read of any attribute of that name
    counts: a field that shares its name with another class's read attribute
    (a ``theta`` field beside ``mesh.theta``) escapes the check.
    """
    def is_dataclass(node):
        for d in node.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            if (getattr(d, "id", None) or getattr(d, "attr", None)) == "dataclass":
                return True
        return False

    fields = [f"{node.name}.{stmt.target.id}" for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.ClassDef) and is_dataclass(node)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = {n.attr for text in readers for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f for f in fields if f.split(".")[1] not in read)


def test_detector_sees_unread_dataclass_fields():
    src = ("from dataclasses import dataclass\nimport dataclasses\n"
           "@dataclass\nclass A:\n    read: int\n    unread: int\n    written: int = 0\n"
           "@dataclass(frozen=True)\nclass B:\n    x: float\n"
           "@dataclasses.dataclass\nclass C:\n    y: float\n"
           "class Plain:\n    z: int\n")
    reader = "a.read\nb.x = 1\nc.written = 2\nprint(obj.y)\nz\n"
    assert unread_dataclass_fields(src, reader) == ["A.unread", "A.written", "B.x"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_field_is_read(path):
    # a field nothing reads is a copy kept for no one
    assert unread_dataclass_fields(path.read_text(), *PROGRAM_SOURCES) == []


def untyped_raises(source: str) -> list[str]:
    """The enclosing top-level definition of each ``raise ValueError`` or
    ``raise TypeError``, called or not, one entry per raise."""
    found = []
    for top in ast.parse(source).body:
        label = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append(label)
    return sorted(found)


def test_detector_sees_untyped_raises():
    src = ("def f(x):\n    if x:\n        raise ValueError('x')\n    raise DomainError('y')\n"
           "class C:\n    def m(self):\n        raise TypeError\n"
           "def g():\n    try:\n        pass\n    except ValueError:\n        raise\n"
           "raise ValueError('top')\n")
    assert untyped_raises(src) == ["<module>", "C", "f"]


# raises of a builtin error, each for a stated reason
UNTYPED_RAISE_ALLOWLIST = [
    "utils.py:_json_default",  # json's default hook signals an unknown type by TypeError
    "utils.py:read_blob",      # both caught three lines below and re-raised
    "utils.py:read_blob",      # as BlobFormatError
]


def test_library_errors_are_typed():
    # a caller catches CgoplaneError for every error the package raises itself
    found = [f"{path.name}:{name}" for path in MODULES
             for name in untyped_raises(path.read_text())]
    assert sorted(found) == UNTYPED_RAISE_ALLOWLIST


def unset_defaults(value, where="") -> list[str]:
    """Paths of the None values and empty lists in a nested default."""
    if value is None or (isinstance(value, (list, tuple)) and not value):
        return [where]
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in unset_defaults(v, f"{where}.{key}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in unset_defaults(v, f"{where}[{i}]")]
    return []


def test_detector_sees_unset_defaults():
    value = {"a": None, "b": [1.0, None], "c": {"d": [], "e": [[0.0, 1.0]]}, "f": 0.0}
    assert unset_defaults(value) == [".a", ".b[1]", ".c.d"]


def test_runner_defaults_are_all_set():
    # _same_kind types a param by its default, and by a list's first element
    from cgoplane import experiments as ex
    defaults = {"counterexample": ex.counterexample_defaults(),
                "convergence smooth-bump": ex.convergence_defaults("smooth-bump"),
                "convergence pwc-disk": ex.convergence_defaults("pwc-disk"),
                "stability": ex.stability_defaults(),
                "lemmas": ex.lemma_defaults(),
                "scatter": ex.scatter_defaults()}
    assert [p for name, d in defaults.items() for p in unset_defaults(d, name)] == []
