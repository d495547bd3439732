"""Static hygiene of the package source, read with ast and never imported.

Every top-level function and class of src/wavenvelope must be used by the
package itself, or carry a reason here for existing without a caller in
src/; so must every method and property but the dunders, which Python
calls, and every dataclass field must be read as an attribute in src/ or
carry a reason for having no reader there.  And src/ holds no assert
statement: python -O strips them, so a check that matters has to raise.
And src/ imports no scipy: numpy is the package's only runtime
dependency.  And src/ holds no more optional parameters than
scripts/src_counts.py counted when each example weight became its
builder's defaults.  And every mutant of scripts/mutants.py still finds
the one line it edits.
"""

import ast
import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "wavenvelope")

# the most optional parameters src/ may hold, as scripts/src_counts.py
# counts them: a setting no experiment varies is a constant
MAX_OPTIONAL_PARAMETERS = 36

# top-level names and Class.method names with no caller in src/, each with
# the reason it stays
NO_CALLER_IN_SRC = {
    "pair_growth_fit": "acceptance criterion 9 fits each pair's growth",
    "fls_experiment": "acceptance criterion 10 fits one family at one p",
    "locate_grid_envelopes": "the benchmark's span counters trace it",
    "nikodym_experiment": "the benchmark's span counters trace it",
    "TorusField.samples_on": "the benchmark's span counters trace it",
}


# dataclass fields that src/ never reads as an attribute, each with the
# reason it stays
NO_READER_IN_SRC = {
    "Report.preflight_mb": "the benchmark worker records the estimate",
    "BroadNarrowReport.narrow": "tests check the split's narrow term",
    "BroadNarrowReport.bilinear": "tests check the split's bilinear term",
    "BilinearReport.int_B": "tests check int_BY <= int_B, equal on the plane",
    "BilinearReport.norm1_w": "tests check C_l4 and C_orth1 against it",
    "BilinearReport.norm2_w": "tests check C_l4 and C_orth2 against it",
    "BilinearReport.sq_norm_w": "tests check C_orth1 and C_orth2 against it",
}


def _modules():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name] = ast.parse(fh.read(), filename=name)
    return out


MODULES = _modules()


def _used_names() -> set:
    """Names read anywhere in src/: bare names and attribute names."""
    used = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_top_level_definition_has_a_caller():
    used = _used_names()
    defined, orphans = set(), []
    for fname, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if node.name not in used and node.name not in NO_CALLER_IN_SRC:
                orphans.append(f"{fname}:{node.lineno} {node.name}")
    assert orphans == []
    # a stale reason outlives the definition it excused
    assert {name for name in NO_CALLER_IN_SRC if "." not in name} <= defined


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_has_a_reader():
    read = {node.attr for tree in MODULES.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    defined, unread = set(), []
    for fname, tree in MODULES.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    continue
                name = f"{cls.name}.{node.target.id}"
                defined.add(name)
                if node.target.id not in read and \
                        name not in NO_READER_IN_SRC:
                    unread.append(f"{fname}:{node.lineno} {name}")
    assert unread == []
    assert set(NO_READER_IN_SRC) <= defined


def test_every_method_has_a_caller():
    used = _used_names()
    defined, orphans = set(), []
    for fname, tree in MODULES.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or \
                        node.name.startswith("__"):
                    continue
                name = f"{cls.name}.{node.name}"
                defined.add(name)
                if node.name not in used and name not in NO_CALLER_IN_SRC:
                    orphans.append(f"{fname}:{node.lineno} {name}")
    assert orphans == []
    assert {name for name in NO_CALLER_IN_SRC if "." in name} <= defined


@pytest.mark.parametrize("fname", sorted(MODULES))
def test_no_assert_statements(fname):
    asserts = [node.lineno for node in ast.walk(MODULES[fname])
               if isinstance(node, ast.Assert)]
    assert asserts == []


@pytest.mark.parametrize("fname", sorted(MODULES))
def test_no_scipy_imports(fname):
    imported = []
    for node in ast.walk(MODULES[fname]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.append(node.module)
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def _script(name: str):
    """scripts/<name>.py loaded as a module; its main is not run."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_optional_parameters_do_not_grow():
    _, optional = _script("src_counts").counts()
    assert optional <= MAX_OPTIONAL_PARAMETERS


def test_every_mutant_applies():
    # each mutant's old text is one line found once in its module, so an
    # edit of a mutated line fails here, not only in a full mutant run
    mutants = _script("mutants")
    assert mutants.check_mutants(mutants.MUTANTS) == []
