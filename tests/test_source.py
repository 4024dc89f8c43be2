"""Checks on the package source itself."""

import argparse
import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import gmfkit
from gmfkit import cli

SOURCES = sorted(Path(gmfkit.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


def test_no_assert_statements():
    # python -O strips assert, so a runtime condition must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# each module may import only modules before it in this order; numberfield
# comes before linalg, so that its inverse cannot go back to a linear solve
LAYERS = ["errors", "numberfield", "linalg", "qseries", "subgroup", "jsonio", "etaforms",
          "gmfcore", "cli"]


def gmfkit_imports(path):
    """The gmfkit modules a source file imports (relative or absolute)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "gmfkit":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("gmfkit."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("gmfkit."))
    return found


def test_modules_import_only_earlier_layers():
    modules = {path.stem for path in SOURCES} - {"__init__"}
    assert modules == set(LAYERS)
    late = {
        (path.stem, name)
        for path in SOURCES
        if path.stem != "__init__"
        for name in gmfkit_imports(path)
        if LAYERS.index(name) >= LAYERS.index(path.stem)
    }
    assert late == set()


def test_each_verb_handler_declared_once():
    # a cmd_* function with no subparser, or a subparser whose handler is
    # not one, means a verb declared in one place but not the other
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    handlers = Counter(p.get_default("handler") for p in verbs.choices.values())
    commands = {value for name, value in vars(cli).items() if name.startswith("cmd_")}
    assert handlers == Counter(commands)


ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = SOURCES + [
    path for folder in ("tests", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))
]


def test_every_definition_has_a_caller():
    # a method must be read as an attribute (x.name) somewhere, and a
    # module-level function named outside __init__.py (whose re-export
    # alone keeps nothing alive)
    attributes, names = set(), set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if path.name != "__init__.py":
                    names.add(node.attr)
            elif isinstance(node, ast.Name) and path.name != "__init__.py":
                names.add(node.id)
    uncalled = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name not in names:
                uncalled.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                uncalled += [
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in attributes
                ]
    assert uncalled == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def callers(name, in_loop=False):
    """module.function (module.Class.method) of every call of ``name`` in
    the package source, or only of those inside a loop or comprehension."""
    found = []

    def visit(node, scope, looping):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], False)
                continue
            if isinstance(child, ast.Call) and (looping or not in_loop):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope))
            visit(child, scope, looping or isinstance(child, LOOPS))

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem], False)
    return found


def test_one_element_to_integer_conversion():
    # a series stores integer coordinates over one denominator: elements
    # become that form in the constructor alone, and no kernel converts them
    # again, neither through the conversion nor through its rational helper
    assert callers("_integer_form") == ["qseries.QExpansion.__init__"]
    assert [c for c in callers("_over_lcm") if c.startswith("qseries.")] == []


def test_series_json_builds_no_elements():
    # series text goes straight to and from the stored integer form: the
    # reader and writer neither read a series' elements nor build any
    tree = ast.parse((Path(gmfkit.__file__).parent / "jsonio.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builders = {"Fraction", "CyclotomicElement"}
    found = [
        f"{name}:{node.lineno}"
        for name in ("series_to_obj", "series_from_obj")
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Attribute) and node.attr in builders | {"coeffs"}
        or isinstance(node, ast.Name) and node.id in builders
    ]
    assert found == []


def test_euler_product_built_in_integer_form():
    # the pentagonal-number coefficients are integers already: they go to
    # the integer constructor, not through field elements and back
    tree = ast.parse((Path(gmfkit.__file__).parent / "etaforms.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if getattr(node, "name", None) == "euler_product"]
    called = [ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)]
    assert "QExpansion._from_integers" in called and "QExpansion" not in called
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(function)}
    assert "Fraction" not in names


def test_series_canonical_by_construction():
    # a series is in lowest terms as it is built: one initializer behind the
    # element and the integer constructors, every series allocated by the
    # latter, no flag saying a form is reduced, and the running gcd only in
    # the kernels whose result can share a factor with its denominator (the
    # recurrence among them, whose denominator may take in more than its steps
    # use, and divide, whose quotient over d down may share a factor with
    # down) and in the JSON reader, which puts the coordinates over their lcm
    # as written; theta f / f is theta N / N on the integers N = den f, over 1
    assert sorted(callers("_store")) == ["qseries.QExpansion.__init__",
                                         "qseries.QExpansion._from_integers"]
    assert callers("__new__") == ["qseries.QExpansion._from_integers"]
    assert sorted(callers("_lowest")) == ["jsonio.series_from_obj"] + [
        f"qseries.QExpansion.{name}"
        for name in ("__add__", "__mul__", "divide", "truncate")] + ["qseries._recurrence"]
    flagged = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
        and "reduced" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]
    assert flagged == []
    # one lcm of denominators, shared by elements and JSON text
    assert callers("lcm", in_loop=True) == ["numberfield._over_lcm"]
    assert {"numberfield._integer_form", "jsonio.series_from_obj"} <= set(callers("_over_lcm"))


def test_prefix_stage_runs_on_series():
    # the decomposition's prefix stage divides and takes the logarithmic
    # derivative on series: gmfcore neither reads a series' elements as a
    # list nor rebuilds a field from the types of elements
    tree = ast.parse((Path(gmfkit.__file__).parent / "gmfcore.py").read_text(encoding="utf-8"))
    coeffs = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    assert coeffs == []
    assert [c for c in callers("FieldTag") if c.startswith("gmfcore.")] == []
    assert "gmfcore.decompose_with_prefix" in callers("theta_logderiv")
    assert "gmfcore.decompose_with_prefix" in callers("divide")


def test_core_returns_values():
    # gmfcore computes and cli formats: the core holds no JSON shape, reads
    # nothing of jsonio but its check entries, and a failing fit raises its
    # witness where it is found rather than wrapping it for the caller
    path = Path(gmfkit.__file__).parent / "gmfcore.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    shapes = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.endswith(("_to_obj", "_from_obj"))]
    assert shapes == []
    from_jsonio = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "jsonio"
                   for alias in node.names]
    assert from_jsonio == ["check_entry"]
    assert callers("PrefixInconsistentError") == ["gmfcore.fit_cusp_form"]


def module_function(module, name):
    tree = ast.parse((Path(gmfkit.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if getattr(node, "name", None) == name]
    return tree, function


def test_one_product_and_one_quotient():
    # every series product, a scaling included, is the one convolution in
    # __mul__, and the online recurrence runs for a quotient (divide, and
    # through it inverse and theta f / f), an exponential and Miller's power;
    # every caller hands it integer series over 1, divide applying the
    # denominators outside it as __mul__ does, so it takes no denominator
    assert callers("_convolved") == ["qseries.QExpansion.__mul__"]
    assert sorted(callers("_recurrence")) == [
        "qseries.QExpansion._miller", "qseries.QExpansion.divide", "qseries.exp_from_logderiv"]
    _, function = module_function("qseries", "_recurrence")
    assert [a.arg for a in function.args.args] == ["r", "g", "terms", "field", "by_index", "power"]
    assert not (function.args.posonlyargs or function.args.kwonlyargs
                or function.args.vararg or function.args.kwarg)


def test_recurrence_sums_in_one_loop():
    # each strategy of the kernel only chooses its operands, a power's
    # carrying Miller's weight: one loop over the coordinate pairs forms
    # every dot product, one per pair in every mode
    _, function = module_function("qseries", "_recurrence")
    loops = [node for node in ast.walk(function)
             if isinstance(node, (ast.For, ast.comprehension)) and ast.unparse(node.iter) == "pairs"]
    assert len(loops) == 1 and isinstance(loops[0], ast.For)
    sums = {id(node) for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "sum"}
    assert len(sums) == 1 and sums == {id(node) for node in ast.walk(loops[0])} & sums


def test_recurrence_gathers_from_one_list_of_j():
    # a strategy chooses only its j: the unknowns are gathered in one
    # statement, the g[j] in one per mode (a power's carrying Miller's
    # weight), and map(mul, ...) runs only in the loop over the pairs
    _, function = module_function("qseries", "_recurrence")
    (loop,) = [node for node in ast.walk(function)
               if isinstance(node, ast.For) and ast.unparse(node.iter) == "pairs"]
    maps = {id(node) for node in ast.walk(function)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "map"
            and ast.unparse(node.args[0]) == "mul"}
    assert len(maps) == 1 and maps <= {id(node) for node in ast.walk(loop)}
    assigned = Counter(node.id for node in ast.walk(function)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    assert assigned["xs"] == 1 and assigned["gvs"] == 2


def test_no_pattern_reads_unicode_digits():
    # the regex class \d matches every Unicode digit, so "１２" or "٣" would
    # pass a pattern meant for ASCII digits
    found = [
        f"{path.stem}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value
    ]
    assert found == []


def test_no_cli_option_read_by_int():
    # int() reads "１２", "1_2", " 12" and "+12" as 12: every integer option
    # goes through the CLI's ASCII reader instead
    (verbs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for p in [cli.build_parser(), *verbs.choices.values()] for a in p._actions]
    assert len(actions) > len(verbs.choices)
    assert [a.option_strings or a.dest for a in actions if a.type is int] == []


def test_genus_zero_read_from_the_coset_table():
    # etaforms lists no genus-zero levels of its own: the only table it
    # holds is the eta recipes, and the shipped empty basis asks invariants
    tree, function = module_function("etaforms", "_read_basis")
    tables = [target.id for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.Dict, ast.Set, ast.Call))
              for target in node.targets if isinstance(target, ast.Name)]
    assert tables == ["_GENUS_ONE_ETA"]
    called = {ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)}
    assert "invariants" in called


README = Path(__file__).resolve().parents[1] / "README.md"
# `module.NAME` = value, the value a number written 100, 100,000 or 2^21, or
# another such constant; a line wrap may fall anywhere in between
QUOTED = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s*=\s*(?:`(\w+)\.([A-Z][A-Z0-9_]*)`"
                    r"|([0-9]{1,3}(?:,[0-9]{3})+|[0-9]+)(?:\^([0-9]+))?)")


def readme_quotes(text):
    """(module.NAME, quoted value, value in the module) of every constant
    the README quotes with its value."""
    found = []
    for module, name, other_module, other, number, power in QUOTED.findall(text):
        if other:
            quoted = getattr(importlib.import_module(f"gmfkit.{other_module}"), other)
        else:
            quoted = int(number.replace(",", "")) ** int(power or 1)
        actual = getattr(importlib.import_module(f"gmfkit.{module}"), name)
        found.append((f"{module}.{name}", quoted, actual))
    return found


def test_readme_quotes_the_constants_it_names():
    # every `module.NAME` = value in README.md is that constant's value
    quotes = readme_quotes(README.read_text(encoding="utf-8"))
    assert {name for name, _, _ in quotes} == {
        "numberfield.MAX_CONDUCTOR", "qseries.MAX_TERMS", "qseries.MAX_POWER_BITS",
        "subgroup.MAX_INDEX", "etaforms.MAX_ETA_EXPONENT_SUM", "jsonio.MAX_RATIONAL_DIGITS",
        "etaforms.MAX_ETA_PRECISION"}
    assert [q for q in quotes if q[1] != q[2]] == []
