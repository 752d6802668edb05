"""Source-level rules of the library."""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "muntz"

# dense mpmath linear algebra: the library works on raw triangular rows
DENSE = re.compile(r"\b(?:mp|mpmath)\.(?:matrix|det|cholesky|svd\w*|inverse)\b")


def test_no_dense_mpmath_in_library():
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if DENSE.search(line)]
    assert hits == []


# process pools and threads: the fork-map helper forks its workers by hand, and importing
# multiprocessing alone costs about a quarter of the library's import time
POOLS = re.compile(r"^\s*(?:import|from)\s+(?:multiprocessing|concurrent|threading)\b")


def test_no_pool_or_thread_imports():
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if POOLS.search(line)]
    assert hits == []


def test_import_leaves_out_multiprocessing_and_pickle():
    code = "import sys, muntz; print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def _naming_functions(tree, named, scope=""):
    """The top-level functions and methods of a module with a node for
    which ``named`` holds, or "<module>" where one lies outside any."""
    hits = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            hits |= _naming_functions(node, named, f"{scope}{node.name}.")
            continue
        if any(named(sub) for sub in ast.walk(node)):
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            hits.add(f"{scope}{node.name}" if is_def else "<module>")
    return hits


def _names_fork(sub):
    return (isinstance(sub, ast.Attribute) and sub.attr == "fork"
            and isinstance(sub.value, ast.Name) and sub.value.id == "os"
            or isinstance(sub, ast.ImportFrom) and sub.module == "os"
            and any(alias.name == "fork" for alias in sub.names))


def test_one_function_forks():
    # every process the library starts is a worker of the fork-map pool,
    # forked by its one start function
    hits = sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                  for name in _naming_functions(ast.parse(path.read_text()), _names_fork))
    assert hits == ["series.py:_start_worker"]


def _calls(sub, *names):
    return (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            and sub.func.id in names)


def _folds(node, acc):
    # acc + t or acc - t, rounded: one step of a running sum
    return (_calls(node, "mpf_add", "mpf_sub") and bool(node.args)
            and isinstance(node.args[0], ast.Name) and node.args[0].id == acc)


def _rounds_a_sum_of_products(sub):
    """``mpf_sum`` of a list of products, a running fold that rounds each
    partial sum (``acc = mpf_add(acc, ...)`` in a loop, or the same in a
    ``reduce`` lambda), or mpmath's ``fsum``/``fdot``."""
    if _calls(sub, "mpf_sum") and sub.args:
        terms = sub.args[0]
        elts = ([terms.elt] if isinstance(terms, (ast.ListComp, ast.GeneratorExp))
                else getattr(terms, "elts", []))
        return any(_calls(elt, "mpf_mul") for elt in elts)
    if isinstance(sub, (ast.For, ast.While)):
        return any(isinstance(step, ast.Assign) and isinstance(step.targets[0], ast.Name)
                   and _folds(step.value, step.targets[0].id) for step in ast.walk(sub))
    if _calls(sub, "reduce") and sub.args and isinstance(sub.args[0], ast.Lambda):
        fn = sub.args[0]
        return bool(fn.args.args) and _folds(fn.body, fn.args.args[0].arg)
    return (isinstance(sub, ast.Attribute) and sub.attr in ("fsum", "fdot")
            and isinstance(sub.value, ast.Name) and sub.value.id in ("mp", "mpmath"))


def test_every_sum_of_products_is_one_dot():
    # one rounding rule for every sum of products in the library:
    # ``precision._dot``, the exact products rounded once
    hits = sorted(f"{path.name}:{fn}" for path in sorted(SRC.glob("*.py"))
                  for fn in _naming_functions(ast.parse(path.read_text()),
                                              _rounds_a_sum_of_products))
    assert hits == []


def _functions_naming(ident):
    """The library's functions naming ``ident``, as a bare name, an
    attribute or an import."""
    def named(sub):
        return (isinstance(sub, ast.Name) and sub.id == ident
                or isinstance(sub, ast.Attribute) and sub.attr == ident
                or isinstance(sub, ast.alias) and sub.name == ident)

    return sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                  for name in _naming_functions(ast.parse(path.read_text()), named))


# the context managers that set the process-global width, ``mp.prec``
GLOBAL_WIDTH = {"workprec", "workdps", "workbits"}


def _names_global_width(sub):
    # ``mp.prec``, ``mp.dps`` or a context manager that sets them
    if isinstance(sub, ast.Attribute):
        return (sub.attr in GLOBAL_WIDTH or sub.attr in ("prec", "dps")
                and isinstance(sub.value, ast.Name) and sub.value.id == "mp")
    return (isinstance(sub, ast.Name) and sub.id in GLOBAL_WIDTH
            or isinstance(sub, ast.alias) and sub.name in GLOBAL_WIDTH)


def test_no_module_reads_the_global_width():
    # every function takes its width as an argument and neither reads
    # ``mp.prec`` nor sets it, so none gives other bits when called at
    # another ambient width, and a forked child computes at the width its
    # caller passes down, not at the ambient one the fork copies;
    # ``workbits`` itself stays, for callers, with its re-export
    hits = sorted(f"{path.name}:{fn}" for path in sorted(SRC.glob("*.py"))
                  for fn in _naming_functions(ast.parse(path.read_text()), _names_global_width))
    assert hits == ["__init__.py:<module>", "precision.py:workbits"]


def test_three_functions_call_the_fork_map():
    # besides the imports of the helper
    assert _functions_naming("_forked_map") == [
        "duals.py:<module>", "duals.py:dual_family", "operator.py:<module>",
        "operator.py:hereditary_sweep", "series.py:christoffel_remez"]


def test_the_fork_map_gets_module_level_defs():
    # a worker looks up what it runs by module and name, so each call of
    # the helper hands it a def at its module's top level, by name, never
    # a lambda, a nested def or a name the calling function rebinds
    handed = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for caller in ast.walk(tree):
            if not isinstance(caller, ast.FunctionDef):
                continue
            bound = {sub.id for sub in ast.walk(caller)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
            bound |= {sub.name for sub in ast.walk(caller)
                      if isinstance(sub, ast.FunctionDef) and sub is not caller}
            bound |= {arg.arg for arg in ast.walk(caller.args) if isinstance(arg, ast.arg)}
            for sub in ast.walk(caller):
                if _calls(sub, "_forked_map"):
                    fn = sub.args[0] if sub.args else None
                    ok = (isinstance(fn, ast.Name) and fn.id in top and fn.id not in bound)
                    handed[f"{path.name}:{caller.name}"] = fn.id if ok else ast.dump(fn)
    assert handed == {"duals.py:dual_family": "_family_columns",
                      "operator.py:hereditary_sweep": "_sweep_tasks",
                      "series.py:christoffel_remez": "_remez_chunk"}


def test_one_function_reads_the_gram_store():
    # the factored attempts kept across calls are made at gram.py's top
    # level and read and written by ``gram`` alone
    assert _functions_naming("_ATTEMPTS") == ["gram.py:<module>", "gram.py:gram"]


def test_one_function_reads_the_input_memo():
    # the config blocks parsed across reports are kept at cli.py's top
    # level and read and written by ``_Inputs.__init__`` alone
    assert _functions_naming("_PARSED") == ["cli.py:<module>", "cli.py:_Inputs.__init__"]


def test_binary64_in_the_bound_helper_only():
    # the remez bound pass is the library's one use of binary64, so no
    # float reaches a reported value: only ``_kernel_bounds`` names
    # ``math`` or converts between mpf and float
    hits = sorted({hit for ident in ("math", "to_float", "from_float")
                   for hit in _functions_naming(ident)})
    assert hits == ["series.py:_kernel_bounds"]


def _names_used(tree, skip=None):
    """Every name a module reads, as a bare name, an attribute or an
    import, outside the top-level node ``skip``."""
    return {sub.id if isinstance(sub, ast.Name) else
            sub.attr if isinstance(sub, ast.Attribute) else sub.name
            for node in ast.iter_child_nodes(tree) if node is not skip
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))}


def test_every_private_helper_has_a_library_caller():
    # a private function or class is named somewhere in the library
    # besides its own body, so no helper lives on for tests alone
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used_by = {name: _names_used(tree) for name, tree in trees.items()}
    unused = []
    for name, tree in trees.items():
        for node in ast.iter_child_nodes(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and node.name not in _names_used(tree, skip=node)
                    and not any(node.name in used for other, used in used_by.items()
                                if other != name)):
                unused.append(f"{name}:{node.name}")
    assert unused == []


# the layout of a factored attempt: its class, a section's field naming it,
# the helpers that read its rows, its symmetric entries and its L^-1
# column by column, and the row steps that grow a factor and its L^-1
FACTOR_LAYOUT = {"_Attempt", "_attempt", "_columns_below", "_substitute_back", "_inverse_cut",
                 "_full_rows", "_append_row", "_inverse_row", "_trace"}


def test_factor_layout_is_read_in_gram_only():
    # every other module reads a section through its properties and the
    # gram readers: ``_unit_columns``, ``_inverse_block``,
    # ``_inverse_diagonals``, ``_inverse_rows`` and ``_residual``; and it
    # grows a factor only through ``_grown`` and ``_factored``
    hits = sorted(f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
                  if path.name != "gram.py"
                  for name in FACTOR_LAYOUT & _names_used(ast.parse(path.read_text())))
    assert hits == []


def test_library_lines_fit_in_100_columns():
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert hits == []
