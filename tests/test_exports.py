"""The public surface: every exported name exists, the package namespace
binds only its submodules, and no module imports a name it neither uses nor
exports."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import eiszeta

MODULES = [importlib.import_module(f"eiszeta.{info.name}")
           for info in pkgutil.iter_modules(eiszeta.__path__)]


def test_every_name_in_all_exists():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (mod.__name__, name)


def test_package_binds_only_its_submodules():
    # in a fresh process, since this one has imported every module; the
    # benchmark reads its setup clock right after `import eiszeta`, so that
    # import must keep loading every layer but the command line
    probe = ("import eiszeta, sys, types; "
             "print(sorted(k for k, v in vars(eiszeta).items() if not k.startswith('_') "
             "and not isinstance(v, types.ModuleType))); "
             "print(sorted(m for m in sys.modules if m.startswith('eiszeta.')))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(eiszeta.__path__[0])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout.splitlines()
    layers = ["analyzer", "archorders", "bernoulli", "characters", "kubota", "padic",
              "primes", "qexp"]
    assert out == ["[]", repr([f"eiszeta.{name}" for name in layers])], out


def test_every_imported_name_is_used_or_exported():
    # an import left behind when the code that read it goes
    for mod in MODULES:  # the submodules; eiszeta/__init__.py only loads them
        with open(mod.__file__, encoding="utf-8") as src:
            tree = ast.parse(src.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = imported - used - set(getattr(mod, "__all__", ()))
        assert not unused, (mod.__name__, sorted(unused))


def test_exports_are_the_kept_list():
    # every name here has a reader in a command, an acceptance test, the
    # benchmark or another module; one that loses its reader leaves this list
    exported = set().union(*(getattr(mod, "__all__", ()) for mod in MODULES))
    assert exported == {
        "CheckResult", "CriticalPointReport", "EtaleVerdict", "MAX_PRECISION", "MAX_TERMS",
        "PrecisionBudgetError", "analyze_point", "check_budget", "padic_to_dict",
        "render_text", "report_to_dict", "scan_records", "write_scan",
        "arch_order", "selmer_dims",
        "MAX_BERNOULLI_INDEX", "bernoulli_number", "check_bernoulli_index",
        "generalized_bernoulli",
        "TeichCharacter",
        "AdmissibilityError", "IrregularScreenError", "LValue", "PoleError", "WeightPoint",
        "ZeroWitness", "check_irregular_prime", "even_branch", "irregular_branches",
        "irregular_scan", "lp_interpolation", "lp_series", "zeta_weight",
        "ContextMismatchError", "PadicContext", "PadicNumber", "PrecisionLossError",
        "agreement_precision", "exp_small", "format_padic", "log_one_unit", "teichmuller",
        "EigenReport", "OperatorCheck", "QExpansion", "TwinCheckReport", "TwinConventionError",
        "check_terms", "dump_lines", "eisenstein_critical", "eisenstein_ordinary",
        "theta_pow", "theta_twin_check", "verify_eigensystem",
    }, sorted(exported)
