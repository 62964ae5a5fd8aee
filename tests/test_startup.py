"""Startup cost: the package loads a submodule only when one of its names
is used, and the command line loads only the modules a command runs."""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import euleradic
import euleradic.cli as cli

SRC = Path(euleradic.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"


def _fresh(script: str) -> str:
    """Stdout of a fresh interpreter that runs script with src/ on its path."""
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC))).stdout


# Building the parser needs only the budget defaults, which errors holds.
PARSER = {"euleradic", "euleradic.errors", "euleradic.cli"}


def test_building_the_parser_loads_no_command_module():
    loaded = _fresh("import sys, euleradic.cli as cli\n"
                    "cli.build_parser()\n"
                    "print(*sys.modules)").split()
    assert {m for m in loaded if m.startswith("euleradic")} == PARSER
    assert "dataclasses" not in loaded and "fractions" not in loaded


# The top-level help, then each command's.
@pytest.mark.parametrize("command", ["", "table", "verify", "converge", "good", "transport",
                                     "orbit", "encode", "decode"], ids=lambda c: c or "euleradic")
def test_python_m_help_loads_only_the_parser_modules(command):
    # runpy._run_module_as_main is what the interpreter's -m switch runs;
    # the module it runs is sys.modules["__main__"], named by its spec.
    out = _fresh("import runpy, sys\n"
                 f"sys.argv[1:] = {[*command.split(), '--help']!r}\n"
                 "try:\n"
                 "    runpy._run_module_as_main('euleradic')\n"
                 "except SystemExit as stop:\n"
                 "    rc = stop.code\n"
                 "specs = (getattr(m, '__spec__', None) for m in list(sys.modules.values()))\n"
                 "print(rc, *(s.name for s in specs if s and s.name.startswith('euleradic')))")
    usage, *_, last = out.splitlines()
    rc, *loaded = last.split()
    assert usage.startswith("usage:") and rc == "0"
    assert set(loaded) == PARSER | {"euleradic.__main__"}


# What each command loads besides cli and errors.  No command loads
# dataclasses, which alone cost about 12 ms of a launch, or json.
ALL = {"adic", "checks", "encoding", "eulerian", "goodpaths", "paths", "ratios"}
COMMANDS = [
    (["table", "--p", "1", "--q", "0", "--imax", "3", "--jmax", "3"], {"eulerian"}),
    (["table", "--p", "1", "--q", "0", "--imax", "3", "--jmax", "3", "--format", "json"],
     {"eulerian"}),
    (["orbit", "--vertex", "1,1"], {"adic", "eulerian", "paths", "ratios"}),
    (["good", "--p", "1", "--q", "1", "--i", "4", "--j", "3"],
     {"eulerian", "goodpaths", "paths"}),
    (["converge", "--p", "1", "--q", "0", "--diag", "10", "--step", "5"],
     {"eulerian", "ratios"}),
    (["encode", "--path", "(1,1):H1,V2,H3"], {"encoding", "eulerian", "goodpaths", "paths"}),
    (["decode", "--base", "1,1", "--code", "n=2;s1,s4,h2"],
     {"encoding", "eulerian", "goodpaths", "paths"}),
    (["transport", "--from", "1,0", "--to", "0,1", "--path", "(1,0):H1,V1,V2"],
     {"encoding", "eulerian", "goodpaths", "paths"}),
    (["verify", "--suite", "identity", "--pmax", "0", "--imax", "2"], ALL),
]


@pytest.mark.parametrize("argv,extra", COMMANDS,
                         ids=[argv[0] + "-json" * ("json" in argv) for argv, _ in COMMANDS])
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    out = _fresh("import contextlib, io, sys, euleradic.cli as cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    rc = cli.main({argv!r})\n"
                 "print(rc, 'dataclasses' in sys.modules, 'json' in sys.modules,\n"
                 "      *(m for m in sys.modules if m.startswith('euleradic.')))")
    rc, dataclasses, json, *loaded = out.split()
    assert rc == "0" and dataclasses == "False" and json == "False"
    assert {m.removeprefix("euleradic.") for m in loaded} == {"cli", "errors", *extra}


def test_every_public_name_is_the_attribute_of_its_submodule():
    for name in euleradic.__all__:
        module = importlib.import_module(f"euleradic.{euleradic._SUBMODULE[name]}")
        value = getattr(euleradic, name)
        assert value is getattr(module, name)
        if callable(value):
            assert value.__module__ == module.__name__
        assert name not in vars(euleradic) and name in dir(euleradic)


# The map's names that are neither functions nor classes.
CONSTANTS = {"ORIGIN", "HORIZONTAL", "VERTICAL"}


@pytest.mark.parametrize("module", sorted(set(euleradic._SUBMODULE.values())))
def test_each_module_defines_exactly_the_public_names_mapped_to_it(module):
    module = importlib.import_module(f"euleradic.{module}")
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == module.__name__}
    mapped = {name for name, where in euleradic._SUBMODULE.items()
              if f"euleradic.{where}" == module.__name__}
    assert defined == mapped - CONSTANTS


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        euleradic.no_such_name
    # Defined in a submodule, but not public.
    assert not hasattr(euleradic, "DEFAULT_CELL_BUDGET")


def test_star_import_binds_exactly_all():
    names = _fresh("ns = {}\n"
                   "exec('from euleradic import *', ns)\n"
                   "print(*sorted(set(ns) - {'__builtins__'}))").split()
    assert names == euleradic.__all__


def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_suite_choices_are_the_suite_table():
    suite = next(action for action in _commands()["verify"]._actions
                 if action.dest == "suite")
    assert list(suite.choices) == sorted(cli._SUITES)


def test_the_budget_defaults_have_one_home():
    from euleradic import adic, checks, errors, eulerian, goodpaths, paths

    assert eulerian.DEFAULT_CELL_BUDGET is errors.DEFAULT_CELL_BUDGET
    assert paths.DEFAULT_ENUM_BUDGET is errors.DEFAULT_ENUM_BUDGET
    budgets = {"max_cells": errors.DEFAULT_CELL_BUDGET,
               "max_enum": errors.DEFAULT_ENUM_BUDGET}
    flags = [action for command in _commands().values()
             for action in command._actions if action.dest in budgets]
    assert {action.dest for action in flags} == set(budgets)
    for action in flags:
        assert action.default == budgets[action.dest], action.option_strings
    for function in (eulerian.recurrence_table, eulerian.closed_form_table,
                     paths.enumerate_paths, paths.count_paths_enumeration,
                     goodpaths.count_good_enumeration, adic.orbit,
                     checks.closed_form_vs_recurrence, checks.sieve_vs_exhaustive,
                     checks.orbits):
        defaults = {k: v for k, v in function.__kwdefaults__.items() if k in budgets}
        assert defaults and defaults.items() <= budgets.items(), function.__qualname__


def test_the_bench_workloads_load_every_traced_layer():
    # bench/tracing.py wraps the functions of every layer module and needs
    # each one loaded once bench/workloads.py is imported, although the
    # walk and orbit workloads run no command that loads ratios.
    assert _fresh(f"import sys\n"
                  f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
                  "import tracing, workloads\n"
                  "before = tracing.namespace_snapshot()\n"
                  "tracer = tracing.Tracer()\n"
                  "tracer.install()\n"
                  "tracer.uninstall()\n"
                  "print(tracing.namespace_snapshot() == before)") == "True\n"
