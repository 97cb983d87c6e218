"""The public surface: every exported name resolves to what its module defines."""

import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import monoratio

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _modules():
    return [importlib.import_module(f"monoratio.{info.name}")
            for info in pkgutil.iter_modules(monoratio.__path__)]


def test_every_all_entry_exists():
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_every_package_name_is_a_module_export():
    exported = {}
    for mod in _modules():
        for name in getattr(mod, "__all__", ()):
            exported.setdefault(name, []).append(getattr(mod, name))
    names = [name for name, obj in vars(monoratio).items()
             if not name.startswith("_") and not inspect.ismodule(obj)]
    assert len(names) > 50
    for name in names:
        assert any(obj is getattr(monoratio, name) for obj in exported.get(name, ())), \
            f"monoratio.{name} is in no module's __all__"


def test_readme_cli_lines_start_without_scipy_optimize(tmp_path):
    # scipy.optimize costs about 0.6 s per process and only an LP above the
    # vertex budget needs it. This process has it already (test_constraints
    # imports linprog), so a fresh interpreter runs the README's ratio and run
    # lines.
    lines = re.findall(r"^monoratio (?:ratio|run) (?:.*\\\n)*.*$", README.read_text(),
                       re.MULTILINE)
    argvs = [shlex.split(line.replace("\\\n", " "))[1:] for line in lines]
    assert len(argvs) == 5
    (tmp_path / "blocks.txt").write_text("block: 0,1,2,3 capacity=1\n"
                                         "block: 4,5,6,7 capacity=2\n"
                                         "block: 8,9,10,11 capacity=1\n")
    script = ("import sys, monoratio, monoratio.cli\n"
              "assert 'scipy.optimize' not in sys.modules\n"
              f"for argv in {argvs!r}:\n"
              "    assert monoratio.cli.main(argv) == 0, argv\n"
              "assert 'scipy.optimize' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(monoratio.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_numpy_random_unloaded():
    # seeded runs load numpy.random on first use (discrete._rng); importing
    # the package must not, on numpy versions whose own import does not
    script = ("import sys, numpy\n"
              "loaded = 'numpy.random' in sys.modules\n"
              "import monoratio, monoratio.cli\n"
              "assert ('numpy.random' in sys.modules) is loaded\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(monoratio.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
