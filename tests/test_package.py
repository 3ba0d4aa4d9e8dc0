import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jobmarket


def test_every_exported_name_is_its_home_modules_object(monkeypatch):
    for name in jobmarket._LAZY:  # resolve each anew through __getattr__
        monkeypatch.delitem(vars(jobmarket), name, raising=False)
    assert set(jobmarket.__all__) <= set(dir(jobmarket))
    # the package and each public submodule: a name left in an __all__
    # after its object is deleted fails here
    submodules = [importlib.import_module(f"jobmarket.{name}")
                  for name in ("model", "brownian", "integrators", "analysis")]
    for module in (jobmarket, *submodules):
        for name in module.__all__:
            value = getattr(module, name)
            if name != "__version__":
                assert value is getattr(importlib.import_module(value.__module__), name)
        star: dict = {}
        exec(f"from {module.__name__} import *", star)
        assert {name: star[name] for name in module.__all__} == {
            name: getattr(module, name) for name in module.__all__}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jobmarket.no_such_name  # noqa: B018


def test_importing_the_package_loads_numpy_only_for_a_lazy_name():
    code = ("import sys, jobmarket; "
            "before = 'numpy' in sys.modules; "
            "listed = set(jobmarket.__all__) <= set(dir(jobmarket)); "
            "after_dir = 'numpy' in sys.modules; "
            "jobmarket.run_batch; "
            "print(before, listed, after_dir, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True False True\n"


def test_the_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Regime.PERSISTENCE\n")
