"""The package surface: lazy exports resolve to their defining objects, and
each command loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lacunary
import lacunary.identities

SRC = str(Path(lacunary.__file__).resolve().parents[1])


def _fresh(script: str) -> object:
    """The JSON that `script` prints in a fresh interpreter on this source tree.

    The interpreter runs without `site` (-S): a site hook, such as a `.pth`
    file of an installed package, can import modules before lacunary runs
    and so hide what a command loads.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("package", [lacunary, lacunary.identities])
def test_every_public_name_is_the_object_its_module_defines(package):
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        value = getattr(package, name)
        # Functions and classes name their module; the exported constants
        # (DEFAULT_TOL, EXACT, MODES, ...) are the registry's.
        owner = getattr(value, "__module__", "lacunary.identities.registry")
        assert owner != package.__name__, name
        assert getattr(importlib.import_module(owner), name) is value, name
    star: dict = {}
    exec(f"from {package.__name__} import *", star)
    assert all(star[name] is getattr(package, name) for name in package.__all__)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


def test_registry_is_the_function_whichever_module_loads_first():
    # The import system binds a submodule on its package when it first loads;
    # the public `registry` function must still win over the module.
    owner = _fresh(
        "import json, lacunary\n"
        "from lacunary.identities.registry import registry\n"
        "from lacunary.identities import registry as exported\n"
        "assert exported is registry and lacunary.registry is registry\n"
        "print(json.dumps(registry.__module__))\n"
    )
    assert owner == "lacunary.identities.registry"


def _loaded_by(argv) -> set:
    """The modules a fresh `cli.main(argv)` leaves loaded, `lacunary.` stripped."""
    script = (
        "import contextlib, io, json, sys\n"
        "from lacunary import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(json.dumps(list(sys.modules)))\n"
    )
    return {m.removeprefix("lacunary.") for m in _fresh(script)}


#: Standard modules that no command needs at start-up: `dataclasses` (which
#: pulls in `inspect`) is not used, `csv` and `datetime` load only for a CSV
#: or a timestamped report.
_COLD = {"dataclasses", "inspect", "csv", "datetime"}

#: The printed bridge tables and the fitter.  EQ2.8 and EQ3.4 load only the
#: tables; only `derive-aux` compiles the fitter.
_BRIDGES = {"identities.bridges", "identities.auxpoly"}

#: The exact algebra: only an exact report loads it.
_ALGEBRA = {"umbral", "fps"}

#: perfbench's numeric-deep run: every numeric case but EQ2.8 and EQ3.4.
_NUMERIC_DEEP = (
    "EQ1.7", "EQ1.9", "EQ1.12", "EQ2.7", "EQ2.9", "EQ2.10", "EQ2.11", "EQ2.13",
    "EQ2.14", "EQ3.1", "EQ3.3", "EQ3.5", "EQ3.8", "EQ3.9", "EQ3.10", "EQ3.11",
)


@pytest.mark.parametrize(
    "argv, needed, unloaded",
    [
        (
            ["verify", "--all", "--mode", "exact", "--no-timestamp"],
            {"identities.exact", *_ALGEBRA},
            {"identities.pointwise", "specialfns", *_BRIDGES, *_COLD},
        ),
        (
            ["verify", "--mode", "numeric", "--id", "EQ1.7"],
            {"identities.pointwise", "specialfns", "datetime"},
            {*_BRIDGES, *_ALGEBRA, "dataclasses", "inspect", "csv"},
        ),
        (
            ["verify", "--mode", "numeric", "--id", "EQ2.8"],
            {"identities.pointwise", "identities.bridges"},
            {"identities.auxpoly", *_ALGEBRA, "dataclasses", "inspect", "csv"},
        ),
        (
            ["derive-aux", "--family", "p", "--m", "1"],
            {"identities.auxpoly", "identities.bridges"},
            {"identities.pointwise", "specialfns", "random", *_ALGEBRA, *_COLD},
        ),
        (
            ["verify", "--all", "--no-timestamp"],
            {"identities.exact", "identities.pointwise", "identities.bridges", *_ALGEBRA},
            {"identities.auxpoly", *_COLD},
        ),
        (
            ["verify", "--id", "EQ1.7", "--mode", "numeric", "--format", "csv"],
            {"csv", "datetime"},
            {"dataclasses", "inspect"},
        ),
        (
            ["verify", "--mode", "numeric", "--nmax", "160", "--no-timestamp",
             *(a for case_id in _NUMERIC_DEEP for a in ("--id", case_id))],
            {"identities.exact", "identities.pointwise", "specialfns"},
            {"random", *_BRIDGES, *_ALGEBRA, *_COLD},
        ),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, needed, unloaded):
    loaded = _loaded_by(argv)
    assert needed <= loaded
    assert not unloaded & loaded


def test_import_loads_only_the_base_modules():
    loaded = _fresh(
        "import json, sys, lacunary\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lacunary'))))\n"
    )
    assert loaded == ["lacunary", "lacunary.errors", "lacunary.polys", "lacunary.scalars"]


def test_exact_engines_read_umb_exp_off_its_module_at_call_time(monkeypatch):
    # Rebind every lacunary global bound to umb_exp or reduce_exp, as
    # perfbench's tracer does: the lazily reached exact engines must still
    # call the wrappers.  EQ3.8 reduces one exponential per tuple through
    # reduce_exp; EQ3.18 builds one with umb_exp to dilate it.
    from lacunary import umbral

    calls = {"umb_exp": 0, "reduce_exp": 0}
    for name in calls:
        original = getattr(umbral, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("lacunary"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    assert lacunary.check_coefficients("EQ3.8", nmax=6).passed
    assert calls == {"umb_exp": 0, "reduce_exp": 5}
    assert lacunary.check_coefficients("EQ3.18", nmax=6).passed
    assert calls == {"umb_exp": 1, "reduce_exp": 5}
