"""Every module under ``src/repro`` imports by its dotted path.

``import a.b.c as m`` resolves ``m`` by attribute lookup from the top
package down, so a package that rebinds one of its subpackage names
(``repro.instrument`` once became the ``instrument`` function) breaks
every import below it while plain ``import a.b.c`` still succeeds.
"""

import os
import pkgutil

import pytest

import repro

#: entry-point scripts run their command on import; they are not modules.
ENTRY_POINTS = {"repro.__main__"}

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name not in ENTRY_POINTS
)


def test_walk_found_every_subpackage():
    root = os.path.dirname(repro.__file__)
    packages = {
        "repro." + os.path.relpath(path, root).replace(os.sep, ".")
        for path, _dirs, files in os.walk(root)
        if "__init__.py" in files and path != root
    }
    assert packages <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_import_as_resolves_the_module(name):
    namespace: dict = {}
    exec(f"import {name} as module", namespace)
    assert namespace["module"].__name__ == name


def test_instrument_package_stays_callable():
    from repro import compile_source, run_program, Config, build_tree
    from repro import instrument

    program = compile_source("fn main() { out(1.5); }")
    config = Config.all_single(build_tree(program))
    assert run_program(instrument(program, config).program).values() == [1.5]
