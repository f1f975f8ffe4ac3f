"""Binary modification: snippets, basic-block patching, rewriting.

This package implements Sections 2.3 and 2.4 of the paper:

* :mod:`repro.instrument.snippets` — the "mini-compiler" that emits the
  machine-code replacement snippets (flag test, conditional in-place
  downcast/upcast, precision-switched opcode, packed flag fix-up);
* :mod:`repro.instrument.rewriter` — splits basic blocks around every
  floating-point instruction, splices the snippets in, and re-lays-out
  the text section into a new executable (Dyninst's CFG-patching API +
  binary rewriter, in one deterministic pass);
* :mod:`repro.instrument.engine` — the top-level entry point tying a
  :class:`~repro.config.model.Config` to a rewritten program.
"""

import sys
import types

from repro.instrument.cache import InstrumentCache
from repro.instrument.engine import (
    InstrumentedProgram,
    InstrumentError,
    instrument,
)
from repro.instrument.snippets import SnippetStats


class _CallablePackage(types.ModuleType):
    """This package, callable as :func:`instrument`.

    ``from repro import instrument`` yields the package itself (binding
    the function under the package's name would hide the subpackage, so
    ``import repro.instrument.cache`` could no longer resolve); calling
    it instruments, as the quickstart and the examples do."""

    def __call__(self, *args, **kwargs) -> InstrumentedProgram:
        return instrument(*args, **kwargs)


sys.modules[__name__].__class__ = _CallablePackage

__all__ = [
    "InstrumentCache",
    "InstrumentedProgram",
    "InstrumentError",
    "instrument",
    "SnippetStats",
]
