"""repro — a reproduction of *Automatically Adapting Programs for
Mixed-Precision Floating-Point Computation* (Lam, Hollingsworth,
de Supinski, LeGendre; SC'12 poster / ICS'13).

The original system rewrites x86-64 binaries (via Dyninst/XED) so that
selected double-precision instructions execute in single precision **in
place** — the 32-bit result parked in the low half of the 64-bit slot,
the high half holding the ``0x7FF4DEAD`` sentinel — and searches a
program's configuration space breadth-first for the coarsest structures
that tolerate the replacement.  This package rebuilds the entire stack on
a virtual x86-SSE-like ISA so every mechanism (bit-level replacement,
snippet generation, CFG patching, binary rewriting, the automatic search,
the NAS/AMG/SuperLU evaluation) runs faithfully and deterministically in
pure Python.

Quickstart
----------

>>> from repro import compile_source, run_program, build_tree, Config, instrument
>>> program = compile_source('''
... fn main() {
...     var s: real = 0.0;
...     for i in 0 .. 100 { s = s + 0.1; }
...     out(s);
... }
... ''')
>>> original = run_program(program)
>>> config = Config.all_single(build_tree(program))
>>> mixed = run_program(instrument(program, config).program)
>>> original.values()[0], mixed.values()[0]   # doctest: +SKIP
(9.99999999999998, 10.000001907348633)

See ``examples/`` for end-to-end scenarios and ``repro.experiments`` for
the drivers that regenerate every table and figure of the paper.
"""

from repro.asm import AsmBuilder, assemble_text, disassemble_program
from repro.binary import Program, build_cfg
from repro.campaign import Campaign
from repro.compiler import CompileOptions, compile_program, compile_source
from repro.config import Config, Policy, build_tree, dump_config, load_config
# ``instrument`` is the subpackage, callable as the instrument function.
from repro import instrument
from repro.instrument import InstrumentedProgram
from repro.mpi import MultiRankRunner, run_mpi_program
from repro.search import SearchEngine, SearchOptions, SearchResult
from repro.telemetry import (
    JsonlSink,
    MetricsRegistry,
    ProgressRenderer,
    Telemetry,
)
from repro.vm import VM, ExecResult, VmTrap, run_program
from repro.store import ResultStore
from repro.vm.costs import CostModel, DEFAULT_COST_MODEL
from repro.workloads import Workload, make_nas, make_workload

__version__ = "1.0.0"

__all__ = [
    "AsmBuilder",
    "assemble_text",
    "disassemble_program",
    "Program",
    "build_cfg",
    "CompileOptions",
    "compile_program",
    "compile_source",
    "Config",
    "Policy",
    "build_tree",
    "dump_config",
    "load_config",
    "InstrumentedProgram",
    "instrument",
    "MultiRankRunner",
    "run_mpi_program",
    "SearchEngine",
    "SearchOptions",
    "SearchResult",
    "Campaign",
    "ResultStore",
    "Telemetry",
    "JsonlSink",
    "MetricsRegistry",
    "ProgressRenderer",
    "VM",
    "ExecResult",
    "VmTrap",
    "run_program",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Workload",
    "make_nas",
    "make_workload",
    "__version__",
]
