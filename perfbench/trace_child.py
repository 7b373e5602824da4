"""Run one trapscatter CLI command with timing wrappers around each layer's functions.

Usage: python3 perfbench/trace_child.py SPANS_JSON CLI_ARGS...

The wrappers are installed from outside: every trapscatter module that holds
a reference to a traced function (for example `cli`, which imported
`decompose` and `_shape_table` by name) gets the wrapper instead.  Spans
(name, start, end, parent index, extra) are kept in memory and written to
SPANS_JSON when the command ends.  Exits with the command's exit code.
"""

import functools
import json
import sys
import time

from trapscatter import cli, oracle, oscillator, quad, scattering, thermo


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording one span per call; `before(args)` / `after(result)` give its extra."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, before(args) if before else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                span[4] = after(result)
            return result

        return wrapper


def _replace_everywhere(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "trapscatter" or name.startswith("trapscatter."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    targets = [
        (cli, "sweep_angle", "cli.sweep", None, lambda table: len(table.rows)),
        (cli, "sweep_temperature", "cli.sweep", None, lambda table: len(table.rows)),
        (cli, "_emit_table", "cli.write", None, None),
        (scattering, "_shape_table", "scattering.shape_table", None, None),
        (scattering, "excited_pair_shape", "scattering.excited_pair_shape", None, None),
        (scattering, "bose_mm_differential", "scattering.bose_mm_differential", None, None),
        (scattering, "decompose", "scattering.decompose", None, None),
        (quad, "diffraction_z_integral", "quad.diffraction_z_integral", None, None),
        (quad, "p_kernel", "quad.p_kernel", None, None),
        (quad, "polylog3", "quad.polylog3", None, None),
        (thermo, "chemical_potential", "thermo.chemical_potential", None, None),
        (oracle, "solve_mu_discrete", "oracle.solve_mu_discrete", None, None),
        (oracle, "exact_breakdown", "oracle.exact_breakdown", lambda args: args[0].epsilon_max + 1, None),
        (oscillator, "overlap_matrix", "oscillator.overlap_matrix", lambda args: (args[0] + 1) ** 2, None),
        (oscillator, "ground_overlap_column", "oscillator.columns", None, None),
        (oscillator, "diagonal_amplitude_column", "oscillator.columns", None, None),
    ]
    for module, attr, name, before, after in targets:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, before, after))

    # A table build is a construction of _ShapeTable (done inside _shape_table on a cache miss).
    table_cls = scattering._ShapeTable
    build = tracer.wrap("scattering.shape_table.build", table_cls.__init__)

    class TracedShapeTable(table_cls):
        __init__ = build

    _replace_everywhere(table_cls, TracedShapeTable)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
