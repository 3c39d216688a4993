"""The benchmark's tracer still fits the package.

perfbench wraps package functions by module attribute and its count hooks
read their arguments by name, so renaming or deleting a traced function or
one of those parameters would otherwise surface only in a traced benchmark
run.  These tests install every workload's tracer, check what it reads, and
remove it again; nothing runs the workloads themselves.
"""

import inspect
import logging
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from legsums import charsum, cli, primes, randmodel, tails

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (charsum, cli, primes, randmodel, tails)
#: every argument the count hooks and span names read, across all workloads,
#: by the function they wrap
READ_ARGUMENTS = {
    "sieve_primes": {"limit"},
    "density_scan": {"num_primes"},
    "sample_series_matrix": {"N"},
    "euler_values_matrix": {"decomp", "prime_cutoff"},
    "_xor_convolution": {"support"},
    "moment_direct": {"k"},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def _attributes():
    return {(m.__name__, name): value for m in MODULES for name, value in vars(m).items()}


def _handlers(names):
    return {name: list(logging.getLogger(name).handlers) for name in names}


def _read_arguments(hook):
    """The argument names a hook subscripts: its identifier-like string
    constants (counter and span names all contain a dot)."""
    return {c for c in hook.__code__.co_consts if isinstance(c, str) and re.fullmatch(r"\w+", c)}


@pytest.mark.parametrize("peaks", [False, True], ids=["spans", "peaks"])
def test_every_tracer_installs_and_removes_cleanly(perfbench, peaks):
    tracing, workloads = perfbench
    loggers = ["legsums", "legsums.charsum"]
    before, handlers = _attributes(), _handlers(loggers)
    for workload in workloads.WORKLOADS.values():
        tracer = tracing.Tracer(peaks=peaks)
        workload(0).trace(tracer)
        assert tracer._undo, workload.name
        changed = {key for key, value in _attributes().items() if before.get(key) is not value}
        assert changed, workload.name
        tracer.unwrap()
        assert _attributes() == before, workload.name
        assert _handlers(loggers) == handlers, workload.name


def test_count_hooks_read_parameters_of_the_wrapped_functions(perfbench, monkeypatch):
    tracing, workloads = perfbench
    wrapped = []
    wrap = tracing.Tracer.wrap

    def record(self, module, attr, span, count=None, peak=None):
        wrapped.append((getattr(module, attr), span, count))
        return wrap(self, module, attr, span, count=count, peak=peak)

    monkeypatch.setattr(tracing.Tracer, "wrap", record)
    for workload in workloads.WORKLOADS.values():
        tracer = tracing.Tracer()
        workload(0).trace(tracer)
        tracer.unwrap()
    read = {}
    for fn, span, count in wrapped:
        parameters = inspect.signature(fn).parameters
        for hook in (h for h in (span, count) if callable(h)):
            names = _read_arguments(hook)
            assert names <= set(parameters), (fn.__qualname__, hook.__name__, names)
            if names:
                read.setdefault(fn.__name__, set()).update(names)
    assert read == READ_ARGUMENTS


def test_kernel_support_counter_reads_the_support(perfbench):
    # moments' count hook takes the first result of _kernel_weights as the
    # support: the squarefree kernels with a nonzero weight
    tracing, workloads = perfbench
    c = randmodel.CoefficientSpec("minus", Fraction(1, 3)).coefficients(1000)
    result = randmodel._kernel_weights(c)
    support, weights, w_full = result[:3]
    assert np.array_equal(randmodel.squarefree_core(1000)[support], support)
    assert np.array_equal(support, np.flatnonzero(w_full)) and np.all(weights == w_full[support])
    tracer = tracing.Tracer()
    workloads._count_kernels(tracer, None, result)
    assert tracer.maxima["randmodel.kernel_support"] == len(support)
