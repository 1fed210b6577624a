"""REP005 negative fixture: catalogued names, variable names skipped."""

from repro.obs import SPAN_FLUSH


def record(tracer):
    with tracer.span(SPAN_FLUSH):
        tracer.instant("worker_restart")
    tracer.instant(_derived_name())


def _derived_name():
    return "not_provable_at_the_ast"
