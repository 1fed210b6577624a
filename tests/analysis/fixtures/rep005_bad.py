"""REP005 positive fixture: invented span and instant names."""


def record(tracer):
    with tracer.span("made_up_span"):
        tracer.instant("made_up_event")
