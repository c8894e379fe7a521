"""Outside-in tracing: spans around calls into the program's public functions.

While a :func:`traced_program` block is open, public methods of the
program's layers are replaced by wrappers that record one span per call;
on exit the originals are restored.  Kernels are traced through a
:class:`TracingBackend`, a kernel backend that wraps the default one and
is passed in the public ``backend=`` argument.  Nothing inside the
program changes.

A span is ``[name, parent, op, start, end]`` (``perf_counter_ns``
times).  Spans live in memory, one list per thread, and spans of one
request share its op id.  Per op, :func:`self_times` attributes every
nanosecond of the op's root span (named ``op``) to the innermost span
covering it, so the self times of all layers plus the root's own
remainder (time no layer span covers) sum exactly to the op's wall time.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

from repro import ConstraintNetwork, NetworkTemplate, ParserSession, ParseService, StreamingParse
from repro.cfg import cyk as cyk_module
from repro.engines.vector import VectorEngine
from repro.grammar.grammar import CDGGrammar
from repro.kernels import KernelBackend

#: (class or module, attribute, span name) of every traced public function.
TRACED_METHODS = (
    (CDGGrammar, "tokenize", "grammar.tokenize"),
    (ParserSession, "parse", "session"),
    (NetworkTemplate, "build", "template.build"),
    (NetworkTemplate, "extend", "template.extend"),
    (NetworkTemplate, "bind", "template.bind"),
    (NetworkTemplate, "vector_masks", "template.masks"),
    (VectorEngine, "run", "engine"),
    (ConstraintNetwork, "all_domains_nonempty", "readout"),
    (ConstraintNetwork, "is_ambiguous", "readout"),
    (StreamingParse, "extend", "stream.extend"),
    (ParseService, "submit", "serve.submit"),
    (cyk_module, "cyk_parse", "cyk"),
)

KERNELS = ("bmm", "support_any", "and_accumulate", "count_ones")


class Tracer:
    """Per-thread span buffers and the wrappers that fill them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[list] = []
        self._bytes: list[dict] = []
        #: id(Sentence) -> op, for requests that change threads (served).
        self.sentence_ops: "dict[int, int] | None" = None

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack, local.op, local.bytes = [], [], None, defaultdict(int)
            with self._lock:
                self._spans.append(local.spans)
                self._bytes.append(local.bytes)
        return local

    def set_op(self, op: "int | None") -> None:
        self._state().op = op

    def record(self, name: str, parent: "str | None", op: int, start: int, end: int) -> None:
        self._state().spans.append([name, parent, op, start, end])

    def wrap(self, fn, name: str, *, op_of=None, on_result=None, nbytes=None):
        """*fn* recording a span per call made inside a traced op.

        ``op_of(args)`` adopts an op on a thread that has none (a service
        worker); ``on_result(op, result)`` sees each traced result;
        ``nbytes(args, result)`` counts kernel operand bytes.
        """
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            op = local.op
            adopted = op is None and op_of is not None and (op := op_of(args)) is not None
            if op is None:
                return fn(*args, **kwargs)
            if adopted:
                local.op = op
            stack = local.stack
            parent = stack[-1] if stack else "op"
            stack.append(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                local.spans.append([name, parent, op, start, end])
                if adopted:
                    local.op = None
            if on_result is not None:
                on_result(op, result)
            if nbytes is not None:
                local.bytes[op] += nbytes(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans_by_op(self) -> "dict[int, list[list]]":
        grouped: dict[int, list[list]] = defaultdict(list)
        with self._lock:
            for spans in self._spans:
                for span in spans:
                    grouped[span[2]].append(span)
        return grouped

    def write(self, path) -> None:
        """Write every span, one JSON list per line."""
        with open(path, "w") as handle:
            for spans in self.spans_by_op().values():
                for span in spans:
                    handle.write(json.dumps(span) + "\n")

    def bytes_by_op(self) -> "dict[int, int]":
        totals: dict[int, int] = defaultdict(int)
        with self._lock:
            for counts in self._bytes:
                for op, n in counts.items():
                    totals[op] += n
        return totals

    def _register_sentence(self, op: int, sentence) -> None:
        if self.sentence_ops is not None:
            self.sentence_ops[id(sentence)] = op

    def _adopt_sentence(self, args) -> "int | None":
        if self.sentence_ops is None:
            return None
        return self.sentence_ops.pop(id(args[1]), None)


class TracingBackend(KernelBackend):
    """A kernel backend that times every call into the one it wraps."""

    def __init__(self, inner: KernelBackend, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self.bmm = tracer.wrap(
            inner.bmm, "kernels.bmm",
            nbytes=lambda args, out: args[0].nbytes + args[1].nbytes + out.nbytes,
        )
        self.support_any = tracer.wrap(
            inner.support_any, "kernels.support_any",
            nbytes=lambda args, out: args[0].nbytes + args[1].nbytes + out.nbytes,
        )
        self.and_accumulate = tracer.wrap(
            inner.and_accumulate, "kernels.and_accumulate",
            nbytes=lambda args, out: 2 * args[0].nbytes + args[1].nbytes,
        )
        self.count_ones = tracer.wrap(
            inner.count_ones, "kernels.count_ones",
            nbytes=lambda args, out: args[0].nbytes,
        )

    def dispatch_snapshot(self):
        return self.inner.dispatch_snapshot()


@contextlib.contextmanager
def traced_program(tracer: Tracer):
    """Swap every method in :data:`TRACED_METHODS` for a tracing wrapper."""
    saved = []
    try:
        for cls, attr, name in TRACED_METHODS:
            raw = cls.__dict__[attr]
            kwargs = {}
            if name == "grammar.tokenize":
                kwargs["on_result"] = tracer._register_sentence
            elif name == "session":
                kwargs["op_of"] = tracer._adopt_sentence
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(raw.__func__, name, **kwargs))
            else:
                replacement = tracer.wrap(raw, name, **kwargs)
            saved.append((cls, attr, raw))
            setattr(cls, attr, replacement)
        yield tracer
    finally:
        for cls, attr, raw in reversed(saved):
            setattr(cls, attr, raw)


def self_times(spans: "list[list]") -> "dict[str, int]":
    """Nanoseconds attributed to each span name within one op.

    Each instant of the op is attributed to the innermost span covering
    it (the one that started last).  Same-thread spans nest, so this is
    a span's duration minus the time its children cover; spans of other
    threads (a service worker) take over while they run.  The root
    ``op`` span keeps what no other span covers, and the values sum to
    the root's duration.
    """
    events = []
    for index, (_, _, _, start, end) in enumerate(spans):
        events.append((start, 1, -end, index))
        events.append((end, 0, 0, index))
    events.sort()
    totals: dict[str, int] = defaultdict(int)
    active: list[int] = []
    previous = 0
    for time_ns, kind, _, index in events:
        if active:
            totals[spans[active[-1]][0]] += time_ns - previous
        previous = time_ns
        if kind:
            active.append(index)
        else:
            active.remove(index)
    return dict(totals)
