"""The five workloads: set-up from scratch, the correctness gate, and one
timed round of fixed inputs.

Every workload runs the program's default configuration (``vector``
engine, default kernel backend, default 16-entry template LRU, default
service).  A round is a fixed sequence of ops split into *segments*;
each segment is bracketed by :func:`harness.reference_ms` readings taken
while the program is idle, and its timings are scaled by them.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import FIRST_COMPLETED, wait
from time import perf_counter_ns

import mixes
from harness import memory_reference_ms, reference_ms, scale_factor
from repro import ParserSession, ParseService
from repro.cfg import cyk as cyk_module
from repro.cfg import cyk_parse_sets, english_cfg, to_cnf
from repro.grammar.builtin import english_grammar


def fresh_grammar():
    """The English CDG grammar built and (by its first session) compiled
    from scratch, bypassing the factory's memo."""
    english_grammar.cache_clear()
    return english_grammar()


def network_digest(result) -> tuple:
    """The settled network bits and verdicts of a CDG parse."""
    network = result.network
    return (
        network.alive_bits.tobytes(),
        network.matrix_bits.tobytes(),
        result.locally_consistent,
        result.ambiguous,
    )


def propagation_counts(result) -> tuple[int, int, int]:
    stats = result.stats
    return stats.consistency_passes, stats.role_values_killed, stats.matrix_entries_zeroed


def cdg_op_counts(result) -> dict:
    passes, killed, zeroed = propagation_counts(result)
    return {"passes": passes, "killed": killed, "zeroed": zeroed}


class Round:
    """What one timed round produced: per op raw latency, scale factor,
    check key and output; per segment raw wall time and scale factor."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.op_factor: list[float] = []
        self.keys: list = []
        self.outputs: list = []
        self.segment_ns: list[int] = []
        self.segment_factor: list[float] = []
        self.refs: list[float] = []


class Workload:
    """A CDG or CFG workload driven by one caller, op by op."""

    name = ""
    #: ops per reference-bracketed segment
    segment_ops = 8
    #: nominal seconds per round, which sets the round count of a run
    round_s = 1.0

    #: whether the host-speed reference includes the large-array part
    memory_reference = False

    def __init__(self, seed: int, nominal_ref_ms: "tuple[float, float]"):
        self.seed = seed
        cpu_ms, memory_ms = nominal_ref_ms
        self.nominal_ref_ms = cpu_ms + (memory_ms if self.memory_reference else 0.0)
        self.inputs = mixes.round_inputs(self.name, seed)
        self.shapes = mixes.round_shapes(self.name)
        self.expected: dict = {}

    @property
    def ops_per_round(self) -> int:
        return len(self.inputs)

    def words_per_op(self) -> float:
        return sum(len(words) for words in self.inputs) / len(self.inputs)

    # -- lifecycle ---------------------------------------------------------

    def build(self, backend=None) -> None:
        """Compile from scratch, start the system and warm it up."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def prime(self) -> None:
        """Untimed work after set-up that makes timed rounds repeatable."""

    def gate(self) -> None:
        """Compute every reference output (untimed)."""
        raise NotImplementedError

    def check(self, key, output) -> bool:
        raise NotImplementedError

    def segments(self) -> list:
        """``[(prepare, [(call, key), ...]), ...]`` for one round."""
        raise NotImplementedError

    def reference(self) -> float:
        """This workload's host-speed reading (see :mod:`harness`)."""
        ref = reference_ms()
        if self.memory_reference:
            ref += memory_reference_ms()
        return ref

    # -- per-layer counts (traced runs) ------------------------------------

    def counts(self) -> dict:
        """Cumulative program counters the traced run differences."""
        return {}

    @staticmethod
    def op_counts(output) -> dict:
        return {}

    # -- the timed round ---------------------------------------------------

    def run_round(self, tracer=None, op_base: int = 0) -> Round:
        record = Round()
        op = op_base
        ref = self.reference()
        record.refs.append(ref)
        for prepare, ops in self.segments():
            if prepare is not None:
                prepare()
            first = len(record.latency_ns)
            started = perf_counter_ns()
            for call, key in ops:
                if tracer is not None:
                    tracer.set_op(op)
                t0 = perf_counter_ns()
                try:
                    output = call()
                except Exception as error:  # counted as a failed op
                    output = error
                t1 = perf_counter_ns()
                if tracer is not None:
                    tracer.set_op(None)
                    tracer.record("op", None, op, t0, t1)
                op += 1
                record.latency_ns.append(t1 - t0)
                record.keys.append(key)
                record.outputs.append(output)
            ended = perf_counter_ns()
            ref_after = self.reference()
            record.refs.append(ref_after)
            factor = scale_factor(ref, ref_after, self.nominal_ref_ms)
            ref = ref_after
            record.segment_ns.append(ended - started)
            record.segment_factor.append(factor)
            record.op_factor.extend([factor] * (len(record.latency_ns) - first))
        return record


def _chunks(items: list, size: int) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)]


class SessionParse(Workload):
    """``ParserSession.parse`` by one caller (warm_parse, cold_shapes)."""

    def build(self, backend=None) -> None:
        self.session = ParserSession(fresh_grammar(), backend=backend)
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def gate(self) -> None:
        oracle = ParserSession(self.session.grammar, engine="serial")
        for shape, words in zip(self.shapes, self.inputs, strict=True):
            if shape not in self.expected:
                self.expected[shape] = network_digest(oracle.parse(words))

    def check(self, key, output) -> bool:
        return network_digest(output) == self.expected[key]

    def segments(self) -> list:
        ops = [
            (functools.partial(self.session.parse, words), shape)
            for shape, words in zip(self.shapes, self.inputs, strict=True)
        ]
        return [(None, chunk) for chunk in _chunks(ops, self.segment_ops)]

    def counts(self) -> dict:
        info = self.session.cache_info()
        builds = self.session.template_builds()
        return {
            "hits": info["hits"],
            "misses": info["misses"],
            "evictions": info["evictions"],
            "full": builds["full"],
            "extended": builds["extended"],
            "cached_bytes": self.session.cached_bytes(),
        }

    op_counts = staticmethod(cdg_op_counts)


class WarmParse(SessionParse):
    name = "warm_parse"
    segment_ops = 8
    round_s = 0.105

    def warm_up(self) -> None:
        # One parse per shape fills the template cache (8 shapes < 16).
        seen = set()
        for shape, words in zip(self.shapes, self.inputs, strict=True):
            if shape not in seen:
                seen.add(shape)
                self.session.parse(words)


class ColdShapes(SessionParse):
    name = "cold_shapes"
    segment_ops = 2
    round_s = 0.78
    memory_reference = True

    def warm_up(self) -> None:
        # Exercise the cold path once per length, then forget the
        # templates, so every timed op still builds its own.
        lengths = {}
        for words in self.inputs:
            lengths.setdefault(len(words), words)
        for words in lengths.values():
            self.session.parse(words)
        self.session.clear_caches()


class StreamWords(SessionParse):
    """``StreamingParse.extend``, one op per word; the template cache is
    cleared before each sentence, so every prefix template past the
    first word is grown by extension."""

    name = "stream_words"
    round_s = 0.50

    def __init__(self, seed: int, nominal_ref_ms: "tuple[float, float]"):
        super().__init__(seed, nominal_ref_ms)
        self.master = max(self.inputs, key=len)

    @property
    def ops_per_round(self) -> int:
        return sum(len(words) for words in self.inputs)

    def words_per_op(self) -> float:
        return 1.0

    def warm_up(self) -> None:
        self.session.stream(self.master)
        self.session.clear_caches()

    def gate(self) -> None:
        oracle = ParserSession(self.session.grammar, engine="serial")
        for k in range(1, len(self.master) + 1):
            self.expected[k] = network_digest(oracle.parse(self.master[:k]))

    def segments(self) -> list:
        segments = []
        for words in self.inputs:
            holder = {}

            def prepare(holder=holder):
                self.session.clear_caches()
                holder["stream"] = self.session.stream()

            ops = [
                (functools.partial(lambda h, w: h["stream"].extend(w), holder, word), k)
                for k, word in enumerate(words, start=1)
            ]
            segments.append((prepare, ops))
        return segments


class CYKChart(Workload):
    """``cyk_parse`` over the CNF English CFG with the default backend."""

    name = "cyk_chart"
    segment_ops = 2
    round_s = 1.33

    def build(self, backend=None) -> None:
        english_cfg.cache_clear()
        self.grammar = to_cnf(english_cfg())
        self.backend = backend
        for length, _ in mixes.CYK_BLOCKS:
            words = next(w for w in self.inputs if len(w) == length)
            cyk_module.cyk_parse(self.grammar, words, backend=backend)

    def gate(self) -> None:
        for shape, words in zip(self.shapes, self.inputs, strict=True):
            if shape not in self.expected:
                self.expected[shape] = self._digest(cyk_parse_sets(self.grammar, words))

    @staticmethod
    def _digest(result) -> tuple:
        return result.accepted, result.chart_sets, result.split_operations

    def check(self, key, output) -> bool:
        return self._digest(output) == self.expected[key]

    def segments(self) -> list:
        # Looked up per round, so a traced round calls the traced function.
        parse = functools.partial(cyk_module.cyk_parse, self.grammar, backend=self.backend)
        ops = [
            (functools.partial(parse, words), shape)
            for shape, words in zip(self.shapes, self.inputs, strict=True)
        ]
        return [(None, chunk) for chunk in _chunks(ops, self.segment_ops)]

    @staticmethod
    def op_counts(output) -> dict:
        return {"split_operations": output.split_operations}


class ServedParse(Workload):
    """The warm_parse sentences through a default ``ParseService``; one
    client thread keeps :data:`OUTSTANDING` requests in flight.  Latency
    runs from ``submit`` to the future resolving."""

    name = "served_parse"
    round_s = 0.11
    OUTSTANDING = 4
    PRIMING_ROUNDS = 50

    def build(self, backend=None) -> None:
        self.service = ParseService(fresh_grammar(), kernel_backend=backend).start()
        for _ in range(2):
            self.run_round()

    def prime(self) -> None:
        # Which worker takes a batch is up to the scheduler, so a fixed
        # warm-up may leave a shape out of one worker's template cache.
        # More closed-loop rounds, outside set-up time, until every shape
        # sits in every worker's cache, so timed rounds never build.
        cached = self.service.n_workers * len(set(self.shapes))
        for _ in range(self.PRIMING_ROUNDS):
            if self.service.snapshot()["service"]["template_cache"]["size"] >= cached:
                return
            self.run_round()

    def close(self) -> None:
        self.service.shutdown()

    def gate(self) -> None:
        bare = ParserSession(self.service.grammar)
        for shape, words in zip(self.shapes, self.inputs, strict=True):
            if shape not in self.expected:
                result = bare.parse(words)
                self.expected[shape] = (network_digest(result), propagation_counts(result))

    def check(self, key, output) -> bool:
        return (network_digest(output), propagation_counts(output)) == self.expected[key]

    def counts(self) -> dict:
        snap = self.service.snapshot()
        cache = snap["service"]["template_cache"]
        counters = snap["counters"]
        batches = snap["histograms"]["batch_size"]
        return {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "evictions": cache["evictions"],
            "cached_bytes": snap["service"]["memory"]["template_cache_bytes"],
            "rejected": counters["rejected"],
            "expired": counters["expired"],
            "batches": batches["count"],
            "batched": batches["sum"],
        }

    op_counts = staticmethod(cdg_op_counts)

    def run_round(self, tracer=None, op_base: int = 0) -> Round:
        n = len(self.inputs)
        submitted = [0] * n
        resolved = [0] * n
        remaining = [n]
        all_done = threading.Event()
        lock = threading.Lock()

        def stamp(index, _future):
            resolved[index] = perf_counter_ns()
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    all_done.set()

        futures = []
        outstanding: set = set()
        ref_before = self.reference()
        for index, words in enumerate(self.inputs):
            while len(outstanding) >= self.OUTSTANDING:
                _, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            if tracer is not None:
                tracer.set_op(op_base + index)
            submitted[index] = perf_counter_ns()
            try:
                future = self.service.submit(words)
            except Exception as error:  # a refusal counts as a failed op
                future = _failed(error)
            if tracer is not None:
                tracer.set_op(None)
            future.add_done_callback(functools.partial(stamp, index))
            futures.append(future)
            outstanding.add(future)
        all_done.wait()
        ref_after = self.reference()

        record = Round()
        factor = scale_factor(ref_before, ref_after, self.nominal_ref_ms)
        record.refs = [ref_before, ref_after]
        record.segment_ns = [max(resolved) - submitted[0]]
        record.segment_factor = [factor]
        for index, future in enumerate(futures):
            try:
                output = future.result()
            except Exception as error:
                output = error
            if tracer is not None:
                tracer.record("op", None, op_base + index, submitted[index], resolved[index])
            record.latency_ns.append(resolved[index] - submitted[index])
            record.op_factor.append(factor)
            record.keys.append(self.shapes[index])
            record.outputs.append(output)
        return record


def _failed(error: Exception):
    from concurrent.futures import Future

    future: Future = Future()
    future.set_exception(error)
    return future


WORKLOADS = {
    cls.name: cls for cls in (WarmParse, ColdShapes, StreamWords, CYKChart, ServedParse)
}
