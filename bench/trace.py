"""Outside-in span tracing for the benchmark's traced pass.

Nothing in ``src/`` knows about this module.  :func:`install` swaps timing
wrappers onto (a) each layer's public entry points, at class or module
level, and (b) the ``Clock`` scheduling seam, so that a callback handed to
``schedule``/``at``/``call_later``/``call_at``/``call_at_batch`` is timed
when it later fires and charged to the module that owns it.  (b) is what
makes the attribution honest: almost all protocol work on the simulator
runs from deferred callbacks, and without it every microsecond reads as
the event loop's.  The returned :class:`Installation` restores every
original attribute.

A span is ``(name, seq, parent seq, task id, start, end)``.  Spans nest by
call stack; a span's *self* time is its duration minus the time its child
spans cover.  Self times are summed per span name for every span; the full
records of the first ``span_cap`` spans stay in memory and are written
out by the caller when the run ends.

Wrapper bookkeeping done before a span's start stamp or after its end
stamp lands in the *enclosing* span, so tracing overhead inflates the
dispatching layer most (the event loop on the simulator).  End-to-end
numbers therefore never come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from types import ModuleType as _ModuleType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Module -> layer.  The twelve layers are the ones ISSUE 11 names; a
#: module missing here is reported as ``unattributed``.
MODULE_LAYERS: Dict[str, str] = {
    "repro.core.packer": "core.packer",
    "repro.core.keyspace": "core.packer",
    "repro.core.sender": "core.sender",
    "repro.transport.window": "core.sender",
    "repro.transport.reliability": "transport.reliability",
    "repro.core.daemon": "core.daemon",
    "repro.core.receiver": "core.receiver",
    "repro.core.results": "core.receiver",
    "repro.core.service": "core.service",
    "repro.core.controlplane": "core.service",
    "repro.core.tenancy": "core.service",
    "repro.switch.controller": "core.service",
    "repro.net.simulator": "net.simulator",
    "repro.net.link": "net.link",
    "repro.net.nic": "net.link",
    "repro.net.topology": "net.link",
    "repro.net.multirack": "net.link",
    "repro.net.fault": "net.link",
    "repro.runtime.sim": "net.link",
    "repro.switch.switch": "switch",
    "repro.switch.program": "switch",
    "repro.switch.dedup": "switch",
    "repro.switch.aggregator": "switch",
    "repro.switch.vectorized": "switch",
    "repro.runtime.codec": "runtime.codec",
    "repro.runtime.asyncio_fabric": "runtime.asyncio_fabric",
    "repro.net.sharded": "net.sharded",
    "repro.runtime.sharded": "net.sharded",
}

LAYERS: Tuple[str, ...] = (
    "core.packer",
    "core.sender",
    "transport.reliability",
    "core.daemon",
    "core.receiver",
    "core.service",
    "net.simulator",
    "net.link",
    "switch",
    "runtime.codec",
    "runtime.asyncio_fabric",
    "net.sharded",
)

UNATTRIBUTED = "unattributed"

#: Entry points: (module, class or None, attribute, index of the argument
#: that carries the task id or None).  The layer follows from the module.
#: ``Packer.payloads`` is a generator function; its wrapper drains it
#: inside the span (every caller lists it at once anyway).
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, Optional[int]], ...] = (
    ("repro.core.packer", "Packer", "add_stream", None),
    ("repro.core.packer", "Packer", "payloads", None),
    ("repro.core.sender", "SenderChannel", "enqueue", 1),
    ("repro.core.sender", "SenderChannel", "on_ack", 1),
    ("repro.transport.reliability", "RetransmitTimers", "arm", None),
    ("repro.transport.reliability", "RetransmitTimers", "cancel", None),
    ("repro.transport.reliability", "RetransmitTimers", "note_ack", None),
    ("repro.core.daemon", "HostDaemon", "receive", 1),
    ("repro.core.daemon", "HostDaemon", "start_sending", 1),
    ("repro.core.daemon", "HostDaemon", "open_receive_task", 1),
    ("repro.core.daemon", "HostDaemon", "publish_result", 1),
    ("repro.core.receiver", "ReceiverEngine", "on_packet", 1),
    ("repro.core.receiver", "ReceiverEngine", "on_swap_ack", 1),
    ("repro.switch.switch", "AskSwitch", "receive", 1),
    ("repro.switch.vectorized", "VectorizedAskSwitch", "receive", 1),
    ("repro.net.link", "Link", "send", 1),
    ("repro.runtime.sim", "SimFabric", "send_to_switch", 2),
    ("repro.runtime.sim", "SimFabric", "send_to_host", 2),
    ("repro.runtime.sim", "SimMultiRackFabric", "send_to_switch", 2),
    ("repro.runtime.sim", "SimMultiRackFabric", "send_to_host", 2),
    ("repro.net.multirack", "RackView", "send_to_host", 2),
    ("repro.net.multirack", "SpineView", "send_to_host", 2),
    ("repro.runtime.asyncio_fabric", "AsyncioFabric", "send_to_switch", 2),
    ("repro.runtime.asyncio_fabric", "AsyncioFabric", "send_to_host", 2),
    ("repro.runtime.asyncio_fabric", "AsyncioRunner", "run_until", None),
    ("repro.net.simulator", "Simulator", "run", None),
    ("repro.core.service", "_AskServiceBase", "submit", None),
    ("repro.core.service", "TreeAskService", "submit", None),
    ("repro.core.service", "_AskServiceBase", "run_to_completion", None),
    ("repro.core.controlplane", "ControlPlane", "allocate", 1),
    ("repro.core.controlplane", "ControlPlane", "fetch_and_reset", 1),
    ("repro.core.controlplane", "ControlPlane", "deallocate", 1),
    ("repro.runtime.sharded", None, "run_serial", None),
    ("repro.runtime.sharded", None, "run_sharded", None),
    ("repro.net.sharded", "ShardedSimulator", "run", None),
    ("repro.net.sharded", "ProcessShard", "send_window", None),
    ("repro.net.sharded", "ProcessShard", "recv_window", None),
    ("repro.net.sharded", "ProcessShard", "finish", None),
)

#: The codec is traced where the UDP fabric calls it: the names the
#: ``asyncio_fabric`` module imported, charged to the codec's layer.
CODEC_BINDINGS: Tuple[Tuple[str, str], ...] = (
    ("repro.runtime.asyncio_fabric", "encode_packet"),
    ("repro.runtime.asyncio_fabric", "decode_packet"),
)

#: The Clock seam: every method whose third positional argument is a
#: callback to run later.  The ``_shard``/``_serial`` twins are what
#: ``enable_shard_order``/``enable_serial_shard_order`` rebind onto a
#: simulator instance, so they are wrapped at class level too.
CLOCK_SEAM: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    (
        "repro.net.simulator",
        "Simulator",
        (
            "schedule", "at", "call_later", "call_at", "call_at_batch",
            "_schedule_shard", "_at_shard", "_call_later_shard", "_call_at_shard",
            "_schedule_serial", "_at_serial", "_call_later_serial", "_call_at_serial",
        ),
    ),
    (
        "repro.runtime.asyncio_fabric",
        "AsyncioClock",
        ("schedule", "at", "call_later", "call_at"),
    ),
)


def _task_of(arg: Any) -> Optional[int]:
    """The task id an entry-point argument carries, if any: a packet, a
    task, a sending job, or the integer id itself."""
    if isinstance(arg, int):
        return arg
    task_id = getattr(arg, "task_id", None)
    if task_id is None:
        task_id = getattr(getattr(arg, "task", None), "task_id", None)
    return task_id if isinstance(task_id, int) else None


def _unwrap(callback: Any) -> Any:
    """Look through the wrappers the program itself puts around a
    callback (``ShardContextCall.callback``, ``functools.partial.func``)."""
    while not hasattr(callback, "__func__"):
        inner = getattr(callback, "callback", None) or getattr(callback, "func", None)
        if not callable(inner):
            break
        callback = inner
    return callback


def _owner_module(callback: Any) -> str:
    """The module charged for a scheduled callback: the class of the
    object a bound method is bound to, else the function's own module."""
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, _ModuleType):
        return type(owner).__module__
    return getattr(callback, "__module__", None) or UNATTRIBUTED


class Tracer:
    """Collects spans and per-name self-time totals for one traced run."""

    def __init__(
        self, span_cap: int = 50_000, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.clock = clock
        self.span_cap = span_cap
        #: name id -> (layer, span name)
        self.names: List[Tuple[str, str]] = []
        self._name_ids: Dict[Tuple[str, str], int] = {}
        #: name id -> [calls, self seconds]
        self.totals: List[List[float]] = []
        #: retained spans: (name id, seq, parent seq, task id, start, end)
        self.spans: List[Tuple[int, int, int, Optional[int], float, float]] = []
        self._next_seq = itertools.count().__next__
        #: open spans, innermost last: [child seconds, seq, task id, layer].
        #: The bottom frame is a sentinel, so a span always has a parent.
        self._stack: List[list] = [[0.0, -1, None, None]]
        #: scheduled-callback function -> name id (owner attribution cache)
        self._callback_names: Dict[Any, int] = {}
        #: free-form counters the wrappers keep beside the spans
        self.counters: Dict[str, float] = {}

    # -- names ---------------------------------------------------------
    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        found = self._name_ids.get(key)
        if found is None:
            found = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self.totals.append([0, 0.0])
        return found

    def callback_name_id(self, callback: Any) -> int:
        """Name id for a scheduled callback, charged to its owner."""
        callback = _unwrap(callback)
        function = getattr(callback, "__func__", None)
        if function is not None:
            key: Any = (function, type(callback.__self__))
        else:
            key = (callback, None)
        try:
            found = self._callback_names.get(key)
        except TypeError:  # unhashable callable: resolve it every time
            found, key = None, None
        if found is None:
            layer = MODULE_LAYERS.get(_owner_module(callback), UNATTRIBUTED)
            label = getattr(callback, "__qualname__", type(callback).__qualname__)
            found = self.name_id(layer, "cb:" + label)
            if key is not None:
                self._callback_names[key] = found
        return found

    # -- spans ---------------------------------------------------------
    def call(
        self,
        name_id: int,
        task: Optional[int],
        function: Callable[..., Any],
        args: tuple,
        kwargs: Dict[str, Any],
    ) -> Any:
        """Run ``function(*args, **kwargs)`` inside a span.

        A call made from inside a span of the *same layer* opens no span
        of its own — it is counted, and its time stays in the enclosing
        span's self time.  Layer totals are unchanged by that, and a
        probe that costs as much as the call it times is avoided on the
        hottest nests (fabric ``send_to_switch`` -> ``Link.send``).
        """
        layer = self.names[name_id][0]
        total = self.totals[name_id]
        stack = self._stack
        parent = stack[-1]
        if parent[3] == layer:
            total[0] += 1
            return function(*args, **kwargs)
        frame = [0.0, self._next_seq(), parent[2] if task is None else task, layer]
        stack.append(frame)
        start = self.clock()
        try:
            return function(*args, **kwargs)
        finally:
            now = self.clock()
            stack.pop()
            duration = now - start
            total[0] += 1
            total[1] += duration - frame[0]
            parent[0] += duration
            if len(self.spans) < self.span_cap:
                self.spans.append((name_id, frame[1], parent[1], frame[2], start, now))

    # -- results -------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its span names."""
        out: Dict[str, List[float]] = {}
        for (layer, _name), (calls, self_s) in zip(self.names, self.totals):
            entry = out.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return {layer: (int(calls), self_s) for layer, (calls, self_s) in out.items()}

    def name_totals(self) -> List[Tuple[str, str, int, float]]:
        """(layer, span name, calls, self seconds), largest self time first."""
        rows = [
            (layer, name, int(calls), self_s)
            for (layer, name), (calls, self_s) in zip(self.names, self.totals)
            if calls
        ]
        return sorted(rows, key=lambda row: -row[3])

    def write_spans(self, path: str) -> int:
        """Write the retained spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for name_id, seq, parent, task, start, end in self.spans:
                layer, name = self.names[name_id]
                record = {
                    "name": name,
                    "layer": layer,
                    "seq": seq,
                    "parent": parent,
                    "task": task,
                    "start": start,
                    "end": end,
                }
                out.write(json.dumps(record) + "\n")
        return len(self.spans)


_NO_KWARGS: Dict[str, Any] = {}


class OwnedCallback:
    """A scheduled callback that opens a span, charged to its owner, when
    it fires.

    Equality and hash delegate to the wrapped callable, so the places the
    simulator compares callbacks (``call_at_batch``'s same-``deliver``
    bucket, the batch feeder check, ``flush_batches``) decide exactly as
    they do untraced — otherwise the traced schedule would diverge.
    """

    __slots__ = ("callback", "_tracer", "_name_id")

    def __init__(self, tracer: Tracer, callback: Callable[..., Any]) -> None:
        self.callback = callback
        self._tracer = tracer
        self._name_id = tracer.callback_name_id(callback)

    def __call__(self, *args: Any) -> Any:
        return self._tracer.call(self._name_id, None, self.callback, args, _NO_KWARGS)

    def __eq__(self, other: object) -> bool:
        if type(other) is OwnedCallback:
            other = other.callback
        return self.callback == other

    def __hash__(self) -> int:
        return hash(self.callback)


def _own(tracer: Tracer, callback: Any) -> Any:
    """Wrap ``callback`` for owner attribution — unless it is already a
    traced entry point (a bound ``receive``), whose own span does the job."""
    if type(callback) is OwnedCallback:
        return callback
    if getattr(getattr(callback, "__func__", callback), "_bench_traced", False):
        return callback
    return OwnedCallback(tracer, callback)


def _mark(wrapper: Callable[..., Any], original: Callable[..., Any]) -> Callable[..., Any]:
    functools.update_wrapper(wrapper, original)
    wrapper._bench_traced = True  # type: ignore[attr-defined]
    return wrapper


def _entry_wrapper(
    tracer: Tracer,
    original: Callable[..., Any],
    name_id: int,
    task_arg: Optional[int] = None,
    on_result: Optional[Callable[[Any], None]] = None,
) -> Callable[..., Any]:
    call = tracer.call

    if on_result is not None:

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = call(name_id, None, original, args, kwargs)
            on_result(result)
            return result

    elif task_arg is None:

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name_id, None, original, args, kwargs)

    else:

        def traced(*args: Any, **kwargs: Any) -> Any:
            task = _task_of(args[task_arg]) if len(args) > task_arg else None
            return call(name_id, task, original, args, kwargs)

    return _mark(traced, original)


def _drained(generator_function: Callable[..., Any]) -> Callable[..., Any]:
    """Run a generator function to exhaustion inside the call, so that a
    span around the call covers the work and not just the creation."""

    @functools.wraps(generator_function)
    def drained(*args: Any, **kwargs: Any) -> Any:
        return iter(list(generator_function(*args, **kwargs)))

    return drained


def _clock_wrapper(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """Scheduling itself opens no span — a heap push is cheaper than the
    probe, and stays with the caller; the callback is timed when it fires."""

    def scheduling(self: Any, when: Any, callback: Any, *args: Any) -> Any:
        return original(self, when, _own(tracer, callback), *args)

    return _mark(scheduling, original)


class Installation:
    """The set of attributes :func:`install` replaced, for restoring."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def install(tracer: Tracer, layers: Optional[Iterable[str]] = None) -> Installation:
    """Install the timing wrappers; returns the handle that removes them.

    ``layers`` restricts the wrappers to entry points of those layers and
    leaves the Clock seam alone — the sharded workload uses it to trace
    only the coordinator, because forked workers would inherit anything
    installed on the code they run and their spans could not be collected.
    Entry points whose module or attribute no longer exists are skipped,
    so a later PR that removes one (the vectorized switch, say) does not
    break the traced pass.
    """
    only = None if layers is None else frozenset(layers)
    installation = Installation()
    try:
        for module_name, class_name, attr, task_arg in ENTRY_POINTS:
            layer = MODULE_LAYERS[module_name]
            owner = _resolve(module_name, class_name)
            if (only is not None and layer not in only) or attr not in _attributes(owner):
                continue
            name_id = tracer.name_id(layer, f"{class_name}.{attr}" if class_name else attr)
            drain = (class_name, attr) == ("Packer", "payloads")
            installation.replace(
                owner,
                attr,
                lambda original, n=name_id, t=task_arg, d=drain: _entry_wrapper(
                    tracer, _drained(original) if d else original, n, task_arg=t
                ),
            )
        for module_name, attr in CODEC_BINDINGS:
            owner = _resolve(module_name, None)
            if (only is not None and "runtime.codec" not in only) or attr not in _attributes(owner):
                continue
            name_id = tracer.name_id("runtime.codec", attr)
            count = _byte_counter(tracer) if attr == "encode_packet" else None
            installation.replace(
                owner,
                attr,
                lambda original, n=name_id, c=count: _entry_wrapper(
                    tracer, original, n, on_result=c
                ),
            )
        for module_name, class_name, attrs in CLOCK_SEAM:
            owner = _resolve(module_name, class_name)
            for attr in attrs:
                if only is None and attr in _attributes(owner):
                    installation.replace(
                        owner, attr, lambda original: _clock_wrapper(tracer, original)
                    )
    except BaseException:
        installation.uninstall()
        raise
    return installation


def _byte_counter(tracer: Tracer) -> Callable[[Any], None]:
    counters = tracer.counters
    counters.setdefault("codec.encoded_bytes", 0)

    def count(frame: Any) -> None:
        counters["codec.encoded_bytes"] += len(frame)

    return count


def _resolve(module_name: str, class_name: Optional[str]) -> Any:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name is None:
        return module
    return getattr(module, class_name, None)


def _attributes(owner: Any) -> Dict[str, Any]:
    return {} if owner is None else vars(owner)
