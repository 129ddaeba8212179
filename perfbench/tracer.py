"""Span tracer for the benchmark's traced runs, installed from outside ``src/``.

Every wrapped call is a span: its layer, its function, its start and end, and
the span open when it began (its parent).  A layer's *self time* is the sum
of its spans' durations minus the part covered by their child spans, so the
self times of all layers add up to the traced wall time minus whatever ran
outside any span (the unattributed remainder).

Spans are folded into per-function aggregates as they close — call count,
self seconds, and parent-layer -> child-layer edge counts — rather than kept
one by one: a traced run makes millions of ``digest_of`` calls, and the
aggregate is what the benchmark reports and writes out.  Spans therefore
carry no per-transaction identifier; that needs instrumentation inside
``src/``, not wrappers around it.

The wrappers only observe: they call through with the same arguments and
return the same result, so a traced run must produce the same fingerprint as
its untraced twin (the benchmark checks this).  ``install_sim_layers`` and
``install_gateway_layers`` patch the classes and module functions in place;
call them once per process, before the system is built.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer of the benchmark's own bookkeeping done inside a span (byte sizing).
TRACE_LAYER = "trace"


class Tracer:
    """Aggregating span recorder; one per process."""

    def __init__(self) -> None:
        #: While positive, wrapped calls pass straight through (used inside
        #: audit spans so the auditor's own hashing is not billed to crypto).
        self._muted = 0
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (call with no span open)."""
        #: Open spans, innermost last: ``[layer, seconds covered by children]``.
        self._stack: List[List[Any]] = []
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Work counters filled by the ``after`` hooks (lock waits, bytes...).
        self.counters: Dict[str, float] = defaultdict(float)

    # ---------------------------------------------------------------- spans
    def _open(self, layer: str) -> Tuple[Optional[List[Any]], List[Any]]:
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        return parent, frame

    def _close(self, key: Tuple[str, str], parent: Optional[List[Any]],
               frame: List[Any], elapsed: float) -> None:
        self._stack.pop()
        self.self_s[key] += elapsed - frame[1]
        self.calls[key] += 1
        if parent is not None:
            parent[1] += elapsed
            self.edges[(parent[0], key[0])] += 1
        else:
            self.edges[("root", key[0])] += 1

    def _bookkeeping(self, hook: Callable[..., None], *args: Any) -> None:
        """Run an ``after`` hook, billing its time to the trace layer."""
        started = perf_counter()
        hook(self, *args)
        elapsed = perf_counter() - started
        self.self_s[(TRACE_LAYER, hook.__name__)] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, layer: str, name: str, fn: Callable[..., Any],
             after: Optional[Callable[..., None]] = None,
             mute: bool = False) -> Callable[..., Any]:
        """A span wrapper around the synchronous callable ``fn``."""
        key = (layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._muted:
                return fn(*args, **kwargs)
            parent, frame = tracer._open(layer)
            if mute:
                tracer._muted += 1
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                if mute:
                    tracer._muted -= 1
                tracer._close(key, parent, frame, elapsed)
            if after is not None:
                tracer._bookkeeping(after, args, kwargs, result)
            return result

        return traced

    def wrap_async(self, layer: str, name: str,
                   fn: Callable[..., Any]) -> Callable[..., Any]:
        """A span wrapper around a coroutine function.

        Only the stretches the coroutine spends running count: each resume
        (up to its next suspension) is one span, so time spent waiting on a
        socket is never billed to the layer.
        """
        tracer = self
        key = (layer, name)

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            return await _SteppedSpans(tracer, key, fn(*args, **kwargs))

        return traced

    # -------------------------------------------------------------- reports
    def layer_self_s(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _name), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(totals)

    def snapshot(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "functions": sorted(
                ({"layer": layer, "function": name,
                  "calls": self.calls.get((layer, name), 0),
                  "self_s": self.self_s[(layer, name)]}
                 for (layer, name) in self.self_s),
                key=lambda row: -row["self_s"]),
            "edges": [{"parent": parent, "child": child, "count": count}
                      for (parent, child), count in sorted(self.edges.items())],
            "layer_self_s": self.layer_self_s(),
            "counters": dict(self.counters),
        }


class _SteppedSpans:
    """Drive a coroutine, timing each resume as one span of its layer."""

    def __init__(self, tracer: Tracer, key: Tuple[str, str], coro: Any) -> None:
        self.tracer = tracer
        self.key = key
        self.coro = coro

    def __await__(self):
        tracer, key, coro = self.tracer, self.key, self.coro
        send_value: Any = None
        throw: Optional[BaseException] = None
        while True:
            parent, frame = tracer._open(key[0])
            started = perf_counter()
            try:
                if throw is not None:
                    yielded = coro.throw(throw)
                else:
                    yielded = coro.send(send_value)
            except StopIteration as stop:
                tracer._close(key, parent, frame, perf_counter() - started)
                return stop.value
            except BaseException:
                tracer._close(key, parent, frame, perf_counter() - started)
                raise
            tracer._close(key, parent, frame, perf_counter() - started)
            try:
                send_value, throw = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                send_value, throw = None, exc


# ---------------------------------------------------------------- patching
def _patch_method(tracer: Tracer, cls: type, attr: str, layer: str,
                  after: Optional[Callable[..., None]] = None,
                  mute: bool = False) -> None:
    raw = cls.__dict__[attr]
    name = f"{cls.__name__}.{attr}"
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            tracer.wrap(layer, name, raw.__func__, after, mute)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(
            tracer.wrap(layer, name, raw.__func__, after, mute)))
    elif _is_coroutine_function(raw):
        setattr(cls, attr, tracer.wrap_async(layer, name, raw))
    else:
        setattr(cls, attr, tracer.wrap(layer, name, raw, after, mute))


def _is_coroutine_function(fn: Any) -> bool:
    return isinstance(fn, types.FunctionType) and bool(fn.__code__.co_flags & 0x80)


def patch_methods(tracer: Tracer, target: str, layer: str,
                  methods: Optional[Iterable[str]] = None,
                  after: Optional[Dict[str, Callable[..., None]]] = None,
                  mute: bool = False) -> None:
    """Wrap methods of ``module:Class`` as spans of ``layer``.

    ``methods=None`` wraps every plain, class and static method the class
    body itself defines (dunders and properties excluded).
    """
    module_name, _, class_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    if methods is None:
        methods = [attr for attr, raw in vars(cls).items()
                   if not attr.startswith("__")
                   and isinstance(raw, (types.FunctionType, classmethod, staticmethod))]
    hooks = after or {}
    for attr in methods:
        _patch_method(tracer, cls, attr, layer, hooks.get(attr), mute)


def patch_function(tracer: Tracer, target: str, layer: str,
                   after: Optional[Callable[..., None]] = None) -> None:
    """Wrap ``module:function`` and every ``repro`` module's binding of it."""
    module_name, _, attr = target.partition(":")
    original = getattr(importlib.import_module(module_name), attr)
    if _is_coroutine_function(original):
        wrapped = tracer.wrap_async(layer, attr, original)
    else:
        wrapped = tracer.wrap(layer, attr, original, after)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and module is not None:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


# -------------------------------------------------------------- after hooks
def _count_lock_outcome(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if not result.granted:
        tracer.counters["txn.lock_waits"] += 1
    tracer.counters["txn.wounds"] += len(result.wounded)


def _count_block(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    # Proposals compute their Merkle root; execution re-chains pass it in.
    if kwargs.get("merkle_root") is None and len(args) < 8:
        tracer.counters["consensus.blocks_proposed"] += 1
        tracer.counters["consensus.txs_proposed"] += len(result.transactions)


def _size_window_inputs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    commands = args[1] if len(args) > 1 else kwargs["commands"]
    tracer.counters["core.barrier_bytes"] += len(
        pickle.dumps(list(commands), protocol=pickle.HIGHEST_PROTOCOL))


def _size_window_outputs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["core.partition_windows"] += 1
    tracer.counters["core.barrier_bytes"] += len(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------------------ layer tables
#: (class, layer, methods, after hooks) of a simulated run.  ``None`` methods
#: wrap the whole class: the coordination code (2PC coordinators, lock admission)
#: is called back through many private entry points, so wrapping only its
#: public methods would bill its work to whichever layer fired the callback.
#: Hot classes get only their boundary methods, to bound the tracing cost.
_SIM_SPANS = [
    ("repro.core.system:ShardedBlockchain", "core", None, None),
    ("repro.core.system:_LockAdmission", "core", None, None),
    ("repro.core.scaleout:ScaleOutShardedBlockchain", "core", None, None),
    ("repro.core.homecoord:HomeCoordinator", "core", None, None),
    ("repro.core.homecoord:PartitionDriver", "core", None, None),
    ("repro.core.driver:OpenLoopDriver", "core", None, None),
    ("repro.core.splitters:SmallbankSplitter", "core", None, None),
    ("repro.txn.coordinator:TwoPhaseCommitCoordinator", "txn", None, None),
    ("repro.txn.locks:LockManager", "txn", None, {"acquire": _count_lock_outcome}),
    ("repro.sim.simulator:Simulator", "sim", ["run", "run_batched", "step"], None),
    ("repro.sim.network:Network", "sim.network", ["send", "broadcast"], None),
    ("repro.consensus.base:ConsensusReplica", "consensus",
     ["handle_message", "submit_transactions"], None),
    ("repro.consensus.cluster:ConsensusCluster", "consensus", ["submit"], None),
    ("repro.crypto.merkle:MerkleTree", "crypto",
     ["__init__", "from_leaves", "extend_leaves"], None),
    ("repro.crypto.signatures:KeyPair", "crypto", ["sign", "verify_own"], None),
    ("repro.crypto.signatures:SignatureVerifier", "crypto", ["verify"], None),
    ("repro.ledger.chaincode:ExecutionEngine", "ledger",
     ["execute_transaction", "execute_block"], None),
    ("repro.ledger.blockchain:Blockchain", "ledger", ["append"], None),
    ("repro.tee.attested_log:AttestedAppendOnlyLog", "tee", ["append"], None),
    ("repro.tee.attested_log:LogAttestation", "tee", ["verify"], None),
    ("repro.core.scaleout:ShardPartition", "core", ["run_window", "inject"],
     {"run_window": _size_window_outputs, "inject": _size_window_inputs}),
    ("repro.workloads.generator:WorkloadGenerator", "workloads",
     ["next_transaction", "next_transaction_for_shard", "batch"], None),
    ("repro.runtime.sim:SimRuntime", "runtime",
     ["schedule", "schedule_at", "spawn"], None),
]

_FUNCTIONS = [
    ("repro.crypto.hashing:digest_of", "crypto", None),
    ("repro.ledger.block:build_block", "ledger", _count_block),
]

#: The safety auditor and its ledger index run inside the traced sim runs;
#: their spans mute everything nested so audit work is billed to "audit".
_AUDIT_CLASSES = [
    "repro.audit.auditor:SafetyAuditor",
    "repro.ledger.index:LedgerIndex",
]


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap the layers a simulated run goes through."""
    import repro.audit.auditor  # noqa: F401 - load every module patched below
    import repro.core  # noqa: F401

    for target, layer, methods, after in _SIM_SPANS:
        patch_methods(tracer, target, layer, methods, after)
    for target, layer, after in _FUNCTIONS:
        patch_function(tracer, target, layer, after)
    for target in _AUDIT_CLASSES:
        patch_methods(tracer, target, "audit", mute=True)


class _CodecShim:
    """Stands in for ``pickle`` inside the frame module; times and sizes it."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap("service.codec", "pickle.dumps", pickle.dumps,
                                 after=_count_encoded)
        self.loads = tracer.wrap("service.codec", "pickle.loads", pickle.loads,
                                 after=_count_decoded)

    def __getattr__(self, name: str) -> Any:
        return getattr(pickle, name)


def _count_encoded(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["service.frame_bytes"] += len(result)


def _count_decoded(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["service.frame_bytes"] += len(args[0])


def install_gateway_layers(tracer: Tracer) -> None:
    """Wrap the layers the live gateway process goes through."""
    import repro.service.frames as frames
    import repro.service.serve  # noqa: F401 - load every module patched below

    patch_methods(tracer, "repro.service.gateway:GatewayService", "service")
    patch_methods(tracer, "repro.service.gateway:_GatewayAgent", "service")
    patch_methods(tracer, "repro.service.gateway:GatewayHttp", "service.http",
                  ["_handle"])
    patch_methods(tracer, "repro.service.socketnet:SocketNetwork", "service",
                  ["send", "broadcast"])
    patch_function(tracer, "repro.service.socketnet:read_frame", "service.frames")
    patch_function(tracer, "repro.service.socketnet:write_frame", "service.frames")
    frames.pickle = _CodecShim(tracer)
    patch_methods(tracer, "repro.txn.coordinator:TwoPhaseCommitCoordinator", "txn")
    patch_methods(tracer, "repro.core.splitters:SmallbankSplitter", "core")
    patch_methods(tracer, "repro.runtime.wallclock:AsyncioRuntime", "runtime",
                  ["schedule", "schedule_at", "spawn"])
    patch_function(tracer, "repro.crypto.hashing:digest_of", "crypto")
