"""The distributed sweep worker daemon (``repro worker serve``).

One worker is one *host's* share of a sweep: it connects to a
coordinator (:mod:`repro.dist.coordinator`), registers itself under a
host name, and then lives in a lease loop —

1. receive a task frame ``(ticket, benchmark, part, payload)``;
2. execute it through the same task runner the single-host pool uses
   (``fn`` names a module-level callable, e.g.
   ``repro.experiments.table2:_sweep_task``), against this process's private
   :class:`~repro.perf.cache.ArtifactCache`;
3. journal the finished row into its **own shard**
   (``journal-<host>.jsonl`` under ``--run-dir``) so the row is durable
   on this host before the result ever crosses the network;
4. stream the result home and renew its lease.

While idle it heartbeats every ``heartbeat_interval`` seconds so the
coordinator's host registry can tell a quiet host from a dead one.
Determinism does not depend on any of this: tasks are pure functions of
their payload, so *which* host runs one — or how many times, after a
loss — cannot change its value.

The chaos harness injects host-level faults here, at task pickup,
mirroring the single-host supervised worker:

* ``host_kill`` — SIGKILL our own process (a crashed/OOM'd host; the
  TCP connection drops and the coordinator requeues);
* ``host_partition`` — drop the socket mid-task and exit (the host is
  healthy but unreachable; results must never be double-counted);
* ``host_stall`` — wedge forever (a hung host; the coordinator's
  per-task deadline expires the lease).
"""

from __future__ import annotations

import importlib
import logging
import os
import signal
import socket
import time
from dataclasses import dataclass
from typing import Optional

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_address,
    recv_message,
    send_message,
)
from repro.errors import ConfigError

log = logging.getLogger("repro.dist.worker")

#: Seconds between idle heartbeats (must beat the coordinator's idle
#: lease timeout with room to spare).
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Default attempts to reach the coordinator before giving up (the
#: coordinator is often still binding when workers launch).
DEFAULT_CONNECT_RETRIES = 40
CONNECT_RETRY_DELAY_S = 0.25


def default_host_name() -> str:
    """A host identity unique enough for shard names: ``host-pid``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def resolve_task_fn(spec: str):
    """Resolve a ``module:qualname`` task-function reference.

    The coordinator names the callable instead of pickling it so the
    frame stays small and version skew fails loudly (an unimportable
    reference is a typed error, not a mystery unpickling crash).
    """
    module_name, sep, qualname = spec.partition(":")
    if not sep or not module_name or not qualname:
        raise ProtocolError(
            f"task function must be 'module:qualname', got {spec!r}",
            task_fn=spec,
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ProtocolError(
            f"cannot import task-function module {module_name!r}: {error}",
            task_fn=spec,
        ) from None
    fn = module
    for part in qualname.split("."):
        fn = getattr(fn, part, None)
        if fn is None:
            raise ProtocolError(
                f"module {module_name!r} has no attribute {qualname!r}",
                task_fn=spec,
            )
    if not callable(fn):
        raise ProtocolError(
            f"task function {spec!r} resolved to a non-callable", task_fn=spec
        )
    return fn


def echo_task(payload):
    """Diagnostic task: returns its payload (protocol smoke tests)."""
    return payload


@dataclass
class WorkerReport:
    """What one ``serve()`` lifetime did (logged and returned)."""

    host: str
    tasks_completed: int = 0
    tasks_failed: int = 0
    heartbeats_sent: int = 0
    rows_journaled: int = 0
    spans_journaled: int = 0
    #: Why the loop ended: "shutdown" (coordinator said so),
    #: "disconnected" (coordinator vanished), "partitioned" (an injected
    #: host_partition dropped the socket).
    stopped: str = "shutdown"
    elapsed_s: float = 0.0

    def format(self) -> str:
        return (
            f"worker {self.host}: {self.tasks_completed} task(s) completed, "
            f"{self.tasks_failed} failed, {self.rows_journaled} row(s) "
            f"journaled, stopped: {self.stopped} "
            f"({self.elapsed_s:.1f}s)"
        )


class WorkerDaemon:
    """One registered worker: lease tasks, execute, journal, report.

    Runs blocking in the calling thread — the CLI's process *is* the
    worker; tests run daemons on background threads against an
    in-process coordinator.
    """

    def __init__(
        self,
        address: str,
        host: Optional[str] = None,
        run_dir=None,
        cache_dir=None,
        fault_plan=None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        connect_retries: int = DEFAULT_CONNECT_RETRIES,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ConfigError(
                "worker heartbeat interval must be > 0 seconds",
                heartbeat_interval=heartbeat_interval,
            )
        self.address = parse_address(address)
        self.host = host or default_host_name()
        self.run_dir = run_dir
        self.cache_dir = cache_dir
        self.fault_plan = fault_plan
        self.heartbeat_interval = heartbeat_interval
        self.connect_retries = max(0, connect_retries)
        self._sock: Optional[socket.socket] = None
        self._fns: dict = {}
        self._span_writer = None

    # ----------------------------------------------------------- lifecycle
    def _connect(self) -> socket.socket:
        last_error: Optional[Exception] = None
        for attempt in range(self.connect_retries + 1):
            try:
                return socket.create_connection(self.address, timeout=10.0)
            except OSError as error:
                last_error = error
                if attempt < self.connect_retries:
                    time.sleep(CONNECT_RETRY_DELAY_S)
        raise ConfigError(
            f"cannot reach coordinator at "
            f"{self.address[0]}:{self.address[1]} after "
            f"{self.connect_retries + 1} attempt(s): {last_error}",
            address=f"{self.address[0]}:{self.address[1]}",
        )

    def serve(self) -> WorkerReport:
        """Register and drain tasks until shutdown or a lost coordinator."""
        from repro.perf.executor import _init_worker

        report = WorkerReport(host=self.host)
        started = time.monotonic()
        # The same per-process artifact cache (and SIGINT discipline)
        # every pool worker gets: the parent/coordinator owns shutdown.
        _init_worker(self.cache_dir)
        journal = self._open_journal()
        sock = self._connect()
        self._sock = sock
        try:
            send_message(
                sock,
                "register",
                host=self.host,
                pid=os.getpid(),
                version=PROTOCOL_VERSION,
            )
            welcome = recv_message(sock)
            if welcome is None or welcome[0] != "welcome":
                raise ProtocolError(
                    "coordinator did not welcome the registration",
                    got=None if welcome is None else welcome[0],
                )
            if welcome[1].get("version") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version skew: coordinator speaks "
                    f"{welcome[1].get('version')}, worker speaks "
                    f"{PROTOCOL_VERSION}",
                )
            log.info("worker %s registered with %s:%d",
                     self.host, self.address[0], self.address[1])
            sock.settimeout(self.heartbeat_interval)
            self._loop(sock, report, journal)
        except ProtocolError:
            report.stopped = "disconnected"
        finally:
            report.elapsed_s = time.monotonic() - started
            if journal is not None:
                journal.close()
            if self._span_writer is not None:
                self._span_writer.close()
                self._span_writer = None
            try:
                sock.close()
            except OSError:  # pragma: no cover - already dead
                pass
            self._sock = None
        log.info("%s", report.format())
        return report

    def _open_journal(self):
        if self.run_dir is None:
            return None
        from repro.robustness.journal import RunJournal

        return RunJournal(self.run_dir, shard=self.host)

    # ---------------------------------------------------------------- loop
    def _loop(self, sock: socket.socket, report: WorkerReport, journal) -> None:
        while True:
            try:
                message = recv_message(sock)
            except socket.timeout:
                send_message(sock, "heartbeat", host=self.host)
                report.heartbeats_sent += 1
                continue
            if message is None:
                report.stopped = "disconnected"
                return
            kind, data = message
            if kind == "shutdown":
                report.stopped = "shutdown"
                return
            if kind == "ping":
                send_message(sock, "heartbeat", host=self.host)
                report.heartbeats_sent += 1
                continue
            if kind == "task":
                if not self._run_task(sock, data, report, journal):
                    return
                continue
            log.warning("worker %s ignoring unknown frame %r", self.host, kind)

    def _run_task(
        self, sock: socket.socket, data: dict, report: WorkerReport, journal
    ) -> bool:
        """Execute one leased task; False ends the serve loop (partition)."""
        ticket = data["ticket"]
        benchmark = data.get("benchmark", "?")
        part = data.get("part", "?")
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.host_fault(
                benchmark, part, data.get("dispatch", 0)
            )
        if fault == "host_kill":
            # A crashed host: the TCP connection drops with us.
            os.kill(os.getpid(), signal.SIGKILL)
        if fault == "host_stall":
            while True:  # a hung host: the coordinator's deadline ends this
                time.sleep(60.0)
        started = time.perf_counter()
        try:
            fn = self._task_fn(data["fn"])
            value = fn(data["payload"])
            ok = True
            error_text = None
        except Exception as error:  # noqa: BLE001 - shipped home, not raised
            value = None
            ok = False
            error_text = f"{type(error).__name__}: {error}"
            report.tasks_failed += 1
            log.warning(
                "worker %s task %s:%s failed: %s",
                self.host, benchmark, part, error_text,
            )
        elapsed = time.perf_counter() - started
        if ok:
            report.tasks_completed += 1
            if journal is not None and data.get("key"):
                # Durable on this host before the result crosses the
                # network: a coordinator loss cannot orphan the work.
                journal.record_completed(
                    data["key"],
                    data.get("fingerprint", ""),
                    artifact_value=value,
                    elapsed_s=elapsed,
                )
                report.rows_journaled += 1
            self._journal_spans(data, value, report)
        if fault == "host_partition":
            # Healthy host, dead network: the work is done — and durable
            # on this shard — but the result never crosses the wire.
            # The coordinator must requeue it, and any later copy of the
            # row (from the re-dispatch's host) must dedup cleanly.
            sock.close()
            report.stopped = "partitioned"
            return False
        send_message(
            sock,
            "result",
            ticket=ticket,
            host=self.host,
            ok=ok,
            value=value,
            error=error_text,
            elapsed_s=elapsed,
        )
        return True

    def _task_fn(self, spec: str):
        fn = self._fns.get(spec)
        if fn is None:
            fn = resolve_task_fn(spec)
            self._fns[spec] = fn
        return fn

    def _journal_spans(self, data: dict, value, report: WorkerReport) -> None:
        """Journal this task's deterministic spans into our shard.

        The frame's ``span_fn`` (``module:qualname``, same discipline as
        ``fn``) rebuilds the spans from the task value; content-derived
        span ids make the records identical to the driver's own, so the
        merge dedupes them.  Durable host-side before the result is sent,
        like journal rows — span tracing must never fail a task.
        """
        trace_id = data.get("trace_id")
        span_fn_spec = data.get("span_fn")
        if not trace_id or not span_fn_spec or self.run_dir is None:
            return
        try:
            if self._span_writer is None:
                from repro.obs.spans import SpanWriter

                self._span_writer = SpanWriter(self.run_dir, shard=self.host)
                self._span_writer.trace_id = trace_id
            span_fn = self._task_fn(span_fn_spec)
            report.spans_journaled += self._span_writer.write_all(
                span_fn(trace_id, value)
            )
        except Exception as error:  # noqa: BLE001 - observability only
            log.warning(
                "worker %s could not journal spans: %s", self.host, error
            )


def serve_worker(
    address: str,
    host: Optional[str] = None,
    run_dir=None,
    cache_dir=None,
    fault_plan_file=None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    connect_retries: int = DEFAULT_CONNECT_RETRIES,
) -> WorkerReport:
    """CLI entry: build and run a :class:`WorkerDaemon`.

    ``fault_plan_file`` (chaos/CI) is a JSON file holding a serialized
    :class:`~repro.robustness.faultinject.FaultPlan` of host faults.
    """
    fault_plan = None
    if fault_plan_file is not None:
        import json

        from repro.robustness.faultinject import FaultPlan

        try:
            with open(fault_plan_file, "r", encoding="utf-8") as fh:
                fault_plan = FaultPlan.from_dict(json.load(fh))
        except (OSError, ValueError) as error:
            raise ConfigError(
                f"cannot load fault plan {fault_plan_file!r}: {error}",
                fault_plan=str(fault_plan_file),
            ) from None
    daemon = WorkerDaemon(
        address,
        host=host,
        run_dir=run_dir,
        cache_dir=cache_dir,
        fault_plan=fault_plan,
        heartbeat_interval=heartbeat_interval,
        connect_retries=connect_retries,
    )
    return daemon.serve()


__all__ = [
    "DEFAULT_CONNECT_RETRIES",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "WorkerDaemon",
    "WorkerReport",
    "default_host_name",
    "echo_task",
    "resolve_task_fn",
    "serve_worker",
]
