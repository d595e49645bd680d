"""The distributed sweep coordinator: a multi-host ``SweepExecutor``.

:class:`DistributedExecutor` fans sweep tasks out to worker daemons
(:mod:`repro.dist.worker`) over the length-prefixed TCP protocol of
:mod:`repro.dist.protocol`, and treats *host loss* the way the
multicluster paper treats inter-cluster transfers: an expected,
bounded-cost event that must never corrupt the global result.

The fault-containment ledger:

==========================  ===========================================
observation                 response
==========================  ===========================================
connection EOF / error      the host died or partitioned
(``host_kill``,             (``host_partition``) — drop its lease,
socket dropped)             requeue its in-flight task under the seeded
                            backoff, count one host loss
task deadline expired       the host is wedged (``host_stall``) or its
                            result is lost in flight — same response,
                            plus the connection is closed so a late
                            result cannot double-count
idle lease expired          a silent host (no heartbeat inside
                            ``LEASE_TIMEOUT_S``) — deregistered before it
                            can be handed work
loss/redispatch budget      the **degradation cascade**: remaining
exhausted, or every host    tasks move to a local
gone, or nobody registered  :class:`SupervisedPoolExecutor` (which can
                            itself degrade to in-process serial), each
                            step recorded as an
                            :class:`ExecutorDegradation` event — the
                            sweep always completes, bit-identical
==========================  ===========================================

Exactness under all of that rests on two invariants shared with the
single-host executors: tasks are pure functions of their payloads (so a
re-dispatch, a different host, or the degraded path cannot change a
value), and results are deduplicated by **content-fingerprint row key**
— each task carries ``(key, fingerprint)`` derived from everything that
determines its value, a result is accepted only while its key is open,
and duplicates (a partitioned host's late delivery, two hosts racing
the same requeued task) are dropped and counted, never double-counted.

Workers journal finished rows into per-host shards
(``journal-<host>.jsonl``); :func:`repro.robustness.journal.merge_journals`
folds the shards — plus the coordinator's own journal — back into one
resume-equivalent directory, which is what makes a sharded sweep
restartable after losing *any* host, including the coordinator's.
"""

from __future__ import annotations

import collections
import itertools
import logging
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.dist.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from repro.errors import ConfigError
from repro.obs.metrics import dist_metrics
from repro.perf.executor import (
    MIN_TASK_TIMEOUT,
    POLL_TICK_S,
    SupervisedPoolExecutor,
    SweepExecutor,
    SweepTask,
    TaskLiveness,
    TaskResult,
)
from repro.robustness.retry import RetryPolicy

log = logging.getLogger("repro.dist.coordinator")

#: Seconds an *idle* registered host may stay silent before its lease
#: expires (workers heartbeat well inside this).
LEASE_TIMEOUT_S = 10.0

#: Seconds the coordinator waits for ``min_hosts`` registrations before
#: dispatching (and before degrading, if nobody shows up at all).
DEFAULT_WAIT_FOR_HOSTS = 10.0

#: Blocking-send timeout towards a worker; a host that cannot even
#: drain a task frame inside this is treated as lost.
SEND_TIMEOUT_S = 10.0


def task_row_key(task: SweepTask) -> str:
    """The journal/dedup row key for one distributed task."""
    return f"part:{task.benchmark}:{task.part}"


def task_fingerprint(task: SweepTask) -> str:
    """Content fingerprint of everything that determines a task's value.

    Reuses :func:`~repro.robustness.journal.options_fingerprint` (the
    resume discipline) when the task carries real
    :class:`~repro.experiments.harness.EvaluationOptions`; tasks with
    opaque or absent options fall back to the identity triple alone.
    """
    from repro.perf.fingerprint import fingerprint

    options_print = ""
    if task.options is not None:
        from repro.robustness.journal import options_fingerprint

        try:
            options_print = options_fingerprint(task.options)
        except (AttributeError, TypeError):
            options_print = ""
    return fingerprint(
        ("dist-task/v1", task.benchmark, task.part, options_print)
    )


@dataclass
class HostLease:
    """One connected worker in the host registry."""

    host_id: int
    sock: socket.socket
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    #: The worker's self-reported host name (``None`` until registered).
    name: Optional[str] = None
    pid: Optional[int] = None
    #: Ticket of the task currently leased to this host, if any.
    busy_ticket: Optional[int] = None
    tasks_completed: int = 0

    @property
    def registered(self) -> bool:
        return self.name is not None

    @property
    def label(self) -> str:
        return self.name if self.name is not None else f"conn-{self.host_id}"


class DistributedExecutor(SweepExecutor):
    """Run sweep tasks on remote worker daemons, tolerating host loss.

    Implements the :class:`SweepExecutor` contract, so every sweep
    driver that speaks ``submit``/``poll``/``cancel`` distributes
    unchanged.  ``jobs`` sizes the *fallback* pool (capacity on the
    happy path is however many hosts register); ``task_fn`` must be a
    module-level callable — it crosses the wire by ``module:qualname``
    reference, never by pickle.
    """

    kind = "distributed"
    metric_prefix = "dist"
    breaker_reason = "host-circuit-breaker"

    def __init__(
        self,
        task_fn: Callable[[tuple], Any],
        jobs: int,
        cache_dir=None,
        *,
        bind: str = "127.0.0.1",
        port: int = 0,
        task_timeout: float = MIN_TASK_TIMEOUT,
        redispatch_budget: int = 2,
        redispatch_policy: Optional[RetryPolicy] = None,
        min_hosts: int = 1,
        wait_for_hosts_s: float = DEFAULT_WAIT_FOR_HOSTS,
        spans=None,
    ) -> None:
        super().__init__(
            task_fn,
            jobs,
            cache_dir,
            task_timeout=task_timeout,
            redispatch_budget=redispatch_budget,
            redispatch_policy=redispatch_policy,
            metrics=dist_metrics(),
            spans=spans,
        )
        if min_hosts < 1:
            raise ConfigError(
                "distributed executor needs min_hosts >= 1",
                min_hosts=min_hosts,
            )
        self._task_fn_spec = f"{task_fn.__module__}:{task_fn.__qualname__}"
        self.min_hosts = min_hosts
        self.wait_for_hosts_s = wait_for_hosts_s
        self.max_host_losses = 2 * min_hosts + 2

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((bind, port))
        except OSError as error:
            self._listener.close()
            raise ConfigError(
                f"cannot bind coordinator to {bind}:{port}: {error}",
                bind=bind,
                port=port,
            ) from None
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)

        self._hosts: dict[int, HostLease] = {}
        self._idle: list[int] = []
        self._host_seq = itertools.count(1)
        self._ready: list[TaskResult] = []
        self._host_liveness = TaskLiveness()  # keyed by host_id
        self._inner: Optional[SupervisedPoolExecutor] = None
        self._hosts_awaited = False
        self._closed = False
        self.host_losses = 0

    # -------------------------------------------------------------- address
    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) workers should ``--connect`` to."""
        return self._listener.getsockname()

    @property
    def registered_hosts(self) -> list[str]:
        return [
            lease.label for lease in self._hosts.values() if lease.registered
        ]

    # ------------------------------------------------------------ lifecycle
    def cancel(self) -> int:
        cancelled = len(self._open)
        self._open.clear()
        self._pending.clear()
        if self._inner is not None:
            self._inner.cancel()
        self._shutdown_network()
        return cancelled

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._inner is not None:
            self._inner.close()
        self._shutdown_network()

    def _step(self, timeout: Optional[float]) -> list[TaskResult]:
        if self._inner is not None:
            return self._poll_inner(timeout)
        self._await_hosts()
        if self._inner is not None:
            return []
        self._service(POLL_TICK_S)
        self._expire_host_leases()
        self._expire_overdue_tasks()
        self._dispatch_ready()
        ready, self._ready = self._ready, []
        return ready

    # ------------------------------------------------------- host registry
    def _await_hosts(self) -> None:
        """Block (servicing the socket) until enough hosts registered.

        Runs once, lazily, at the first poll: workers race the
        coordinator's startup, so dispatch waits up to
        ``wait_for_hosts_s`` for ``min_hosts`` registrations.  Nobody at
        the deadline means the deployment is broken — degrade
        immediately rather than hang a sweep that could run locally.
        """
        if self._hosts_awaited:
            return
        self._hosts_awaited = True
        deadline = time.monotonic() + self.wait_for_hosts_s
        while (
            len(self.registered_hosts) < self.min_hosts
            and time.monotonic() < deadline
        ):
            self._service(POLL_TICK_S)
        registered = len(self.registered_hosts)
        if registered == 0:
            self._degrade(
                reason="no-hosts",
                detail=(
                    f"no worker registered within {self.wait_for_hosts_s:.1f}s;"
                    " is 'repro worker serve --connect "
                    f"{self.address[0]}:{self.address[1]}' running?"
                ),
            )
        elif registered < self.min_hosts:
            log.warning(
                "dispatching with %d host(s), below the requested minimum "
                "of %d", registered, self.min_hosts,
            )

    def _accept_connection(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError:  # pragma: no cover - accept raced a close
            return
        conn.settimeout(SEND_TIMEOUT_S)
        lease = HostLease(host_id=next(self._host_seq), sock=conn)
        self._hosts[lease.host_id] = lease
        self._selector.register(conn, selectors.EVENT_READ, lease)

    def _service(self, budget_s: float) -> None:
        """One bounded pass of the socket loop: accept + read + handle."""
        if self._closed:
            return
        for key, _mask in self._selector.select(timeout=budget_s):
            if key.data is None:
                self._accept_connection()
            else:
                self._read_host(key.data)
            if self._inner is not None:
                return

    def _read_host(self, lease: HostLease) -> None:
        try:
            data = lease.sock.recv(1 << 16)
        except (socket.timeout, BlockingIOError):  # pragma: no cover
            return
        except OSError as error:
            self._lose_host(lease, f"connection error ({error})")
            return
        if not data:
            self._lose_host(lease, "connection closed")
            return
        try:
            messages = lease.decoder.feed(data)
        except ProtocolError as error:
            self._lose_host(lease, f"protocol violation ({error.message})")
            return
        for kind, payload in messages:
            self._handle(lease, kind, payload)
            if lease.host_id not in self._hosts:
                return  # the handler dropped this host

    def _handle(self, lease: HostLease, kind: str, payload: dict) -> None:
        if kind == "register":
            version = payload.get("version")
            if version != PROTOCOL_VERSION:
                self._send(
                    lease,
                    encode_frame("goodbye", {"reason": "version skew"}),
                )
                self._drop_connection(lease, f"version skew ({version})")
                return
            lease.name = str(payload.get("host") or lease.label)
            lease.pid = payload.get("pid")
            if not self._send(
                lease, encode_frame("welcome", {"version": PROTOCOL_VERSION})
            ):
                return
            self._idle.append(lease.host_id)
            self._host_liveness.start(lease.host_id, LEASE_TIMEOUT_S)
            self._wall.begin(
                ("host", lease.host_id), "host_lease", lease.name, pid=lease.pid
            )
            self.metrics.counter("dist_hosts_registered").inc()
            self.metrics.counter(
                "dist_host_tasks_completed", host=lease.name
            )  # pre-register the per-host series at zero
            log.info(
                "host %s registered (pid %s); %d host(s) attached",
                lease.name, lease.pid, len(self.registered_hosts),
            )
            return
        if not lease.registered:
            self._drop_connection(lease, f"{kind!r} before registration")
            return
        if kind == "heartbeat":
            self._renew_lease(lease)
            return
        if kind == "result":
            self._handle_result(lease, payload)
            return
        log.warning("ignoring unknown frame %r from host %s", kind, lease.label)

    def _renew_lease(self, lease: HostLease) -> None:
        # A busy host's lease is governed by its task's deadline (plus
        # slack); an idle one must keep heartbeating.
        if lease.host_id not in self._hosts:
            return
        if lease.busy_ticket is not None:
            self._host_liveness.renew(
                lease.host_id, self.task_timeout + LEASE_TIMEOUT_S
            )
        else:
            self._host_liveness.renew(lease.host_id, LEASE_TIMEOUT_S)

    def _handle_result(self, lease: HostLease, payload: dict) -> None:
        ticket = payload.get("ticket")
        self._liveness.finish(ticket)
        self._wall.end(
            ("ticket", ticket), ok=bool(payload.get("ok", False)), host=lease.label
        )
        if lease.busy_ticket == ticket:
            lease.busy_ticket = None
            if lease.host_id in self._hosts:
                self._idle.append(lease.host_id)
        self._renew_lease(lease)
        token = self._tickets.get(ticket)
        if token not in self._open:
            # Cross-host dedup: the row key already completed elsewhere
            # (a requeued task raced its original host, or a partition
            # healed late).  Content-fingerprint keys make this a safe
            # drop, never a double count.
            self.metrics.counter("dist_duplicate_results").inc()
            log.info(
                "dropping duplicate result from host %s (ticket %s)",
                lease.label, ticket,
            )
            return
        if not payload.get("ok", False):
            log.warning(
                "task %s failed on host %s: %s",
                token, lease.label, payload.get("error"),
            )
            self._requeue(
                ticket, f"failed on host {lease.label}: {payload.get('error')}"
            )
            return
        lease.tasks_completed += 1
        self.metrics.counter(
            "dist_host_tasks_completed", host=lease.label
        ).inc()
        self._ready.append(self._complete(ticket, payload.get("value")))

    def _send(self, lease: HostLease, frame: bytes) -> bool:
        try:
            lease.sock.sendall(frame)
            return True
        except OSError as error:
            self._lose_host(lease, f"send failed ({error})")
            return False

    def _drop_connection(self, lease: HostLease, reason: str) -> None:
        """Remove a connection that never counted as a host (no loss)."""
        log.warning("dropping connection %s: %s", lease.label, reason)
        self._forget(lease)

    def _forget(self, lease: HostLease) -> None:
        self._hosts.pop(lease.host_id, None)
        if lease.host_id in self._idle:
            self._idle.remove(lease.host_id)
        self._release_affinity(lease.host_id)
        self._host_liveness.finish(lease.host_id)
        try:
            self._selector.unregister(lease.sock)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            lease.sock.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def _lose_host(self, lease: HostLease, reason: str) -> None:
        """A registered host died/partitioned/wedged: account + requeue."""
        if lease.host_id not in self._hosts:
            return
        registered = lease.registered
        ticket = lease.busy_ticket
        self._forget(lease)
        if not registered:
            return  # an unregistered connection is not a host loss
        self.host_losses += 1
        self.metrics.counter("dist_host_losses").inc()
        self.metrics.counter("dist_host_losses", host=lease.label).inc()
        self._wall.end(
            ("host", lease.host_id),
            ok=False,
            reason=reason,
            tasks_completed=lease.tasks_completed,
        )
        log.warning("lost host %s: %s", lease.label, reason)
        if ticket is not None:
            self._liveness.finish(ticket)
            self._wall.end(("ticket", ticket), ok=False, reason=reason)
            self._requeue(ticket, reason)
        if self._inner is not None:
            return
        if self.host_losses > self.max_host_losses:
            self._degrade(
                reason="host-circuit-breaker",
                detail=(
                    f"{self.host_losses} host losses exceed the budget of "
                    f"{self.max_host_losses}"
                ),
            )
        elif not self.registered_hosts and self._open:
            self._degrade(
                reason="all-hosts-lost",
                detail=(
                    f"every registered host is gone with "
                    f"{len(self._open)} task(s) outstanding"
                ),
            )

    # ------------------------------------------------------------ deadlines
    def _expire_host_leases(self) -> None:
        for host_id in self._host_liveness.overdue():
            lease = self._hosts.get(host_id)
            if lease is None:  # pragma: no cover - raced removal
                self._host_liveness.finish(host_id)
                continue
            self._lose_host(
                lease,
                f"lease expired (silent for {LEASE_TIMEOUT_S:.1f}s)",
            )
            self.metrics.counter("dist_lease_expirations").inc()
            if self._inner is not None:
                return

    def _expire_overdue_tasks(self) -> None:
        for ticket in self._liveness.overdue():
            lease = next(
                (
                    entry
                    for entry in self._hosts.values()
                    if entry.busy_ticket == ticket
                ),
                None,
            )
            self.metrics.counter("dist_task_deadline_expirations").inc()
            if lease is not None:
                # Close the connection too: a stalled host that wakes up
                # must not deliver a late result over a live socket.
                self._lose_host(
                    lease,
                    f"task deadline ({self.task_timeout:.1f}s) expired "
                    "(wedged host or result lost in flight)",
                )
            else:  # pragma: no cover - ticket raced its host's removal
                self._liveness.finish(ticket)
                self._requeue(ticket, "task deadline expired")
            if self._inner is not None:
                return

    # ------------------------------------------------------------- dispatch
    def _dispatch_ready(self) -> None:
        if self._inner is not None:
            # Past the cascade's first step the fallback pool is the
            # only worker: it takes every ready task (and does its own
            # affinity dispatch).
            while (issued := self._next_ready(self._inner, 1)) is not None:
                self._inner.submit(issued[1])
            return
        while self._idle:
            issued = self._next_ready(self._idle[-1], len(self.registered_hosts))
            if issued is None:
                return
            ticket, task, dispatch = issued
            lease = self._hosts[self._idle.pop()]
            body = {
                "ticket": ticket,
                "benchmark": task.benchmark,
                "part": task.part,
                "payload": task.payload(),
                "dispatch": dispatch,
                "fn": self._task_fn_spec,
                "key": task_row_key(task),
                "fingerprint": task_fingerprint(task),
            }
            if self._spans is not None and self._spans.trace_id:
                # Workers journal their own span shards: the frame
                # carries the trace id plus a module:qualname builder
                # reference (same discipline as ``fn`` — never pickle).
                body["trace_id"] = self._spans.trace_id
                body["span_fn"] = "repro.obs.spans:sweep_task_value_spans"
            if not self._send(lease, encode_frame("task", body)):
                # _lose_host requeued nothing (the task was not yet
                # leased to it); put the token back for another host.
                del self._tickets[ticket]
                self._dispatches[task.token] = dispatch
                if self._inner is not None:
                    return  # the failed send tripped the cascade
                self._pending.append((task.token, 0.0))
                continue
            lease.busy_ticket = ticket
            self._liveness.start(ticket, self.task_timeout)
            self._wall.begin(
                ("ticket", ticket),
                "dispatch",
                task.token,
                host=lease.label,
                dispatch=dispatch,
            )
            self._renew_lease(lease)
            self.metrics.counter("dist_dispatches").inc()

    # ----------------------------------------------------------- degrading
    def _degrade(self, reason: str, detail: str) -> None:
        """Step down the cascade: remote hosts -> a local
        :class:`SupervisedPoolExecutor`, whose own circuit breaker
        provides the final serial step.  The fallback pool appends to
        this executor's :attr:`degradations`, so the whole cascade reads
        as one ordered list and the sweep finishes bit-identical."""
        self._record_degradation(reason, detail, self.host_losses)
        self._shutdown_network()
        self._liveness = TaskLiveness()  # no remote ticket is in flight
        self._inner = SupervisedPoolExecutor(
            self._task_fn,
            self._jobs,
            self._cache_dir,
            task_timeout=self.task_timeout,
            redispatch_budget=self.redispatch_budget,
            redispatch_policy=self._policy,
            spans=self._spans,
        )
        self._inner.degradations = self.degradations
        self._pending = collections.deque((token, 0.0) for token in self._open)
        self._dispatch_ready()

    def _poll_inner(self, timeout: Optional[float]) -> list[TaskResult]:
        results = self._inner.poll(timeout=timeout or POLL_TICK_S)
        for result in results:
            self._open.pop(result.task.token, None)
            self.metrics.counter("dist_tasks_completed").inc()
        return results

    # ------------------------------------------------------------- teardown
    def _shutdown_network(self) -> None:
        self._wall.close(reason="shutdown")
        goodbye = encode_frame("shutdown", {})
        for lease in list(self._hosts.values()):
            if lease.registered:
                try:
                    lease.sock.sendall(goodbye)
                except OSError:
                    pass
            self._forget(lease)
        self._idle.clear()
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass


__all__ = [
    "DEFAULT_WAIT_FOR_HOSTS",
    "LEASE_TIMEOUT_S",
    "DistributedExecutor",
    "HostLease",
    "task_fingerprint",
    "task_row_key",
]
