"""Process, thread and shared-memory hygiene for one benchmark run.

A :class:`Lifecycle` brackets a whole run. While it is open it

- records every weight segment a :class:`~repro.serving.PoolServer`
  creates, by wrapping ``SharedWeightStore.create`` (the class attribute
  ``PoolServer.start`` resolves), so the segment names are known even when
  the run has to be torn down from outside;
- runs a watchdog: past the deadline it terminates every replica process,
  unlinks every recorded segment, stops the multiprocessing resource
  tracker and exits the interpreter with :data:`OVERRUN_EXIT`, without
  printing a result.

:meth:`Lifecycle.check_clean` is the per-workload assertion that no
replica, server thread or segment outlived the workload.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import threading
import time

#: Exit status of a run the watchdog ended.
OVERRUN_EXIT = 3


class LifecycleError(RuntimeError):
    """Something the benchmark started outlived the workload."""


def stop_resource_tracker(timeout_s: float = 5.0) -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The tracker is started implicitly by the first shared-memory segment
    and otherwise outlives this process by a moment. ``_stop`` closes its
    pipe and reaps it; it is called from a helper thread so a tracker lock
    held elsewhere cannot hang the exit path.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is None:
        return
    t = threading.Thread(target=stop, name="perfbench-tracker-stop",
                         daemon=True)
    t.start()
    t.join(timeout_s)


def terminate_children(timeout_s: float = 5.0) -> None:
    """Terminate, then kill, every live multiprocessing child; reap them."""
    children = multiprocessing.active_children()
    for p in children:
        p.terminate()
    for p in children:
        p.join(timeout_s)
        if p.is_alive():
            p.kill()
            p.join(timeout_s)


class Lifecycle:
    """Tracks what one run creates and removes it however the run ends."""

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self._t0 = time.monotonic()
        self.segments: list[str] = []
        self._stores: list[object] = []
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._watchdog: threading.Thread | None = None
        self._orig_create: object | None = None

    # ---- bracket ------------------------------------------------------------

    def __enter__(self) -> "Lifecycle":
        from repro.runtime.shm import SharedWeightStore

        orig = SharedWeightStore.__dict__["create"]
        create_fn = orig.__func__

        def create(cls, *args, **kwargs):
            store = create_fn(cls, *args, **kwargs)
            with self._lock:
                self._stores.append(store)
                self.segments.append(store.manifest.segment)
            print(f"perfbench: shm segment {store.manifest.segment}",
                  file=sys.stderr, flush=True)
            return store

        SharedWeightStore.create = classmethod(create)
        self._orig_create = orig
        self._watchdog = threading.Thread(
            target=self._watch, name="perfbench-watchdog", daemon=True)
        self._watchdog.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._done.set()
        if self._watchdog is not None:
            self._watchdog.join(5.0)
        from repro.runtime.shm import SharedWeightStore

        SharedWeightStore.create = self._orig_create
        # Normal runs stop every server in ``finally``; this only acts
        # when a workload raised before its own teardown finished.
        terminate_children()
        self._unlink_all()
        stop_resource_tracker()

    # ---- watchdog -----------------------------------------------------------

    def _watch(self) -> None:
        if self._done.wait(self.remaining_s()):
            return
        print(f"perfbench: run overran its {self.deadline_s:g} s deadline; "
              f"terminating replicas", file=sys.stderr, flush=True)
        terminate_children()
        self._unlink_all()
        stop_resource_tracker()
        sys.stderr.flush()
        os._exit(OVERRUN_EXIT)

    def _unlink_all(self) -> None:
        with self._lock:
            stores = list(self._stores)
        for store in stores:
            store.unlink()  # idempotent; a stopped pool already unlinked it

    # ---- checks -------------------------------------------------------------

    def check_clean(self) -> None:
        """Raise unless every replica, server thread and segment is gone."""
        from repro.runtime.shm import segment_exists

        alive = multiprocessing.active_children()
        if alive:
            raise LifecycleError(
                f"replica processes outlived the workload: "
                f"{[p.name for p in alive]}")
        with self._lock:
            names = list(self.segments)
        leaked = [n for n in names if segment_exists(n)]
        if leaked:
            raise LifecycleError(f"shared-memory segments leaked: {leaked}")
        # A stopped pool's queues close their feeder threads when they are
        # collected; the pool sits in a reference cycle, so collect now.
        gc.collect()
        ours = {threading.main_thread(), self._watchdog}
        others = [t for t in threading.enumerate() if t not in ours]
        for t in others:
            t.join(1.0)
        threads = [t.name for t in others if t.is_alive()]
        if threads:
            raise LifecycleError(f"threads outlived the workload: {threads}")

    def remaining_s(self) -> float:
        """Seconds left before the watchdog fires (for result timeouts)."""
        return self.deadline_s - (time.monotonic() - self._t0)
