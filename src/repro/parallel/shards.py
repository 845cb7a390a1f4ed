"""Sharded multi-process execution of the fused kernels.

The thread pool of :mod:`repro.parallel.executor` runs the fused
wide-lane kernel on real OS threads, but every numpy call still takes
the GIL for its Python-level dispatch.  At serving widths the arrays
per worker are small (a handful of tasks x 32 lanes), so dispatch —
not arithmetic — dominates and the workers convoy on the GIL: on a
one-core host, 8 threads decode ~7x *slower* than 1 (see
docs/BENCHMARKS.md).  Recoil's split decoders are completely
independent (paper §3.1: no shared states, no shared offsets), which
makes partition-level sharding across OS *processes* safe: each worker
owns disjoint tasks and writes disjoint slices of the output, so
nothing needs a lock and nothing needs the same interpreter.

Layout (DESIGN.md §14):

- A :class:`ShardedExecutor` keeps a persistent pool of worker
  processes, each holding a long-lived :class:`~repro.parallel.simd.LaneEngine`
  (scratch arena reused across jobs) and a provider cache keyed by
  model fingerprint, so steady-state jobs ship **no model data**.
- Input word buffers and the output symbol array live in
  ``multiprocessing.shared_memory`` segments; workers map them and run
  the existing fused kernels zero-copy against disjoint slices.  Only
  small task descriptors (:class:`~repro.parallel.simd.ThreadTask`)
  and segment names cross the pipe.
- Shard planning reuses :func:`repro.parallel.costmodel.assign_tasks`
  (LPT over estimated walked symbols) so stragglers balance across
  processes exactly as they do across threads.
- A worker crash fails the in-flight job with
  :class:`~repro.errors.ParallelismError` and the parent unlinks every
  shared-memory segment it created (workers never own segments).  The
  pool then **self-heals**: the dead worker is respawned before the
  next dispatch, under capped exponential backoff, and the pool only
  goes terminally ``broken`` after a worker crash-loops past
  ``max_respawn_attempts`` consecutive deaths (DESIGN.md §15).
- The real failure surfaces are instrumented as :mod:`repro.faults`
  points (``shm.alloc``/``shm.attach``, ``pipe.send``/``pipe.recv``,
  ``worker.job``/``worker.crash``) so the chaos suite can drive every
  one of them deterministically.  Worker-side verdicts are evaluated
  in the parent and ship with the job.

When shared memory is unavailable (no writable ``/dev/shm``, missing
platform support), :func:`sharding_available` is ``False`` and callers
fall back to the thread backend — see
:func:`repro.parallel.executor.decode_with_pool`.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import faults, trace
from repro.errors import FaultInjected, ParallelismError, ReproError
from repro.parallel.costmodel import assign_tasks
from repro.parallel.executor import PoolDecodeResult
from repro.parallel.fused import (
    MultiRunResult,
    StreamSegment,
    fuse_segments,
)
from repro.parallel.simd import EngineStats, LaneEngine, ThreadTask
from repro.rans.adaptive import AdaptiveModelProvider, provider_fingerprint

_SHM_PREFIX = "rcl_"


def combine_stats(per_worker: list[EngineStats]) -> EngineStats:
    """Aggregate per-shard stats into one :class:`EngineStats`.

    Work counters (symbols, words, tasks) add; iteration counters take
    the maximum, since shards run concurrently.
    """
    total = EngineStats()
    for s in per_worker:
        total.tasks += s.tasks
        total.symbols_decoded += s.symbols_decoded
        total.words_read += s.words_read
        total.iterations = max(total.iterations, s.iterations)
        total.max_task_iterations = max(
            total.max_task_iterations, s.max_task_iterations
        )
    return total


# ---------------------------------------------------------------------------
# Shared-memory plumbing.
# ---------------------------------------------------------------------------


def sharding_available() -> bool:
    """Whether POSIX shared memory works here (cached probe)."""
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            from multiprocessing import shared_memory

            # Random suffix (like _new_shm): a fixed pid-based name
            # could collide with a stale segment from a crashed
            # process whose pid was reused, caching a false negative.
            probe = shared_memory.SharedMemory(
                create=True,
                size=16,
                name=f"{_SHM_PREFIX}probe_{secrets.token_hex(6)}",
            )
            probe.close()
            probe.unlink()
            _AVAILABLE = True
        except Exception:
            _AVAILABLE = False
    return _AVAILABLE


_AVAILABLE: bool | None = None


def _new_shm(size: int):
    faults.fire(faults.SHM_ALLOC)
    from multiprocessing import shared_memory

    name = f"{_SHM_PREFIX}{os.getpid()}_{secrets.token_hex(6)}"
    return shared_memory.SharedMemory(create=True, size=max(size, 1), name=name)


def _attach_shm(name: str):
    """Attach to a parent-owned segment.

    Workers share the parent's resource-tracker daemon (fork keeps the
    pipe), and the tracker's registry is a set — the duplicate
    registration an attach performs is harmless, and the parent's
    single ``unlink`` clears it.  Workers must never unregister or
    unlink: the parent alone owns segment lifetime.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def _release_shm(shm, unlink: bool) -> None:
    try:
        shm.close()
    except Exception:
        pass
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Worker process.
# ---------------------------------------------------------------------------


def _strip_tracebacks(exc: BaseException, depth: int = 8) -> BaseException:
    """Drop traceback chains before shipping an exception to the parent.

    Tracebacks pin the worker's stack frames, whose locals include the
    numpy views over the shared-memory segments — keeping them alive
    would make the post-job ``shm.close()`` raise ``BufferError``.
    """
    while exc is not None and depth > 0:
        exc.__traceback__ = None
        if exc.__cause__ is not None and exc.__cause__ is not exc.__context__:
            _strip_tracebacks(exc.__cause__, depth - 1)
        exc = exc.__context__
        depth -= 1
    return None


def _worker_run_job(
    job: dict,
    providers: dict[bytes, AdaptiveModelProvider],
    engines: dict[tuple[bytes, int, str], LaneEngine],
) -> tuple:
    """Execute one decode job against its shared-memory segments.

    Returns the reply tuple to send.  Guarantees that no numpy view
    over the segments survives the call (views and tracebacks are
    dropped before returning), so the caller can safely close the
    maps.
    """
    # Injected-fault verdicts are evaluated in the PARENT at dispatch
    # time (one registry, one seed — deterministic across processes);
    # the worker merely executes what shipped with the job.
    verdict = job.get("fault")
    if verdict == "crash":  # simulated segfault: no reply, no cleanup
        os._exit(13)
    words_shm = out_shm = None
    try:
        try:
            if verdict == "raise":
                raise FaultInjected("injected fault at worker.job")
            key = job["provider_key"]
            kernel = job.get("kernel", "numpy")
            if key is None:
                # Adaptive providers ship with every job (their
                # per-index ids have no cheap content key) and are
                # never cached — a stale id-keyed hit would silently
                # decode with the wrong model.
                engine = LaneEngine(job["provider"], job["lanes"], kernel=kernel)
            else:
                if job["provider"] is not None:
                    providers[key] = job["provider"]
                engine = engines.get((key, job["lanes"], kernel))
                if engine is None:
                    engine = LaneEngine(
                        providers[key], job["lanes"], kernel=kernel
                    )
                    engines[(key, job["lanes"], kernel)] = engine

            if verdict == "attach":
                raise OSError("injected fault at shm.attach")
            words_shm = _attach_shm(job["words_name"])
            out_shm = _attach_shm(job["out_name"])
            words = np.ndarray(
                (job["num_words"],), dtype=np.uint16, buffer=words_shm.buf
            )
            out = np.ndarray(
                (job["num_symbols"],),
                dtype=np.dtype(job["out_dtype"]),
                buffer=out_shm.buf,
            )
            # Traced jobs measure the kernel here and ship the raw
            # perf_counter interval back with the reply; span ids are
            # allocated parent-side only (one id space — DESIGN.md
            # §17), so the worker sends measurements, never Span
            # objects.  perf_counter is CLOCK_MONOTONIC on Linux:
            # system-wide, so parent and worker timestamps compare.
            w0 = time.perf_counter() if job.get("trace") else 0.0
            try:
                stats = engine.run(words, job["tasks"], out)
            finally:
                # Views must die before the maps close (CPython raises
                # BufferError on close with exported buffers).
                del words, out
            span = None
            if job.get("trace"):
                span = (
                    w0,
                    time.perf_counter(),
                    os.getpid(),
                    threading.get_native_id(),
                )
            return ("ok", stats, span)
        except BaseException as exc:
            _strip_tracebacks(exc)
            try:
                pickle.dumps(exc)
            except Exception:
                exc = ParallelismError(f"shard worker failed: {exc!r}")
            return ("err", exc)
    finally:
        for shm in (words_shm, out_shm):
            if shm is not None:
                _release_shm(shm, unlink=False)


def _worker_main(conn) -> None:
    """Job loop of one shard worker (runs in a child process).

    State that persists across jobs: decode engines (and their scratch
    arenas) plus providers, keyed by model fingerprint, so repeat jobs
    against the same static model ship only task descriptors.
    """
    providers: dict[bytes, AdaptiveModelProvider] = {}
    engines: dict[tuple[bytes, int, str], LaneEngine] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        cmd = msg[0]
        if cmd == "close":
            conn.close()
            return
        if cmd == "ping":
            conn.send(("pong",))
            continue
        if cmd != "decode":  # pragma: no cover - protocol guard
            conn.send(("err", ParallelismError(f"unknown command {cmd!r}")))
            continue
        reply = _worker_run_job(msg[1], providers, engines)
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):  # parent went away
            return


# ---------------------------------------------------------------------------
# Parent-side executor.
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    proc: object
    conn: object
    known_providers: set
    #: the worker died (or its pipe broke) and awaits respawn.
    dead: bool = False
    #: consecutive deaths without an intervening successful dispatch —
    #: drives the respawn backoff and the crash-loop give-up.
    fails: int = 0
    #: earliest monotonic time a respawn may be attempted.
    next_respawn_at: float = field(default=0.0, repr=False)


class ShardedExecutor:
    """Persistent, self-healing pool of shard processes.

    The executor is provider-agnostic: any decode may be submitted,
    and workers cache providers/engines by model fingerprint.  It is
    **not** thread-safe — one dispatching thread at a time (the serve
    dispatcher, or the caller of
    :func:`~repro.parallel.executor.decode_with_pool`).

    A worker death fails the in-flight dispatch with
    :class:`~repro.errors.ParallelismError` (its shard's output is
    lost), but does not end the pool: the dead worker is **respawned**
    before the next dispatch, after a capped exponential backoff
    (``respawn_backoff_s * 2**(deaths-1)``, capped at
    ``respawn_backoff_cap_s``).  Consecutive-death counters reset on
    any fully successful dispatch; a worker that crash-loops past
    ``max_respawn_attempts`` consecutive deaths marks the pool
    terminally ``broken``.  Pass ``respawn=False`` for the pre-§15
    fail-fast behavior (first death breaks the pool).

    :param workers: pool size (shards per decode are capped by this).
    :param start_method: ``multiprocessing`` start method; defaults to
        ``fork`` where available (fast, no re-import) and ``spawn``
        elsewhere — except that a process with live non-main threads
        defaults to ``spawn`` even where ``fork`` exists, because
        forking a multithreaded parent can deadlock the children on
        locks the other threads hold (allocator, BLAS).  Respawns
        re-evaluate this rule at respawn time, so a pool forked while
        single-threaded respawns via ``spawn`` once a dispatcher
        thread is alive.  ``spawn`` carries Python's usual requirement
        that the calling script be importable
        (``if __name__ == "__main__":`` guard).  Override with
        ``REPRO_SHARD_START_METHOD``.
    :param respawn: whether dead workers are respawned (default) or
        the first death permanently breaks the pool.
    :param max_respawn_attempts: consecutive deaths of one worker
        slot after which the pool gives up and goes ``broken``.
    :param respawn_backoff_s: base backoff before the first respawn.
    :param respawn_backoff_cap_s: backoff ceiling.
    :raises ParallelismError: if ``workers < 1`` or the pool cannot
        start (callers that want the graceful path should check
        :func:`sharding_available` first).
    """

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        respawn: bool = True,
        max_respawn_attempts: int = 5,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_cap_s: float = 2.0,
    ) -> None:
        if workers < 1:
            raise ParallelismError(f"workers must be >= 1, got {workers}")
        if max_respawn_attempts < 1:
            raise ParallelismError(
                f"max_respawn_attempts must be >= 1, got "
                f"{max_respawn_attempts}"
            )
        if start_method is None:
            start_method = os.environ.get("REPRO_SHARD_START_METHOD")
        self.workers = workers
        self.respawn = respawn
        self.max_respawn_attempts = max_respawn_attempts
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_cap_s = respawn_backoff_cap_s
        #: total workers respawned over the pool's lifetime.
        self.respawns = 0
        self.broken = False
        self.closed = False
        self._workers: list[_Worker] = []
        try:
            import multiprocessing as mp

            if start_method is None:
                methods = mp.get_all_start_methods()
                start_method = "fork" if "fork" in methods else "spawn"
            self._start_method = start_method
            for _ in range(workers):
                self._workers.append(self._spawn_worker())
        except ParallelismError:
            raise
        except Exception as exc:
            self.close()
            raise ParallelismError(
                f"could not start shard worker pool: {exc}"
            ) from exc

    def _ctx(self):
        import multiprocessing as mp

        method = self._start_method
        if method == "fork" and threading.active_count() > 1:
            # fork() with live non-main threads can deadlock the
            # children on locks held mid-fork by the other threads;
            # pay spawn's startup cost instead.
            method = "spawn"
        return mp.get_context(method)

    def _spawn_worker(self) -> _Worker:
        ctx = self._ctx()
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn, known_providers=set())

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop every worker (idempotent).  In-flight work is lost."""
        if self.closed:
            return
        self.closed = True
        for w in self._workers:
            try:
                w.conn.send(("close",))
            except Exception:
                pass
        for w in self._workers:
            try:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                if w.proc.is_alive():  # pragma: no cover - last resort
                    w.proc.kill()
            except Exception:
                pass
            try:
                w.conn.close()
            except Exception:
                pass

    def warm(self) -> None:
        """Round-trip a ping through every worker (pool health check;
        benchmarks call this so process startup is outside the timed
        region).  Respawns dead workers first, so this doubles as the
        serve layer's re-promotion probe.

        :raises ParallelismError: if the pool is closed/broken, a
            respawn is still backing off, or a worker does not answer.
        """
        self._ensure_workers()
        failure: BaseException | None = None
        pinged: list[int] = []
        for wid, w in enumerate(self._workers):
            try:
                w.conn.send(("ping",))
                pinged.append(wid)
            except Exception as exc:
                self._mark_dead(wid)
                if failure is None:
                    failure = ParallelismError(
                        f"shard worker {wid} unreachable"
                    )
                    failure.__cause__ = exc
        # Drain every pong (even after a failure) so no stale reply is
        # left in a pipe to desynchronize the next dispatch.
        for wid in pinged:
            if self._workers[wid].dead:
                continue
            try:
                self._recv(wid)
            except ParallelismError as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    # -- health --------------------------------------------------------

    def _check_usable(self) -> None:
        if self.closed:
            raise ParallelismError("sharded executor is closed")
        if self.broken:
            raise ParallelismError(
                "sharded executor is broken (a worker crash-looped "
                "past the respawn budget); create a fresh executor"
            )

    def _mark_dead(self, wid: int) -> None:
        """Record a worker death: schedule its respawn (with backoff)
        and reap the process so a half-dead worker cannot wedge us."""
        w = self._workers[wid]
        if w.dead:
            return
        # cat "serve", not "shard": this marker records in the PARENT
        # (worker pids are reserved for worker-measured spans).
        trace.record_instant("shard.dead", args={"worker": wid})
        w.dead = True
        w.fails += 1
        delay = min(
            self.respawn_backoff_s * (2 ** (w.fails - 1)),
            self.respawn_backoff_cap_s,
        )
        w.next_respawn_at = time.monotonic() + delay
        try:
            w.conn.close()
        except Exception:
            pass
        try:
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
                if w.proc.is_alive():  # pragma: no cover - last resort
                    w.proc.kill()
        except Exception:
            pass
        if not self.respawn or w.fails > self.max_respawn_attempts:
            self.broken = True

    def dead_workers(self) -> int:
        """Workers currently awaiting respawn."""
        return sum(1 for w in self._workers if w.dead)

    def _ensure_workers(self) -> None:
        """Respawn dead workers whose backoff has elapsed.

        :raises ParallelismError: pool closed/terminally broken, a
            worker is still backing off, or a respawn attempt failed
            (callers fall back to the thread backend and retry later).
        """
        self._check_usable()
        for wid, w in enumerate(self._workers):
            if not w.dead and not w.proc.is_alive():
                # Died between jobs (e.g. OOM-killed while idle).
                self._mark_dead(wid)
        self._check_usable()
        now = time.monotonic()
        for wid, w in enumerate(self._workers):
            if not w.dead:
                continue
            if now < w.next_respawn_at:
                raise ParallelismError(
                    f"shard worker {wid} respawn is backing off "
                    f"({w.next_respawn_at - now:.3f}s remaining)"
                )
            try:
                fresh = self._spawn_worker()
            except Exception as exc:
                w.fails += 1
                w.next_respawn_at = now + min(
                    self.respawn_backoff_s * (2 ** (w.fails - 1)),
                    self.respawn_backoff_cap_s,
                )
                if w.fails > self.max_respawn_attempts:
                    self.broken = True
                raise ParallelismError(
                    f"could not respawn shard worker {wid}: {exc}"
                ) from exc
            # Carry the crash-loop history so a worker that dies right
            # after every respawn keeps backing off harder.
            fresh.fails = w.fails
            self._workers[wid] = fresh
            self.respawns += 1
            trace.record_instant("shard.respawn", args={"worker": wid})

    # -- dispatch ------------------------------------------------------

    def _recv(self, wid: int):
        w = self._workers[wid]
        try:
            faults.fire(faults.PIPE_RECV)
            while not w.conn.poll(0.05):
                if not w.proc.is_alive():
                    self._mark_dead(wid)
                    raise ParallelismError(
                        f"shard worker {wid} died (exit code "
                        f"{w.proc.exitcode})"
                    )
            return w.conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(wid)
            raise ParallelismError(
                f"shard worker {wid} hung up mid-job"
            ) from exc

    def _provider_for_wire(
        self, wid: int, provider: AdaptiveModelProvider
    ) -> tuple[bytes | None, AdaptiveModelProvider | None]:
        """``(provider_key, provider-or-None)`` for one worker.

        Static providers are fingerprinted by model content and shipped
        at most once per worker.  Adaptive providers have positional
        per-index model ids that no cheap content key covers, so they
        ship with every job (key ``None``: the worker uses them
        ephemerally and caches nothing).
        """
        if provider.is_static:
            key = b"s" + provider_fingerprint(provider)
            known = self._workers[wid].known_providers
            if key in known:
                return key, None
            known.add(key)
            return key, provider
        return None, provider

    def _dispatch(
        self,
        provider: AdaptiveModelProvider,
        lanes: int,
        words: np.ndarray,
        tasks: list[ThreadTask],
        num_symbols: int,
        out_dtype,
        workers: int,
        strategy: str,
        kernel: str = "numpy",
    ) -> tuple[np.ndarray, list[EngineStats]]:
        """Shard ``tasks``, run them in the pool, return (out, stats).

        ``workers`` is the *shard count* (mirroring the thread
        backend); when it exceeds the pool size, shards are queued
        round-robin onto the pool's workers and each worker drains its
        queue in order.
        """
        self._ensure_workers()
        trace_on = trace.enabled()
        # The serve dispatcher publishes its batch span as the thread's
        # implicit parent; worker spans recorded below attach to it.
        trace_parent = trace.current_parent() if trace_on else None
        out_dtype = np.dtype(out_dtype)
        buckets = assign_tasks(tasks, workers, strategy=strategy)
        out = np.empty(num_symbols, dtype=out_dtype)
        if not buckets:
            return out, []

        words = np.ascontiguousarray(words, dtype=np.uint16)
        words_shm = out_shm = None
        pool_size = len(self._workers)
        try:
            try:
                words_shm = _new_shm(words.nbytes)
                out_shm = _new_shm(num_symbols * out_dtype.itemsize)
            except Exception as exc:
                # Exhausted /dev/shm is an infrastructure failure, not
                # a decode failure: surface it as ParallelismError so
                # callers retry the identical plan on threads.
                raise ParallelismError(
                    f"could not allocate shared memory: {exc}"
                ) from exc
            np.ndarray(words.shape, np.uint16, buffer=words_shm.buf)[:] = words
            sent = [0] * pool_size
            failure: BaseException | None = None
            for i, bucket in enumerate(buckets):
                if failure is not None:
                    break  # don't queue more work onto a failing run
                wid = i % pool_size
                key, wire_provider = self._provider_for_wire(wid, provider)
                verdict = None
                if faults.enabled():
                    if faults.triggered(faults.WORKER_CRASH):
                        verdict = "crash"
                    elif faults.triggered(faults.WORKER_JOB):
                        verdict = "raise"
                    elif faults.triggered(faults.SHM_ATTACH):
                        verdict = "attach"
                try:
                    faults.fire(faults.PIPE_SEND)
                    self._workers[wid].conn.send(
                        (
                            "decode",
                            {
                                "provider_key": key,
                                "provider": wire_provider,
                                "lanes": lanes,
                                "words_name": words_shm.name,
                                "num_words": len(words),
                                "out_name": out_shm.name,
                                "num_symbols": num_symbols,
                                "out_dtype": out_dtype.str,
                                "tasks": bucket,
                                "kernel": kernel,
                                "fault": verdict,
                                "trace": trace_on,
                            },
                        )
                    )
                    sent[wid] += 1
                except (OSError, BrokenPipeError) as exc:
                    self._mark_dead(wid)
                    failure = ParallelismError(
                        f"shard worker {wid} unreachable"
                    )
                    failure.__cause__ = exc
            # Drain every reply owed by every still-live worker, even
            # after a failure: a reply left in a pipe would be read as
            # the next dispatch's answer.
            stats: list[EngineStats] = []
            for wid in range(pool_size):
                for _ in range(sent[wid]):
                    if self._workers[wid].dead:
                        break  # its replies died with it
                    try:
                        reply = self._recv(wid)
                    except ParallelismError as exc:
                        if failure is None:
                            failure = exc
                        break
                    if reply[0] == "ok":
                        stats.append(reply[1])
                        wspan = reply[2] if len(reply) > 2 else None
                        if wspan is not None:
                            # Register the worker-measured interval in
                            # the parent's ring under the worker's real
                            # pid/tid, parented to the dispatch span.
                            trace.record_span(
                                "shard.worker",
                                wspan[0],
                                wspan[1],
                                cat=trace.WORKER_CAT,
                                parent=trace_parent,
                                pid=wspan[2],
                                tid=wspan[3],
                                args={"worker": wid},
                            )
                        continue
                    exc = reply[1]
                    if not isinstance(exc, ReproError):
                        # A worker-side infrastructure error (attach
                        # failure, numpy misbehavior): the worker is
                        # healthy but the job is lost — retryable.
                        exc = ParallelismError(
                            f"shard worker {wid} job failed: {exc!r}"
                        )
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure
            if len(stats) != len(buckets):  # pragma: no cover - guard
                raise ParallelismError(
                    f"shard dispatch lost replies "
                    f"({len(stats)}/{len(buckets)})"
                )
            # A fully successful dispatch clears crash-loop history.
            for w in self._workers:
                if not w.dead:
                    w.fails = 0
            out[:] = np.ndarray(
                (num_symbols,), out_dtype, buffer=out_shm.buf
            )
            return out, stats
        finally:
            if words_shm is not None:
                _release_shm(words_shm, unlink=True)
            if out_shm is not None:
                _release_shm(out_shm, unlink=True)

    # -- public entry points -------------------------------------------

    def decode(
        self,
        provider: AdaptiveModelProvider,
        lanes: int,
        words: np.ndarray,
        tasks: list[ThreadTask],
        num_symbols: int,
        out_dtype,
        workers: int | None = None,
        strategy: str = "cost",
        kernel: str = "numpy",
    ) -> PoolDecodeResult:
        """Decode ``tasks`` across shard processes.

        Same contract (and bit-identical output) as
        :func:`repro.parallel.executor.decode_with_pool`: tasks are
        LPT-balanced into at most ``workers`` shards, every shard runs
        the fused kernel over the shared word buffer and writes its
        disjoint commit ranges into the shared output.

        :param workers: shards for this decode (default: pool size).
        :param strategy: ``"cost"`` (LPT) or ``"round_robin"``.
        :param kernel: decode kernel (``"numpy"`` or
            ``"compiled"``) each worker's engine runs — callers must
            pass an *effective* kernel
            (:func:`repro.parallel.compiled.effective_kernel`); the
            worker builds/loads the compiled library on first use.
        :returns: :class:`~repro.parallel.executor.PoolDecodeResult`
            with ``backend="process"``.
        :raises ParallelismError: pool closed/broken, worker crash, or
            ``workers < 1``.
        :raises DecodeError: corrupt stream/metadata, re-raised from
            the worker that hit it.
        """
        if workers is None:
            workers = self.workers
        if workers < 1:
            raise ParallelismError(f"workers must be >= 1, got {workers}")
        out, stats = self._dispatch(
            provider, lanes, words, tasks, num_symbols, out_dtype,
            workers, strategy, kernel=kernel,
        )
        return PoolDecodeResult(
            symbols=out,
            per_worker_stats=stats,
            workers=len(stats),
            backend="process",
            kernel=kernel,
        )

    def run_multi(
        self,
        provider: AdaptiveModelProvider,
        lanes: int,
        segments: list[StreamSegment],
        out_dtype=None,
        workers: int | None = None,
        strategy: str = "cost",
        kernel: str = "numpy",
    ) -> MultiRunResult:
        """Sharded counterpart of :func:`repro.parallel.fused.fused_run_multi`.

        Segments are rebased onto one concatenated virtual stream
        (:func:`~repro.parallel.fused.fuse_segments`, deduping shared
        word buffers), then the fused tasks are sharded across the
        pool.  Output is bit-identical to the single-process fused
        path; stats are aggregated via :func:`combine_stats`.

        :raises DecodeError: multi-segment fusion with a non-static
            provider (same rule as ``fused_run_multi``), or a corrupt
            stream.
        :raises ParallelismError: pool closed/broken or worker crash.
        """
        if len(segments) > 1 and not provider.is_static:
            from repro.errors import DecodeError

            raise DecodeError(
                "multi-segment fusion requires a static model provider; "
                "adaptive-model decodes must be dispatched individually"
            )
        if out_dtype is None:
            out_dtype = provider.out_dtype
        words, tasks, slices, total = fuse_segments(segments)
        out, stats = self._dispatch(
            provider, lanes, words, tasks, total, out_dtype,
            workers or self.workers, strategy, kernel=kernel,
        )
        combined = combine_stats(stats)
        combined.tasks = len(tasks)
        return MultiRunResult(out=out, slices=slices, stats=combined)


# ---------------------------------------------------------------------------
# Module-level default pool (lazy, grown on demand, closed at exit).
# ---------------------------------------------------------------------------

_default: ShardedExecutor | None = None

#: ceiling on the default pool's process count — shard counts above it
#: over-subscribe (round-robin queueing), they never fork more workers.
POOL_CAP = max(8, os.cpu_count() or 1)


def default_executor(workers: int) -> ShardedExecutor | None:
    """The shared process pool behind ``decode_with_pool(backend="process")``.

    Lazily created, kept across calls (pool startup is the expensive
    part), regrown when a caller asks for more workers than it has
    (up to :data:`POOL_CAP` processes — larger shard counts
    over-subscribe the pool), and replaced if broken.  Returns ``None``
    when sharding is unavailable on this host — callers fall back to
    the thread backend.
    """
    global _default
    if not sharding_available():
        return None
    size = min(workers, POOL_CAP)
    if _default is not None and (_default.broken or _default.closed):
        _default.close()
        _default = None
    if _default is None or _default.workers < size:
        if _default is not None:
            _default.close()
        try:
            _default = ShardedExecutor(size)
        except ParallelismError:
            return None
    return _default


@atexit.register
def _close_default() -> None:  # pragma: no cover - interpreter exit
    global _default
    if _default is not None:
        _default.close()
        _default = None
