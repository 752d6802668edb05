"""The fork-map helper: independent work items over the usable cores.

``_forked_map`` is the one place the library runs more than one
process: it cuts a range of independent work items into pieces, which
this process and the workers of a pool, one per usable core, claim one
at a time, and returns their results in index order.  A worker stops
claiming once it holds an even share, so a call waits on a core that
runs slow for at most the piece it is on, and this process always runs
its own share: the call's time follows the calling core.
``series.christoffel_remez`` splits its grid points with it, by
interleaved residue classes, each process bounding the points of its
pieces (``series._MIN_CHUNK_PRODUCTS``), and ``duals.dual_family``
its inverse columns with their residual maxima
(``duals._MIN_CHUNK_COLUMNS``); each value is bit for bit the serial
one, whichever process runs which piece.  Each caller hands the map a
module-level function and, as ``marshal`` values, what it read of the
section before the split (so that the stored L^-1 is grown once, in
the calling process) and the section's width, at which a worker
computes.

The pool's lifecycle: the first call that splits forks one worker per
extra usable core, and each waits on a pipe for the next request, so a
later call pays a round trip of about 0.05 ms where a fork cost about
5 ms.  A worker runs the library as it was when it forked, ignores
SIGINT and leaves through ``os._exit`` when its request pipe reads EOF;
a dead one is reaped and the pieces it claimed computed here.  Any
exception during a call stops the whole pool with SIGTERM and closes
the claim pipe with any token left in it.  Any forked child drops the
pool it inherited, closing its parent's pool fds, and may start its
own, and at exit ``_stop_pool`` closes the pipes and reaps the workers.
"""

from __future__ import annotations

import atexit
import marshal
import os
import sys
from contextlib import suppress
from typing import Callable, Iterator, List, Optional, Tuple, Union

from mpmath.libmp import MPZ

from .errors import NumericalError


# What one index of a ``_forked_map`` gives: a list of raw mpfs, or the
# NumericalError computing them raised.
_Result = Union[List[tuple], NumericalError]
# The indices lo..hi-1 of a ``_forked_map``, as (lo, hi).
_Span = Tuple[int, int]

# The live workers of this process, (pid, request fd, reply fd) each,
# started by the first call that needs them.
_POOL: List[Tuple[int, int, int]] = []
# The pool's claim pipe, [read fd, write fd], while it is being started
# or has a worker: a call writes one token a piece to it, and each
# process of the call reads the tokens of the pieces it runs.  Reads
# from it do not block.
_CLAIMS: List[int] = []


def _usable_cores() -> int:
    """The cores this process may run on, else the host's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _other_cores() -> List[int]:
    """The usable cores but the one this process last ran on, or none
    where the platform does not tell.  A child left to the kernel may
    share its parent's core: on a 2-vCPU x86 VM about 4 forks in 10 ran
    beside the parent for 300 ms or more while the other core idled."""
    try:
        with open("/proc/self/stat") as stat:
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        return sorted(os.sched_getaffinity(0) - {here})
    except (AttributeError, OSError, IndexError, ValueError):
        return []


def _write(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the pipe ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send(fd: int, *messages: bytes) -> None:
    """Write the messages to the pipe ``fd``, each after its length in 8 bytes."""
    _write(fd, b"".join(len(m).to_bytes(8, "little") + m for m in messages))


def _read(fd: int, size: int) -> bytearray:
    """``size`` bytes from the pipe ``fd``; EOFError where it closes first."""
    data = bytearray()
    while len(data) < size:
        part = os.read(fd, min(size - len(data), 1 << 20))
        if not part:
            raise EOFError("the pipe closed mid-message")
        data += part
    return data


def _receive(fd: int) -> bytearray:
    """The next message ``_send`` wrote to the other end of the pipe ``fd``."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _claimed(fd: int, bounds: List[int], share: int, taken: List[int]) -> Iterator[_Span]:
    """The spans of the pieces this process claims from the claim pipe
    ``fd``, piece k being the indices bounds[k]..bounds[k + 1]-1.  A
    claim reads one 4-byte token, k, and appends k to ``taken``; the
    claims end where the pipe is empty or the pieces taken hold
    ``share`` indices or more.  Each read takes a whole token, as every
    read asks for 4 bytes of a pipe that holds whole tokens."""
    held = 0
    while held < share:
        try:
            token = os.read(fd, 4)
        except BlockingIOError:
            return
        if len(token) < 4:  # EOF: the calling process has closed the pipe
            return
        k = int.from_bytes(token, "little")
        taken.append(k)
        held += bounds[k + 1] - bounds[k]
        yield bounds[k], bounds[k + 1]


def _serve(requests: int, replies: int, claims: int) -> None:
    """A worker's loop, until its request pipe reads EOF.  A request is
    two messages: the ``marshal`` bytes of (core, module, function name,
    piece bounds, share), then those of the arguments.  The worker pins
    itself to the core, where it is not None, runs the function over the
    pieces it claims from the claim pipe ``claims`` (``_claimed``, up to
    ``share`` indices), and replies with the ``marshal`` bytes of a list
    of (piece, its results), each mantissa a plain int.  A piece whose
    results hold an error, or in which the function raises, is left out
    of the list, and the worker claims nothing after it: the caller runs
    what it left out.  SIGINT is ignored, as an interrupt is the
    caller's to handle, and SIGTERM, the caller's stop, has its default
    action."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            head = _receive(requests)
        except EOFError:
            return
        core, module, name, bounds, share = marshal.loads(head)
        args, taken, done = _receive(requests), [], []
        with suppress(Exception):
            if core is not None:
                with suppress(OSError):
                    os.sched_setaffinity(0, {core})
            fn = getattr(sys.modules[module], name)
            for results in fn(*marshal.loads(args), _claimed(claims, bounds, share, taken)):
                # a NumericalError result is not iterable: its piece is left out
                done.append([[(s, int(m), e, b) for s, m, e, b in r] for r in results])
        _send(replies, marshal.dumps(list(zip(taken, done))))


def _start_worker() -> Optional[Tuple[int, int, int]]:
    """A new worker, forked from this process, as (pid, request fd, reply
    fd), or None where a pipe or the fork fails.  The worker gets its own
    copy of the claim pipe's read end, which the fork hook (``_stop_pool``)
    leaves open there, runs ``_serve`` and leaves through ``os._exit``:
    status 0 at EOF, 1 on any error."""
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        fds.append(os.dup(_CLAIMS[0]))
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    request_r, request_w, reply_r, reply_w, claims = fds
    if pid == 0:
        status = 1
        try:
            os.close(request_w)
            os.close(reply_r)
            _serve(request_r, reply_w, claims)
            status = 0
        finally:
            os._exit(status)
    for fd in (request_r, reply_w, claims):
        os.close(fd)
    return pid, request_w, reply_r


def _workers(count: int) -> List[Tuple[int, int, int]]:
    """The first ``count`` workers of the pool, started where missing;
    fewer where a pipe or a fork fails.  The claim pipe is made before
    the first worker and closed where none could start (``_stop``)."""
    with suppress(OSError):
        if not _CLAIMS:
            _CLAIMS.extend(os.pipe())
            os.set_blocking(_CLAIMS[0], False)
        while len(_POOL) < count and (worker := _start_worker()) is not None:
            _POOL.append(worker)
    if not _POOL:
        _stop([], False)
    return _POOL[:count]


def _stop(workers, terminate: bool) -> None:
    """Take the workers out of the pool, close their pipes, and the claim
    pipe, with any token left in it, once the pool is empty, and reap
    them: each reads EOF and leaves, or first gets SIGTERM where
    ``terminate`` is set, so that none is left at work on a request."""
    if terminate:
        # imported here: only this path signals, and the import costs ~1 ms
        from signal import SIGTERM
    for worker in workers:
        _POOL.remove(worker)
        if terminate:
            with suppress(OSError):
                os.kill(worker[0], SIGTERM)
    closing = [fd for _, *pipes in workers for fd in pipes]
    if not _POOL:
        closing += _CLAIMS
        _CLAIMS.clear()
    for fd in closing:
        with suppress(OSError):
            os.close(fd)
    for pid, _, _ in workers:
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _stop_pool(terminate: bool = False) -> None:
    """Stop every worker of the pool (``_stop``); the next call that
    splits starts a new one.  Run at exit, and in every forked child,
    where it closes the pool fds the child inherited, which are its
    parent's, and finds no worker of its own to reap: the child may
    start its own pool."""
    _stop(list(_POOL), terminate)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_stop_pool)
atexit.register(_stop_pool)


def _processes(count: int, min_chunk: int) -> int:
    """The processes a ``_forked_map`` of ``count`` indices runs on: one
    per usable core, at most one per ``min_chunk`` indices, and this one
    alone where ``os.fork`` is missing."""
    cores = _usable_cores() if hasattr(os, "fork") else 1
    return max(1, min(cores, count // min_chunk))


def _pieces(count: int, processes: int) -> List[int]:
    """The bounds of the pieces a ``_forked_map`` of ``count`` indices on
    ``processes`` processes cuts them into, piece k being the indices
    bounds[k]..bounds[k + 1]-1: one piece on one process, else in
    quarters of an even share, one piece of three quarters per process
    and then one of a quarter per process, so that the small pieces come
    last, and no piece empty.  With 1000 indices on 2 processes: 0..374,
    375..749, 750..874 and 875..999."""
    if processes == 1:
        return [0, count]
    cuts = [*range(0, 3 * processes, 3), *range(3 * processes, 4 * processes + 1)]
    return sorted({count * u // (4 * processes) for u in cuts})


def _forked_map(fn: Callable[..., Iterator[List[_Result]]], args: tuple, count: int,
                min_chunk: int) -> List[_Result]:
    """The lists ``fn(*args, spans)`` yields for the pieces of the indices
    0..count-1, concatenated in index order.

    ``fn`` is a module-level generator function, and ``args`` are
    ``marshal`` values, raw mpfs among them.  It draws spans (lo, hi)
    from ``spans`` one at a time and yields a list for each before it
    draws the next: the results of the indices lo..hi-1, or what its
    caller combines over the pieces whichever way they fall
    (``series._remez_chunk``'s running maximum).  The indices are cut
    into pieces (``_pieces``) for the processes ``_processes`` gives:
    this one, and a worker of the pool (``_workers``, ``_serve``) for each
    other one, pinned to its own core of ``_other_cores`` where it has
    one.  The call writes one token a piece to the claim pipe, and each
    process claims pieces from it (``_claimed``) until none is left, so
    a worker on a core that runs slow holds the call up by at most the
    piece it is on.  A worker stops claiming once it holds an even share
    of the indices, and this process takes what is left: it never gives
    away its own share, so the call's time follows this process's core,
    however fast the others run.  A worker sends back its pieces'
    results as ``marshal`` bytes, each mantissa a plain int read back
    through ``MPZ``.  Where ``os.fork`` is missing or fails, the
    arguments are not ``marshal`` values, or a worker has died, sends
    what ``marshal.loads`` cannot read or leaves out a piece it claimed,
    this process runs the pieces missing, in index order, in one more
    call of ``fn``.  ``marshal`` cannot write an exception, so a piece
    with a NumericalError among its results is left out and run here;
    ``fn`` is deterministic, so it gives the same error, type and
    message, as a serial run.  The cost: a report that fails this way
    (exit 3) takes up to its serial time.  On any exception here the
    whole pool gets SIGTERM and is reaped before it propagates, so no
    reply or token of this call is read by a later one.
    """
    processes = _processes(count, min_chunk)
    bounds = _pieces(count, processes)
    pieces = len(bounds) - 1
    done = {}  # piece -> its results, from whichever process ran it
    try:
        busy, workers = [], []  # the workers the request reached; the workers of the call
        if processes > 1:
            with suppress(ValueError):  # a value marshal cannot write: all run here
                payload, others = marshal.dumps(args), _other_cores()
                workers = _workers(processes - 1)
                if workers:
                    _write(_CLAIMS[1], b"".join(k.to_bytes(4, "little") for k in range(pieces)))
                for k, worker in enumerate(workers):
                    core = others[k] if k < len(others) else None
                    try:
                        _send(worker[1], marshal.dumps((core, fn.__module__, fn.__name__,
                                                        bounds, count // processes)), payload)
                    except OSError:  # the worker has died
                        _stop([worker], True)
                    else:
                        busy.append(worker)
        if workers and _CLAIMS:
            # no cap here: this process drains the pipe, so no token outlives the call
            taken = []
            for results in fn(*args, _claimed(_CLAIMS[0], bounds, count, taken)):
                done[taken[-1]] = results
        for worker in busy:
            try:
                data = _receive(worker[2])
            except (OSError, EOFError):  # the worker has died
                _stop([worker], True)
            else:
                with suppress(ValueError, EOFError, TypeError):
                    done.update({k: [[(s, MPZ(m), e, b) for s, m, e, b in r] for r in part]
                                 for k, part in marshal.loads(data)})
        missing = [k for k in range(pieces) if k not in done]
        done.update(zip(missing, fn(*args, [(bounds[k], bounds[k + 1]) for k in missing])))
    except BaseException:
        _stop_pool(terminate=True)
        raise
    return [r for k in range(pieces) for r in done[k]]
