"""Exception hierarchy for the Recoil reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  Sub-classes distinguish model problems,
bitstream corruption, metadata problems, and API misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ModelError(ReproError):
    """A probability model is malformed (zero frequencies, bad
    quantization level, PDF does not sum to 2**n, ...)."""


class EncodeError(ReproError):
    """Encoding failed (symbol outside the model alphabet, state
    overflow, ...)."""


class DecodeError(ReproError):
    """Decoding failed (bitstream exhausted, state desynchronized,
    checksum mismatch, ...)."""


class MetadataError(ReproError):
    """Recoil split metadata is inconsistent with the bitstream or was
    corrupted in serialization."""


class ContainerError(ReproError):
    """A serialized container (Recoil or Conventional) is malformed:
    bad magic, truncated section, unsupported version."""


class ParallelismError(ReproError):
    """Invalid parallel-execution request (zero workers, more workers
    than splits where forbidden, ...)."""


class ServeError(ReproError):
    """Content-delivery service failure (unknown asset, request
    against a closed service, duplicate asset name, ...)."""


class ProtocolError(ServeError):
    """A network peer violated the wire protocol: bad magic, unknown
    frame type, an implausible declared length, a malformed request
    body, or a corrupted response stream.  Server-side it is answered
    with a typed error frame and the connection is closed (after a
    framing violation the byte stream cannot be trusted); client-side
    it means the server's response failed validation."""


class IntegrityError(ServeError):
    """A persisted asset failed verification: a CRC-32 mismatch, a
    truncated or malformed on-disk record, or a manifest entry whose
    bytes cannot be proven intact.  The store never serves bytes that
    fail verification — the offending file is moved to the store's
    ``quarantine/`` directory (preserved for inspection, not deleted)
    and this error is raised instead."""


class AdmissionError(ServeError):
    """A request was refused by the service's admission control: the
    in-flight work bound stayed saturated past the admission
    timeout (backpressure)."""


class DeadlineError(ServeError):
    """A request's deadline expired before the service executed it.
    Raised by the dispatcher (an expired request never occupies
    kernel time) or by ``submit`` when the deadline passes while the
    request is still blocked on admission."""


class TraceError(ReproError):
    """A trace document failed schema validation (:mod:`repro.trace`):
    missing required fields, unbalanced begin/end events, or negative
    durations."""


class FaultInjected(ReproError):
    """An armed fault point fired (:mod:`repro.faults`).  Only the
    fault-injection harness raises this — seeing it outside a chaos
    run means a fault rule leaked out of its context manager."""
