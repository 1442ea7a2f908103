"""Unified service error taxonomy shared by every wire surface.

One :class:`ErrorCode` enum names every error the service can answer,
whatever the surface -- binary TCP frames or the HTTP/REST
facade (``docs/REST.md``) -- and :data:`HTTP_STATUS` pins each code to
exactly one HTTP status, so a REST client and a TCP client observing
the same failure see the same code:

===================  ===========  =========================================
code                 HTTP status  meaning
===================  ===========  =========================================
``backpressure``     429          stream in-flight bound hit; retry with
                                  backoff (``Retry-After`` is sent)
``invalid``          400          bad parameters on a well-formed request
                                  (a value outside the stream's universe
                                  included)
``bad-request``      400          malformed request (JSON, framing, fields)
``unknown-stream``   404          the stream id is not registered
``unknown-op``       404          the operation / route does not exist
``empty``            409          query before any data arrived
``unavailable``      503          a cluster worker failed mid-request; the
                                  outcome of an append is ambiguous
``internal``         500          unexpected server-side failure
===================  ===========  =========================================

Retry semantics (``docs/REST.md``): ``backpressure`` rejected the batch
*before* journaling anything, so the identical request is safe to
retry.  ``unavailable`` is the one genuinely ambiguous answer -- an
append may be fully applied or fully absent (batch atomicity), so the
service **never auto-retries appends**; idempotent reads are retried
across worker adoption by the cluster router.

Client-side, error responses raise the matching :class:`ServiceError`
subclass (:class:`~repro.exceptions.BackpressureError` for
``backpressure``), so callers branch on exception types instead of
string-matching codes.  :class:`UnknownStreamError` and
:class:`EmptyStreamError` also subclass their engine-side counterparts
(:class:`repro.exceptions.UnknownStreamError`,
:class:`~repro.exceptions.EmptySummaryError`): code that catches the
engine exception works unchanged against a remote service.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from repro import exceptions as _exc
from repro.exceptions import BackpressureError, ReproError


class ErrorCode(str, Enum):
    """Every error code the service answers, on any transport."""

    BACKPRESSURE = "backpressure"
    INVALID = "invalid"
    BAD_REQUEST = "bad-request"
    UNKNOWN_STREAM = "unknown-stream"
    UNKNOWN_OP = "unknown-op"
    EMPTY = "empty"
    UNAVAILABLE = "unavailable"
    INTERNAL = "internal"

    def __str__(self) -> str:  # the wire form, not "ErrorCode.X"
        return self.value


#: The fixed HTTP status of each error code (``docs/REST.md``).  The
#: HTTP facade additionally sends ``Retry-After`` with 429.
HTTP_STATUS = {
    ErrorCode.BACKPRESSURE: 429,
    ErrorCode.INVALID: 400,
    ErrorCode.BAD_REQUEST: 400,
    ErrorCode.UNKNOWN_STREAM: 404,
    ErrorCode.UNKNOWN_OP: 404,
    ErrorCode.EMPTY: 409,
    ErrorCode.UNAVAILABLE: 503,
    ErrorCode.INTERNAL: 500,
}


def http_status(code: Union[str, ErrorCode]) -> int:
    """The HTTP status for a wire error code (500 for unknown codes)."""
    try:
        return HTTP_STATUS[ErrorCode(str(code))]
    except ValueError:
        return 500


class ServiceError(ReproError):
    """A server-side error response, surfaced client-side.

    Carries the wire error :attr:`code` so callers can branch without
    string-matching the message; prefer catching the typed subclasses.
    The two-argument form ``ServiceError(code, message)`` is the generic
    constructor (kept for forward compatibility with codes this client
    predates); subclasses fix their code and take only a message.
    """

    code: str = ErrorCode.INTERNAL

    def __init__(
        self, code_or_message: str, message: Optional[str] = None
    ) -> None:
        if message is None:
            message = str(code_or_message)
        else:
            self.code = str(code_or_message)
        self.message = message
        super().__init__(f"[{self.code}] {message}")


class BadRequestError(ServiceError):
    """The request was malformed (JSON, framing, or required fields)."""

    code = ErrorCode.BAD_REQUEST


class InvalidRequestError(ServiceError, _exc.InvalidParameterError):
    """A well-formed request carried parameters outside their range."""

    code = ErrorCode.INVALID


class UnknownStreamError(ServiceError, _exc.UnknownStreamError):
    """The addressed stream id is not registered on the server."""

    code = ErrorCode.UNKNOWN_STREAM


class UnknownOperationError(ServiceError):
    """The requested operation (or HTTP route) does not exist."""

    code = ErrorCode.UNKNOWN_OP


class EmptyStreamError(ServiceError, _exc.EmptySummaryError):
    """The stream was queried before any value arrived."""

    code = ErrorCode.EMPTY


class UnavailableError(ServiceError):
    """A worker failed mid-request; an append's outcome is ambiguous.

    The one error the service never auto-retries for appends: the batch
    may be fully applied or fully absent (never torn), so retrying could
    double-apply.  Idempotent reads are safe to retry.
    """

    code = ErrorCode.UNAVAILABLE


class InternalError(ServiceError):
    """An unexpected server-side failure (a bug, not a client error)."""

    code = ErrorCode.INTERNAL


_CODE_TO_CLASS = {
    ErrorCode.BAD_REQUEST: BadRequestError,
    ErrorCode.INVALID: InvalidRequestError,
    ErrorCode.UNKNOWN_STREAM: UnknownStreamError,
    ErrorCode.UNKNOWN_OP: UnknownOperationError,
    ErrorCode.EMPTY: EmptyStreamError,
    ErrorCode.UNAVAILABLE: UnavailableError,
    ErrorCode.INTERNAL: InternalError,
}


def error_for_code(code: str, message: str) -> ReproError:
    """The typed exception for one wire error code.

    ``backpressure`` maps to :class:`~repro.exceptions.BackpressureError`
    so engine-side and wire-side callers catch the same type; codes this
    client predates fall back to a generic :class:`ServiceError` that
    still carries the raw code.
    """
    if code == ErrorCode.BACKPRESSURE:
        return BackpressureError(message)
    cls = _CODE_TO_CLASS.get(code)
    if cls is not None:
        return cls(message)
    return ServiceError(str(code), message)


def classify_exception(exc: BaseException) -> tuple[str, str]:
    """Map one caught exception to its ``(code, message)`` wire form.

    The single exception -> code mapping shared by the TCP server and
    the HTTP facade, so every transport classifies the same failure the
    same way.  Wire-side :class:`ServiceError` instances (a proxied
    backend already classified the failure) forward their code
    untouched instead of being flattened to ``internal``.
    """
    if isinstance(exc, BackpressureError):
        return ErrorCode.BACKPRESSURE, str(exc)
    if isinstance(exc, _exc.EmptySummaryError):
        return ErrorCode.EMPTY, str(exc)
    if isinstance(exc, ServiceError):
        return str(exc.code), exc.message
    if isinstance(exc, _exc.UnknownStreamError):
        return ErrorCode.UNKNOWN_STREAM, str(exc)
    if isinstance(
        exc,
        (_exc.InvalidParameterError, _exc.DomainError, KeyError, TypeError),
    ):
        return ErrorCode.INVALID, f"{type(exc).__name__}: {exc}"
    return ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"


def raise_for_error(response: dict) -> dict:
    """Return an ``ok`` response payload; raise the typed error otherwise."""
    if response.get("ok"):
        return response
    raise error_for_code(
        response.get("error", ErrorCode.INTERNAL), response.get("message", "")
    )
