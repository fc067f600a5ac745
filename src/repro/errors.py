"""Shared exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch errors at the granularity they care about: a single
subsystem (e.g. :class:`GridError`), the whole library, or a specific
failure (e.g. :class:`WalltimeExceeded`).

Transient vs. permanent
-----------------------
Every error class carries a ``retryable`` flag: ``True`` means the
condition is *transient* — the same request may succeed if repeated
(possibly elsewhere), so resilience policies are allowed to retry or
fail over.  ``False`` means the failure is *permanent* (malformed RSL,
bad certificate, programming error): retrying would only repeat it.
:func:`is_retryable` is the one classification point the retry/failover
machinery consults; :attr:`SoapFault.root_cause` lets the client side
recover the server-side root class from the fault detail, so the
classification survives a SOAP hop.
"""

from __future__ import annotations

__all__ = [
    "error_class",
    "is_retryable",
    "root_cause_name",
    "ReproError",
    "SimulationError",
    "CausalityError",
    "HardwareError",
    "DatabaseError",
    "SqlError",
    "TransactionError",
    "RecordNotFound",
    "SecurityError",
    "CertificateInvalid",
    "CredentialExpired",
    "AuthenticationFailed",
    "WsError",
    "SoapFault",
    "WsdlError",
    "UddiError",
    "ServiceNotFound",
    "ReplicaDown",
    "GridError",
    "RslError",
    "JobError",
    "JobNotFound",
    "WalltimeExceeded",
    "SubmissionRefused",
    "TransferError",
    "TransferSuperseded",
    "ApplianceError",
    "OnServeError",
    "ServiceBuildError",
    "UploadError",
    "InvocationError",
    "WatchdogTimeout",
]


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` classifies the *condition*, not the occurrence:
    subclasses override it to ``True`` when the same request may succeed
    on a repeat attempt (transient grid weather) and leave it ``False``
    when repeating is pointless (permanent input or configuration
    errors).  The default is the safe choice: do not retry.
    """

    #: Transient-vs-permanent classification (see module docstring).
    retryable = False


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class CausalityError(SimulationError):
    """An event was scheduled in the past (negative delay)."""


class HardwareError(SimulationError):
    """Errors raised by simulated hardware devices."""


# --------------------------------------------------------------------------
# Database
# --------------------------------------------------------------------------

class DatabaseError(ReproError):
    """Errors raised by the embedded database engine."""


class SqlError(DatabaseError):
    """A SQL statement failed to tokenize, parse, or execute."""


class TransactionError(DatabaseError):
    """Illegal transaction state transition (e.g. commit with no begin).

    Also raised for transient engine-level write failures (a stalled or
    aborted commit), which is why it is classified retryable.
    """

    retryable = True


class RecordNotFound(DatabaseError):
    """A requested row/BLOB does not exist."""


# --------------------------------------------------------------------------
# Security
# --------------------------------------------------------------------------

class SecurityError(ReproError):
    """Errors raised by the simulated grid security infrastructure."""


class CertificateInvalid(SecurityError):
    """A certificate failed validation (bad signature, unknown CA, ...)."""


class CredentialExpired(SecurityError):
    """A certificate or proxy is outside its validity interval.

    Retryable: a fresh MyProxy logon yields a valid proxy again.
    """

    retryable = True


class AuthenticationFailed(SecurityError):
    """A GSI handshake or MyProxy retrieval was rejected."""


# --------------------------------------------------------------------------
# Web services
# --------------------------------------------------------------------------

class WsError(ReproError):
    """Errors raised by the web-service stack."""


class SoapFault(WsError):
    """A SOAP fault returned by a service or generated by the stack.

    Attributes mirror the (simplified) SOAP 1.1 fault structure.  The
    server's fault translation writes the server-side root cause into
    ``detail`` as ``"TypeName: message"``, so :attr:`root_cause` and the
    derived :attr:`retryable` let a client classify a fault without the
    original exception object ever crossing the wire.
    """

    def __init__(self, faultcode: str, faultstring: str, detail: str = ""):
        super().__init__(f"{faultcode}: {faultstring}")
        self.faultcode = faultcode
        self.faultstring = faultstring
        self.detail = detail

    @property
    def root_cause(self) -> str:
        """The server-side exception type named in the fault detail."""
        head = (self.detail or "").split(":", 1)[0].strip()
        return head or self.faultcode

    @property
    def retryable(self) -> bool:  # type: ignore[override]
        """Classification of the *root cause*, recovered from the detail.

        A fault wrapping ``TransferError`` is as transient as the
        transfer error itself; unknown details fall back to the small
        set of transient infrastructure rejections (admission busy).
        """
        cls = error_class(self.root_cause)
        if cls is not None and cls is not SoapFault:
            return bool(cls.retryable)
        return self.root_cause in _TRANSIENT_FAULT_DETAILS


class WsdlError(WsError):
    """A WSDL document failed to generate or parse."""


class UddiError(WsError):
    """Errors raised by the UDDI registry."""


class ServiceNotFound(WsError):
    """No deployed/published service matches the request."""


class ReplicaDown(WsError):
    """A fabric replica died (or refused the connection) mid-request.

    Retryable: the router fails the request over to a preference-list
    survivor.
    """

    retryable = True


# --------------------------------------------------------------------------
# Grid
# --------------------------------------------------------------------------

class GridError(ReproError):
    """Errors raised by the simulated production grid."""


class RslError(GridError):
    """A job description failed to parse or validate."""


class JobError(GridError):
    """A grid job failed.

    Retryable: a job killed by grid weather (node crash, preemption) may
    well succeed when resubmitted — possibly on another site.
    """

    retryable = True


class JobNotFound(GridError):
    """No job with the given handle is known to the gatekeeper.

    Retryable: a lost job (accepted, then dropped by the LRM) is the
    classic production-grid fault that resubmission fixes.
    """

    retryable = True


class WalltimeExceeded(JobError):
    """A job exceeded its requested walltime and was killed.

    *Not* retryable despite being a :class:`JobError`: the same job will
    blow the same walltime again.
    """

    retryable = False


class SubmissionRefused(GridError):
    """The gatekeeper refused a submission (auth, quota, bad site...)."""

    retryable = True


class TransferError(GridError):
    """A GridFTP transfer failed."""

    retryable = True


class TransferSuperseded(TransferError):
    """The bytes being staged were replaced under the transfer: the site
    refused them because a PUT of newer bytes was commanded at the path
    since, or the seed carrying them was cancelled by a republish.

    Retryable by staging afresh (failover), never by re-sending the one
    PUT: the transfer's other ranges went with the newer command.
    """


# --------------------------------------------------------------------------
# Appliance / onServe
# --------------------------------------------------------------------------

class ApplianceError(ReproError):
    """Errors raised while building or deploying a virtual appliance."""


class OnServeError(ReproError):
    """Errors raised by the onServe middleware."""


class ServiceBuildError(OnServeError):
    """The ant-style service build failed."""


class UploadError(OnServeError):
    """An executable upload through the portal failed."""


class InvocationError(OnServeError):
    """A generated web service invocation failed end to end."""


class WatchdogTimeout(OnServeError):
    """The watchdog aborted an operation that took too long."""


# --------------------------------------------------------------------------
# Transient-vs-permanent classification helpers
# --------------------------------------------------------------------------

#: Fault details that are transient without naming a ReproError class
#: (a container's load rejection, from any SOAP peer).
_TRANSIENT_FAULT_DETAILS = frozenset({"AdmissionReject"})

#: Exported name -> error class, for detail-string lookups.
_ERROR_CLASSES = {
    name: obj for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, ReproError)
}


def error_class(name: str):
    """The :class:`ReproError` subclass called *name*, or ``None``."""
    return _ERROR_CLASSES.get(name)


def root_cause_name(exc: BaseException) -> str:
    """The root failure's type name, seeing through SOAP fault wrapping."""
    if isinstance(exc, SoapFault):
        return exc.root_cause
    return type(exc).__name__


def is_retryable(exc: BaseException) -> bool:
    """True when *exc* describes a transient (retry-worthy) condition.

    Works on both raw :class:`ReproError` instances (``retryable`` class
    attribute) and :class:`SoapFault` wrappers (root-cause lookup from
    the fault detail).  Non-repro exceptions are never retryable.
    """
    if isinstance(exc, ReproError):
        return bool(exc.retryable)
    return False
