"""Transient-vs-permanent classification of the whole error hierarchy.

Table-driven on purpose: adding a new error class without deciding its
``retryable`` classification fails ``test_every_exported_error_is_in_
the_table`` — the failover machinery acts on this flag, so "unclassified"
is not an acceptable state.
"""

import pytest

import repro.errors as errors
from repro.errors import (
    ReproError, SoapFault, error_class, is_retryable, root_cause_name,
)

#: Every exported ReproError subclass and its agreed classification.
#: True = transient (retry / failover may fix it); False = permanent.
CLASSIFICATION = {
    "ReproError": False,
    "SimulationError": False,
    "CausalityError": False,
    "HardwareError": False,
    "DatabaseError": False,
    "SqlError": False,
    "TransactionError": True,        # aborted commit: replay it
    "RecordNotFound": False,
    "SecurityError": False,
    "CertificateInvalid": False,
    "CredentialExpired": True,       # re-logon via MyProxy
    "AuthenticationFailed": False,
    "WsError": False,
    "SoapFault": None,               # delegates to its root cause
    "WsdlError": False,
    "UddiError": False,
    "ServiceNotFound": False,
    "ReplicaDown": True,             # fail over to a survivor
    "GridError": False,
    "RslError": False,
    "JobError": True,                # resubmission may well succeed
    "JobNotFound": True,             # lost by the LRM: resubmit
    "WalltimeExceeded": False,       # longer wall time won't appear
    "SubmissionRefused": True,       # transient LRM rejection
    "TransferError": True,           # data channels come back
    "TransferSuperseded": True,      # stage afresh (never one PUT again)
    "ApplianceError": False,
    "OnServeError": False,
    "ServiceBuildError": False,
    "UploadError": False,
    "InvocationError": False,
    "WatchdogTimeout": False,
}


def exported_error_classes():
    return sorted(
        name for name in errors.__all__
        if isinstance(getattr(errors, name), type)
        and issubclass(getattr(errors, name), ReproError))


def test_every_exported_error_is_in_the_table():
    assert exported_error_classes() == sorted(CLASSIFICATION)


@pytest.mark.parametrize("name", sorted(CLASSIFICATION))
def test_classification(name):
    cls = getattr(errors, name)
    expected = CLASSIFICATION[name]
    if name == "SoapFault":
        # Not a class attribute: SoapFault answers per instance, from
        # the root-cause name carried in its detail (tested below).
        assert isinstance(vars(cls)["retryable"], property)
        return
    assert cls.retryable is expected
    assert is_retryable(cls("synthetic")) is expected


def test_error_class_lookup():
    assert error_class("TransferError") is errors.TransferError
    assert error_class("NoSuchError") is None


def test_soap_fault_delegates_to_root_cause():
    transient = SoapFault("Server", "boom", detail="TransferError: boom")
    assert transient.root_cause == "TransferError"
    assert transient.retryable and is_retryable(transient)
    permanent = SoapFault("Server", "bad", detail="RslError: bad")
    assert not permanent.retryable and not is_retryable(permanent)


def test_soap_fault_transient_detail_table():
    # Non-ReproError root causes the middleware still knows are safe
    # to retry (grid-side admission control).
    fault = SoapFault("Server", "full", detail="AdmissionReject: queue")
    assert fault.retryable


def test_soap_fault_without_detail_is_permanent():
    bare = SoapFault("Server.Internal", "mystery")
    assert bare.root_cause == "Server.Internal"
    assert not bare.retryable


def test_root_cause_name_sees_through_wrapping():
    assert root_cause_name(errors.JobError("x")) == "JobError"
    assert root_cause_name(
        SoapFault("Server", "x", detail="JobError: x")) == "JobError"
    assert root_cause_name(ValueError("x")) == "ValueError"


def test_non_repro_exceptions_are_never_retryable():
    assert not is_retryable(ValueError("x"))
    assert not is_retryable(KeyError("x"))
