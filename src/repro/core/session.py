"""The agent session onServe logs on with (paper §VII.B step 2: "unless
a fresh one is cached").  Only the agent that minted a session can
serve it, so the cache lives in memory beside that agent: an appliance
redeployed over recovered data starts empty and logs on afresh."""

from __future__ import annotations

from typing import Generator, Optional

from repro.simkernel.events import Event

__all__ = ["SessionCache"]


class SessionCache:
    """One cached agent session and the one logon that renews it.

    Each :class:`~repro.core.onserve.OnServe` owns one for its replica;
    a generated service's runtime shares it under ``coalesce`` and
    otherwise owns its own.  A lookup that finds the session fresh
    emits ``cache.hit``, one that leads a logon ``cache.miss``
    (``cache="session"``); one that waits on a logon emits neither.
    """

    def __init__(self, onserve):
        self.onserve = onserve
        #: The session id (None before the first logon or once dropped).
        self.session: Optional[str] = None
        self.expires = 0.0
        #: The logon in flight: concurrent callers wait on it and then
        #: re-check, so a burst costs one MyProxy logon.
        self._pending: Optional[Event] = None

    def _fresh(self) -> bool:
        return (self.session is not None
                and self.onserve.sim.now < self.expires)

    def get(self, ctx=None) -> Generator[Event, None, str]:
        """The fresh session, logged on first if there is none; a
        generator meant to be delegated to (``yield from``)."""
        onserve = self.onserve
        cfg = onserve.config
        if self._fresh():
            onserve.bus.emit("cache.hit", layer="core", cache="session",
                             key=cfg.grid_username)
            return self.session
        while self._pending is not None:
            yield self._pending
            if self._fresh():
                return self.session
        onserve.bus.emit("cache.miss", layer="core", cache="session",
                         key=cfg.grid_username)
        self._pending = pending = onserve.sim.event("auth-pending")
        try:
            self.session = yield from onserve.agent_stub.authenticate(
                username=cfg.grid_username,
                passphrase=cfg.grid_passphrase, ctx=ctx)
            # Renew well before the delegated proxy actually expires.
            self.expires = onserve.sim.now + onserve.SESSION_RENEWAL
        finally:
            self._pending = None
            pending.succeed()
        return self.session

    def drop(self, session: Optional[str]) -> None:
        """Forget *session* (its credential died), unless the cache
        already holds a newer one."""
        if session == self.session:
            self.session = None
            self.expires = 0.0
