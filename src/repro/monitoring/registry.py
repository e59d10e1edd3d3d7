"""Name → scheme factory."""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Optional, Type

from repro.config import audit_keywords
from repro.monitoring.base import MonitoringScheme
from repro.monitoring.e_rdma_sync import ExtendedRdmaSyncScheme
from repro.monitoring.rdma_async import RdmaAsyncScheme
from repro.monitoring.rdma_sync import RdmaSyncScheme
from repro.monitoring.rdma_write_push import RdmaWritePushScheme
from repro.monitoring.socket_async import SocketAsyncScheme
from repro.monitoring.socket_sync import SocketSyncScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cluster import ClusterSim

_SCHEMES: dict[str, Type[MonitoringScheme]] = {
    cls.name: cls
    for cls in (
        SocketAsyncScheme,
        SocketSyncScheme,
        RdmaAsyncScheme,
        RdmaSyncScheme,
        ExtendedRdmaSyncScheme,
        RdmaWritePushScheme,  # extension (beyond the paper)
    )
}

#: the paper's five schemes, in table order
SCHEME_NAMES = ["socket-async", "socket-sync", "rdma-async", "rdma-sync", "e-rdma-sync"]

#: the four micro-benchmark schemes (Figs 3–6, 8)
CORE_SCHEME_NAMES = SCHEME_NAMES[:4]

#: every registered scheme, including extensions
ALL_SCHEME_NAMES = [*SCHEME_NAMES, "rdma-write-push"]


def scheme_class(name: str) -> Type[MonitoringScheme]:
    """The registered class for a scheme name (no instantiation).

    Lets deployers inspect class traits (``one_sided``,
    ``backend_threads``) before building — the federation uses this to
    decide how widely a leaf's scheme can safely be deployed.
    """
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from None


def scheme_options(name: str) -> list:
    """The keyword options a scheme's constructor accepts (sorted)."""
    cls = scheme_class(name)
    params = inspect.signature(cls.__init__).parameters
    return sorted(p for p in params if p not in ("self", "sim"))


def create_scheme(
    name: str,
    sim: "ClusterSim",
    *,
    interval: Optional[int] = None,
    deploy: bool = True,
    **kwargs,
) -> MonitoringScheme:
    """Instantiate (and by default deploy) a scheme by its paper name.

    All scheme constructors share the normalized keyword-only signature
    ``cls(sim, *, interval=None, with_irq_detail=False)``; extra keyword
    arguments are forwarded verbatim. Unknown keywords are rejected here
    with an error naming the scheme, suggesting the closest option and
    listing what it does accept.
    """
    cls = scheme_class(name)
    audit_keywords(f"scheme {name!r} ({cls.__name__})", kwargs,
                   scheme_options(name))
    scheme = cls(sim, interval=interval, **kwargs)
    if deploy:
        scheme.deploy()
    return scheme
