"""The service contract: routes, response envelopes, error bodies.

Everything a client can rely on lives here, in one place, so the
documentation (``docs/service.md``) and the doc-sync tests pin a
single source of truth:

* :data:`ROUTES` -- the closed list of endpoint patterns;
* :data:`SERVICE_SCHEMA` -- the response envelope version, bumped on
  any incompatible change to the JSON layout;
* every JSON response additionally carries ``stats_format`` --
  :data:`repro.core.results_io.FORMAT_VERSION` *read at call time* --
  so a stats-format bump is visible in every payload and can never be
  silently mixed with cached cells of the previous format (the cell
  cache key hashes the same version; see
  :func:`repro.core.campaign.cache_key`).

Errors are structured, never bare strings::

    {"schema": 2, "stats_format": 3,
     "error": {"status": 404, "code": "not_found",
               "message": "unknown machine 'quantum'",
               "detail": {"known": ["baseline", ...]}}}
"""

from __future__ import annotations

from repro.core import results_io

#: Response envelope version (bumped on incompatible layout changes).
SERVICE_SCHEMA = 2

#: The closed list of endpoint patterns the service answers.  The
#: docs-sync suite asserts docs/service.md documents exactly these.
ROUTES = (
    "/v1/healthz",
    "/v1/machines",
    "/v1/workloads",
    "/v1/frontier",
    "/v1/cell",
    "/v1/delay/<machine>",
    "/v1/metrics",
)

#: HTTP status -> stable machine-readable error code.
ERROR_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    500: "internal_error",
    503: "overloaded",
    504: "simulation_timeout",
}


def envelope(data: dict) -> dict:
    """Wrap endpoint data in the versioned response envelope.

    ``stats_format`` is read from :mod:`repro.core.results_io` at
    call time (not import time), so a ``FORMAT_VERSION`` bump changes
    every live response immediately -- the schema-sensitivity test
    pins this.
    """
    payload = {
        "schema": SERVICE_SCHEMA,
        "stats_format": results_io.FORMAT_VERSION,
    }
    payload.update(data)
    return payload


def error_body(status: int, message: str,
               detail: dict | None = None) -> dict:
    """A structured error response for ``status``.

    Raises:
        KeyError: for a status outside :data:`ERROR_CODES` -- an
            internal bug, not a client-visible condition.
    """
    error: dict = {
        "status": status,
        "code": ERROR_CODES[status],
        "message": message,
    }
    if detail is not None:
        error["detail"] = detail
    return envelope({"error": error})
