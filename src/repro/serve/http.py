"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The daemon's transport layer: just enough of RFC 9112 to serve JSON over
keep-alive connections to ``curl``, the load harness and browsers — request
line + headers + ``Content-Length`` bodies in, status line + JSON body out.
No chunked transfer coding, no TLS, no HTTP/2: the service sits on
localhost or behind a real reverse proxy, which owns all of that.

Hard limits (header block ≤ 16 KiB, body ≤ 1 MiB) bound what one connection
can make the daemon buffer; anything over is a clean 4xx, not an OOM.
Slow-client protection: ``read_request`` accepts header/body read deadlines
so a stalled or half-open socket gets a 408 (mid-message) or a silent
close (idle keep-alive, nginx-style) instead of pinning a connection task
forever.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Optional
from urllib.parse import parse_qsl, urlsplit

#: Largest accepted request-line + header block, bytes.
MAX_HEADER_BYTES = 16 * 1024

#: Largest accepted request body, bytes.
MAX_BODY_BYTES = 1024 * 1024

#: Request methods this server recognises at the framing layer. A token
#: outside this set is a 501 (RFC 9110 §9.1: not implemented), distinct
#: from a 405 (recognised method not allowed on that resource).
KNOWN_METHODS = frozenset(
    {"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "CONNECT"}
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the response status.

    ``headers`` (optional) are extra response headers the error mandates —
    ``Allow`` on a 405, ``Retry-After`` on a 429.
    """

    def __init__(self, status: int, message: str, headers: Optional[dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed request."""

    method: str
    target: str  # raw request target, e.g. "/v1/compare?app=x"
    path: str
    query: dict[str, str]
    version: str  # "HTTP/1.1"
    headers: dict[str, str]  # keys lowercased
    body: bytes = b""

    #: set by the daemon: monotonically increasing per-session request id,
    #: echoed in responses so client logs and server diagnostics correlate
    request_id: int = field(default=0, compare=False)

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"

    def json(self) -> Any:
        """Decode the body as JSON (empty body → ``{}``)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise HttpError(400, f"request body is not valid JSON: {e}") from None

    def param(self, name: str, default: Optional[str] = None) -> str:
        """Required-unless-defaulted query parameter."""
        value = self.query.get(name, default)
        if value is None:
            raise HttpError(400, f"missing required query parameter {name!r}")
        return value

    def flag(self, name: str, default: bool = False) -> bool:
        """Boolean query parameter (``1/true/yes/on`` → True)."""
        raw = self.query.get(name)
        if raw is None:
            return default
        return raw.lower() in ("1", "true", "yes", "on")


async def _timed(awaitable: Awaitable[Any], timeout_s: Optional[float], what: str) -> Any:
    """Await with a deadline; a stalled read becomes a 408."""
    if not timeout_s:
        return await awaitable
    try:
        return await asyncio.wait_for(awaitable, timeout_s)
    except asyncio.TimeoutError:
        raise HttpError(408, f"timed out reading {what} after {timeout_s:g}s") from None


async def read_request(reader, max_header: int = MAX_HEADER_BYTES,
                       max_body: int = MAX_BODY_BYTES,
                       header_timeout_s: Optional[float] = None,
                       body_timeout_s: Optional[float] = None) -> Optional[Request]:
    """Read one request off the stream.

    Returns ``None`` on a clean EOF before any bytes (client closed a
    keep-alive connection between requests) — and, when ``header_timeout_s``
    is set, on an *idle* timeout before the first byte, so idle keep-alive
    connections are reclaimed silently. A timeout after bytes have started
    arriving (a slowloris or stalled body) raises a 408 instead. Raises
    :class:`HttpError` for malformed or oversized requests and lets
    transport exceptions (``ConnectionResetError``,
    ``asyncio.IncompleteReadError`` mid-message) propagate to the
    connection handler.
    """
    try:
        # first byte under its own deadline: zero-byte idle is a silent
        # close, not a 408 — only a *started* request that stalls is a
        # protocol offence
        if header_timeout_s:
            try:
                first = await asyncio.wait_for(reader.readexactly(1), header_timeout_s)
            except asyncio.TimeoutError:
                return None
        else:
            first = await reader.readexactly(1)
        head = first + await _timed(
            reader.readuntil(b"\r\n\r\n"), header_timeout_s, "request head"
        )
    except asyncio.IncompleteReadError as e:
        # EOF with nothing buffered is the normal end of a keep-alive
        # connection; EOF mid-header is a protocol error
        if not e.partial:
            return None
        raise HttpError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request header block too large") from None
    if len(head) > max_header:
        raise HttpError(413, f"request header block over {max_header} bytes")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    if method.upper() not in KNOWN_METHODS:
        raise HttpError(501, f"method {method!r} not implemented")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    body = b""
    if "transfer-encoding" in headers:
        raise HttpError(
            501, "chunked transfer coding is not implemented; use Content-Length"
        )
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"malformed Content-Length {length!r}") from None
        if n < 0:
            raise HttpError(400, f"negative Content-Length {n}")
        if n > max_body:
            raise HttpError(413, f"request body over {max_body} bytes")
        if n:
            body = await _timed(
                reader.readexactly(n), body_timeout_s, "request body"
            )
    return Request(
        method=method.upper(),
        target=target,
        path=split.path,
        query=query,
        version=version,
        headers=headers,
        body=body,
    )


def response_bytes(
    status: int,
    payload: Any,
    keep_alive: bool = True,
    extra_headers: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialise one JSON response (status line + headers + body)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json; charset=utf-8",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
