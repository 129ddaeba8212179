"""Malformed HTTP requests get an error reply from the gateway, never a drop.

Each case writes raw bytes to a live ``GatewayHttp`` (no shard processes are
needed: every request here is rejected before it reaches the 2PC driver) and
checks the status line of the reply, and that the server raised nothing
unhandled.  A bad ``?timeout=`` is rejected before the transaction is
submitted.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.wallclock import AsyncioRuntime
from repro.service.gateway import MAX_BODY_BYTES, GatewayHttp, GatewayService

#: A valid invocation, so the timeout cases get past body validation.
PAYMENT = b'{"function": "sendPayment", "args": {"from": "0", "to": "1", "amount": 1}}'


def _post(target: bytes, body: bytes) -> bytes:
    return (b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (target, len(body))
            + body)


CASES = {
    "non-numeric content-length":
        (b"POST /tx HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "negative content-length":
        (b"POST /tx HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    "oversized content-length":
        (b"POST /tx HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
         413),
    "header line over 64 KiB":
        (b"GET /health HTTP/1.1\r\nX-Padding: " + b"a" * (70 * 1024) + b"\r\n\r\n",
         431),
    "malformed request line": (b"GARBAGE\r\n\r\n", 400),
    "non-numeric timeout": (_post(b"/tx?wait=1&timeout=soon", PAYMENT), 400),
    "negative timeout": (_post(b"/tx?wait=1&timeout=-1", PAYMENT), 400),
    "well-formed health check": (b"GET /health HTTP/1.1\r\n\r\n", 200),
}


async def _exchange(raw: bytes):
    loop = asyncio.get_running_loop()
    unhandled = []
    loop.set_exception_handler(lambda _loop, context: unhandled.append(context))
    service = GatewayService(AsyncioRuntime(loop=loop, seed=0), num_shards=2)
    http = GatewayHttp(service, port=0)
    port = await http.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        reply = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
    finally:
        await http.close()
        await service.close()
    return reply, unhandled


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_request_gets_an_error_reply(name):
    raw, expected = CASES[name]
    reply, unhandled = asyncio.run(_exchange(raw))
    assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == str(expected).encode(), reply
    assert not unhandled
