"""Stdlib HTTP bridge: serve the ASGI app with no server dependency.

Production deployments put the app under a real ASGI server (uvicorn,
hypercorn); this module is the zero-dependency fallback the ``python
-m repro.experiments serve`` CLI uses so the service runs anywhere the
library does. A
:class:`ThreadingHTTPServer` accepts connections; each request thread
drives one ASGI ``http`` exchange to completion with its own
:func:`asyncio.run` — blocking handler work rides the request thread,
and streaming bodies (SSE/NDJSON) flush chunk-by-chunk.

Connections are close-delimited (``Connection: close``): correct for
both buffered and streamed responses without implementing chunked
transfer-encoding, at the cost of one TCP connection per request —
fine for the fallback tier this bridge serves.
"""

from __future__ import annotations

import asyncio
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit


class _AsgiRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"  # close-delimited bodies, see module doc

    # quiet by default; the server object can flip this on
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _handle(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        split = urlsplit(self.path)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.0",
            "method": self.command,
            "scheme": "http",
            "path": split.path,
            "raw_path": self.path.encode("latin-1"),
            "query_string": split.query.encode("latin-1"),
            "headers": [
                (key.lower().encode("latin-1"), value.encode("latin-1"))
                for key, value in self.headers.items()
            ],
            "client": self.client_address,
            "server": self.server.server_address,
        }
        try:
            asyncio.run(self._drive(scope, body))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    async def _drive(self, scope: dict, body: bytes) -> None:
        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        async def send(message):
            if message["type"] == "http.response.start":
                self.send_response_only(message["status"])
                for key, value in message.get("headers", ()):
                    self.send_header(
                        key.decode("latin-1"), value.decode("latin-1")
                    )
                self.send_header("Connection", "close")
                self.end_headers()
            elif message["type"] == "http.response.body":
                chunk = message.get("body", b"")
                if chunk:
                    self.wfile.write(chunk)
                    self.wfile.flush()  # streamed events must not buffer

        await self.server.app(scope, receive, send)

    # one implementation for every verb the router knows
    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = _handle


class AsgiHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one ASGI app."""

    daemon_threads = True

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8175,
                 verbose: bool = False):
        super().__init__((host, port), _AsgiRequestHandler)
        self.app = app
        self.verbose = verbose

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def run_server(app, host: str = "127.0.0.1", port: int = 8175,
               verbose: bool = True) -> None:
    """Serve ``app`` until interrupted (the CLI ``serve`` entry)."""
    server = AsgiHTTPServer(app, host=host, port=port, verbose=verbose)
    service = getattr(app, "service", None)
    try:
        print(f"repro service listening on {server.url}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
        server.server_close()
        if service is not None:
            service.close()
