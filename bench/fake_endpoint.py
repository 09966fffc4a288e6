"""A fake model endpoint on 127.0.0.1 with fixed service times.

Replies come from the package's own mock backend (``MockTransport.chat`` and
``mock_embedding``), seeded from the request's seed, so a live run against
this server writes the same ``runs/*.jsonl`` as a mock run. Both wire
profiles are served, including the batched embedding forms (``/api/embed``
and ``/v1/embeddings`` with a list ``input``), which cost a fixed time per
text. At most ``CAPACITY`` requests are in service at once; the rest queue.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from triplex.llmclient import MockTransport, mock_embedding

CHAT_SERVICE_S = 0.020
EMBED_SERVICE_S = 0.005
CAPACITY = 2

_CHAT_PATHS = ("/api/chat", "/v1/chat/completions")
_EMBED_PATHS = ("/api/embeddings", "/api/embed", "/v1/embeddings")


class BadRequest(ValueError):
    pass


def _chat_seed(path: str, payload: dict) -> int:
    # the program sends its endpoint seed; MockTransport uses ``seed or 0``
    seed = payload.get("seed") if path.startswith("/v1/") else payload.get("options", {}).get("seed")
    return seed or 0


def _prompt(payload: dict) -> str:
    messages = payload.get("messages")
    if not isinstance(messages, list) or not messages:
        raise BadRequest("messages must be a non-empty list")
    content = messages[-1].get("content") if isinstance(messages[-1], dict) else None
    if not isinstance(content, str):
        raise BadRequest("message content must be a string")
    return content


def _embed_inputs(path: str, payload: dict) -> tuple[list[str], bool]:
    """The texts to embed, and whether the request used the batched form."""
    raw = payload.get("prompt") if path == "/api/embeddings" else payload.get("input")
    batched = isinstance(raw, list)
    texts = raw if batched else [raw]
    if not texts or not all(isinstance(t, str) and t.strip() for t in texts):
        raise BadRequest("embedding input must be non-empty text")
    return texts, batched


def chat_response(path: str, payload: dict) -> dict:
    reply = MockTransport(_chat_seed(path, payload)).chat(_prompt(payload))
    model = payload.get("model", "")
    message = {"role": "assistant", "content": reply}
    if path == "/api/chat":
        return {"model": model, "message": message, "done": True}
    return {
        "object": "chat.completion",
        "model": model,
        "choices": [{"index": 0, "message": message, "finish_reason": "stop"}],
    }


def embed_response(path: str, payload: dict) -> tuple[dict, int]:
    """The response body and the number of texts embedded."""
    texts, batched = _embed_inputs(path, payload)
    vectors = [mock_embedding(t).tolist() for t in texts]
    model = payload.get("model", "")
    if path == "/api/embeddings":
        body = {"embedding": vectors[0]}
    elif path == "/api/embed":
        body = {"model": model, "embeddings": vectors}
    else:
        body = {
            "object": "list",
            "model": model,
            "data": [
                {"object": "embedding", "index": i, "embedding": v}
                for i, v in enumerate(vectors)
            ],
        }
    return body, len(texts)


class FakeEndpoint:
    """The server plus its counters; ``start`` before timing, ``close`` after."""

    def __init__(self) -> None:
        self._slots = threading.BoundedSemaphore(CAPACITY)
        self._lock = threading.Lock()
        self.reset()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # without this, delayed ACKs stall every small response by ~40 ms
            disable_nagle_algorithm = True

            def do_POST(self) -> None:
                endpoint._handle(self)

            def log_message(self, format, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FakeEndpoint":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def reset(self) -> None:
        """Zero the counters and start a new measurement window."""
        with self._lock:
            self.stats = {
                "chat_requests": 0,
                "embed_requests": 0,
                "embed_items": 0,
                "other_requests": 0,
                "queue_s": 0.0,
                "busy_s": 0.0,
            }
            self._window_start = time.perf_counter()

    def snapshot(self) -> dict:
        """Counters since the last ``reset``, with the window's busy fraction."""
        with self._lock:
            stats = dict(self.stats)
            elapsed = time.perf_counter() - self._window_start
        stats["requests"] = (
            stats["chat_requests"] + stats["embed_requests"] + stats["other_requests"]
        )
        stats["busy_frac"] = stats["busy_s"] / (elapsed * CAPACITY) if elapsed > 0 else 0.0
        return stats

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path
        queued = time.perf_counter()
        with self._slots:
            started = time.perf_counter()
            status, body, kind, items = self._serve(handler, path)
            service_s = CHAT_SERVICE_S if kind == "chat" else EMBED_SERVICE_S * items
            remaining = started + service_s - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            finished = time.perf_counter()
        with self._lock:
            self.stats[f"{kind}_requests"] += 1
            self.stats["embed_items"] += items if kind == "embed" else 0
            self.stats["queue_s"] += started - queued
            self.stats["busy_s"] += finished - started
        data = json.dumps(body).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    def _serve(self, handler: BaseHTTPRequestHandler, path: str) -> tuple[int, dict, str, int]:
        length = int(handler.headers.get("Content-Length") or 0)
        raw = handler.rfile.read(length)
        kind = "chat" if path in _CHAT_PATHS else "embed" if path in _EMBED_PATHS else "other"
        if kind == "other":
            return 404, {"error": f"no route {path}"}, kind, 0
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise BadRequest("request body must be a JSON object")
            if kind == "chat":
                return 200, chat_response(path, payload), kind, 0
            body, items = embed_response(path, payload)
            return 200, body, kind, items
        except (ValueError, AttributeError) as exc:
            # json.JSONDecodeError and BadRequest are ValueErrors
            return 400, {"error": str(exc)}, kind, 0
