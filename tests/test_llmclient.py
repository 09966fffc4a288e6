"""Mock backend determinism, embedding oracle, HTTP transport, request gating."""

from __future__ import annotations

import email.utils
import hashlib
import http.client
import json
import os
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest

from triplex import cli, llmclient
from triplex.corpus import load_corpus
from triplex.errors import ConfigurationError, TransportError
from triplex.extraction import chunk_corpus, parse_triples, read_run, run_extraction
from triplex.llmclient import (
    EMBEDDING_DIM,
    EMPTY_CASE_TOKEN,
    ENDPOINT_ENV_VAR,
    REFINEMENT_MARKER,
    EndpointConfig,
    HttpTransport,
    LlmClient,
    MockTransport,
    make_client,
    mock_embedding,
)
from triplex.prompting import PromptVariant

PROMPT = "Extract triples.\n\nText:\nJapan shall eliminate customs duties of Thailand."


# ---------------------------------------------------------------------------
# mock chat
# ---------------------------------------------------------------------------


def test_mock_chat_is_deterministic_per_seed():
    a = MockTransport(seed=42)
    b = MockTransport(seed=42)
    assert a.chat(PROMPT) == b.chat(PROMPT)
    assert MockTransport(seed=7).chat(PROMPT) != a.chat(PROMPT)


def test_mock_chat_yields_parseable_triples(mock_client):
    reply = mock_client.complete(PROMPT)
    candidates, _ = parse_triples(reply)
    assert candidates, reply


def test_mock_chat_empty_case_yields_no_candidates(mock_client):
    reply = mock_client.complete(f"Extract triples.\n\nText:\n{EMPTY_CASE_TOKEN}")
    candidates, rejections = parse_triples(reply)
    assert candidates == []
    assert rejections


def test_complete_rejects_empty_prompt(mock_client):
    with pytest.raises(ValueError):
        mock_client.complete("   ")


def test_mock_chat_draws_entities_from_the_chunks_first_ten_names():
    names = [f"Land{letter}" for letter in "ABCDEFGHIJKL"]
    prompt = "Extract triples.\n\nText:\n" + " and ".join(names) + "."
    fields = set()
    for seed in range(40):
        for subject, _, obj, _, _ in parse_triples(MockTransport(seed=seed).chat(prompt))[0]:
            fields.update((subject, obj))
    assert fields & set(names) == set(names[:10])


def _refine(original: str | None, chunk: str) -> str:
    """The mock's reply to a refinement prompt whose generic term is "the parties"."""
    lines = [f"{REFINEMENT_MARKER}.", "Generic terms: the parties"]
    if original is not None:
        lines.append(f"Original triple: {original}")
    return MockTransport(seed=0).chat("\n".join([*lines, "Text:", chunk]))


def test_mock_refinement_without_an_original_triple_answers_unknown():
    assert _refine(None, "Japan and Chile signed it.") == "(unknown | unknown | unknown)"


def test_mock_refinement_returns_an_original_without_three_fields_as_is():
    assert _refine("(The Parties | signed)", "Japan and Chile signed it.") == (
        "(The Parties | signed)"
    )


@pytest.mark.parametrize(
    "chunk, subject",
    [
        ("Japan and Chile signed it.", "Japan and Chile"),
        # "The" is blocklisted and "EU" is too short, which leaves one entity
        ("The parties and the EU met in Japan.", "Japan"),
        ("the parties signed it.", "The Parties"),  # no entity: the field stays
    ],
    ids=["two-entities", "one-entity", "no-entity"],
)
def test_mock_refinement_replaces_generic_fields_by_the_chunks_entities(chunk, subject):
    assert _refine("(The Parties | signed | contract)", chunk) == (
        f"({subject} | signed | contract)"
    )


# ---------------------------------------------------------------------------
# mock embeddings
# ---------------------------------------------------------------------------


def oracle_embedding(text: str) -> np.ndarray:
    """Independent reimplementation: per-word '#'-padded character trigrams,
    bucketed by salted SHA-256 into 256 dimensions, counts L2-normalized."""
    salt = b"triplex-mock-embed-v1:"
    vec = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    for word in text.lower().split():
        padded = f"#{word}#"
        grams = [padded] if len(padded) < 3 else [
            padded[i : i + 3] for i in range(len(padded) - 2)
        ]
        for gram in grams:
            digest = hashlib.sha256(salt + gram.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:4], "big") % EMBEDDING_DIM] += 1.0
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize(
    "text",
    ["japan", "import tariffs", "expands trade with", "a b c", "free trade agreement"],
)
def test_mock_embedding_matches_oracle(text):
    assert np.allclose(mock_embedding(text), oracle_embedding(text), atol=1e-12)


def test_mock_embedding_is_unit_length():
    for text in ("tariff", "rules of origin", "x"):
        assert np.linalg.norm(mock_embedding(text)) == pytest.approx(1.0, abs=1e-9)


def test_mock_embedding_rejects_empty():
    with pytest.raises(ValueError):
        mock_embedding("   ")


def test_embedding_similarity_ordering(mock_client):
    tariff, tariffs, dispute = mock_client.embed(
        ["import tariff", "import tariffs", "dispute settlement"]
    )
    close = tariff.cosine(tariffs)
    far = tariff.cosine(dispute)
    assert close == pytest.approx(0.8807, abs=1e-3)
    assert far == pytest.approx(0.0700, abs=1e-3)
    assert close > far


def test_inflected_predicates_clear_redundancy_threshold(mock_client):
    a, b = mock_client.embed(["expands trade with", "expand trade with"])
    assert a.cosine(b) == pytest.approx(0.9037, abs=1e-3)
    assert a.cosine(b) >= 0.9


def test_client_embed_returns_unit_vectors_in_order(mock_client):
    texts = ["japan", "customs duties", "signed"]
    vectors = mock_client.embed(texts)
    assert len(vectors) == 3
    for text, vector in zip(texts, vectors):
        assert vector.values.shape == (EMBEDDING_DIM,)
        assert float(np.linalg.norm(vector.values)) == pytest.approx(1.0, abs=1e-9)
        assert vector.cosine(vector) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(vector.values, oracle_embedding(text))


class EmbedCountingTransport:
    def __init__(self) -> None:
        self.embedded: list[str] = []

    def chat(self, prompt_text: str) -> str:
        raise AssertionError("chat not expected")

    def embed(self, texts):
        self.embedded.extend(texts)
        return [mock_embedding(text) for text in texts]


def test_client_embed_rejects_empty_inputs():
    transport = EmbedCountingTransport()
    client = LlmClient(EndpointConfig(), transport)
    with pytest.raises(ValueError):
        client.embed([])
    with pytest.raises(ValueError):
        client.embed(["fine", "  "])
    with pytest.raises(ValueError):
        client.embed(["fine", ""])
    assert transport.embedded == []


# ---------------------------------------------------------------------------
# HTTP transport, against a scripted local server
# ---------------------------------------------------------------------------

DROP = object()  # outcome: close the connection without replying


@dataclass
class Reply:
    """One scripted answer; a body that is not bytes is sent as JSON."""

    status: int = 200
    body: object = None
    delay_s: float = 0.0
    headers: dict = field(default_factory=dict)
    close_after: bool = False  # close the connection afterwards without saying so


def ECHO(payload: dict) -> Reply:
    """Outcome: reply to a chat request with its own prompt."""
    return Reply(200, {"message": {"content": payload["messages"][0]["content"]}})


def EMBED(payload: dict) -> Reply:
    """Outcome: reply to an ollama embedding request with each input's mock vector."""
    return Reply(200, {"embeddings": [mock_embedding(text).tolist() for text in payload["input"]]})


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.requests.append(
                {"url": f"http://{self.headers['Host']}{self.path}", "body": body}
            )
            outcome = self.server.outcomes.pop(0)
        if callable(outcome):  # an outcome that reads the request
            outcome = outcome(json.loads(body))
        if outcome is DROP:
            self.close_connection = True
            return
        time.sleep(outcome.delay_s)
        data = outcome.body
        if not isinstance(data, bytes):
            data = json.dumps(data).encode()
        self.send_response(outcome.status)
        for name, value in outcome.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = outcome.close_after

    def log_message(self, format, *args) -> None:
        pass


class ScriptedEndpoint(ThreadingHTTPServer):
    """Answers each POST with the next scripted outcome; records requests and connections.

    An outcome is a ``Reply``, ``DROP``, or a function of the request's JSON
    payload that returns a ``Reply``.
    """

    daemon_threads = True
    # socketserver listens with a backlog of 5; when more clients connect at once than the
    # serving loop accepts, the kernel may reset one (errno 104) before it sends a byte
    request_queue_size = 64

    def __init__(self, outcomes) -> None:
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.outcomes = list(outcomes)
        self.requests: list[dict] = []
        self.transports: list[HttpTransport] = []  # closed when the test ends
        self.connections = 0
        self.errors: list[BaseException] = []  # raised while handling, checked at teardown
        self.lock = threading.Lock()
        self.closed = threading.Semaphore(0)  # released once per closed connection

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed.release()

    def handle_error(self, request, client_address) -> None:
        # a reply to a client that timed out meets a closed socket; anything else is a fault
        error = sys.exc_info()[1]
        if not isinstance(error, ConnectionError):
            self.errors.append(error)


@pytest.fixture()
def serve(monkeypatch):
    """Start a scripted endpoint with the given outcomes."""
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    servers: list[ScriptedEndpoint] = []

    def start(*outcomes) -> ScriptedEndpoint:
        server = ScriptedEndpoint(outcomes)
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        for transport in server.transports:
            transport.close()
        server.shutdown()
        server.server_close()
        assert server.errors == []


def _transport(server, **config_overrides):
    config = EndpointConfig(**{"base_url": server.url, "max_retries": 3, **config_overrides})
    sleeps: list[float] = []
    transport = HttpTransport(config, sleeper=sleeps.append)
    server.transports.append(transport)
    return transport, sleeps


def _payload(request: dict) -> dict:
    return json.loads(request["body"])


def test_http_chat_recovers_after_server_errors(serve):
    # a 5xx, a 429 (too many requests) and a 408 (request timeout) are each retried
    server = serve(
        Reply(502), Reply(429), Reply(408), Reply(200, {"message": {"content": "(A | b | C)"}})
    )
    transport, sleeps = _transport(server)
    assert transport.chat("hello") == "(A | b | C)"
    assert len(server.requests) == 4
    assert sleeps == [0.25, 0.5, 1.0]  # exponential backoff between attempts


def test_http_chat_client_error_is_fatal_and_not_retried(serve):
    server = serve(Reply(404, b"no such model"))
    transport, sleeps = _transport(server)
    with pytest.raises(ConfigurationError) as excinfo:
        transport.chat("hello")
    assert "404" in str(excinfo.value)
    assert "no such model" in str(excinfo.value)
    assert len(server.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_http_redirect_is_fatal_and_not_followed(serve, status):
    server = serve(Reply(status, b"", headers={"Location": "http://127.0.0.1:1/elsewhere"}))
    transport, sleeps = _transport(server)
    with pytest.raises(ConfigurationError) as excinfo:
        transport.chat("hello")
    assert f"({status})" in str(excinfo.value)
    assert len(server.requests) == 1
    assert sleeps == []


def test_http_chat_exhausted_retries_raise_transport_error(serve):
    server = serve(Reply(500), Reply(429))
    transport, _ = _transport(server, max_retries=1)
    with pytest.raises(TransportError) as excinfo:
        transport.chat("hello")
    assert "2 attempts: status 429 from " in str(excinfo.value)
    assert len(server.requests) == 2


def _http_date(offset_s: float) -> str:
    return email.utils.format_datetime(
        datetime.now(timezone.utc) + timedelta(seconds=offset_s), usegmt=True
    )


@pytest.mark.parametrize(
    "status, retry_after, low, high",
    [
        (429, "2", 2.0, 2.0),
        (429, "3600", 30.0, 30.0),  # capped
        (503, " 1 ", 1.0, 1.0),
        (429, "soon", 0.25, 0.25),  # unparsable: the backoff step
        (429, "-1", 0.25, 0.25),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.0, 0.0),  # a date in the past
        (429, "Wed, 21 Oct 2015 07:28:00 -0000", 0.0, 0.0),  # no zone given: UTC
        (429, 10.0, 5.0, 10.0),  # a number here: an HTTP-date that many seconds from now
        (408, 86_400.0, 30.0, 30.0),  # capped
    ],
    ids=[
        "seconds", "capped", "5xx", "unparsable", "negative", "past-date", "past-date-no-zone",
        "date", "far-date",
    ],
)
def test_http_retry_after_sets_the_wait_before_the_next_attempt(
    serve, status, retry_after, low, high
):
    if not isinstance(retry_after, str):
        retry_after = _http_date(retry_after)
    server = serve(
        Reply(status, headers={"Retry-After": retry_after}),
        Reply(200, {"message": {"content": "ok"}}),
    )
    transport, sleeps = _transport(server)
    assert transport.chat("hello") == "ok"
    (wait_s,) = sleeps
    assert low <= wait_s <= high


def test_http_retry_after_applies_to_the_next_attempt_only(serve):
    server = serve(
        Reply(429, headers={"Retry-After": "3"}),
        Reply(500),
        Reply(200, {"message": {"content": "ok"}}),
    )
    transport, sleeps = _transport(server)
    assert transport.chat("hello") == "ok"
    assert sleeps == [3.0, 0.5]


def test_live_extract_fails_only_the_chunk_a_run_of_429s_answers(
    serve, bank, corpus_dir, small_chunks_config
):
    server = serve(*[Reply(429)] * 2, *[ECHO] * 200)
    config = EndpointConfig(base_url=server.url, max_retries=1, max_parallel_requests=1)
    transport = HttpTransport(config, sleeper=lambda _: None)
    server.transports.append(transport)
    corpus = load_corpus(corpus_dir, limit=1)
    client = LlmClient(config, transport)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
    )
    assert run.stats["chunks_failed"] == 1
    assert run.stats["chunks_processed"] == len(server.requests) - 2 > 0


def test_http_chat_retries_connection_errors_and_bad_json(serve):
    server = serve(
        DROP, Reply(200, b"<html>not json</html>"), Reply(200, {"message": {"content": "ok"}})
    )
    transport, sleeps = _transport(server)
    assert transport.chat("hello") == "ok"
    assert len(server.requests) == 3
    assert sleeps == [0.25, 0.5]


def test_http_refused_connection_is_retried_then_fatal(serve):
    server = serve()
    url = server.url
    server.shutdown()
    server.server_close()  # nothing listens on the port any more
    transport = HttpTransport(EndpointConfig(base_url=url, max_retries=2), sleeper=lambda _: None)
    with pytest.raises(TransportError, match="failed after 3 attempts"):
        transport.chat("hello")
    transport.close()


def test_http_slow_reply_times_out_and_is_retried(serve):
    server = serve(
        Reply(200, {"message": {"content": "late"}}, delay_s=0.5),
        Reply(200, {"message": {"content": "ok"}}),
    )
    transport, sleeps = _transport(server, timeout_ms=100)
    assert transport.chat("hello") == "ok"
    assert len(server.requests) == 2
    assert sleeps == [0.25]


def test_http_ollama_request_shape(serve):
    server = serve(Reply(200, {"message": {"content": "ok"}}))
    transport, _ = _transport(server, seed=42, temperature=0.0, max_tokens=2048)
    transport.chat("prompt body")
    (request,) = server.requests
    assert request["url"].endswith("/api/chat")
    payload = _payload(request)
    assert payload["stream"] is False
    assert payload["messages"] == [{"role": "user", "content": "prompt body"}]
    assert payload["options"] == {"temperature": 0.0, "num_predict": 2048, "seed": 42}


def test_http_ollama_embeddings_shape(serve):
    server = serve(
        Reply(200, {"embeddings": [[0.0, 3.0, 4.0]]}),
        Reply(200, {"embeddings": [[1.0, 0.0], [0.0, 1.0]]}),
    )
    transport, _ = _transport(server)
    raw = transport.embed_one("import tariffs")
    assert raw == [0.0, 3.0, 4.0]
    assert transport.embed(["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]
    single, batch = server.requests
    assert single["url"].endswith("/api/embed") and batch["url"].endswith("/api/embed")
    assert _payload(single) == {"model": "nomic-embed-text", "input": ["import tariffs"]}
    assert _payload(batch) == {"model": "nomic-embed-text", "input": ["a", "b"]}


def test_http_openai_profile_paths_and_shapes(serve):
    server = serve(
        Reply(200, {"choices": [{"message": {"content": "ok"}}]}),
        Reply(200, {"data": [{"embedding": [1.0, 0.0]}]}),
        Reply(200, {"data": [{"index": 0, "embedding": [1.0]}, {"index": 1, "embedding": [2.0]}]}),
    )
    transport, _ = _transport(server, profile="openai")
    assert transport.chat("p") == "ok"
    assert transport.embed_one("t") == [1.0, 0.0]
    assert transport.embed(["t", "u"]) == [[1.0], [2.0]]
    chat_request, embed_request, batch_request = server.requests
    assert chat_request["url"].endswith("/v1/chat/completions")
    assert _payload(chat_request)["max_tokens"] == 2048
    assert embed_request["url"].endswith("/v1/embeddings")
    assert _payload(embed_request) == {"model": "nomic-embed-text", "input": ["t"]}
    assert batch_request["url"].endswith("/v1/embeddings")
    assert _payload(batch_request) == {"model": "nomic-embed-text", "input": ["t", "u"]}


_PINNED_REQUESTS = [
    (
        {},
        "http://localhost:11434/api/chat",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"stream": false, "options": {"temperature": 0.0, "num_predict": 2048, "seed": 42}}',
        "http://localhost:11434/api/embed",
        '{"model": "nomic-embed-text", "input": ["t", "u"]}',
    ),
    (
        {"seed": None, "base_url": "http://h:1/", "chat_path": "/c", "embeddings_path": "/e"},
        "http://h:1/c",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"stream": false, "options": {"temperature": 0.0, "num_predict": 2048}}',
        "http://h:1/e",
        '{"model": "nomic-embed-text", "input": ["t", "u"]}',
    ),
    (
        {"profile": "openai", "temperature": 0.5, "max_tokens": 64},
        "http://localhost:11434/v1/chat/completions",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"temperature": 0.5, "max_tokens": 64, "seed": 42}',
        "http://localhost:11434/v1/embeddings",
        '{"model": "nomic-embed-text", "input": ["t", "u"]}',
    ),
    (
        {"profile": "openai", "seed": None, "chat_path": "/c"},
        "http://localhost:11434/c",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"temperature": 0.0, "max_tokens": 2048}',
        "http://localhost:11434/v1/embeddings",
        '{"model": "nomic-embed-text", "input": ["t", "u"]}',
    ),
    (
        {"base_url": "http://localhost:11434/proxy/"},
        "http://localhost:11434/proxy/api/chat",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"stream": false, "options": {"temperature": 0.0, "num_predict": 2048, "seed": 42}}',
        "http://localhost:11434/proxy/api/embed",
        '{"model": "nomic-embed-text", "input": ["t", "u"]}',
    ),
]


def _on(server: ScriptedEndpoint, url: str) -> str:
    """``url`` with its scheme and host replaced by the scripted server's."""
    scheme, host = urlsplit(url)[:2]
    return server.url + url[len(f"{scheme}://{host}") :]


@pytest.mark.parametrize("overrides, chat_url, chat_body, embed_url, embed_body", _PINNED_REQUESTS)
def test_http_request_urls_and_payloads_are_pinned(
    serve, overrides, chat_url, chat_body, embed_url, embed_body
):
    # the body bytes as sent, key order included; the pinned hosts stand for the server
    if overrides.get("profile") == "openai":
        vectors = {"data": [{"embedding": [1.0]}, {"embedding": [2.0]}]}
        replies = [{"choices": [{"message": {"content": "ok"}}]}, vectors]
    else:
        replies = [{"message": {"content": "ok"}}, {"embeddings": [[1.0], [2.0]]}]
    server = serve(*(Reply(200, reply) for reply in replies))
    base_url = _on(server, overrides.get("base_url", EndpointConfig().base_url))
    transport, _ = _transport(server, **{**overrides, "base_url": base_url})
    assert transport.chat("p") == "ok"
    assert transport.embed(["t", "u"]) == [[1.0], [2.0]]
    chat_request, embed_request = server.requests
    assert (chat_request["url"], chat_request["body"].decode()) == (
        _on(server, chat_url),
        chat_body,
    )
    assert (embed_request["url"], embed_request["body"].decode()) == (
        _on(server, embed_url),
        embed_body,
    )


@pytest.mark.parametrize(
    "profile, reply",
    [
        ("ollama", {"message": "flat"}),
        ("ollama", ["not", "an", "object"]),
        ("openai", {"choices": []}),
        ("openai", {"choices": [{"text": "legacy"}]}),
        ("ollama", {"message": {"content": None}}),
        ("openai", {"choices": [{"message": {"content": 7}}]}),
    ],
)
def test_http_wrong_reply_shape_names_the_request_kind(serve, profile, reply):
    server = serve(Reply(200, reply), Reply(200, reply))
    transport, _ = _transport(server, profile=profile, max_retries=0)
    with pytest.raises(TransportError, match="^unexpected chat response shape: "):
        transport.chat("hello")
    with pytest.raises(TransportError, match="^unexpected embedding response shape: "):
        transport.embed_one("hello")


def test_http_chat_refuses_a_reply_that_holds_a_lone_surrogate(serve):
    # JSON escapes it as "\\ud800", and json.loads keeps it, but UTF-8 cannot encode it
    server = serve(Reply(200, {"message": {"content": "(Japan | ex\ud800ports | cars)"}}))
    transport, sleeps = _transport(server)
    message = "chat reply holds a lone surrogate '\\ud800' at index 11, which UTF-8 cannot encode"
    with pytest.raises(TransportError, match="^" + re.escape(message)):
        transport.chat("hello")
    assert len(server.requests) == 1 and sleeps == []  # refused at once, not retried


def test_http_unexpected_response_shape_is_transport_error(serve):
    server = serve(*[Reply(200, {"unexpected": True})] * 4)
    transport, _ = _transport(server, max_retries=0)
    with pytest.raises(TransportError):
        transport.chat("hello")
    assert len(server.requests) == 1


def test_endpoint_env_var_overrides_base_url(serve, monkeypatch):
    server = serve(Reply(200, {"message": {"content": "ok"}}))
    monkeypatch.setenv(ENDPOINT_ENV_VAR, server.url)
    transport, _ = _transport(server, base_url="http://model-farm.invalid:9999")
    assert transport.chat("hello") == "ok"
    assert [r["url"] for r in server.requests] == [server.url + "/api/chat"]


_MALFORMED_URLS = ["http://[::1", "http://localhost:notaport", "http://127.0.0.1:99999"]


@pytest.mark.parametrize(
    "base_url", ["localhost:11434", "ftp://models:21", "http://", "/api", *_MALFORMED_URLS]
)
def test_endpoint_url_without_http_scheme_or_host_is_fatal(monkeypatch, base_url):
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    with pytest.raises(ConfigurationError, match="endpoint URL must start with http"):
        HttpTransport(EndpointConfig(base_url=base_url))


def _join_all(threads: list[threading.Thread], timeout_s: float) -> None:
    """Run ``threads`` to the end; the first exception a thread died of is raised here."""
    errors: list[Exception] = []

    def catching(run):
        def wrapper():
            try:
                run()
            except Exception as exc:
                errors.append(exc)

        return wrapper

    for thread in threads:
        thread.run = catching(thread.run)
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


def test_join_all_raises_what_a_worker_thread_died_of():
    def reset() -> None:
        raise ConnectionResetError(104, "Connection reset by peer")

    threads = [threading.Thread(target=reset), threading.Thread(target=lambda: None)]
    with pytest.raises(ConnectionResetError, match="Connection reset by peer"):
        _join_all(threads, timeout_s=10)


def test_http_pools_connections_up_to_the_requests_in_flight(serve):
    threads = 8
    server = serve(*[Reply(200, {"message": {"content": "ok"}})] * (3 + threads * 3))
    transport, _ = _transport(server)
    for _ in range(3):
        transport.chat("hello")
    assert server.connections == 1
    client = LlmClient(replace(transport.config, max_parallel_requests=2), transport)
    start = threading.Barrier(threads)
    replies: list[str] = []

    def worker() -> None:
        start.wait(timeout=5)
        for _ in range(3):
            replies.append(client.complete("hello"))

    _join_all([threading.Thread(target=worker) for _ in range(threads)], timeout_s=10)
    assert replies == ["ok"] * (threads * 3)
    assert len(server.requests) == 3 + threads * 3
    assert server.connections <= 2


def test_http_reuses_a_finished_threads_connection(serve):
    server = serve(*[Reply(200, {"message": {"content": "ok"}})] * 2)
    transport, _ = _transport(server)
    for _ in range(2):
        _join_all([threading.Thread(target=transport.chat, args=("hello",))], timeout_s=10)
    assert len(server.requests) == 2
    assert server.connections == 1


def test_http_pool_never_lends_one_connection_twice(serve):
    threads, requests = 16, 20
    server = serve(*[ECHO] * (threads * requests))
    transport, _ = _transport(server, max_retries=0)
    mismatched: list[tuple[str, str]] = []

    def worker(name: int) -> None:
        for i in range(requests):
            prompt = f"thread {name} request {i}"
            reply = transport.chat(prompt)
            if reply != prompt:
                mismatched.append((prompt, reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _join_all(
            [threading.Thread(target=worker, args=(n,)) for n in range(threads)], timeout_s=60
        )
    finally:
        sys.setswitchinterval(interval)
    assert mismatched == []
    assert len(server.requests) == threads * requests
    assert server.connections <= threads
    # every connection opened is back in the pool, and none is in it twice
    assert len({id(c) for c in transport._idle}) == len(transport._idle) == server.connections


def test_live_extract_of_every_variant_shares_max_parallel_connections(serve, config_file):
    server = serve(*[ECHO] * 2000)
    config = config_file(endpoint={"base_url": server.url, "max_parallel_requests": 2})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "all", "--backend", "live"]
    assert cli.main(argv) == 0
    assert len(server.requests) > 8  # several chunks for each of the four variants
    assert server.connections <= 2


def test_live_extract_exits_1_and_writes_the_run_when_a_chunk_runs_out_of_retries(
    serve, config_file, capsys
):
    server = serve(Reply(500), *[ECHO] * 200)
    config = config_file(
        endpoint={"base_url": server.url, "max_parallel_requests": 2, "max_retries": 0}
    )
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "zero-shot", "--backend", "live"]
    assert cli.main(argv) == 1
    run = read_run(config.parent / "out" / "runs" / "zero-shot.jsonl")
    assert run.stats["chunks_failed"] == 1
    assert run.stats["chunks_processed"] == len(server.requests) - 1 > 1
    assert ", 1 failed)" in capsys.readouterr().out


def test_live_extract_exits_1_when_a_reply_holds_a_lone_surrogate(serve, config_file, capsys):
    # the surrogate would reach the run file, which UTF-8 cannot hold: its chunk fails instead
    lone = Reply(200, {"message": {"content": "(Japan | ex\ud800ports | cars)"}})
    server = serve(lone, *[ECHO] * 200)
    config = config_file(endpoint={"base_url": server.url, "max_parallel_requests": 1})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "zero-shot", "--backend", "live"]
    assert cli.main(argv) == 1
    assert ", 1 failed)" in capsys.readouterr().out
    run = read_run(config.parent / "out" / "runs" / "zero-shot.jsonl")
    assert run.stats["chunks_failed"] == 1
    assert run.stats["chunks_processed"] > 0


def test_live_extract_exits_1_naming_the_variant_whose_every_chunk_failed(
    serve, config_file, capsys
):
    def fail_one_shot(payload: dict) -> Reply:
        prompt = payload["messages"][0]["content"]
        # one-shot's template gives an example, but not "more examples"
        if "an example of the expected" in prompt and "more examples" not in prompt:
            return Reply(500)
        return ECHO(payload)

    server = serve(*[fail_one_shot] * 2000)
    config = config_file(
        endpoint={"base_url": server.url, "max_parallel_requests": 2, "max_retries": 0}
    )
    assert cli.main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    argv = ["extract", "--config", str(config), "--variant", "all", "--backend", "live"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("one-shot: all ")
    runs = config.parent / "out" / "runs"
    assert sorted(path.name for path in runs.glob("*.jsonl")) == [
        "few-shot.jsonl", "negative-examples.jsonl", "zero-shot.jsonl"
    ]
    assert all(read_run(path).stats["chunks_failed"] == 0 for path in runs.glob("*.jsonl"))


def test_extract_whose_every_chunk_fails_removes_the_variants_older_run(
    serve, config_file, capsys
):
    server = serve(*[Reply(500)] * 2000)
    config = config_file(
        endpoint={"base_url": server.url, "max_parallel_requests": 2, "max_retries": 0}
    )
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "zero-shot"]
    assert cli.main(argv) == 0
    runs = config.parent / "out" / "runs"
    assert sorted(path.name for path in runs.iterdir()) == [
        "zero-shot.jsonl", "zero-shot.stats.json"
    ]
    capsys.readouterr()
    assert cli.main([*argv, "--backend", "live"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zero-shot: all ")
    assert f"zero-shot: removed the older {runs / 'zero-shot.jsonl'}\n" in err
    assert f"zero-shot: removed the older {runs / 'zero-shot.stats.json'}\n" in err
    assert [*runs.iterdir()] == []


@pytest.mark.parametrize("base_url", _MALFORMED_URLS)
def test_live_extract_with_a_malformed_endpoint_url_exits_2_and_keeps_the_older_run(
    config_file, capsys, monkeypatch, base_url
):
    config = config_file()
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "zero-shot"]
    assert cli.main(argv) == 0
    runs = config.parent / "out" / "runs"
    before = {path.name: path.read_bytes() for path in runs.iterdir()}
    capsys.readouterr()
    monkeypatch.setenv(ENDPOINT_ENV_VAR, base_url)  # the variable overrides the config's URL
    assert cli.main([*argv, "--backend", "live"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: endpoint URL must start with http:// or https:// and name a "
                          f"host, got {base_url!r} (")
    assert err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in runs.iterdir()} == before


def test_live_extract_and_eval_close_their_connections(serve, config_file, monkeypatch):
    chat = serve(*[ECHO] * 2000)
    embed = serve(*[EMBED] * 5000)
    clients: list[LlmClient] = []

    def capture(config, backend):
        clients.append(make_client(config, backend))
        return clients[-1]

    monkeypatch.setattr(cli, "make_client", capture)
    config = config_file(endpoint={"base_url": chat.url})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    argv = ["extract", "--config", str(config), "--variant", "zero-shot", "--backend", "live"]
    assert cli.main(argv) == 0
    config = config_file(endpoint={"base_url": embed.url})
    assert cli.main(["eval", "--config", str(config), "--backend", "live"]) == 0
    assert chat.requests and embed.requests
    # every connection went back to the pool when its request was answered,
    # so an empty pool means the command closed them
    assert [len(client.transport._idle) for client in clients] == [0, 0]


def test_http_resends_once_on_a_connection_closed_while_idle(serve):
    server = serve(
        Reply(200, {"message": {"content": "first"}}, close_after=True),
        Reply(200, {"message": {"content": "second"}}),
    )
    transport, sleeps = _transport(server, max_retries=0)
    assert transport.chat("hello") == "first"
    assert server.closed.acquire(timeout=5)  # the server has closed the kept-alive socket
    assert transport.chat("hello") == "second"  # not an attempt: max_retries=0 still succeeds
    assert sleeps == []
    assert server.connections == 2
    assert len(server.requests) == 2


def test_http_resend_after_an_idle_close_gives_the_pool_one_object_per_server_connection(serve):
    server = serve(
        Reply(200, {"message": {"content": "first"}}, close_after=True),
        *[Reply(200, {"message": {"content": "again"}})] * 3,
    )
    transport, _ = _transport(server, max_retries=0)
    opened: list[http.client.HTTPConnection] = []
    connection_class = transport._connection_class

    def counted(*args, **kwargs):
        opened.append(connection_class(*args, **kwargs))
        return opened[-1]

    transport._connection_class = counted
    assert transport.chat("hello") == "first"
    assert server.closed.acquire(timeout=5)  # the server has closed the kept-alive socket
    assert transport.chat("hello") == "again"  # the resend
    # the server counts a connection for each socket the transport opened, and each socket
    # has its own connection object: the one the server closed is out of the pool
    assert server.connections == len(opened) == 2
    assert list(transport._idle) == [opened[1]]
    assert opened[0].sock is None
    for _ in range(2):
        assert transport.chat("hello") == "again"
    assert server.connections == len(opened) == 2
    assert len(server.requests) == 4


def test_client_normalizes_transport_embeddings(serve):
    server = serve(Reply(200, {"embeddings": [[0.0, 3.0, 4.0]]}))
    transport, _ = _transport(server)
    client = LlmClient(transport.config, transport)
    (vector,) = client.embed(["anything"])
    assert np.allclose(vector.values, [0.0, 0.6, 0.8])


def test_client_rejects_zero_norm_embedding(serve):
    server = serve(Reply(200, {"embeddings": [[1.0, 0.0], [0.0, 0.0]]}))
    transport, _ = _transport(server, max_parallel_requests=1)
    client = LlmClient(transport.config, transport)
    with pytest.raises(TransportError, match="^embedding for 'anything' has invalid norm 0.0$"):
        client.embed(["fine", "anything"])
    assert len(server.requests) == 1


# ---------------------------------------------------------------------------
# configuration and gating
# ---------------------------------------------------------------------------


def test_endpoint_config_validation():
    with pytest.raises(ConfigurationError):
        EndpointConfig(temperature=3.0)
    with pytest.raises(ConfigurationError):
        EndpointConfig(max_parallel_requests=0)
    with pytest.raises(ConfigurationError):
        EndpointConfig(max_retries=-1)
    with pytest.raises(ConfigurationError):
        EndpointConfig(timeout_ms=0)
    with pytest.raises(ConfigurationError):
        EndpointConfig(profile="grpc")


def test_endpoint_fingerprint_tracks_decoding_fields():
    base = EndpointConfig()
    assert base.fingerprint() == EndpointConfig().fingerprint()
    assert base.fingerprint() != EndpointConfig(seed=7).fingerprint()
    assert base.fingerprint() != EndpointConfig(model_name="other").fingerprint()
    # base_url is connection detail, not model identity
    assert base.fingerprint() == EndpointConfig(base_url="http://else:1").fingerprint()


def test_make_client_backends():
    assert isinstance(make_client(EndpointConfig(), "mock").transport, MockTransport)
    assert isinstance(make_client(EndpointConfig(), "live").transport, HttpTransport)
    with pytest.raises(ConfigurationError):
        make_client(EndpointConfig(), "imaginary")


class CountingTransport:
    """Records the chat and embedding calls, the texts embedded and the peak number in flight."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.active = 0
        self.peak = 0
        self.embedded: list[str] = []
        self.batches: list[list[str]] = []

    def _call(self, delay_s: float = 0.01) -> None:
        with self._lock:
            self.calls += 1
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(delay_s)
        with self._lock:
            self.active -= 1

    def chat(self, prompt_text: str) -> str:
        self._call()
        return "(A | signed | B)"

    def embed(self, texts):
        self._call(0.05)  # long enough that every batch of a call is in flight at once
        with self._lock:
            self.embedded.extend(texts)
            self.batches.append(list(texts))
        return [mock_embedding(text) for text in texts]

    def close(self) -> None:
        pass


class FailingEmbedTransport(CountingTransport):
    """Every batch fails, naming its first text; the batch holding ``text 0`` takes longest."""

    def embed(self, texts):
        self._call(0.05 if "text 0" in texts else 0.01)
        raise TransportError(f"no embedding for {texts[0]}")


def test_client_bounds_concurrent_requests():
    transport = CountingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=2), transport)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: client.complete(f"prompt {i}"), range(16)))
    assert transport.peak <= 2
    assert transport.calls == 16


def test_mock_client_allows_one_request_in_flight():
    config = EndpointConfig(max_parallel_requests=4)
    client = make_client(config, "mock")
    assert client.config.fingerprint() == config.fingerprint()
    transport = CountingTransport()
    client.transport = transport
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda i: client.complete(f"prompt {i}"), range(8)))
    assert transport.peak == 1
    assert make_client(config, "live").config.max_parallel_requests == 4


TEXTS = [f"text {i}" for i in range(40)]


@pytest.mark.parametrize("workers", [2, 4])
def test_client_embeds_on_max_parallel_requests_threads(workers):
    transport = CountingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=workers), transport)
    client.embed(TEXTS)
    assert transport.peak == workers
    assert sorted(transport.embedded) == sorted(TEXTS)
    # one contiguous batch per thread, of near-equal sizes
    batches = sorted(transport.batches, key=lambda batch: TEXTS.index(batch[0]))
    assert [text for batch in batches for text in batch] == TEXTS
    assert {len(batch) for batch in batches} == {len(TEXTS) // workers}


def test_parallel_embed_matches_a_serial_client_and_sends_each_text_it_is_given():
    texts = [f"text {i % 25}" for i in range(60)]  # repeats within the call
    serial = LlmClient(EndpointConfig(max_parallel_requests=1), MockTransport())
    transport = CountingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=4), transport)
    for expected, vector in zip(serial.embed(texts), client.embed(texts), strict=True):
        assert np.array_equal(expected.values, vector.values)
    assert Counter(transport.embedded) == Counter(texts)


def test_each_embed_call_on_one_client_sends_its_own_texts():
    transport = CountingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=2), transport)
    a, b, a_again = client.embed(["a", "b", "a"])
    b_again, c = client.embed(["b", "c"])
    # the client keeps no vector: each call's texts go out as given, in its own batches
    assert sorted(transport.batches) == [["a"], ["b"], ["b", "a"], ["c"]]
    assert np.array_equal(a.values, a_again.values)
    assert np.array_equal(b.values, b_again.values)
    assert np.allclose(c.values, oracle_embedding("c"))


def test_failed_parallel_embed_starts_no_new_text_and_raises_the_first_texts_error():
    transport = FailingEmbedTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=4), transport)
    with pytest.raises(TransportError, match="^no embedding for text 0$"):
        client.embed(TEXTS)
    assert 1 <= transport.calls <= 4


def test_mock_client_embeds_on_the_calling_thread(monkeypatch):
    started: list[str] = []
    start = threading.Thread.start

    def record(thread: threading.Thread) -> None:
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    client = make_client(EndpointConfig(max_parallel_requests=4), "mock")
    client.embed(TEXTS)
    assert started == []


def test_parallel_in_order_returns_results_in_input_order():
    last_done = threading.Event()
    finished: list[int] = []

    def fn(item: int) -> int:
        if item == 0:
            last_done.wait(timeout=5)  # the first item finishes after every other
        finished.append(item)
        if item == 7:
            last_done.set()
        return item * 10

    client = LlmClient(EndpointConfig(max_parallel_requests=4), CountingTransport())
    assert list(client.map(fn, range(8))) == [item * 10 for item in range(8)]
    assert finished[-1] == 0


def test_parallel_in_order_takes_no_item_once_one_has_failed():
    failed = threading.Event()
    taken: list[int] = []

    def fn(item: int) -> int:
        taken.append(item)
        if item == 0:
            failed.set()
            raise TransportError("item 0")
        failed.wait(timeout=5)
        time.sleep(0.05)  # item 0's failure is recorded by now
        return item

    client = LlmClient(EndpointConfig(max_parallel_requests=2), CountingTransport())
    with pytest.raises(TransportError, match="^item 0$"):
        list(client.map(fn, range(10)))
    assert taken[0] == 0
    assert set(taken) <= {0, 1}


def test_parallel_in_order_raises_the_lowest_failing_items_error():
    def fn(item: int) -> int:
        time.sleep(0.05 if item == 0 else 0.0)  # item 1 fails first
        raise TransportError(f"item {item}")

    client = LlmClient(EndpointConfig(max_parallel_requests=2), CountingTransport())
    with pytest.raises(TransportError, match="^item 0$"):
        list(client.map(fn, range(3)))


def test_map_on_the_calling_thread_takes_an_item_only_when_its_result_is_asked_for():
    taken: list[int] = []

    def fn(item: int) -> int:
        taken.append(item)
        return item * 10

    client = LlmClient(EndpointConfig(max_parallel_requests=1), CountingTransport())
    results = client.map(fn, range(3))
    assert taken == []
    assert next(results) == 0
    assert taken == [0]
    assert next(results) == 10
    assert taken == [0, 1]
    results.close()
    assert taken == [0, 1]


def test_threaded_map_yields_a_result_while_a_later_item_still_runs():
    release = threading.Event()
    finished: list[int] = []

    def fn(item: int) -> int:
        if item == 1:
            release.wait(timeout=5)
        finished.append(item)
        return item

    client = LlmClient(EndpointConfig(max_parallel_requests=2), CountingTransport())
    results = client.map(fn, range(3))
    try:
        assert next(results) == 0
        assert 1 not in finished
    finally:
        release.set()
    assert list(results) == [1, 2]


def test_closing_a_threaded_map_takes_no_further_item_and_joins_its_workers():
    taken: list[int] = []
    workers: set[threading.Thread] = set()
    gate = threading.Event()

    def fn(item: int) -> int:
        taken.append(item)
        workers.add(threading.current_thread())
        if item in (1, 2):
            gate.wait(timeout=5)  # in flight when the iterator closes; any later item is quick
        return item

    client = LlmClient(EndpointConfig(max_parallel_requests=2), CountingTransport())
    results = client.map(fn, range(100))
    assert next(results) == 0
    opener = threading.Timer(0.2, gate.set)
    opener.start()
    try:
        results.close()
    finally:
        opener.join(timeout=5)
    assert set(taken) <= {0, 1, 2}
    assert len(workers) == 2
    assert not any(worker.is_alive() for worker in workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_yields_every_result_before_the_lowest_failing_items_error(workers):
    def fn(item: int) -> int:
        time.sleep(0.05 if item == 2 else 0.0)  # on two threads, item 3 fails first
        if item >= 2:
            raise TransportError(f"item {item}")
        return item

    client = LlmClient(EndpointConfig(max_parallel_requests=workers), CountingTransport())
    yielded: list[int] = []
    with pytest.raises(TransportError, match="^item 2$"):
        for result in client.map(fn, range(6)):
            yielded.append(result)
    assert yielded == [0, 1]


def test_live_eval_stops_embedding_once_a_text_fails(serve, config_file, capsys):
    embed = serve(*[Reply(500)] * 200)
    config = config_file(
        endpoint={"base_url": embed.url, "max_parallel_requests": 4, "max_retries": 1}
    )
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config), "--backend", "live"]) == 2
    assert "status 500" in capsys.readouterr().err
    assert 2 <= len(embed.requests) <= 4 * (1 + 1)


# ---------------------------------------------------------------------------
# batched embeddings on the wire
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_embed_sends_one_request_per_worker_whose_inputs_join_in_order(serve, workers):
    server = serve(*[EMBED] * 20)
    transport, _ = _transport(server, max_parallel_requests=workers)
    client = LlmClient(transport.config, transport)
    texts = TEXTS[:19]  # no bound here divides it: the batches differ in size by one
    vectors = client.embed(texts)
    assert len(server.requests) == workers
    inputs = [_payload(request)["input"] for request in server.requests]
    inputs.sort(key=lambda batch: texts.index(batch[0]))
    assert [text for batch in inputs for text in batch] == texts
    expected = make_client(EndpointConfig(), "mock").embed(texts)
    for want, vector in zip(expected, vectors, strict=True):
        assert np.array_equal(want.values, vector.values)


@pytest.mark.parametrize("returned", [1, 3], ids=["too-few", "too-many"])
@pytest.mark.parametrize("profile", ["ollama", "openai"])
def test_embed_reply_with_a_vector_too_few_or_too_many_is_a_transport_error(
    serve, profile, returned
):
    vectors = [[1.0, 0.0]] * returned
    if profile == "ollama":
        reply = {"embeddings": vectors}
    else:
        reply = {"data": [{"embedding": vector} for vector in vectors]}
    server = serve(Reply(200, reply))
    transport, _ = _transport(server, profile=profile)
    message = f"^unexpected embedding response shape: {returned} vectors for 2 texts$"
    with pytest.raises(TransportError, match=message):
        transport.embed(["a", "b"])
    assert len(server.requests) == 1  # not retried


def test_live_eval_exits_2_on_an_embed_reply_one_vector_short(serve, config_file, capsys):
    def one_short(payload: dict) -> Reply:
        return Reply(200, {"embeddings": [[1.0, 0.0]] * (len(payload["input"]) - 1)})

    server = serve(*[one_short] * 10)
    config = config_file(endpoint={"base_url": server.url, "max_parallel_requests": 2})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config), "--backend", "live"]) == 2
    assert capsys.readouterr().err.startswith("error: unexpected embedding response shape: ")
    assert 1 <= len(server.requests) <= 2


def test_failed_embed_batch_starts_no_new_batch(serve, monkeypatch):
    # one pool thread runs the four batch tasks in turn, so a batch taken after the failure shows
    monkeypatch.setattr(
        llmclient, "ThreadPoolExecutor", lambda max_workers: ThreadPoolExecutor(max_workers=1)
    )
    server = serve(EMBED, *[Reply(400, b"no such model")] * 3)
    transport, _ = _transport(server, max_parallel_requests=4)
    client = LlmClient(transport.config, transport)
    with pytest.raises(ConfigurationError, match=r"rejected request \(400\): no such model$"):
        client.embed(TEXTS)
    assert [_payload(request)["input"] for request in server.requests] == [TEXTS[:10], TEXTS[10:20]]


def test_embed_raises_the_lowest_failing_batchs_error(serve):
    def reject(payload: dict) -> Reply:
        first = payload["input"][0]
        # the first batch fails after every other
        delay_s = 0.2 if first == "text 0" else 0.0
        return Reply(400, f"no embedding for {first}".encode(), delay_s=delay_s)

    server = serve(*[reject] * 4)
    transport, _ = _transport(server, max_parallel_requests=4)
    client = LlmClient(transport.config, transport)
    with pytest.raises(ConfigurationError, match=r"\(400\): no embedding for text 0$"):
        client.embed(TEXTS)
    assert 1 <= len(server.requests) <= 4


_LONGER_Y = {"x": [1.0, 0.0], "y": [1.0, 0.0, 0.0]}


@pytest.mark.parametrize(
    "vectors, bound, message",
    [
        (
            {"x": ["a", "b"]},
            1,
            "^embedding for 'x' is not numbers: could not convert string to float: 'a'$",
        ),
        ({"x": [[1.0], [0.0]]}, 1, r"^embedding for 'x' has shape \(2, 1\), not \(2,\)$"),
        ({"x": 3.0}, 1, r"^embedding for 'x' has shape \(\), not \(1,\)$"),
        ({"x": []}, 1, "^embedding for 'x' has invalid norm 0.0$"),
        (_LONGER_Y, 1, r"^embedding for 'y' has shape \(3,\), not \(2,\)$"),
        (_LONGER_Y, 2, r"^embedding for 'y' has shape \(3,\), not \(2,\)$"),
    ],
    ids=["strings", "nested", "number", "empty", "longer in one reply", "longer in a later reply"],
)
def test_embed_refuses_a_vector_that_is_not_one_list_of_numbers_as_long_as_the_others(
    serve, vectors, bound, message
):
    # one call; with a bound of 2 each text is its own batch, and the second reply is longer
    def reply(payload: dict) -> Reply:
        return Reply(200, {"embeddings": [vectors[text] for text in payload["input"]]})

    server = serve(*[reply] * bound)
    transport, _ = _transport(server, max_parallel_requests=bound)
    client = LlmClient(transport.config, transport)
    with pytest.raises(TransportError, match=message):
        client.embed([*vectors])
    assert sorted(_payload(request)["input"] for request in server.requests) == (
        [[*vectors]] if bound == 1 else [["x"], ["y"]]
    )


@pytest.mark.parametrize(
    "vectors",
    [lambda n: [["a", "b"]] * n, lambda n: [[1.0] * (i + 1) for i in range(n)]],
    ids=["strings", "lengths"],
)
def test_live_eval_exits_2_naming_the_text_of_a_bad_embed_vector(
    serve, config_file, capsys, vectors
):
    server = serve(*[lambda payload: Reply(200, {"embeddings": vectors(len(payload["input"]))})] * 10)
    config = config_file(endpoint={"base_url": server.url, "max_parallel_requests": 2})
    assert cli.main(["ingest", "--config", str(config)]) == 0
    assert cli.main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(config), "--backend", "live"]) == 2
    assert capsys.readouterr().err.startswith("error: embedding for ")


# ---------------------------------------------------------------------------
# live endpoint (opt-in)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get(ENDPOINT_ENV_VAR),
    reason=f"set {ENDPOINT_ENV_VAR} to run against a live endpoint",
)
def test_live_endpoint_smoke():
    client = make_client(EndpointConfig(max_retries=1), backend="live")
    reply = client.complete("Reply with the single word: ready")
    assert isinstance(reply, str) and reply.strip()
    (vector,) = client.embed(["import tariffs"])
    assert float(np.linalg.norm(vector.values)) == pytest.approx(1.0, abs=1e-6)
