"""Mock backend determinism, embedding oracle, HTTP transport, request gating."""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import requests

from triplex.errors import ConfigurationError, TransportError
from triplex.extraction import parse_triples
from triplex.llmclient import (
    EMBEDDING_DIM,
    EMPTY_CASE_TOKEN,
    ENDPOINT_ENV_VAR,
    EndpointConfig,
    HttpTransport,
    LlmClient,
    MockTransport,
    make_client,
    mock_embedding,
)

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
        assert vector.dimension == EMBEDDING_DIM
        assert float(np.linalg.norm(vector.values)) == pytest.approx(1.0, abs=1e-9)
        assert vector.cosine(vector) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(vector.values, oracle_embedding(text))


class EmbedCountingTransport:
    def __init__(self) -> None:
        self.embedded: list[str] = []

    def chat(self, prompt_text: str) -> str:
        raise AssertionError("chat not expected")

    def embed_one(self, text: str):
        self.embedded.append(text)
        return mock_embedding(text)


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


def test_client_embed_fetches_each_text_once():
    transport = EmbedCountingTransport()
    client = LlmClient(EndpointConfig(), transport)
    a, b, a_again = client.embed(["a", "b", "a"])
    b_again, c = client.embed(["b", "c"])
    assert transport.embedded == ["a", "b", "c"]
    assert client.stats["requests"] == 3
    assert np.array_equal(a.values, a_again.values)
    assert np.array_equal(b.values, b_again.values)
    assert np.allclose(c.values, oracle_embedding("c"))


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

_NOT_JSON = object()


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload not in (None, _NOT_JSON) else "")

    def json(self):
        if self._payload is _NOT_JSON:
            raise ValueError("response body is not JSON")
        return self._payload


class FakeSession:
    """Scripted session: each call pops the next response or exception."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls: list[dict] = []

    def post(self, url, json=None, timeout=None):
        self.calls.append({"url": url, "json": json, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _transport(session, **config_overrides):
    config = EndpointConfig(**{"max_retries": 3, **config_overrides})
    sleeps: list[float] = []
    transport = HttpTransport(config, session=session, sleeper=sleeps.append)
    return transport, sleeps


def test_http_chat_recovers_after_server_errors():
    session = FakeSession(
        [
            FakeResponse(500),
            FakeResponse(502),
            FakeResponse(200, {"message": {"content": "(A | b | C)"}}),
        ]
    )
    transport, sleeps = _transport(session)
    assert transport.chat("hello") == "(A | b | C)"
    assert len(session.calls) == 3
    assert sleeps == [0.25, 0.5]  # exponential backoff between attempts


def test_http_chat_client_error_is_fatal_and_not_retried():
    session = FakeSession([FakeResponse(404, text="no such model")])
    transport, sleeps = _transport(session)
    with pytest.raises(ConfigurationError) as excinfo:
        transport.chat("hello")
    assert "404" in str(excinfo.value)
    assert len(session.calls) == 1
    assert sleeps == []


def test_http_chat_exhausted_retries_raise_transport_error():
    session = FakeSession([FakeResponse(500)] * 2)
    transport, _ = _transport(session, max_retries=1)
    with pytest.raises(TransportError) as excinfo:
        transport.chat("hello")
    assert "2 attempts" in str(excinfo.value)
    assert len(session.calls) == 2


def test_http_chat_retries_connection_errors_and_bad_json():
    session = FakeSession(
        [
            requests.ConnectionError("refused"),
            FakeResponse(200, _NOT_JSON),
            FakeResponse(200, {"message": {"content": "ok"}}),
        ]
    )
    transport, _ = _transport(session)
    assert transport.chat("hello") == "ok"
    assert len(session.calls) == 3


def test_http_ollama_request_shape():
    session = FakeSession([FakeResponse(200, {"message": {"content": "ok"}})])
    transport, _ = _transport(session, seed=42, temperature=0.0, max_tokens=2048)
    transport.chat("prompt body")
    call = session.calls[0]
    assert call["url"].endswith("/api/chat")
    payload = call["json"]
    assert payload["stream"] is False
    assert payload["messages"] == [{"role": "user", "content": "prompt body"}]
    assert payload["options"] == {"temperature": 0.0, "num_predict": 2048, "seed": 42}
    assert call["timeout"] == pytest.approx(120.0)


def test_http_ollama_embeddings_shape():
    session = FakeSession([FakeResponse(200, {"embedding": [0.0, 3.0, 4.0]})])
    transport, _ = _transport(session)
    raw = transport.embed_one("import tariffs")
    assert raw == [0.0, 3.0, 4.0]
    call = session.calls[0]
    assert call["url"].endswith("/api/embeddings")
    assert call["json"] == {"model": "nomic-embed-text", "prompt": "import tariffs"}


def test_http_openai_profile_paths_and_shapes():
    session = FakeSession(
        [
            FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]}),
            FakeResponse(200, {"data": [{"embedding": [1.0, 0.0]}]}),
        ]
    )
    transport, _ = _transport(session, profile="openai")
    assert transport.chat("p") == "ok"
    assert transport.embed_one("t") == [1.0, 0.0]
    chat_call, embed_call = session.calls
    assert chat_call["url"].endswith("/v1/chat/completions")
    assert chat_call["json"]["max_tokens"] == 2048
    assert embed_call["url"].endswith("/v1/embeddings")
    assert embed_call["json"] == {"model": "nomic-embed-text", "input": ["t"]}


_PINNED_REQUESTS = [
    (
        {},
        "http://localhost:11434/api/chat",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"stream": false, "options": {"temperature": 0.0, "num_predict": 2048, "seed": 42}}',
        "http://localhost:11434/api/embeddings",
        '{"model": "nomic-embed-text", "prompt": "t"}',
    ),
    (
        {"seed": None, "base_url": "http://h:1/", "chat_path": "/c", "embeddings_path": "/e"},
        "http://h:1/c",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"stream": false, "options": {"temperature": 0.0, "num_predict": 2048}}',
        "http://h:1/e",
        '{"model": "nomic-embed-text", "prompt": "t"}',
    ),
    (
        {"profile": "openai", "temperature": 0.5, "max_tokens": 64},
        "http://localhost:11434/v1/chat/completions",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"temperature": 0.5, "max_tokens": 64, "seed": 42}',
        "http://localhost:11434/v1/embeddings",
        '{"model": "nomic-embed-text", "input": ["t"]}',
    ),
    (
        {"profile": "openai", "seed": None, "chat_path": "/c"},
        "http://localhost:11434/c",
        '{"model": "llama3.1:70b", "messages": [{"role": "user", "content": "p"}], '
        '"temperature": 0.0, "max_tokens": 2048}',
        "http://localhost:11434/v1/embeddings",
        '{"model": "nomic-embed-text", "input": ["t"]}',
    ),
]


@pytest.mark.parametrize("overrides, chat_url, chat_body, embed_url, embed_body", _PINNED_REQUESTS)
def test_http_request_urls_and_payloads_are_pinned(
    monkeypatch, overrides, chat_url, chat_body, embed_url, embed_body
):
    # key order included: json.dumps keeps the payload's insertion order
    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    if overrides.get("profile") == "openai":
        replies = [{"choices": [{"message": {"content": "ok"}}]}, {"data": [{"embedding": [1.0]}]}]
    else:
        replies = [{"message": {"content": "ok"}}, {"embedding": [1.0]}]
    session = FakeSession([FakeResponse(200, reply) for reply in replies])
    transport, _ = _transport(session, **overrides)
    assert transport.chat("p") == "ok"
    assert transport.embed_one("t") == [1.0]
    chat_call, embed_call = session.calls
    assert (chat_call["url"], json.dumps(chat_call["json"])) == (chat_url, chat_body)
    assert (embed_call["url"], json.dumps(embed_call["json"])) == (embed_url, embed_body)


@pytest.mark.parametrize(
    "profile, reply",
    [
        ("ollama", {"message": "flat"}),
        ("ollama", ["not", "an", "object"]),
        ("openai", {"choices": []}),
        ("openai", {"choices": [{"text": "legacy"}]}),
    ],
)
def test_http_wrong_reply_shape_names_the_request_kind(profile, reply):
    session = FakeSession([FakeResponse(200, reply), FakeResponse(200, reply)])
    transport, _ = _transport(session, profile=profile, max_retries=0)
    with pytest.raises(TransportError, match="^unexpected chat response shape: "):
        transport.chat("hello")
    with pytest.raises(TransportError, match="^unexpected embedding response shape: "):
        transport.embed_one("hello")


def test_http_unexpected_response_shape_is_transport_error():
    session = FakeSession([FakeResponse(200, {"unexpected": True})] * 4)
    transport, _ = _transport(session, max_retries=0)
    with pytest.raises(TransportError):
        transport.chat("hello")


def test_endpoint_env_var_overrides_base_url(monkeypatch):
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://model-farm:9999")
    session = FakeSession([FakeResponse(200, {"message": {"content": "ok"}})])
    transport, _ = _transport(session)
    transport.chat("hello")
    assert session.calls[0]["url"].startswith("http://model-farm:9999")


def test_client_normalizes_transport_embeddings():
    session = FakeSession([FakeResponse(200, {"embedding": [0.0, 3.0, 4.0]})])
    config = EndpointConfig()
    client = LlmClient(config, HttpTransport(config, session=session, sleeper=lambda _: None))
    (vector,) = client.embed(["anything"])
    assert np.allclose(vector.values, [0.0, 0.6, 0.8])


def test_client_rejects_zero_norm_embedding():
    session = FakeSession([FakeResponse(200, {"embedding": [0.0, 0.0]})])
    config = EndpointConfig()
    client = LlmClient(config, HttpTransport(config, session=session, sleeper=lambda _: None))
    with pytest.raises(TransportError):
        client.embed(["anything"])


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
    """Records the peak number of in-flight chat calls."""

    def __init__(self):
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def chat(self, prompt_text: str) -> str:
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.01)
        with self._lock:
            self.active -= 1
        return "(A | signed | B)"

    def embed_one(self, text: str):
        return mock_embedding(text)


def test_client_bounds_concurrent_requests():
    transport = CountingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=2), transport)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: client.complete(f"prompt {i}"), range(16)))
    assert transport.peak <= 2
    assert client.stats["requests"] == 16
    assert client.stats["failures"] == 0
    assert client.stats["total_latency_ms"] > 0


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


def test_client_latency_excludes_queue_wait():
    client = LlmClient(EndpointConfig(max_parallel_requests=1), MockTransport(seed=1))
    calling = threading.Event()

    def call():
        calling.set()
        client.complete(PROMPT)

    client._gate.acquire()
    worker = threading.Thread(target=call)
    worker.start()
    assert calling.wait(timeout=5)
    time.sleep(0.05)
    client._gate.release()
    worker.join(timeout=5)
    assert not worker.is_alive()
    assert client.stats["requests"] == 1
    assert client.stats["total_latency_ms"] < 25.0


def test_client_counts_failures():
    class FailingTransport:
        def chat(self, prompt_text: str) -> str:
            raise TransportError("down")

        def embed_one(self, text: str):
            return mock_embedding(text)

    client = LlmClient(EndpointConfig(), FailingTransport())
    with pytest.raises(TransportError):
        client.complete("hello")
    assert client.stats == {"requests": 1, "failures": 1, "total_latency_ms": 0.0}


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
