import numpy as np
import pytest
import requests

from fake_endpoint import EMBED_SERVICE_S, FakeEndpoint
from triplex.llmclient import EndpointConfig, HttpTransport, MockTransport, mock_embedding

PROMPT = "Extract triples.\nText:\nCanada and Norway signed a free trade agreement."


@pytest.fixture()
def endpoint(monkeypatch):
    # the live client would send to this variable's URL instead
    monkeypatch.delenv("TRIPLEX_ENDPOINT", raising=False)
    server = FakeEndpoint().start()
    try:
        yield server
    finally:
        server.close()


def post(server, path, payload):
    return requests.post(server.base_url + path, json=payload, timeout=10)


@pytest.mark.parametrize("profile", ["ollama", "openai"])
def test_live_transport_equals_mock_backend(endpoint, profile):
    config = EndpointConfig(base_url=endpoint.base_url, profile=profile, seed=7)
    live = HttpTransport(config)
    assert live.chat(PROMPT) == MockTransport(7).chat(PROMPT)
    assert np.array_equal(np.asarray(live.embed_one("free trade")), mock_embedding("free trade"))
    stats = endpoint.snapshot()
    assert (stats["chat_requests"], stats["embed_requests"], stats["requests"]) == (1, 1, 2)


def test_request_without_seed_uses_seed_zero(endpoint):
    body = post(endpoint, "/api/chat", {"messages": [{"role": "user", "content": PROMPT}]}).json()
    assert body["message"]["content"] == MockTransport(0).chat(PROMPT)
    assert body["done"] is True


def test_openai_chat_shape(endpoint):
    payload = {"model": "m", "messages": [{"role": "user", "content": PROMPT}], "seed": 3}
    body = post(endpoint, "/v1/chat/completions", payload).json()
    assert body["choices"][0]["message"] == {
        "role": "assistant",
        "content": MockTransport(3).chat(PROMPT),
    }


@pytest.mark.parametrize(
    "path, payload, extract",
    [
        ("/api/embeddings", {"prompt": "a b"}, lambda b: [b["embedding"]]),
        ("/api/embed", {"input": "a b"}, lambda b: b["embeddings"]),
        ("/api/embed", {"input": ["a b", "c d", "e"]}, lambda b: b["embeddings"]),
        ("/v1/embeddings", {"input": "a b"}, lambda b: [d["embedding"] for d in b["data"]]),
        (
            "/v1/embeddings",
            {"input": ["a b", "c d", "e"]},
            lambda b: [d["embedding"] for d in b["data"]],
        ),
    ],
)
def test_embedding_shapes_single_and_batched(endpoint, path, payload, extract):
    response = post(endpoint, path, payload)
    assert response.status_code == 200
    texts = payload.get("input", payload.get("prompt"))
    texts = texts if isinstance(texts, list) else [texts]
    vectors = extract(response.json())
    assert len(vectors) == len(texts)
    for text, vector in zip(texts, vectors):
        assert np.array_equal(np.asarray(vector), mock_embedding(text))
    stats = endpoint.snapshot()
    assert (stats["embed_requests"], stats["embed_items"]) == (1, len(texts))


def test_batched_embeddings_cost_per_text(endpoint):
    post(endpoint, "/api/embed", {"input": ["a", "b", "c", "d", "e"]})
    assert endpoint.snapshot()["busy_s"] >= 5 * EMBED_SERVICE_S


@pytest.mark.parametrize(
    "path, payload, status",
    [
        ("/api/generate", {"prompt": "x"}, 404),
        ("/api/chat", {"messages": []}, 400),
        ("/api/embed", {"input": ["ok", " "]}, 400),
        ("/v1/embeddings", {"input": []}, 400),
    ],
)
def test_bad_requests_are_refused(endpoint, path, payload, status):
    assert post(endpoint, path, payload).status_code == status


def test_reset_starts_a_new_window(endpoint):
    post(endpoint, "/api/embeddings", {"prompt": "x"})
    endpoint.reset()
    assert endpoint.snapshot()["requests"] == 0
