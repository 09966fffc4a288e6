"""Chat and embedding client for locally served models, plus a mock backend.

The live transport speaks the JSON-over-HTTP dialect of common local model
servers (Ollama-style by default, an OpenAI-style profile as an alternative).
The mock transport is a pure function of the prompt text and the configured
seed, which makes every pipeline run on it reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigurationError, TransportError

__all__ = [
    "EndpointConfig",
    "EmbeddingVector",
    "LlmClient",
    "MockTransport",
    "HttpTransport",
    "make_client",
    "mock_embedding",
]

EMBEDDING_DIM = 256
ENDPOINT_ENV_VAR = "TRIPLEX_ENDPOINT"

_TRIGRAM_SALT = b"triplex-mock-embed-v1:"
_BACKOFF_BASE_S = 0.25
# a 4xx that asks for the same request later: request timeout, too many requests
_RETRIED_CLIENT_ERRORS = (408, 429)
_JSON_HEADERS = {"Content-Type": "application/json"}
_RETRY_AFTER_CAP_S = 30.0
# JSON may escape a lone surrogate ("\ud800"), which no UTF-8 file can hold
_SURROGATE = re.compile("[\ud800-\udfff]")


def _retry_after_s(value: str | None) -> float | None:
    """The wait a ``Retry-After`` header asks for, at most 30 s; None if absent or unparsable.

    The value is delta-seconds or an HTTP-date (RFC 9110 §10.2.3); a date in
    the past asks for no wait.
    """
    if value is None:
        return None
    value = value.strip()
    if re.fullmatch(r"[0-9]+", value):
        seconds = float(value)
    else:
        import email.utils  # only an HTTP-date needs the date parser
        from datetime import datetime, timezone

        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # "-0000": UTC, by RFC 5322
            when = when.replace(tzinfo=timezone.utc)
        seconds = max((when - datetime.now(timezone.utc)).total_seconds(), 0.0)
    return min(seconds, _RETRY_AFTER_CAP_S)


class _Wire(NamedTuple):
    """A wire profile: default paths, payload fields, and where each reply holds its result."""

    chat_path: str
    chat_reply: Callable[[object], object]  # the reply -> its text
    embeddings_path: str
    embeddings_reply: Callable[[object], list]  # the reply -> its vectors, in input order
    max_tokens_key: str
    chat_fields: Callable[[dict], dict]  # decoding options -> the chat payload's tail


_WIRES = {
    "ollama": _Wire(
        chat_path="/api/chat", chat_reply=lambda reply: reply["message"]["content"],
        embeddings_path="/api/embed", embeddings_reply=lambda reply: [*reply["embeddings"]],
        max_tokens_key="num_predict",
        chat_fields=lambda decoding: {"stream": False, "options": decoding},
    ),
    "openai": _Wire(
        chat_path="/v1/chat/completions",
        chat_reply=lambda reply: reply["choices"][0]["message"]["content"],
        embeddings_path="/v1/embeddings",
        embeddings_reply=lambda reply: [item["embedding"] for item in reply["data"]],
        max_tokens_key="max_tokens",
        chat_fields=lambda decoding: decoding,
    ),
}


@dataclass(frozen=True)
class EndpointConfig:
    """Connection and decoding settings for the model endpoint."""

    base_url: str = "http://localhost:11434"
    model_name: str = "llama3.1:70b"
    embedding_model: str = "nomic-embed-text"
    temperature: float = 0.0
    max_tokens: int = 2048
    timeout_ms: int = 120_000
    max_retries: int = 3
    max_parallel_requests: int = 4
    seed: int | None = 42
    profile: str = "ollama"
    chat_path: str | None = None
    embeddings_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigurationError(f"temperature out of range [0, 2]: {self.temperature}")
        if self.max_parallel_requests < 1:
            raise ConfigurationError("max_parallel_requests must be at least 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must not be negative")
        if self.timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        if self.profile not in _WIRES:
            raise ConfigurationError(
                f"profile must be one of {', '.join(_WIRES)}, got {self.profile!r}"
            )

    def fingerprint(self) -> str:
        key = "|".join(
            str(v)
            for v in (
                self.model_name,
                self.embedding_model,
                self.temperature,
                self.max_tokens,
                self.seed,
                self.profile,
            )
        )
        return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A unit-length embedding."""

    values: np.ndarray

    def cosine(self, other: "EmbeddingVector") -> float:
        return float(np.clip(np.dot(self.values, other.values), -1.0, 1.0))


def _bucket(feature: str) -> int:
    digest = hashlib.sha256(_TRIGRAM_SALT + feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % EMBEDDING_DIM


def mock_embedding(text: str) -> np.ndarray:
    """Hashed character-trigram counts of ``text``, L2-normalized.

    Words are padded with ``#`` on both sides before trigram extraction so
    that short words still contribute features and word boundaries matter.
    """
    words = text.lower().split()
    if not words:
        raise ValueError("cannot embed empty text")
    vec = np.zeros(EMBEDDING_DIM, dtype=np.float64)
    for word in words:
        padded = f"#{word}#"  # at least 3 characters: split() yields no empty word
        for i in range(len(padded) - 2):
            vec[_bucket(padded[i : i + 3])] += 1.0
    norm = float(np.linalg.norm(vec))
    return vec / norm


# ---------------------------------------------------------------------------
# Mock chat fixtures
# ---------------------------------------------------------------------------

EMPTY_CASE_TOKEN = "EMPTY_CASE"

_FALLBACK_ENTITIES = ("Japan", "Thailand", "Canada", "Norway", "Chile", "Singapore")
_MOCK_PREDICATES = (
    "signed",
    "signs",
    "ratifies",
    "exports",
    "imports",
    "eliminates",
    "reduces",
    "grants",
    "establishes",
    "expand trade with",
    "expands trade with",
    "cooperates with",
    "invests in",
    "liberalises",
    "means",
    "includes",
)
_MOCK_OBJECTS = (
    "customs duties",
    "import tariffs",
    "a free trade agreement",
    "import quotas",
    "rules of origin",
    "safeguard measures",
    "market access",
    "trade in services",
)
_MOCK_GENERIC_LINES = (
    "(The Parties | signed | contract)",
    "(They | agree | the Agreement)",
    "(The Parties | establishes | a joint committee)",
)
_MOCK_JUNK_LINES = (
    "Here are the extracted triples:",
    "Note: some passages contain no extractable relations.",
    "- subject: see above",
    "(incomplete |)",
)

_ENTITY_SPAN_RE = re.compile(r"(?:[A-Z][A-Za-z]+)(?:\s+[A-Z][A-Za-z]+)*")
_ENTITY_BLOCKLIST = {"the", "a", "an", "this", "each", "both", "it", "they", "text"}

REFINEMENT_MARKER = "Rewrite the triple below"


def _chunk_part(prompt_text: str) -> str:
    return prompt_text.rsplit("\nText:\n", 1)[-1]


def _chunk_entities(chunk: str) -> list[str]:
    seen: list[str] = []
    for m in _ENTITY_SPAN_RE.finditer(chunk):
        span = m.group()
        if span.lower() in _ENTITY_BLOCKLIST or len(span) < 3:
            continue
        if span not in seen:
            seen.append(span)
        if len(seen) >= 10:
            break
    return seen


def _mock_refinement_reply(prompt_text: str) -> str:
    terms: list[str] = []
    original = None
    for line in prompt_text.splitlines():
        if line.startswith("Generic terms:"):
            terms = [t.strip().lower() for t in line.split(":", 1)[1].split(";") if t.strip()]
        if line.startswith("Original triple:"):
            original = line.split(":", 1)[1].strip()
    if original is None:
        return "(unknown | unknown | unknown)"
    body = original.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    fields = [f.strip() for f in body.split("|")]
    if len(fields) != 3:
        return original
    entities = _chunk_entities(_chunk_part(prompt_text))
    if len(entities) >= 2:
        replacement = f"{entities[0]} and {entities[1]}"
    elif entities:
        replacement = entities[0]
    else:
        replacement = None
    if replacement is not None:
        fields = [
            replacement if field.lower().strip(".") in terms else field
            for field in fields
        ]
    return "({} | {} | {})".format(*fields)


def _mock_chat_reply(prompt_text: str, seed: int) -> str:
    if EMPTY_CASE_TOKEN in prompt_text:
        return "No subject-predicate-object relations could be identified in the supplied text."
    if REFINEMENT_MARKER in prompt_text:
        return _mock_refinement_reply(prompt_text)
    digest = hashlib.sha256(f"{seed}\x00{prompt_text}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    entities = _chunk_entities(_chunk_part(prompt_text)) or list(_FALLBACK_ENTITIES)
    # prompts that warn about generic terms get cleaner output
    generic_rate = 0.15 if "generic term" in prompt_text else 0.35
    lines: list[str] = []
    if rng.random() < 0.5:
        lines.append(rng.choice(_MOCK_JUNK_LINES))
    for _ in range(3 + rng.randrange(4)):
        roll = rng.random()
        if roll < generic_rate:
            lines.append(rng.choice(_MOCK_GENERIC_LINES))
            continue
        if roll < generic_rate + 0.1:
            lines.append(rng.choice(_MOCK_JUNK_LINES))
            continue
        subject = rng.choice(entities)
        predicate = rng.choice(_MOCK_PREDICATES)
        obj = rng.choice(entities + list(_MOCK_OBJECTS))
        if obj == subject:
            obj = rng.choice(_MOCK_OBJECTS)
        if roll > 0.9:
            lines.append(f"('{subject}', '{predicate}', '{obj}')")
        else:
            lines.append(f"({subject} | {predicate} | {obj})")
    return "\n".join(lines)


class Transport(Protocol):
    def chat(self, prompt_text: str) -> str: ...

    def embed(self, texts: Sequence[str]) -> Iterable[Sequence[float]]:
        """One vector for each text, in order."""
        ...

    def close(self) -> None: ...


class MockTransport:
    """Deterministic stand-in for a model server. Never fails."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def chat(self, prompt_text: str) -> str:
        return _mock_chat_reply(prompt_text, self.seed)

    def embed(self, texts: Sequence[str]) -> Iterator[Sequence[float]]:
        # one at a time, as the client takes them: the batch is never in memory at once
        return map(self.embed_one, texts)

    def embed_one(self, text: str) -> Sequence[float]:
        return mock_embedding(text)

    def close(self) -> None:
        pass


class HttpTransport:
    """JSON-over-HTTP transport with retries and exponential backoff.

    Requests share a pool of keep-alive connections to the endpoint: each
    borrows an idle one, or opens one, and returns it once the exchange
    succeeds, so the connections open never outnumber the requests in
    flight. A 3xx or 4xx reply is fatal, but for a 408 or a 429, which is
    retried like a connection error, a timeout, a 5xx or a reply that is not JSON.
    A retried status that carries ``Retry-After`` waits what it asks, at most
    30 s, instead of the backoff step. A chat reply whose text is not a string,
    or holds a lone surrogate, raises :class:`TransportError` without a retry.
    """

    def __init__(self, config: EndpointConfig, sleeper=time.sleep) -> None:
        self.config = config
        self._sleep = sleeper
        self._wire = _WIRES[config.profile]
        base_url = (os.environ.get(ENDPOINT_ENV_VAR) or config.base_url).rstrip("/")
        try:  # urlsplit refuses an unclosed IPv6 bracket, and .port a port outside 0-65535
            parts = urlsplit(base_url)
            parts.port
        except ValueError as exc:
            parts, fault = ("", "", ""), f" ({exc})"
        else:
            fault = ""
        scheme, self._netloc, prefix = parts[:3]
        if scheme not in ("http", "https") or not self._netloc:
            raise ConfigurationError(
                f"endpoint URL must start with http:// or https:// and name a host, "
                f"got {base_url!r}{fault}"
            )
        self._origin = f"{scheme}://{self._netloc}"
        # only the live backend speaks HTTP, so a mock run never loads http.client or ssl
        import http.client

        self._connection_class = (
            http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        )
        self._retried_errors = (OSError, http.client.HTTPException)
        # deque's append and pop are thread-safe, so borrowing needs no lock
        self._idle: deque[http.client.HTTPConnection] = deque()
        self._chat_target = prefix + (config.chat_path or self._wire.chat_path)
        self._embed_target = prefix + (config.embeddings_path or self._wire.embeddings_path)

    def close(self) -> None:
        """Close every idle connection; call it with no request in flight."""
        while self._idle:
            self._idle.pop().close()

    def _open(self) -> http.client.HTTPConnection:
        return self._connection_class(self._netloc, timeout=self.config.timeout_ms / 1000.0)

    def _post(self, target: str, body: bytes) -> tuple[int, bytes, str | None]:
        """POST ``body`` on a pooled connection; return the status, reply bytes and Retry-After."""
        try:
            connection = self._idle.pop()
        except IndexError:
            connection = self._open()
        # a connection kept alive since an earlier request may have been closed by the
        # server while idle: a connection error on it sends the request once more
        for resend in (connection.sock is not None, False):
            try:
                connection.request("POST", target, body, _JSON_HEADERS)
                response = connection.getresponse()
                reply = response.status, response.read(), response.getheader("Retry-After")
            except BaseException as exc:
                connection.close()  # its state is unknown
                if not (resend and isinstance(exc, ConnectionError)):
                    raise
                # one socket per connection object, so the pool counts what the server does
                connection = self._open()
            else:
                self._idle.append(connection)
                return reply

    def _request(self, kind: str, target: str, payload: dict, read: Callable) -> object:
        """POST ``payload`` and return ``read`` of its JSON reply, retrying as the class says;
        a reply ``read`` cannot take raises at once, as a ``kind`` reply of the wrong shape."""
        url = self._origin + target
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        wait_s = None  # what the last reply's Retry-After asked for
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._sleep(_BACKOFF_BASE_S * 2 ** (attempt - 1) if wait_s is None else wait_s)
            wait_s = None
            try:
                status, data, retry_after = self._post(target, body)
            except self._retried_errors as exc:
                last_error = exc
                continue
            if status >= 500 or status in _RETRIED_CLIENT_ERRORS:
                last_error = TransportError(f"status {status} from {url}")
                wait_s = _retry_after_s(retry_after)
                continue
            if 300 <= status < 400:
                raise ConfigurationError(
                    f"endpoint redirected request ({status}) for {url}; redirects are not "
                    "followed, so set base_url to the final address"
                )
            if 400 <= status < 500:
                raise ConfigurationError(
                    f"endpoint rejected request ({status}): "
                    f"{data.decode('utf-8', 'replace')[:200]}"
                )
            try:
                reply = json.loads(data)
            except ValueError as exc:
                last_error = TransportError(f"non-JSON response from {url}: {exc}")
                continue
            try:
                return read(reply)
            except (KeyError, IndexError, TypeError):
                raise TransportError(f"unexpected {kind} response shape: {str(reply)[:200]}")
        raise TransportError(
            f"request to {url} failed after {self.config.max_retries + 1} attempts: "
            f"{last_error}"
        )

    def chat(self, prompt_text: str) -> str:
        config = self.config
        decoding = {"temperature": config.temperature, self._wire.max_tokens_key: config.max_tokens}
        if config.seed is not None:
            decoding["seed"] = config.seed
        payload = {
            "model": config.model_name,
            "messages": [{"role": "user", "content": prompt_text}],
            **self._wire.chat_fields(decoding),
        }
        text = self._request("chat", self._chat_target, payload, self._wire.chat_reply)
        if not isinstance(text, str):
            raise TransportError(f"unexpected chat response shape: {str(text)[:200]}")
        surrogate = _SURROGATE.search(text)
        if surrogate:
            raise TransportError(
                f"chat reply holds a lone surrogate {surrogate.group()!r} at index "
                f"{surrogate.start()}, which UTF-8 cannot encode: {text[:200]!r}"
            )
        return text

    def embed(self, texts: Sequence[str]) -> list[Sequence[float]]:
        """The vectors of ``texts``, from one request with a list ``input``."""
        payload = {"model": self.config.embedding_model, "input": [*texts]}
        vectors = self._request(
            "embedding", self._embed_target, payload, self._wire.embeddings_reply
        )
        if len(vectors) != len(texts):
            raise TransportError(
                f"unexpected embedding response shape: {len(vectors)} vectors "
                f"for {len(texts)} texts"
            )
        return vectors

    def embed_one(self, text: str) -> Sequence[float]:
        return self.embed([text])[0]


class LlmClient:
    """Facade over a transport: bounded parallelism for chat and batched embedding requests."""

    def __init__(self, config: EndpointConfig, transport: Transport) -> None:
        self.config = config
        self.transport = transport
        self._gate = threading.Semaphore(config.max_parallel_requests)

    def __enter__(self) -> "LlmClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the transport's connections; call it with no request in flight."""
        self.transport.close()

    def map(self, fn: Callable, items: Sequence) -> Iterator:
        """``fn`` of each item, in input order, on as many threads as requests may be in flight.

        That is ``min(max_parallel_requests, len(items))`` threads, each taking the next item. A
        result is yielded once it and every earlier item are done; with one thread, once asked
        for. After a failure no thread takes another, nor once the iterator closes, which joins
        them; the error raised is the lowest failing index's, after every earlier result.
        """
        workers = min(self.config.max_parallel_requests, len(items))
        if workers <= 1:
            yield from map(fn, items)  # the builtin: a method's name is not in its own scope
            return
        pending = iter(enumerate(items))
        done = threading.Condition()
        outcomes: dict[int, tuple] = {}  # index -> (result, error), until it is yielded
        stop = False  # set by a failure, or when the iterator closes

        def take() -> tuple[int, object] | None:
            with done:
                return None if stop else next(pending, None)

        def drain(_worker: int) -> None:
            nonlocal stop
            for index, value in iter(take, None):
                try:
                    outcome = fn(value), None
                except BaseException as exc:
                    outcome, stop = (None, exc), True
                with done:
                    outcomes[index] = outcome
                    done.notify()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            joined = pool.map(drain, range(workers))
            try:
                for index in range(len(items)):
                    with done:  # a non-empty tuple is true, so this waits for the item's outcome
                        result, error = done.wait_for(lambda: outcomes.pop(index, None))
                    if error is not None:
                        raise error
                    yield result  # never while holding the condition
            finally:
                stop = True
                list(joined)

    def complete(self, prompt_text: str) -> str:
        """Send one chat request with the prompt's text."""
        if not isinstance(prompt_text, str) or not prompt_text.strip():
            raise ValueError("complete requires a non-empty prompt")
        with self._gate:
            return self.transport.chat(prompt_text)

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Embed each text, returning unit-length vectors in input order.

        The texts, as given, are cut into up to ``max_parallel_requests`` contiguous
        batches of near-equal size, one request each, fetched through :meth:`map`: with a
        bound of one (every mock client) the one batch is fetched on the calling thread.
        Once a batch fails no new one starts, and the first failing batch's error is
        raised. The client keeps no vector: a text given again is sent again.
        """
        if not texts:
            raise ValueError("embed requires a non-empty list of texts")
        for i, text in enumerate(texts):
            if not isinstance(text, str) or not text.strip():
                raise ValueError(f"embed text at index {i} is empty")
        bound = self.config.max_parallel_requests
        # contiguous slices, so the lowest failing batch holds the first failing text;
        # the empty ones are skipped, leaving min(bound, len(texts)), one per thread of map
        ends = [len(texts) * i // bound for i in range(1, bound + 1)]
        batches = [texts[start:end] for start, end in zip([0, *ends], ends) if start < end]
        vectors = [vector for batch in self.map(self._fetch, batches) for vector in batch]
        shape = (vectors[0].values.size,)
        for text, vector in zip(texts, vectors):
            if vector.values.shape != shape:
                name, got = repr(text[:40]), vector.values.shape
                raise TransportError(f"embedding for {name} has shape {got}, not {shape}")
        return vectors

    def _fetch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """The embeddings of ``texts``, fetched through the gate, unit length."""
        vectors = []
        with self._gate:  # a transport may compute each vector as it is taken
            for text, vector in zip(texts, self.transport.embed(texts), strict=True):
                name = repr(text[:40])
                try:
                    raw = np.asarray(vector, dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise TransportError(f"embedding for {name} is not numbers: {exc}") from None
                norm = float(np.linalg.norm(raw))
                if not np.isfinite(norm) or norm <= 0.0:
                    raise TransportError(f"embedding for {name} has invalid norm {norm}")
                vectors.append(EmbeddingVector(values=raw / norm))
        return vectors


def make_client(config: EndpointConfig, backend: str = "mock") -> LlmClient:
    """Build a client for ``backend``, either ``"mock"`` or ``"live"``.

    The mock transport is pure Python in this process, so a second request in
    flight would only contend for the interpreter lock: a mock client allows
    one at a time, whatever ``max_parallel_requests`` says, and its
    :meth:`LlmClient.map` runs on the calling thread. The live backend keeps
    the configured bound, and maps on that many threads.
    """
    if backend == "mock":
        return LlmClient(
            replace(config, max_parallel_requests=1), MockTransport(seed=config.seed or 0)
        )
    if backend == "live":
        return LlmClient(config, HttpTransport(config))
    raise ConfigurationError(f"unknown backend {backend!r}; valid: live, mock")
