"""Client for the simulation service: submit, poll, long-poll, fetch.

Pure stdlib (:mod:`urllib.request`).  Every mutating call carries a
client-generated request id, so the retry loop is safe against the
"executed but the response died" failure: a retried ``/submit`` is
answered from the server's replay cache, never double-queued — and even
across a server restart the submit is *semantically* idempotent (same
key, same id, same job).
"""

from __future__ import annotations

import json
import time
import uuid
from typing import Dict, Optional
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode
from urllib.request import Request, urlopen

from repro.retry import RetryExhausted, RetryPolicy, call_with_retry


class ServeUnavailable(RuntimeError):
    """The service could not be reached within the retry budget."""


class ServeRequestError(RuntimeError):
    """The service answered with a non-retryable error (HTTP 4xx)."""

    def __init__(self, status: int, payload: Dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """One service endpoint, with bounded retries on transport faults."""

    def __init__(self, url: str, timeout: float = 10.0,
                 retries: int = 3, backoff: float = 0.2) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -------------------------------------------------------------- wire

    def _request(self, request: Request) -> Dict:
        def attempt() -> Dict:
            try:
                with urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read().decode("utf-8"))
            except HTTPError as exc:
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                except (ValueError, OSError):
                    payload = {"error": str(exc)}
                if exc.code == 202:  # /result on a pending job
                    return payload
                if 400 <= exc.code < 500:
                    raise ServeRequestError(exc.code, payload) from exc
                raise

        try:
            return call_with_retry(
                attempt,
                policy=RetryPolicy(base=self.backoff,
                                   max_attempts=self.retries + 1),
                retryable=lambda exc: isinstance(
                    exc, (URLError, OSError, ValueError)),
                token=request.full_url,
            )
        except RetryExhausted as exc:
            raise ServeUnavailable(f"{request.full_url}: {exc.last}") from exc

    def _get(self, path: str, query: Optional[Dict] = None) -> Dict:
        url = f"{self.url}{path}"
        if query:
            url = f"{url}?{urlencode(query)}"
        return self._request(Request(url, method="GET"))

    def _post(self, path: str, body: Dict) -> Dict:
        body = {**body, "rid": body.get("rid") or uuid.uuid4().hex}
        data = json.dumps(body).encode("utf-8")
        return self._request(Request(
            f"{self.url}{path}", data=data, method="POST",
            headers={"Content-Type": "application/json"},
        ))

    # --------------------------------------------------------------- api

    def ping(self) -> Dict:
        return self._get("/ping")

    def submit(self, job: Dict) -> Dict:
        """Submit one job spec; returns ``{"id", "state", ...}`` with
        ``cached``/``dedup`` flags when no new simulation was queued."""
        return self._post("/submit", {"job": job})

    def status(self, job_id: str) -> Dict:
        return self._get("/status", {"id": job_id})

    def wait(self, job_id: str, timeout: float = 30.0) -> Dict:
        """Long-poll until the job is terminal or ``timeout`` elapses
        (issuing successive bounded polls as needed)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            record = self._get("/wait", {"id": job_id,
                                         "timeout": round(remaining, 3)})
            if record.get("state") in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                return record

    def result(self, job_id: str) -> Dict:
        """The full record incl. stats for a done job (``pending: 1``
        with HTTP 202 semantics while it is still in flight)."""
        return self._get("/result", {"id": job_id})

    def fetch(self, job: Dict, timeout: float = 60.0) -> Dict:
        """Submit-and-wait convenience: returns the terminal record with
        stats (raises :class:`ServeRequestError` on a 4xx submit)."""
        submitted = self.submit(job)
        job_id = submitted["id"]
        if submitted.get("state") not in ("done", "failed"):
            self.wait(job_id, timeout=timeout)
        return self.result(job_id)

    def metrics(self) -> Dict:
        return self._get("/metrics")

    def jobs(self) -> Dict:
        return self._get("/jobs")

    def gc(self, max_age: Optional[float] = None,
           max_entries: Optional[int] = None) -> Dict:
        body: Dict = {}
        if max_age is not None:
            body["max_age"] = max_age
        if max_entries is not None:
            body["max_entries"] = max_entries
        return self._post("/gc", body)
