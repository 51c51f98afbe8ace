"""Open-loop load generation against the daemon's HTTP surface.

Independent users do not wait for each other, so the generator sends on a
fixed schedule whatever the replies do.  One thread walks the schedule and
sends synchronously: a reply that stalls delays the sends behind it, and
because every latency is timed from the moment the request was *due*, that
wait is charged to the delayed requests.  How late the generator itself ran
(send start minus due time) is reported next to the latencies, so a slow
generator cannot pass for a slow daemon.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "Sent",
    "arrival_offsets",
    "run_open_loop",
    "PerConnectionClient",
    "KeepAliveClient",
    "TelemetryPoller",
    "get_json",
    "post_json",
]

_HTTP_TIMEOUT = 60.0
#: The status a request gets that ended without an HTTP reply (connection
#: refused, reset or dropped, time-out): not 200, so it counts as failed.
NO_REPLY = 0


@dataclass(frozen=True)
class Sent:
    """One request of an open-loop run; times are seconds from the first due time."""

    due: float
    sent: float
    done: float
    status: int

    @property
    def latency(self) -> float:
        """Due time to reply: includes any wait a stall ahead of it imposed."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How long after its due time the generator started sending it."""
        return self.sent - self.due

    @property
    def round_trip(self) -> float:
        return self.done - self.sent


def arrival_offsets(rate: float, seconds: float, rng: np.random.Generator) -> list[float]:
    """Arrival times of a Poisson stream of ``rate``/s over ``seconds``.

    Conditioned on the count: a Poisson process with exactly ``n`` arrivals
    in a window places them as ``n`` sorted uniforms, so every run of a step
    offers the same number of requests (``rate * seconds``) and the
    accepted-equals-offered check is exact.  The first arrival is shifted to
    offset 0 so the step starts with a request.
    """
    n = int(round(rate * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, n))
    return [float(t) for t in offsets - offsets[0]]


def run_open_loop(
    schedule: Sequence[tuple[float, Any]],
    send: Callable[[Any], int],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sent]:
    """Send each ``(due offset, payload)`` at its due time; never wait for load.

    ``send`` blocks until the reply and returns its HTTP status.  ``clock``
    and ``sleep`` are injectable so the due-time accounting can be tested
    without a wall clock.
    """
    origin = clock()
    out: list[Sent] = []
    for due, payload in schedule:
        wait = origin + due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock() - origin
        status = send(payload)
        out.append(Sent(due=due, sent=sent, done=clock() - origin, status=status))
    return out


# -- HTTP clients ------------------------------------------------------------------
def post_json(url: str, payload: bytes) -> tuple[int, dict[str, Any]]:
    """POST ``payload`` on a fresh connection; ``(status, decoded reply)``.

    ``(NO_REPLY, {})`` when the connection failed before a reply arrived.
    """
    request = urllib.request.Request(url, data=payload, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=_HTTP_TIMEOUT) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))
    except (OSError, http.client.HTTPException):  # URLError is an OSError
        return NO_REPLY, {}


def get_json(url: str) -> dict[str, Any]:
    with urllib.request.urlopen(url, timeout=_HTTP_TIMEOUT) as response:
        return json.loads(response.read().decode("utf-8"))


class PerConnectionClient:
    """One TCP connection per submission: how the tests and the smoke script talk."""

    def __init__(self, base_url: str):
        self._url = f"{base_url}/submit"

    def send(self, payload: bytes) -> int:
        return post_json(self._url, payload)[0]

    def close(self) -> None:
        pass


class KeepAliveClient:
    """Every submission over one persistent ``http.client`` connection."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=_HTTP_TIMEOUT)

    def send(self, payload: bytes) -> int:
        try:
            self._conn.request(
                "POST", "/submit", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            response.read()
            return response.status
        except (OSError, http.client.HTTPException):
            self._conn.close()  # the next request reconnects
            return NO_REPLY

    def close(self) -> None:
        self._conn.close()


class TelemetryPoller:
    """Polls ``GET /telemetry`` on its own thread at a fixed period.

    Keeps every document and its round trip; ``stop()`` joins the thread and
    re-raises whatever killed it, so a failed poll cannot go unnoticed.
    """

    def __init__(self, base_url: str, period: float = 0.5):
        self._url = f"{base_url}/telemetry"
        self._period = period
        self._stop = threading.Event()
        self._error: BaseException | None = None
        self.documents: list[dict[str, Any]] = []
        self.round_trips: list[float] = []
        self._thread = threading.Thread(
            target=self._run, name="bench-telemetry-poller", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._period):
                start = time.perf_counter()
                document = get_json(self._url)
                self.round_trips.append(time.perf_counter() - start)
                self.documents.append(document)
        except BaseException as exc:  # noqa: BLE001 - re-raised by stop()
            self._error = exc

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=_HTTP_TIMEOUT + 5.0)
        if self._thread.is_alive():
            raise RuntimeError("telemetry poller did not stop")
        if self._error is not None:
            raise self._error
