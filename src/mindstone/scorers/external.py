"""Line-delimited JSON wire protocol 2 for external scorer subprocesses.

The scorer speaks first: ``{"type":"hello","protocol":2,"roles":[...]}``;
a hello with any other ``protocol`` is refused. The host then sends one
request per line and reads one response per line on the calling thread,
polling stdout until a deadline (so POSIX only); ids are echoed verbatim.
There are two requests: ``rank_batch`` carries a question's whole pool and
``read_batch`` its read slice, each in one message.

Each handle is a serial channel; a batch fans out over threads only
through a :class:`ScorerPool` of them. A protocol fault (a timeout, a
malformed, non-UTF-8 or mismatched reply, or a scorer that exits or closes
its stdout) kills the scorer and closes its handle; a pool then spawns a
fresh one.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import threading
import time
from contextlib import contextmanager
from typing import Sequence

from ..corpus import (ARRAY, INTEGER, NUMBER, OBJECT, STRING, json_field,
                      json_value)
from ..errors import (HandshakeTimeoutError, MalformedResponseError,
                      MindstoneError, ScorerExitError, ScorerProtocolError)

# The JSON types of a span's start, end and score in a well-formed reply.
_SPAN_TYPES = {(int, int, float), (int, int, int)}


def _span_lists(reply: dict) -> list[list[tuple[int, int, float]]]:
    """(start, end, score) of each span, per text, of a
    ``read_batch_result``; a ValueError names a field of the wrong kind."""
    lists = []
    for i, items in enumerate(json_field(reply, "spans", ARRAY)):
        if type(items) is not list:
            json_value(items, ARRAY, f"spans[{i}]")
        spans = []
        for j, span in enumerate(items):
            # One comparison per span; the helpers only name what is wrong.
            if type(span) is not dict or (
                    type(span.get("start")), type(span.get("end")),
                    type(span.get("score"))) not in _SPAN_TYPES:
                at = f"spans[{i}][{j}]"
                json_value(span, OBJECT, at)
                json_field(span, "start", INTEGER, at)
                json_field(span, "end", INTEGER, at)
                json_field(span, "score", NUMBER, at)
            spans.append((span["start"], span["end"], float(span["score"])))
        lists.append(spans)
    return lists


class ExternalScorer:
    """Handle to one scorer subprocess, usable as a ranker and/or reader."""

    def __init__(self, command: str | list[str], role: str,
                 timeout: float = 30.0):
        if role not in ("rank", "read"):
            raise ValueError(f"role must be 'rank' or 'read', got {role!r}")
        self.role = role
        self.timeout = timeout
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.command = argv
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
        except OSError as exc:
            raise ScorerExitError(f"could not spawn scorer {argv!r}: {exc}")
        # Read with os.read: poll cannot see bytes in the file's buffer.
        self._poll = select.poll()
        self._poll.register(self._proc.stdout, select.POLLIN)
        self._pending = b""  # bytes after the last complete reply line
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        try:
            self.hello = self._handshake()
        except BaseException:
            # The caller never gets this handle, so nothing else can stop
            # the scorer or release its pipes.
            self._proc.kill()
            self.close()
            raise

    def _next_line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not self._poll.poll(left * 1000):
                raise TimeoutError
            chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
            if not chunk:
                try:  # the caller kills a scorer that is still running
                    code = self._proc.wait(max(0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    code = None
                raise ScorerExitError(f"scorer {self.command!r} closed its "
                                      f"stdout (exit code {code})")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedResponseError("response is not UTF-8",
                                         line) from None

    def _handshake(self) -> dict:
        try:
            line = self._next_line(self.timeout)
        except TimeoutError:
            raise HandshakeTimeoutError(
                f"no hello from scorer {self.command!r} within "
                f"{self.timeout}s")
        hello = self._parse(line, expected_type="hello")
        try:
            protocol = json_field(hello, "protocol", INTEGER)
            roles = json_field(hello, "roles", ARRAY, items=STRING)
        except ValueError as exc:
            raise MalformedResponseError(str(exc), line) from None
        if protocol != 2:
            raise MalformedResponseError(
                f"unsupported protocol {protocol!r}", line)
        if self.role not in roles:
            raise MalformedResponseError(
                f"scorer does not offer role {self.role!r} (offers {roles})",
                line)
        return hello

    def _parse(self, line: str, expected_type: str | None = None) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            raise MalformedResponseError("response is not valid JSON", line)
        if not isinstance(obj, dict) or "type" not in obj:
            raise MalformedResponseError("response has no 'type' field", line)
        if obj["type"] == "error":
            raise MindstoneError(str(obj.get("message", "")))
        if expected_type is not None and obj["type"] != expected_type:
            raise MalformedResponseError(
                f"expected type {expected_type!r}", line)
        return obj

    def _request(self, payload: dict, expected_type: str, fields):
        """Send ``payload`` and return ``fields`` of its reply of type
        ``expected_type``. A ValueError from ``fields`` (a field of another
        kind) is a MalformedResponseError that keeps the handle, since the
        channel is still in step."""
        with self._lock:
            if self._closed:
                raise ScorerProtocolError("scorer handle is closed")
            request_id = str(self._next_id)
            self._next_id += 1
            payload = dict(payload, id=request_id)
            try:
                try:
                    self._proc.stdin.write(
                        json.dumps(payload).encode() + b"\n")
                    self._proc.stdin.flush()
                except (BrokenPipeError, OSError):
                    code = self._proc.poll()
                    raise ScorerExitError(f"scorer {self.command!r} pipe "
                                          f"closed (exit code {code})")
                try:
                    line = self._next_line(self.timeout)
                except TimeoutError:
                    raise ScorerProtocolError(
                        f"no response from scorer within {self.timeout}s")
                obj = self._parse(line, expected_type=expected_type)
                if obj.get("id") != request_id:
                    raise MalformedResponseError(
                        f"response id {obj.get('id')!r} does not match "
                        f"request id {request_id!r}", line)
            except ScorerProtocolError:
                # A late or stray reply would answer the next request, and
                # a dead scorer answers none: no request may use this handle.
                self._proc.kill()
                self.close()
                raise
        try:
            return fields(obj)
        except ValueError as exc:
            raise MalformedResponseError(str(exc), json.dumps(obj)) from None

    def rank_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str]) -> list[float]:
        """One score per text, from one ``rank_batch`` request."""
        return self._request(
            {"type": "rank_batch", "question": question, "texts": texts},
            "rank_batch_result",
            lambda reply: [float(score) for score in json_field(
                reply, "scores", ARRAY, items=NUMBER)])

    def read_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str],
                  k: int) -> list[list[tuple[int, int, float]]]:
        """One span list per text, from one ``read_batch`` request."""
        return self._request(
            {"type": "read_batch", "question": question, "texts": texts,
             "k": k}, "read_batch_result", _span_lists)

    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


class ScorerPool:
    """ExternalScorer handles shared by concurrent callers, such as the
    threads of ``Pipeline.answer_batch``. Each call, such as one question's
    ``read_pool``, takes an idle handle, spawning one only when all are
    busy, and returns it after, so k callers share no channel and run at
    most k scorer processes, batch after batch."""

    def __init__(self, command: str | list[str], role: str,
                 timeout: float = 30.0):
        self.command = command
        self.role = role
        self.timeout = timeout
        self._handles: list[ExternalScorer] = []
        self._idle: list[ExternalScorer] = []
        self._lock = threading.Lock()

    @contextmanager
    def _handle(self):
        with self._lock:
            handle = self._idle.pop() if self._idle else None
        if handle is None:
            handle = ExternalScorer(self.command, self.role,
                                    timeout=self.timeout)
            with self._lock:
                self._handles.append(handle)
        try:
            yield handle
        finally:
            with self._lock:
                if not handle._closed:
                    self._idle.append(handle)
                elif handle in self._handles:  # closed by a protocol fault
                    self._handles.remove(handle)

    def rank_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str]) -> list[float]:
        with self._handle() as handle:
            return handle.rank_pool(question, para_ids, texts)

    def read_pool(self, question: str, para_ids: Sequence[str],
                  texts: Sequence[str], k: int):
        with self._handle() as handle:
            return handle.read_pool(question, para_ids, texts, k)

    def rank_text(self, question: str, text: str) -> float:
        """The score of one text, from a one-text ``rank_pool``: for a
        caller that probes one text, such as a benchmark's spawn check or a
        tracer that wraps this method."""
        [score] = self.rank_pool(question, [""], [text])
        return score

    def read_text(self, question: str, text: str,
                  k: int) -> list[tuple[int, int, float]]:
        """The spans of one text, from a one-text ``read_pool``: for a
        caller that probes one text, such as a benchmark's spawn check or a
        tracer that wraps this method."""
        [spans] = self.read_pool(question, [""], [text], k)
        return spans

    def close(self):
        with self._lock:
            handles, self._handles, self._idle = self._handles, [], []
        for handle in handles:
            handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
