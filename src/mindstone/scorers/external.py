"""Line-delimited JSON wire protocol (v1) for external scorer subprocesses.

The scorer speaks first: ``{"type":"hello","protocol":1,"roles":[...]}``.
The host then sends one request per line and reads one response per line
on the calling thread, polling stdout until a deadline (so POSIX only); ids
are echoed verbatim. Each handle is a serial channel; a batch fans out over
threads only through a :class:`ScorerPool` of them. A protocol fault (a
timeout, a malformed, non-UTF-8 or mismatched reply, or a scorer that exits
or closes its stdout) kills the scorer and closes its handle; a pool then
spawns a fresh one.
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

from ..corpus import ARRAY, INTEGER, NUMBER, OBJECT, STRING, json_field
from ..errors import (HandshakeTimeoutError, MalformedResponseError,
                      MindstoneError, ScorerExitError, ScorerProtocolError)

PROTOCOL_VERSION = 1


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
        if protocol != PROTOCOL_VERSION:
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

    def _request(self, payload: dict, expected_type: str) -> dict:
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
            return obj

    def rank_text(self, question: str, text: str) -> float:
        obj = self._request({"type": "rank", "question": question,
                             "text": text}, expected_type="rank_result")
        try:
            return float(json_field(obj, "score", NUMBER))
        except ValueError as exc:
            raise MalformedResponseError(str(exc), json.dumps(obj)) from None

    def read_text(self, question: str, text: str,
                  k: int) -> list[tuple[int, int, float]]:
        obj = self._request({"type": "read", "question": question,
                             "text": text, "k": k},
                            expected_type="read_result")
        try:
            spans = json_field(obj, "spans", ARRAY, items=OBJECT)
            return [(json_field(s, "start", INTEGER, f"spans[{i}]"),
                     json_field(s, "end", INTEGER, f"spans[{i}]"),
                     float(json_field(s, "score", NUMBER, f"spans[{i}]")))
                    for i, s in enumerate(spans)]
        except ValueError as exc:
            raise MalformedResponseError(str(exc), json.dumps(obj)) from None

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
    threads of ``Pipeline.answer_batch``. Each call takes an idle handle,
    spawning one only when all are busy, and returns it after, so k callers
    share no channel and run at most k scorer processes, batch after batch."""

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

    def rank_text(self, question: str, text: str) -> float:
        with self._handle() as handle:
            return handle.rank_text(question, text)

    def read_text(self, question: str, text: str, k: int):
        with self._handle() as handle:
            return handle.read_text(question, text, k)

    def close(self):
        with self._lock:
            handles, self._handles, self._idle = self._handles, [], []
        for handle in handles:
            handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
