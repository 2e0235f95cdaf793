"""Line-delimited JSON wire protocol (v1) for external scorer subprocesses.

The scorer speaks first: ``{"type":"hello","protocol":1,"roles":[...]}``.
The host then sends one request per line and reads one response per line;
ids are echoed verbatim. Each handle is a serial channel; a batch fans out
over threads only through a :class:`ScorerPool` of them. A protocol fault
(a timeout, a malformed or mismatched reply, or an exited scorer) kills the
scorer and closes its handle; a pool then spawns a fresh one.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
from contextlib import contextmanager

from ..corpus import ARRAY, INTEGER, NUMBER, OBJECT, STRING, json_field
from ..errors import (HandshakeTimeoutError, MalformedResponseError,
                      ScorerExitError, ScorerProtocolError, StageError)

PROTOCOL_VERSION = 1
_EOF = object()


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
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, encoding="utf-8", bufsize=1)
        except OSError as exc:
            raise ScorerExitError(f"could not spawn scorer {argv!r}: {exc}")
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._pump, args=(self._proc.stdout, self._lines),
            daemon=True)
        self._reader.start()
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

    @staticmethod
    def _pump(stdout, lines: queue.Queue):
        # No reference to the handle: a handle dropped without close() is
        # still collected, and __del__ closes it from the dropping thread.
        for line in stdout:
            lines.put(line)
        lines.put(_EOF)

    def _next_line(self, timeout: float) -> str:
        try:
            item = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError
        if item is _EOF:
            code = self._proc.wait()
            raise ScorerExitError(
                f"scorer {self.command!r} exited with code {code} "
                f"before responding")
        return item

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
            raise StageError(self.role, str(obj.get("message", "")))
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
                    self._proc.stdin.write(json.dumps(payload) + "\n")
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
            if self._proc.stdin:
                self._proc.stdin.close()
            self._proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        # The pump reads stdout until EOF. Closing the pipe while it still
        # reads (a grandchild may hold the write end) would block here.
        self._reader.join(timeout=5)
        if not self._reader.is_alive():
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
