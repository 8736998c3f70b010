"""Span recording for the traced run.

`Recorder.wrap` times one public function: every call becomes a span
(id, name, start, end, parent id, request id, tag), kept in memory and
written once, as JSON lines, by `save`.  A span's parent is the innermost
wrapped call still open on the same thread; the request id is the id of the
outermost one, so the spans of one proxied request share it.

Run as a script this module launches the phpwarden CLI with the layer
functions wrapped from outside, so no file of the program changes:

    python perfbench/spans.py --spans out.jsonl -- scan --root app --out report.txt
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
import threading
import time


class Recorder:
    def __init__(self, path: str | None):
        self.path = path
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, tag=None):
        """fn, timed.  tag(args, result) labels the span, e.g. with a
        verdict or a byte count."""
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            request = stack[0] if stack else span_id
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                label = tag(args, result) if tag is not None and result is not None else None
                spans.append((span_id, name, start, end, parent, request, label))

        return wrapper

    def save(self) -> None:
        if not self.path:
            return
        with open(self.path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[dict]:
    keys = ("id", "name", "start", "end", "parent", "request", "tag")
    with open(path, encoding="utf-8") as fh:
        return [dict(zip(keys, json.loads(line))) for line in fh if line.strip()]


def self_times(spans: list[dict], name: str) -> list[float]:
    """Duration of each `name` span minus the time its direct children cover."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [s["end"] - s["start"] - children.get(s["id"], 0.0) for s in spans if s["name"] == name]


def instrument(recorder: Recorder) -> None:
    """Wrap the layer entry points the CLI reaches, replacing module globals
    and class attributes of the imported phpwarden package."""
    from phpwarden import cli, enforcer, proxy, scanner
    from phpwarden.profile_store import ProfileStore

    w = recorder.wrap
    scanner.tokenize = w("lexer.tokenize", scanner.tokenize, lambda a, r: len(a[0]))
    scanner.scan_file = w("scanner.scan_file", scanner.scan_file)
    cli.write_report = w("report.write_report", cli.write_report)
    cli.crawl = w("crawler.crawl", cli.crawl)
    ProfileStore.record_exchange = w("profile_store.record_exchange", ProfileStore.record_exchange)
    cli.build_model = w("models.build_model", cli.build_model)
    cli.load_model = w("models.load_model", cli.load_model)
    proxy.EnforcementProxy.finish_request = w("proxy.finish_request",
                                              proxy.EnforcementProxy.finish_request)
    enforcer.Enforcer.evaluate = w("enforcer.evaluate", enforcer.Enforcer.evaluate,
                                   lambda a, r: r.reason)
    enforcer.parse_header_block = w("enforcer.parse_header_block", enforcer.parse_header_block)
    enforcer.verify_level1 = w("enforcer.verify_level1", enforcer.verify_level1)
    enforcer.verify_level2 = w("enforcer.verify_level2", enforcer.verify_level2)
    enforcer.DeviationLog.record = w("enforcer.deviation_log_record", enforcer.DeviationLog.record)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: spans.py --spans FILE -- <phpwarden arguments>", file=sys.stderr)
        return 2
    from phpwarden import cli

    recorder = Recorder(argv[1])
    instrument(recorder)
    signal.signal(signal.SIGTERM, _interrupt)  # servers stop as on Ctrl-C, so spans get saved
    try:
        return cli.main(argv[3:])
    finally:
        recorder.save()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
