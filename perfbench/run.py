"""phpwarden benchmark: scan throughput and proxied-verdict latency.

    python3 perfbench/run.py --workload shared-small --seed 1 --seconds 24 --trace 0

Run from the root of a phpwarden checkout.  Every input is generated from
--seed.  Each workload pairs one generated PHP tree, scanned by repeated
`python -m phpwarden.cli scan` processes, with one gated site: its upstream,
training, `build-model` and an `enforce` proxy in processes of their own,
driven over loopback by this process (closed loop, at most 2 connections).

  shared-small  200 small pages that all include one library; the demo app
                trained by the crawler (36 model rows), ~12% deviations
  flat-large    200 larger pages with no includes; a seeded 10-role site
                with ~8k model rows, ~45% deviations

--trace 0 prints the end-to-end metrics; --trace 1 runs the same traffic
with the layer functions wrapped (perfbench/spans.py) and prints per-layer
metrics.  The last stdout line is one JSON object; a human summary goes to
stderr.  The exit code is 1 when any output was wrong, 2 on a usage or
set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import corpus
import load
import spans
import sites

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
KB = 1024
ROUNDS = 8


@dataclass(frozen=True)
class Workload:
    corpus: str       # corpus.generate kind
    site: str         # "small" (demo app) or "large" (sites.large_site)
    deviation: float  # chance that a step of a logged-in walk is a planted deviation


WORKLOADS = {
    "shared-small": Workload("shared", "small", 0.1),
    "flat-large": Workload("flat", "large", 0.7),
}


class SetupError(RuntimeError):
    pass


# -- processes -----------------------------------------------------------------


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")


def _cli(args: list[str], spans_file: str | None = None) -> list[str]:
    """argv for one phpwarden CLI process, traced through the launcher when
    spans_file is given."""
    if spans_file:
        return [sys.executable, os.path.join(HERE, "spans.py"), "--spans", spans_file, "--", *args]
    return [sys.executable, "-m", "phpwarden.cli", *args]


class Process:
    """A child process.  Once it is reaped, rss_mb is its peak RSS and cpu_s
    its user + system CPU time."""

    def __init__(self, argv: list[str], log_path: str):
        self.log_path = log_path
        with open(log_path, "ab") as log:
            self.popen = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                          stdout=log, stderr=subprocess.STDOUT)
        self.rss_mb = self.cpu_s = 0.0

    def alive(self) -> bool:
        return self.popen.returncode is None and self.popen.poll() is None

    def wait(self, timeout: float = 150) -> tuple[int, float]:
        """Block until exit, killing the process after `timeout` seconds:
        (exit code, peak RSS MB)."""
        if self.popen.returncode is None:
            timer = threading.Timer(timeout, self.popen.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self.popen.pid, 0)
            finally:
                timer.cancel()
            self.popen.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / KB
            self.cpu_s = usage.ru_utime + usage.ru_stime
        return self.popen.returncode, self.rss_mb

    def stop(self) -> None:
        if self.alive():
            self.popen.terminate()
        self.wait(timeout=10)


def _run(argv: list[str], log_path: str) -> tuple[float, Process]:
    """Run to completion: (wall seconds, the reaped process)."""
    start = time.perf_counter()
    proc = Process(argv, log_path)
    proc.wait()
    return time.perf_counter() - start, proc


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_listening(proc: Process, port: int, what: str) -> None:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if not proc.alive():
            raise SetupError(f"{what} exited during start-up; see {proc.log_path}")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.01)
    raise SetupError(f"{what} did not listen on port {port} within 60 s")


def _checked(argv: list[str], log_path: str, what: str) -> None:
    _, proc = _run(argv, log_path)
    if proc.popen.returncode != 0:
        raise SetupError(f"{what} exited with {proc.popen.returncode}; see {log_path}")


# -- the gated site ---------------------------------------------------------------


class Gate:
    """Upstream + trained models + enforcing proxy of one workload."""

    def __init__(self, work: str, workload: Workload, seed: int):
        self.work = work
        self.workload = workload
        self.seed = seed
        self.site = sites.small_site() if workload.site == "small" else sites.large_site(seed)
        self.processes: list[Process] = []
        self.proxy = None
        self.setups = 0
        self.models = ""
        self.upstream_port = self.proxy_port = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _start(self, argv: list[str], port: int, what: str) -> Process:
        proc = Process(argv, self.path(f"{what}.log"))
        self.processes.append(proc)
        _wait_listening(proc, port, what)
        return proc

    def set_up(self, spans_dir: str | None = None) -> None:
        """Start the upstream, train, build and persist the models, and start
        the proxy; returns once the proxy listens."""
        traced = (lambda name: os.path.join(spans_dir, name + ".jsonl")) if spans_dir else (lambda name: None)
        self.setups += 1
        store, self.models = self.path(f"store-{self.setups}"), self.path(f"models-{self.setups}")
        with open(self.path("bindings.txt"), "w") as fh:
            fh.write(self.site.bindings())
        self.upstream_port = _free_port()
        base = f"http://127.0.0.1:{self.upstream_port}"
        if self.workload.site == "small":
            argv = _cli(["serve-demo", "--listen", f"127.0.0.1:{self.upstream_port}", "--seed", str(self.seed)])
        else:
            argv = [sys.executable, os.path.join(HERE, "sites.py"), "serve",
                    "--port", str(self.upstream_port), "--seed", str(self.seed)]
        self._start(argv, self.upstream_port, "upstream")
        train = [("0", [])]
        if self.workload.site == "small":
            train += [(role, ["--login-user", user, "--login-pass", password])
                      for role, (user, password) in self.site.users.items()]
        for role, extra in train:
            _checked(_cli(["train", "--role", role, "--base", base, "--store", store, *extra],
                          traced(f"train-{role}")), self.path("train.log"), f"train --role {role}")
        if self.workload.site == "large":
            argv = [sys.executable, os.path.join(HERE, "sites.py"), "train", "--store", store,
                    "--seed", str(self.seed), "--host", f"127.0.0.1:{self.upstream_port}"]
            if spans_dir:
                argv += ["--spans", traced("train-roles")]
            _checked(argv, self.path("train.log"), "large-site trainer")
        _checked(_cli(["build-model", "--store", store, "--out", self.models],
                      traced("build-model")), self.path("build.log"), "build-model")
        self.proxy_port, self.proxy = self.start_proxy("proxy", traced("enforce"))

    def start_proxy(self, name: str, spans_file: str | None) -> tuple[int, Process]:
        port = _free_port()
        argv = _cli(["enforce", "--models", self.models, "--listen", f"127.0.0.1:{port}",
                     "--upstream", f"127.0.0.1:{self.upstream_port}", "--bindings", self.path("bindings.txt"),
                     "--log", self.path(f"{name}-deviations.log")], spans_file)
        return port, self._start(argv, port, name)

    def stop(self) -> None:
        for proc in reversed(self.processes):
            proc.stop()
        self.processes.clear()


def _log_reasons(path: str) -> Counter:
    """Reason column of each deviation-log record (6 tab-separated fields)."""
    reasons: Counter = Counter()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                if len(fields) == 6:
                    reasons[fields[4]] += 1
    return reasons


# -- scans ---------------------------------------------------------------------


@dataclass
class ScanRuns:
    seconds: list = field(default_factory=list)
    cpu_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _scan(tree: corpus.Corpus, root: str, work: str, runs: ScanRuns, spans_file=None) -> None:
    """One `scan` process over the tree, its report checked against the
    planted findings."""
    out = os.path.join(work, "report.txt")
    for stale in (out, out + ".data"):
        if os.path.exists(stale):
            os.remove(stale)
    elapsed, proc = _run(_cli(["scan", "--root", root, "--out", out], spans_file),
                         os.path.join(work, "scan.log"))
    runs.seconds.append(elapsed)
    runs.cpu_s.append(proc.cpu_s)
    runs.rss_mb.append(proc.rss_mb)
    runs.attempted += 1
    if proc.popen.returncode != 1:  # every generated tree has findings
        runs.failed += 1
        print(f"scan exited with {proc.popen.returncode}, expected 1", file=sys.stderr)
    else:
        attempted, failed = corpus.check_scan(tree, corpus.read_findings(out + ".data", root))
        runs.attempted += attempted
        runs.failed += failed


def _reference(root: str, work: str) -> float:
    """CPU seconds of one reference job (refwork.py) over the tree."""
    _, proc = _run([sys.executable, os.path.join(HERE, "refwork.py"), root], os.path.join(work, "refwork.log"))
    if proc.popen.returncode != 0:
        raise SetupError(f"reference job exited with {proc.popen.returncode}; see refwork.log")
    return proc.cpu_s


def _user_cpu(who: int) -> float:
    """User CPU seconds of this process (RUSAGE_SELF) or of every child
    reaped so far (RUSAGE_CHILDREN)."""
    return resource.getrusage(who).ru_utime


def _live_cpu(pid: int) -> tuple[float, float]:
    """User and system CPU seconds so far of a running child (utime and
    stime in /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[11]) / tick, int(fields[12]) / tick


def _make_tree(kind: str, seed: int, root: str) -> corpus.Corpus:
    shutil.rmtree(root, ignore_errors=True)
    tree = corpus.generate(kind, seed)
    tree.write(root)
    return tree


# -- one run ---------------------------------------------------------------------


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def _gate_tally_check(tally: load.Tally, log_path: str, label: str) -> int:
    """Failures beyond wrong replies: deviation-log records must match the
    403s the clients saw, reason by reason."""
    logged = _log_reasons(log_path)
    mismatch = sum(abs(logged[r] - tally.observed[r]) for r in set(logged) | set(tally.observed))
    if mismatch:
        print(f"{label}: deviation log {dict(logged)} != blocked replies {dict(tally.observed)}",
              file=sys.stderr)
    if tally.first_failure:
        print(f"{label}: first wrong reply: {tally.first_failure}", file=sys.stderr)
    return mismatch


def measure(name: str, seed: int, seconds: float, work: str) -> dict:
    """--trace 0: every end-to-end metric.  Set-up runs three times; the
    measured part is ROUNDS rounds, half scans and half traffic, with the
    reference job (refwork.py) run before and after each scan and each
    round's traffic.  A round scans until seconds / (2 * ROUNDS) have
    passed, then runs five traffic slices: straight to the upstream, through
    the proxy and straight again at 1 connection, then through the proxy and
    straight at 2 connections.  Each metric is a median over set-ups, scans
    or rounds."""
    workload = WORKLOADS[name]
    root = os.path.join(work, "tree")
    gate = Gate(work, workload, seed)
    scans = ScanRuns()
    traffic = load.Tally()
    setups, setup_walls, p50s, ref_cpu, scan_vs_ref, kreq_vs_ref = [], [], [], [], [], []
    proxy_cpu = proxied = 0
    singles, directs, doubles = [], [], []
    try:
        # three set-ups; the first two are stopped unused, and the last one
        # serves the rounds.  set-up cost is user CPU up to the moment the
        # proxy listens: the kernel time for the training store's small files
        # swings 2x with load on the shared host
        for i in range(3):
            if i:
                gate.stop()
            os.sync()  # leave no earlier writes to flush inside the timed set-up
            children_before = _user_cpu(resource.RUSAGE_CHILDREN)
            start, cpu_start = time.perf_counter(), _user_cpu(resource.RUSAGE_SELF)
            tree = _make_tree(workload.corpus, seed, root)
            tree_cpu = _user_cpu(resource.RUSAGE_SELF) - cpu_start
            gate.set_up()
            setup_walls.append(time.perf_counter() - start)
            setups.append(_user_cpu(resource.RUSAGE_CHILDREN) - children_before + tree_cpu
                          + sum(_live_cpu(proc.popen.pid)[0] for proc in gate.processes))
        os.sync()  # write back the store and tree now, not during the timed rounds
        walks = sites.WalkGenerator(gate.site, seed, name, workload.deviation, workload.site == "large")
        proxy = ("127.0.0.1", gate.proxy_port)
        upstream = ("127.0.0.1", gate.upstream_port)
        warm, _ = load.run_phase(walks, proxy, 0.5, 1)
        traffic.merge(warm)
        slice_s = seconds / (10 * ROUNDS)
        # each scan's CPU time, and the proxy's per round of traffic, as a
        # multiple of the mean of the reference jobs right before and right
        # after it (see refwork.py)
        ref_cpu.append(_reference(root, work))
        for _ in range(ROUNDS):
            scan_until = time.perf_counter() + seconds / (2 * ROUNDS)
            while True:
                pair_start = time.perf_counter()
                _scan(tree, root, work, scans)
                ref_cpu.append(_reference(root, work))
                scan_vs_ref.append(scans.cpu_s[-1] * 2 / (ref_cpu[-2] + ref_cpu[-1]))
                if 2 * time.perf_counter() - pair_start >= scan_until:  # no time for another pair
                    break
            # proxied latency against direct slices right before and right after it
            proxy_start = sum(_live_cpu(gate.proxy.popen.pid))
            before, _ = load.run_phase(walks, upstream, slice_s, 1, check=False)
            single, _ = load.run_phase(walks, proxy, slice_s, 1)
            after, _ = load.run_phase(walks, upstream, slice_s, 1, check=False)
            double, double_s = load.run_phase(walks, proxy, slice_s, 2)
            direct2, direct2_s = load.run_phase(walks, upstream, slice_s, 2, check=False)
            round_cpu = sum(_live_cpu(gate.proxy.popen.pid)) - proxy_start
            ref_cpu.append(_reference(root, work))
            round_requests = single.attempted + double.attempted
            kreq_vs_ref.append(round_cpu / round_requests * 1000 * 2 / (ref_cpu[-2] + ref_cpu[-1]))
            proxy_cpu += round_cpu
            proxied += round_requests
            direct = before.latencies + after.latencies
            p50s.append(statistics.median(single.latencies) / statistics.median(direct))
            singles += single.latencies
            directs += direct
            doubles.append((double.attempted / double_s, direct2.attempted / direct2_s))
            traffic.merge(single)
            traffic.merge(double)
    finally:
        gate.stop()

    parity = _gate_tally_check(traffic, gate.path("proxy-deviations.log"), name)
    scan_s = statistics.median(scans.cpu_s)
    metrics = {
        "scan_cpu_vs_ref": (statistics.median(scan_vs_ref), "ratio"),
        "p50_vs_direct": (statistics.median(p50s), "ratio"),
        "proxy_kreq_cpu_vs_ref": (statistics.median(kreq_vs_ref), "ratio"),
        "scan_peak_rss_mb": (statistics.median(scans.rss_mb), "MB"),
        "proxy_peak_rss_mb": (gate.proxy.rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    attempted = scans.attempted + traffic.attempted
    failed = scans.failed + traffic.failed + parity
    blocked = sum(v for k, v in traffic.expected.items() if k != "ok")
    print(f"{name}: reference job CPU {statistics.median(ref_cpu):.3f} s (median of {len(ref_cpu)}); "
          f"{len(scans.seconds)} scans of {tree.distinct_bytes} B, median wall "
          f"{statistics.median(scans.seconds):.3f} s, CPU {scan_s:.3f} s = "
          f"{tree.distinct_bytes / KB / scan_s:.1f} KB/s (re-lexed share "
          f"{1 - tree.distinct_bytes / tree.lexed_bytes():.3f}); {traffic.attempted} proxied requests, "
          f"proxy CPU {proxy_cpu / proxied * 1e6:.1f} us/request, blocked share {blocked / traffic.attempted:.3f}, {len(traffic.identities)} distinct identities; "
          f"1 connection: proxied p10/p50/p90/p99 {_ms(singles, 10)}/{_ms(singles, 50)}/{_ms(singles, 90)}/{_ms(singles, 99)} ms "
          f"over {len(singles)} samples, direct {_ms(directs, 10)}/{_ms(directs, 50)}/{_ms(directs, 90)}/{_ms(directs, 99)} ms "
          f"over {len(directs)}; 2 connections: proxied/direct req/s "
          f"{statistics.median(p for p, _ in doubles):.0f}/{statistics.median(d for _, d in doubles):.0f}; "
          f"set-up wall {statistics.median(setup_walls):.3f} s; error_rate {failed / attempted:.6f}",
          file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _ms(latencies: list[float], q: int) -> str:
    return f"{_quantile(latencies, q) * 1000:.3f}"


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def measure_traced(name: str, seed: int, seconds: float, work: str) -> dict:
    """--trace 1: the same workload with the layer functions wrapped, plus
    untraced passes to give the tracing overhead."""
    workload = WORKLOADS[name]
    root = os.path.join(work, "tree")
    tree = _make_tree(workload.corpus, seed, root)
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)

    plain, traced = ScanRuns(), ScanRuns()
    scan_spans = []
    for i in range(3):
        _scan(tree, root, work, plain)
        span_file = os.path.join(spans_dir, f"scan-{i}.jsonl")
        _scan(tree, root, work, traced, span_file)
        scan_spans.append(spans.load(span_file))

    gate = Gate(work, workload, seed)
    try:
        gate.set_up(spans_dir)
        plain_port, _ = gate.start_proxy("plain-proxy", None)
        walks = sites.WalkGenerator(gate.site, seed, name, workload.deviation, workload.site == "large")
        phase = max(1.0, 0.2 * seconds)
        direct, _ = load.run_phase(walks, ("127.0.0.1", gate.upstream_port), phase, 1, check=False)
        untraced, _ = load.run_phase(walks, ("127.0.0.1", plain_port), phase, 1)
        traced_single, _ = load.run_phase(walks, ("127.0.0.1", gate.proxy_port), phase, 1)
        traced_double, _ = load.run_phase(walks, ("127.0.0.1", gate.proxy_port), phase, 2)
    finally:
        gate.stop()

    gate_spans = []
    for file in sorted(os.listdir(spans_dir)):
        if not file.startswith("scan-"):
            gate_spans += spans.load(os.path.join(spans_dir, file))
    by_name: dict[str, list[dict]] = {}
    for s in gate_spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(span_name: str, tag=None) -> list[float]:
        return [s["end"] - s["start"] for s in by_name.get(span_name, ())
                if tag is None or (s["tag"] == "ok") == (tag == "ok")]

    proxied = load.Tally()
    for t in (traced_single, traced_double):
        proxied.merge(t)
    failed = untraced.failed + proxied.failed
    failed += _gate_tally_check(untraced, gate.path("plain-proxy-deviations.log"), name + " untraced")
    failed += _gate_tally_check(proxied, gate.path("proxy-deviations.log"), name + " traced")
    verdicts = Counter(s["tag"] for s in by_name.get("enforcer.evaluate", ()))
    if verdicts != +proxied.expected:
        print(f"{name}: enforcer verdicts {dict(verdicts)} != generated {dict(proxied.expected)}",
              file=sys.stderr)
        failed += sum(abs(verdicts[k] - proxied.expected[k]) for k in set(verdicts) | set(proxied.expected))

    per_scan = []
    for ss in scan_spans:
        lexed = sum(s["tag"] for s in ss if s["name"] == "lexer.tokenize")
        tokenize_s = sum(s["end"] - s["start"] for s in ss if s["name"] == "lexer.tokenize")
        per_scan.append({
            "lexer.tokenize_s": tokenize_s,
            "lexer.kb_per_s": lexed / KB / tokenize_s,
            "lexer.bytes_lexed": lexed,
            "scanner.walk_s": sum(spans.self_times(ss, "scanner.scan_file")),
            "scanner.scan_file_calls": sum(1 for s in ss if s["name"] == "scanner.scan_file"),
            "scanner.relex_ratio": lexed / tree.distinct_bytes,
            "report.write_s": sum(s["end"] - s["start"] for s in ss if s["name"] == "report.write_report"),
        })
    units = {"lexer.tokenize_s": "s", "lexer.kb_per_s": "KB/s", "lexer.bytes_lexed": "B",
             "scanner.walk_s": "s", "scanner.scan_file_calls": "count", "scanner.relex_ratio": "ratio",
             "report.write_s": "s"}
    metrics = {k: (statistics.median(p[k] for p in per_scan), u) for k, u in units.items()}

    records = sorted(by_name.get("profile_store.record_exchange", ()), key=lambda s: s["start"])
    last_decile = records[len(records) * 9 // 10:]
    p50_untraced = statistics.median(untraced.latencies) * 1000
    upstream_p50 = statistics.median(direct.latencies) * 1000
    evaluate_us = _median_us(durations("enforcer.evaluate"))
    metrics.update({
        "enforcer.evaluate_us": (evaluate_us, "us"),
        "enforcer.evaluate_ok_us": (_median_us(durations("enforcer.evaluate", "ok")), "us"),
        "enforcer.evaluate_block_us": (_median_us(durations("enforcer.evaluate", "block")), "us"),
        "enforcer.verify_level1_us": (_median_us(durations("enforcer.verify_level1")), "us"),
        "enforcer.verify_level2_us": (_median_us(durations("enforcer.verify_level2")), "us"),
        "enforcer.parse_header_block_us": (_median_us(durations("enforcer.parse_header_block")), "us"),
        "enforcer.deviation_log_record_us": (_median_us(durations("enforcer.deviation_log_record")), "us"),
        "enforcer.forwarded": (verdicts["ok"], "count"),
        **{f"enforcer.blocked.{r}": (verdicts[r], "count") for r in sites.REASONS},
        "proxy.finish_request_ms": (_median_us(durations("proxy.finish_request")) / 1000, "ms"),
        "upstream.p50_ms": (upstream_p50, "ms"),
        "proxy.overhead_p50_ms": (p50_untraced - upstream_p50, "ms"),
        "profile_store.record_exchange_us": (_median_us([s["end"] - s["start"] for s in records]), "us"),
        "profile_store.record_exchange_last_decile_us":
            (_median_us([s["end"] - s["start"] for s in last_decile]), "us"),
        "models.build_model_s": (sum(durations("models.build_model")), "s"),
        "models.load_model_s": (statistics.median(durations("models.load_model")), "s"),
        "crawler.crawl_s": (sum(durations("crawler.crawl")), "s"),
        "enforcer.verifier_share": (evaluate_us / 1e6 / statistics.median(traced_single.latencies), "ratio"),
        "trace.scan_overhead_pct":
            ((statistics.median(traced.seconds) / statistics.median(plain.seconds) - 1) * 100, "%"),
        "trace.p50_overhead_ms": (statistics.median(traced_single.latencies) * 1000 - p50_untraced, "ms"),
    })
    attempted = plain.attempted + traced.attempted + untraced.attempted + proxied.attempted
    print(f"{name} (traced): re-lexed share {1 - tree.distinct_bytes / tree.lexed_bytes():.3f}; "
          f"blocked share {1 - proxied.expected['ok'] / proxied.attempted:.3f}, "
          f"{len(proxied.identities)} distinct identities, verifier share of proxied p50 "
          f"{metrics['enforcer.verifier_share'][0]:.3f}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed + plain.failed + traced.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phpwarden benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phpwarden", "cli.py")):
        print(f"no phpwarden sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        measure_fn = measure_traced if args.trace else measure
        result = measure_fn(args.workload, args.seed, args.seconds, work)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        for log in sorted(os.listdir(work)):
            if log.endswith(".log"):
                with open(os.path.join(work, log), errors="replace") as fh:
                    tail = fh.read()[-2000:]
                print(f"--- {log}\n{tail}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
