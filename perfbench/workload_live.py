"""The ``live-ingest`` workload: ``repro serve --state-dir`` under a
streamed load, an open-loop query mix, and one SIGKILL + restart.

See ``README.md`` for why the workload looks like this.  One scenario:

1. spawn the server (through ``serve_launcher.py``) on a fresh state
   dir and wait for its first answer;
2. connection 1 streams the set-up logs one at a time through
   ``stream_raw`` with the ack/resume handshake (closed loop: the next
   chunk goes out when ``drain`` lets it);
3. connection 2 sends ``stats`` / ``breakdown`` / ``windows`` queries
   on a fixed schedule (open loop, one query in flight at a time);
   latency counts from each query's *scheduled* send time;
4. during the last stream, at a fixed byte offset, the server is
   SIGKILLed and restarted on the same state dir; ``recovery_s`` runs
   from the restart until a query answers with every journaled node
   restored, then the stream resumes; afterwards the idle server is
   killed and restarted a few more times;
5. every final map must equal the offline streaming ``build_energy_map``
   of its log byte for byte (float bits and dict order).

Throughout, the server times a calibration loop every ``CAL_PERIOD_S``
(``SIGUSR2``, see ``serve_launcher.py``) so that its times can be
normalized to the reference host (``benchutil.calibrate``).

The amount of work is fixed by the seed and ``--seconds`` (not by how
fast the server is), so the journal the restart replays is the same size
on every commit.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchutil import (
    BenchFailure, ROOT, WORK, calibrate, children_peak_rss_mb, log,
    percentile, speed_factor,
)

#: Window stride of every stream (the hello's ``stride_ns``), seconds.
STRIDE_S = 4
#: Blink log lengths (simulated seconds): two shorter logs and one past
#: 2**32 ns = 4294.97 s, so the u32 time field wraps.  The lengths are
#: fixed (the seed picks the Blink runs), so every seed streams the
#: same number of entries and journals the same number of bytes.
LOG_SECONDS = (1200, 2400, 4500)
#: Streams per second of ``--seconds`` (sized so a run takes about
#: ``--seconds`` on a 2-CPU host; fixed, so the work does not depend on
#: the speed being measured).
STREAMS_PER_S = 3.0
#: The open-loop query rate.  A query's service time while a stream is
#: in flight is 50-85 ms (p50-p90) on a 2-CPU host, so the lane's
#: capacity is about 16/s; at 20/s the backlog grows without bound.
#: 8/s keeps it about half busy.
QUERY_HZ = 8.0
#: The deliberate kill lands this far into the last stream's bytes.
KILL_FRACTION = 0.5
#: Poll interval of the recovery probe.
PROBE_S = 0.002
#: Node ids are ``NODE_BASE + stream index``: every stream is a new node.
NODE_BASE = 1000
#: Restarts of the idle server after the last stream, beside the one
#: mid-stream kill, so that recovery_s is not a single sample.
EXTRA_KILLS = 4
KILL_GAP_S = 0.2
#: How often the server times the calibration loop (``SIGUSR2``).
CAL_PERIOD_S = 0.25


def _split_cpus():
    """One CPU for the server, the others for this client, when the host
    gives us at least two: the scheduler then never stacks the two
    processes on one CPU while the other idles."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None, None
    if len(cpus) < 2:
        return None, None
    return {cpus[-1]}, set(cpus[:-1])


SERVER_CPU, CLIENT_CPUS = _split_cpus()


@dataclass
class LogInput:
    name: str
    raw: bytes
    hello: dict
    offline: object
    entries: int


def generate_inputs(seed: int) -> list[LogInput]:
    """The node logs of one run, made from the workload seed alone."""
    from repro.core.accounting import build_energy_map
    from repro.experiments.common import run_blink
    from repro.serve.client import hello_for_node
    from repro.tos.node import COMPONENT_NAMES
    from repro.units import seconds

    rng = random.Random(seed)
    inputs = []
    for length_s in LOG_SECONDS:
        node, _app, _sim = run_blink(
            seed=rng.randrange(1 << 30), duration_ns=seconds(length_s))
        raw = bytes(node.logger.raw_bytes())
        timeline = node.timeline()
        regression = node.regression(timeline)
        hello = hello_for_node(node, stride_ns=seconds(STRIDE_S),
                               timeline=timeline, regression=regression)
        offline = build_energy_map(
            timeline, regression, node.registry, COMPONENT_NAMES,
            node.platform.icount.nominal_energy_per_pulse_j,
            fold_proxies=False,
            idle_name=node.registry.name_of(node.idle),
            backend="streaming")
        inputs.append(LogInput(f"blink{length_s}s", raw, hello, offline,
                               len(raw) // 12))
    return inputs


def map_differences(served, offline) -> list[str]:
    """Byte-identity of two energy maps: float bits and dict order."""
    problems = []
    if list(served.energy_j) != list(offline.energy_j):
        problems.append("energy key order")
    if served.energy_j != offline.energy_j:
        problems.append("energy float bits")
    if list(served.time_ns) != list(offline.time_ns):
        problems.append("time key order")
    if served.time_ns != offline.time_ns:
        problems.append("time values")
    if served.metered_energy_j != offline.metered_energy_j:
        problems.append("metered total")
    if served.reconstructed_energy_j != offline.reconstructed_energy_j:
        problems.append("reconstructed total")
    if served.span_ns != offline.span_ns:
        problems.append("span")
    return problems


class Server:
    """One ``repro serve`` process started through ``serve_launcher.py``;
    its calibration samples and (traced) spans land at ``out``.*."""

    def __init__(self, sock: str, state_dir: str, trace: bool, out: str,
                 run_id: str, log_path: str) -> None:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        self.out = out
        self.ready = False  # signal handlers installed and answering
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
             "--trace", str(int(trace)), "--out", out,
             "--run-id", run_id, "--",
             "serve", "--listen", f"unix:{sock}", "--state-dir", state_dir],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        if SERVER_CPU is not None:
            os.sched_setaffinity(self.proc.pid, SERVER_CPU)

    def calibrate(self) -> None:
        """Ask the server to time the calibration loop (SIGUSR2)."""
        if self.ready and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGUSR2)

    def flush(self, timeout_s: float = 10.0) -> str:
        """Have the server write what it recorded so far (SIGUSR1);
        returns the file prefix it wrote."""
        prefix = f"{self.out}.flush"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout_s
        while not os.path.exists(f"{prefix}.cal.json"):
            if time.monotonic() > deadline:
                raise BenchFailure("server never flushed its records")
            time.sleep(0.005)
        return prefix

    def kill(self) -> None:
        self.ready = False
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._log.close()

    def stop(self, timeout_s: float = 30.0) -> int:
        """Graceful stop (SIGTERM drains); SIGKILL past the timeout."""
        self.ready = False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


async def answer(sock: str, payload: dict) -> dict:
    from repro.serve.client import query
    return await query(sock, payload)


async def wait_answer(sock: str, restored: int = 0,
                      timeout_s: float = 60.0) -> float:
    """Poll ``stats`` until the server answers with ``restored`` node
    sessions restored; returns the (monotonic) time of that answer."""
    from repro.errors import ServeError

    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while True:
        try:
            reply = await answer(sock, {"cmd": "stats"})
            if reply.get("ok") and reply.get("restored", 0) >= restored:
                return time.monotonic()
        except (OSError, ServeError):
            pass  # not listening yet
        if loop.time() > deadline:
            raise BenchFailure(
                f"server did not answer with {restored} nodes restored "
                f"within {timeout_s} s")
        await asyncio.sleep(PROBE_S)


@dataclass
class Scenario:
    """What one scenario measured.  Times are ``time.monotonic()``,
    the clock the server's calibration samples use too."""

    #: (start, end, entries) of every stream
    streams: list = field(default_factory=list)
    #: (due, latency ms, how late it was sent ms) of every timed query
    queries: list = field(default_factory=list)
    #: (restart time, seconds until every journaled node was restored)
    recoveries: list = field(default_factory=list)
    #: (time, seconds) calibration samples taken inside the servers
    calibration: list = field(default_factory=list)
    skipped: int = 0
    query_failures: list = field(default_factory=list)
    stream_failures: list = field(default_factory=list)
    reconnects: int = 0
    blocked_ms: list = field(default_factory=list)
    map_failures: list = field(default_factory=list)
    span_files: list = field(default_factory=list)
    resumed_from: int = 0

    @property
    def entries(self) -> int:
        return sum(r[2] for r in self.streams)

    @property
    def ingest_s(self) -> float:
        """First hello to last final reply."""
        return self.streams[-1][1] - self.streams[0][0]

    def factor(self, start: float, end: float) -> float:
        """Wall -> reference-host time for the server over [start, end]:
        from the calibration samples taken in that interval, else the
        nearest one (``benchutil.calibrate``)."""
        inside = [c for t, c in self.calibration if start <= t <= end]
        if not inside:
            inside = [min(self.calibration,
                          key=lambda s: min(abs(s[0] - start),
                                            abs(s[0] - end)))[1]]
        return speed_factor(*inside)


def spawn_and_answer(sock: str, state_dir: str, log_path: str) -> float:
    """Set-up step: spawn an untraced server, wait for its first answer,
    stop it.  Returns the spawn-to-answer time."""
    async def go() -> float:
        start = time.monotonic()
        server = Server(sock, state_dir, False, str(Path(log_path).parent
                                                    / "setup-server"),
                        "setup", log_path)
        try:
            done = await wait_answer(sock)
        finally:
            server.stop()
        return done - start
    return asyncio.run(go())


def stream_count(seconds: float) -> int:
    return max(4, round(seconds * STREAMS_PER_S))


def read_records(prefix: str, result: Scenario, trace: bool) -> None:
    with open(f"{prefix}.cal.json", encoding="utf-8") as handle:
        result.calibration += [tuple(s) for s in
                               json.load(handle)["calibration"]]
    if trace:
        result.span_files.append(f"{prefix}.spans.jsonl")


async def run_scenario(inputs: list[LogInput], n_streams: int,
                       trace: bool, tag: str, run_id: str) -> Scenario:
    from repro.errors import ServeError
    from repro.serve.client import stream_raw

    work = WORK / "tmp" / f"{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    # A relative socket path keeps clear of the 108-byte sun_path limit
    # however deep the checkout sits; everything runs from ROOT.
    sock = os.path.relpath(work / "s", ROOT)
    state_dir = str(work / "state")
    log_path = str(work / "server.log")
    result = Scenario()
    generation = [0]

    def start_server() -> Server:
        generation[0] += 1
        name = f"{run_id}-{tag}-server{generation[0]}"
        return Server(sock, state_dir, trace, str(records / name), name,
                      log_path)

    schedule = [inputs[i % len(inputs)] for i in range(n_streams - 1)]
    schedule.append(inputs[-1])
    kill_at = int(len(inputs[-1].raw) * KILL_FRACTION)

    if CLIENT_CPUS is not None:
        own_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, CLIENT_CPUS)
    server = start_server()

    loop = asyncio.get_running_loop()
    lane_lock = asyncio.Lock()
    outages: list[list[float]] = []
    state = {"node": None, "done": False}
    replies: list[tuple[LogInput, dict]] = []

    async def calibrations() -> None:
        while not state["done"]:
            server.calibrate()
            await asyncio.sleep(CAL_PERIOD_S)

    async def query_lane() -> None:
        mix = ("stats", "breakdown", "windows")
        start = loop.time()
        index = 0
        while True:
            due = start + index / QUERY_HZ
            kind = mix[index % len(mix)]
            index += 1
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if state["done"]:
                return
            async with lane_lock:
                # Due during (or held back by) a deliberate outage: not
                # sent; the outage is measured by recovery_s.
                if any(hi >= due for _lo, hi in outages):
                    result.skipped += 1
                    continue
                node = state["node"]
                if kind != "stats" and node is None:
                    kind = "stats"
                payload = {"cmd": kind}
                if kind != "stats":
                    payload["node_id"] = node
                if kind == "windows":
                    payload["last"] = 8
                sent = loop.time()
                try:
                    reply = await answer(sock, payload)
                except (OSError, ServeError) as exc:
                    result.query_failures.append(f"{kind}: {exc}")
                    continue
                finished = loop.time()
            expect = {"stats": "entries", "breakdown": "energy_j",
                      "windows": "windows"}[kind]
            if not reply.get("ok") or expect not in reply:
                result.query_failures.append(f"{kind}: {reply}")
                continue
            result.queries.append((due, (finished - due) * 1e3,
                                   max(0.0, sent - due) * 1e3))

    async def kill_and_restart(sessions: int) -> None:
        """SIGKILL the server, restart it on the same state dir, and time
        the restart until it answers with ``sessions`` nodes restored."""
        nonlocal server
        async with lane_lock:
            outage = [loop.time(), -1.0]
            outages.append(outage)
            read_records(server.flush(), result, trace)
            server.kill()
            restart = time.monotonic()
            server = start_server()
            answered = await wait_answer(sock, restored=sessions)
            server.ready = True
            result.recoveries.append((answered, answered - restart))
            outage[1] = loop.time()

    lane = pinger = None
    try:
        await wait_answer(sock)
        server.ready = True
        lane = asyncio.ensure_future(query_lane())
        pinger = asyncio.ensure_future(calibrations())
        for index, item in enumerate(schedule):
            node_id = NODE_BASE + index
            hello = dict(item.hello, node_id=node_id)
            last = index == len(schedule) - 1
            marks = {"prev": None, "killed": False}

            async def on_chunk(sent: int, total: int, node_id=node_id,
                               last=last, marks=marks, index=index) -> None:
                now = time.monotonic()
                if marks["prev"] is not None:
                    result.blocked_ms.append((now - marks["prev"]) * 1e3)
                state["node"] = node_id
                if last and not marks["killed"] and sent >= kill_at:
                    marks["killed"] = True
                    await kill_and_restart(index + 1)
                    now = time.monotonic()
                marks["prev"] = now

            began = time.monotonic()
            try:
                reply = await stream_raw(sock, hello, item.raw,
                                         on_chunk=on_chunk)
            except Exception as exc:  # noqa: BLE001 - counted, then fatal
                result.stream_failures.append(
                    f"node {node_id}: {type(exc).__name__}: {exc}")
                raise BenchFailure(
                    f"stream of node {node_id} failed: {exc}") from exc
            result.streams.append((began, time.monotonic(),
                                   int(reply["entries"])))
            replies.append((item, reply))
            result.reconnects += int(reply["client"]["reconnects"])
            if last:
                result.resumed_from = int(reply["client"]["resumed_from"])
                if not marks["killed"]:
                    raise BenchFailure("the deliberate kill never happened")
        state["done"] = True
        await lane
        # More restarts of the now idle server, so recovery_s is not one
        # sample; each restores the same journaled nodes.
        for _ in range(EXTRA_KILLS):
            await asyncio.sleep(KILL_GAP_S)
            await kill_and_restart(len(schedule))
    finally:
        state["done"] = True
        for task in (lane, pinger):
            if task is not None:
                await task
        rc = server.stop()
        if CLIENT_CPUS is not None:
            os.sched_setaffinity(0, own_cpus)
    if rc != 0:
        raise BenchFailure(f"server exited {rc} after a graceful stop")
    read_records(server.out, result, trace)
    result.calibration.sort()

    from repro.serve.client import final_map
    for item, reply in replies:
        problems = map_differences(final_map(reply), item.offline)
        if problems:
            result.map_failures.append(
                f"node {reply['node_id']} ({item.name}): "
                + ", ".join(problems))
    if not 0 < result.resumed_from < len(inputs[-1].raw):
        result.map_failures.append(
            f"resume offset {result.resumed_from} is not mid-stream")
    shutil.rmtree(work / "state", ignore_errors=True)
    return result


def setup(seed: int, repeats: int) -> tuple[list[LogInput], list[float]]:
    """Input generation + server spawn-to-first-answer, ``repeats``
    times from cold world caches; returns the inputs and each repeat's
    time in reference-host seconds."""
    from repro.experiments.common import clear_batch_worlds, clear_warm_worlds

    work = WORK / "tmp" / f"{os.getpid()}-setup"
    work.mkdir(parents=True, exist_ok=True)
    sock = os.path.relpath(work / "s", ROOT)
    times = []
    inputs = None
    for _ in range(repeats):
        clear_warm_worlds()
        clear_batch_worlds()
        before = calibrate()
        start = time.monotonic()
        inputs = generate_inputs(seed)
        spawn_and_answer(sock, str(work / "state"), str(work / "server.log"))
        wall = time.monotonic() - start
        times.append(wall * speed_factor(before, calibrate()))
        shutil.rmtree(work / "state", ignore_errors=True)
    shutil.rmtree(work, ignore_errors=True)
    return inputs, times


def end_to_end(s: Scenario) -> dict[str, float]:
    """End-to-end metrics in reference-host time: each stream's wall is
    scaled by the server's calibration samples taken during it, each
    query's latency by the samples around it (``benchutil.calibrate``).
    Entries/s from the first hello to the last final reply; query
    latency over every timed query.  recovery_s is the median restart,
    scaled by the mean of all the scenario's samples: a restart is
    mostly interpreter start and file reads, which track the host's
    speed less closely than the samples around them do."""
    norm_s = sum((end - start) * s.factor(start, end)
                 for start, end, _ in s.streams)
    latencies = [ms * s.factor(due - CAL_PERIOD_S, due + CAL_PERIOD_S)
                 for due, ms, _ in s.queries]
    recovery = percentile([secs for _, secs in s.recoveries], 50)
    return {
        "rate_per_s": s.entries / norm_s,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "resume_s": recovery * s.factor(-math.inf, math.inf),
    }


def run(seed: int, seconds: int, trace: bool, run_id: str) -> dict:
    """One run; returns metrics, counts, checks and (traced) spans."""
    inputs, setup_times = setup(seed, repeats=3)
    log("inputs: " + ", ".join(
        f"{i.name}={i.entries} entries/{len(i.raw)} B" for i in inputs))
    tracer = None
    if trace:
        import repro.serve.client as client
        from tracing import Tracer, install_protocol

        # Untraced reference then traced scenario, each half the work,
        # so the traced one's cost can be read against the untraced one.
        n = stream_count(seconds / 2)
        ref = asyncio.run(run_scenario(inputs, n, False, "ref", run_id))
        tracer = Tracer(f"{run_id}-client")
        install_protocol(tracer, client)
        try:
            main = asyncio.run(run_scenario(inputs, n, True, "traced",
                                            run_id))
        finally:
            tracer.unpatch()
    else:
        ref = None
        main = asyncio.run(run_scenario(
            inputs, stream_count(seconds), False, "main", run_id))
    scenarios = [s for s in (ref, main) if s is not None]
    failures = []
    for s in scenarios:
        failures += s.map_failures + s.query_failures + s.stream_failures
    extra_reconnects = sum(max(0, s.reconnects - 1) for s in scenarios)
    attempted = sum(len(s.streams) + len(s.queries) + len(s.query_failures)
                    + len(s.recoveries) + 1 for s in scenarios)
    failed = (sum(len(s.query_failures) + len(s.stream_failures)
                  + len(s.map_failures) for s in scenarios)
              + extra_reconnects)
    e2e = end_to_end(main)
    lateness = [q[2] for q in main.queries]
    return {
        "setup_times": setup_times,
        "e2e": e2e,
        "ref_e2e": end_to_end(ref) if ref is not None else None,
        "peak_rss_mb": children_peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "main": main,
        "tracer": tracer,
        "server_spans": main.span_files,
        "own_metrics": {
            "ingest_entries_per_s": (e2e["rate_per_s"], "entries/s"),
            "query_p50_ms": (e2e["p50_ms"], "ms"),
            "query_p90_ms": (e2e["p90_ms"], "ms"),
            "recovery_s": (e2e["resume_s"], "s"),
        },
        "notes": [
            f"{len(main.streams)} streams, {main.entries} entries in "
            f"{main.ingest_s:.3f} s",
            f"{len(main.queries)} queries timed; {main.skipped} not sent "
            f"during the deliberate outages; generator lateness p50 "
            f"{percentile(lateness, 50):.1f} ms, p90 "
            f"{percentile(lateness, 90):.1f} ms, max {max(lateness):.1f} ms",
            "restart-to-restored, wall s: " + ", ".join(
                f"{r:.3f}" for _, r in main.recoveries),
            f"{len(main.calibration)} server calibration samples; mean "
            f"speed factor {main.factor(-math.inf, math.inf):.3f} "
            f"(raw {main.entries / main.ingest_s:.0f} entries/s)",
            f"client reconnects {main.reconnects} (1 expected), "
            f"resumed at byte {main.resumed_from}",
        ],
        "series": {"queries": main.queries, "streams": main.streams,
                   "recoveries": main.recoveries,
                   "calibration": main.calibration},
    }
