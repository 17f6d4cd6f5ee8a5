"""The ``serve`` workload: open-loop Poisson traffic against a server process.

The server is ``python -m repro serve --port 0`` on its default
configuration, started as its own process.  One generator (this process)
sends pre-encoded frames over at most two connections at their seeded
due times, whatever the server's state, and times each request from its
due time to its response.  Responses are matched by id; the raw lines are
kept and checked against NumPy references only after each phase, so
neither encoding nor checking sits on the measured path.
"""
from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time

import numpy as np

import common

OPS = ("plus_scan", "max_scan", "seg_plus_scan", "seg_max_scan")
MIN_SIZE, MAX_SIZE = 16, 1024
REPEAT_SHARE = 0.2
#: a repeat copies one of this many most recent distinct payloads, so it
#: stays inside the server's default 1024-entry result cache
REPEAT_WINDOW = 256
MEAN_SEGMENT = 8
CONNECTIONS = 2
#: a request unanswered this long after its due time counts as late
LATE_S = 10.0
#: calibration runs per probe between serve phases (the fastest counts)
PROBE_REPEAT = 3


# --------------------------------------------------------------------- #
# Seeded traffic
# --------------------------------------------------------------------- #

def make_requests(rng: np.random.Generator, count: int) -> list:
    """``count`` requests ``(op, values, seg_lengths|None)``; about
    :data:`REPEAT_SHARE` of them repeat an earlier payload exactly."""
    out: list = []
    distinct: list = []
    for _ in range(count):
        if distinct and rng.random() < REPEAT_SHARE:
            window = distinct[-REPEAT_WINDOW:]
            out.append(window[int(rng.integers(len(window)))])
            continue
        op = OPS[int(rng.integers(len(OPS)))]
        n = int(np.exp(rng.uniform(np.log(MIN_SIZE), np.log(MAX_SIZE + 1))))
        n = min(max(n, MIN_SIZE), MAX_SIZE)
        values = rng.integers(0, 1000, n, dtype=np.int64)
        seg = None
        if op.startswith("seg_"):
            lengths = []
            left = n
            while left:
                k = min(left, int(rng.geometric(1.0 / MEAN_SEGMENT)))
                lengths.append(k)
                left -= k
            seg = tuple(lengths)
        req = (op, values, seg)
        distinct.append(req)
        out.append(req)
    return out


def schedule(seed: int, rate: float, count: int) -> np.ndarray:
    """Poisson due times (seconds from phase start) for ``count``
    requests at ``rate`` per second; the same seed gives the same times."""
    rng = np.random.default_rng([seed, int(rate * 1000)])
    return np.cumsum(rng.exponential(1.0 / rate, count))


def encode(req_id: int, req: tuple) -> bytes:
    op, values, seg = req
    obj = {"id": req_id, "op": op, "dtype": "int64",
           "values": values.tolist()}
    if seg is not None:
        obj["seg_lengths"] = list(seg)
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def reference(req: tuple) -> np.ndarray:
    op, values, seg = req
    if seg is not None:
        flags = np.zeros(len(values), dtype=bool)
        flags[np.cumsum((0,) + seg[:-1])] = True
    if op == "plus_scan":
        return common.ref_plus_scan(values)
    if op == "max_scan":
        return common.ref_max_scan(values, common.INT64_MIN)
    if op == "seg_plus_scan":
        return common.ref_seg_plus_scan(values, flags)
    return common.ref_seg_max_scan(values, flags)


def check_responses(requests: list, lines: list) -> tuple:
    """``(refused, wrong)`` request indices: error or missing replies, and
    ok replies whose values differ from the NumPy reference."""
    refused, wrong = [], []
    refs: dict = {}
    for i, (req, line) in enumerate(zip(requests, lines)):
        if line is None:
            refused.append(i)
            continue
        obj = json.loads(line)
        if not obj.get("ok"):
            refused.append(i)
            continue
        key = id(req)
        if key not in refs:
            refs[key] = reference(req)
        got = np.asarray(obj["values"], dtype=np.int64)
        if obj.get("id") != i or not common.bit_equal(got, refs[key]):
            wrong.append(i)
    return refused, wrong


# --------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------- #

class Server:
    """``python -m repro serve --port 0`` as a child process."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=common.ROOT, env=common.pinned_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            banner = self.proc.stdout.readline().decode()
            if not banner.startswith("serving on "):
                raise RuntimeError(f"server did not start: {banner!r}")
            self.port = int(banner.split()[2].rsplit(":", 1)[1])
            asyncio.run(self._ping())
        except BaseException:
            self.close()
            raise
        #: process start to the first answered ping
        self.setup_s = time.perf_counter() - t0

    async def _ping(self) -> None:
        reply = await admin(self.port, "ping")
        if not reply.get("pong"):
            raise RuntimeError(f"bad ping reply {reply!r}")

    def stats(self) -> dict:
        return asyncio.run(admin(self.port, "stats"))

    def peak_rss_mb(self) -> float:
        return common.process_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        """Interrupt, wait for the drain, kill if it hangs; never leaks."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


async def admin(port: int, op: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(json.dumps({"id": op, "op": op}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


# --------------------------------------------------------------------- #
# The generator
# --------------------------------------------------------------------- #

async def _drive(port: int, frames: list, due: np.ndarray) -> tuple:
    n = len(frames)
    sent = np.full(n, np.nan)
    recv = np.full(n, np.nan)
    lines: list = [None] * n
    conns = [await asyncio.open_connection("127.0.0.1", port,
                                           limit=32 << 20)
             for _ in range(CONNECTIONS)]
    done = asyncio.Event()
    remaining = [n]

    async def reader(stream: asyncio.StreamReader) -> None:
        while True:
            line = await stream.readline()
            if not line:
                return
            now = time.perf_counter()
            try:
                i = int(line[6:line.index(b",")])
            except ValueError:
                i = json.loads(line).get("id")
            if isinstance(i, int) and 0 <= i < n and lines[i] is None:
                recv[i] = now
                lines[i] = line
                remaining[0] -= 1
                if not remaining[0]:
                    done.set()

    readers = [asyncio.ensure_future(reader(r)) for r, _ in conns]
    start = time.perf_counter() + 0.02
    i = 0
    while i < n:
        now = time.perf_counter() - start
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        j = i
        while j < n and due[j] <= now:
            j += 1
        t = time.perf_counter()
        for k in range(CONNECTIONS):
            chunk = frames[i + k:j:CONNECTIONS]
            if chunk:
                conns[(i + k) % CONNECTIONS][1].write(b"".join(chunk))
        sent[i:j] = t - start
        i = j
        # hand the loop to the readers between sends
        await asyncio.sleep(0)
    try:
        await asyncio.wait_for(done.wait(),
                               timeout=float(due[-1]) + LATE_S
                               - (time.perf_counter() - start))
    except asyncio.TimeoutError:
        pass
    for _, writer in conns:
        writer.close()
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for _, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return sent, recv - start, lines


def run_phase(port: int, requests: list, due: np.ndarray) -> dict:
    """Send ``requests`` at ``due`` and check every reply afterwards."""
    frames = [encode(i, r) for i, r in enumerate(requests)]
    sent, recv, lines = asyncio.run(_drive(port, frames, due))
    refused, wrong = check_responses(requests, lines)
    bad = set(refused) | set(wrong)
    ok = np.array([i not in bad for i in range(len(requests))])
    latency_ms = (recv - due)[ok] * 1e3
    late_ms = (sent - due) * 1e3
    return {
        "n": len(requests),
        "latency_ms": latency_ms,
        "late_ms": late_ms[~np.isnan(late_ms)],
        "refused": len(refused),
        "wrong": len(wrong),
    }


def phase_summary(res: dict) -> dict:
    lat = res["latency_ms"]
    late_label, late = common.tail(res["late_ms"])
    tail_label, tail = common.tail(lat) if len(lat) else ("max", float("inf"))
    return {
        "p50_ms": common.percentile(lat, 50) if len(lat) else float("inf"),
        "tail_label": tail_label,
        "tail_ms": tail,
        "n": res["n"],
        "answered_ok": int(len(lat)),
        "refused": res["refused"],
        "wrong": res["wrong"],
        "gen_late_label": late_label,
        "gen_late_ms": late,
    }


def backlog_grew(res: dict, limit_ms: float) -> bool:
    """Whether the queue kept growing: the last quarter of the phase
    waited over the latency limit at the median."""
    lat = res["latency_ms"]
    if len(lat) < 8:
        return True
    return common.percentile(lat[-len(lat) // 4:], 50) > limit_ms


# --------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------- #

class Traffic:
    """Seeded requests and schedules, drawn phase by phase."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.phase = 0

    def draw(self, rate: float, count: int) -> tuple:
        self.phase += 1
        reqs = make_requests(self.rng, count)
        due = schedule(self.seed * 1000 + self.phase, rate, count)
        return reqs, due


def _count(rate: float, seconds: float) -> int:
    return max(int(rate * seconds), 1)


def _calibrated_phase(port: int, traffic: Traffic, rate: float,
                      seconds: float, chunk_s: float,
                      cal: common.Calibration) -> tuple:
    """Run ``seconds`` of traffic at ``rate`` as consecutive chunks of
    about ``chunk_s`` with a calibration probe in each gap: ``(merged
    result, per-chunk latencies, scale)``.  The generator shares the CPUs
    with the server, so one phase-wide scale (from the median probe, each
    the best of :data:`PROBE_REPEAT`) is used rather than a per-chunk one."""
    chunks = max(1, int(round(seconds / chunk_s)))
    merged = {"n": 0, "latency_ms": [], "late_ms": [], "refused": 0,
              "wrong": 0}
    probes = [cal.probe(PROBE_REPEAT)]
    for _ in range(chunks):
        res = run_phase(port, *traffic.draw(rate, _count(rate, seconds
                                                         / chunks)))
        probes.append(cal.probe(PROBE_REPEAT))
        for key in ("n", "refused", "wrong"):
            merged[key] += res[key]
        merged["latency_ms"].append(res["latency_ms"])
        merged["late_ms"].append(res["late_ms"])
    per_chunk = merged["latency_ms"]
    for key in ("latency_ms", "late_ms"):
        merged[key] = np.concatenate(merged[key])
    return merged, per_chunk, cal.scale(*probes)


def _ladder(port: int, traffic: Traffic, spec: dict, seconds: float,
            cal: common.Calibration) -> dict:
    """Highest probed rate meeting the limit with no refusals, no wrong
    answers and no growing backlog.  Climbs rungs ``ladder_ratio`` apart
    from the start rate until two in a row fail (descends instead if the
    start fails), then bisects ``ladder_refine`` times between the best
    passing rate and the next failing one.  The limit applies to measured
    latency; ``goodput_scaled`` is the passing rate at reference host
    speed, by the median of the probes taken between rungs."""
    limit = spec["p99_limit_ms"]
    ratio = spec["ladder_ratio"]
    step_s = spec["ladder_step_share"] * seconds
    steps, wrong, attempted = [], 0, 0

    probes = [cal.probe(PROBE_REPEAT)]

    def probe(rate: float) -> bool:
        nonlocal wrong, attempted
        res = run_phase(port, *traffic.draw(rate, _count(rate, step_s)))
        probes.append(cal.probe(PROBE_REPEAT))
        s = phase_summary(res)
        ok = (s["refused"] == 0 and s["wrong"] == 0
              and s["tail_ms"] <= limit and not backlog_grew(res, limit))
        steps.append({"rate": rate, "ok": ok, "tail_ms": s["tail_ms"],
                      "refused": s["refused"]})
        wrong += s["wrong"]
        attempted += res["n"]
        return ok

    rate = spec["ladder_start_rps"]
    if probe(rate):
        misses = 0
        for _ in range(spec["ladder_max_steps"]):
            rate *= ratio
            misses = 0 if probe(rate) else misses + 1
            if misses == 2:
                break
    else:
        for _ in range(spec["ladder_max_steps"]):
            rate /= ratio
            if probe(rate):
                break
    for _ in range(spec["ladder_refine"]):
        passed = [s["rate"] for s in steps if s["ok"]]
        if not passed:
            break
        best = max(passed)
        above = [s["rate"] for s in steps if not s["ok"] and s["rate"] > best]
        if not above:
            break
        probe((best * min(above)) ** 0.5)
    best = max([s["rate"] for s in steps if s["ok"]], default=0.0)
    return {"goodput_rps": best,
            "goodput_scaled": best / cal.scale(*probes),
            "steps": steps, "wrong": wrong, "attempted": attempted}


def _start(cal: common.Calibration, setups: list) -> Server:
    """Start a server between two calibration probes; appends its
    ``(measured, reference-speed)`` set-up seconds to ``setups``."""
    before = cal.probe(PROBE_REPEAT)
    srv = Server()
    setups.append((srv.setup_s, srv.setup_s
                   * cal.scale(before, cal.probe(PROBE_REPEAT))))
    return srv


def measure(seed: int, seconds: float, spec: dict, cal_ref_s: float) -> dict:
    traffic = Traffic(seed)
    cal = common.Calibration("interp", cal_ref_s)
    setups, phases = [], {}
    attempted, failed, failures = 0, 0, []
    with _start(cal, setups) as srv:
        run_phase(srv.port, *traffic.draw(spec["warmup_rps"],
                                          spec["warmup_requests"]))
        for name in ("light", "heavy"):
            res, per_chunk, scale = _calibrated_phase(
                srv.port, traffic, spec[f"{name}_rps"],
                spec[f"{name}_share"] * seconds,
                spec[f"{name}_chunk_s"], cal)
            phases[name] = (phase_summary(res), per_chunk, scale)
            attempted += res["n"]
            failed += res["refused"] + res["wrong"]
            if res["refused"] or res["wrong"]:
                failures.append(f"{name}: {res['refused']} refused or late, "
                                f"{res['wrong']} wrong")
        peak_mb = srv.peak_rss_mb()
    with _start(cal, setups) as srv:
        ladder = _ladder(srv.port, traffic, spec, seconds, cal)
    attempted += ladder["attempted"]
    failed += ladder["wrong"]
    if ladder["wrong"]:
        failures.append(f"ladder: {ladder['wrong']} wrong")
    while len(setups) < spec["setup_samples"]:
        with _start(cal, setups):
            pass
    heavy, per_chunk, scale = phases["heavy"]
    # the median over chunks of each chunk's tail: one stall of the
    # shared host moves one chunk, not the figure
    chunk_tail = float(np.median([common.tail(c)[1] for c in per_chunk]))
    return {
        "setups": setups,
        "light": phases["light"][0],
        "heavy": heavy,
        "heavy_chunk_tail": {
            "rule": common.tail(per_chunk[0])[0],
            "scaled": chunk_tail * scale,
            "measured": chunk_tail,
            "chunks": len(per_chunk)},
        "ladder": ladder,
        "peak_mb": peak_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def trace(seed: int, seconds: float, spec: dict) -> dict:
    """Server-side figures per rate, each rate on a fresh server, plus
    offline codec and execution timings over the heavy phase's frames."""
    traffic = Traffic(seed)
    figures, attempted, failed, failures = {}, 0, 0, []
    heavy_reqs = None
    for name in ("light", "heavy"):
        rate = spec[f"{name}_rps"]
        reqs, due = traffic.draw(rate, _count(rate, spec[f"{name}_share"]
                                              * seconds))
        with Server() as srv:
            res = run_phase(srv.port, reqs, due)
            stats = srv.stats()
        s = phase_summary(res)
        attempted += res["n"]
        failed += res["refused"] + res["wrong"]
        if res["refused"] or res["wrong"]:
            failures.append(f"{name}: {res['refused']} refused or late, "
                            f"{res['wrong']} wrong")
        st, cache = stats["stats"], stats["cache"]
        figures[name] = {
            "server_p50_ms": st["latency_p50_ms"],
            "server_p99_ms": st["latency_p99_ms"],
            "occupancy": st["mean_batch_occupancy"],
            "cache_hit_ratio": cache["hit_rate"],
            "steps_per_request": st["steps_per_request"],
            "errors": st["errors"],
            "gen_late_p99_ms": s["gen_late_ms"],
            "client_p50_ms": s["p50_ms"],
            "client_p99_ms": s["tail_ms"],
        }
        if name == "heavy":
            heavy_reqs = reqs
    figures["offline"] = offline(heavy_reqs,
                                 figures["heavy"]["occupancy"])
    return {"figures": figures, "attempted": attempted, "failed": failed,
            "failures": failures}


def offline(requests: list, occupancy: float) -> dict:
    """Direct timed calls into the protocol and the batch engine over the
    workload's own frames: the wire codec per request, and execution
    grouped at the observed occupancy."""
    from repro.serve.batching import SERVABLE_OPS, BatchEngine
    from repro.serve.protocol import decode_frame, ok_frame, parse_request
    from repro.serve.server import ServeConfig

    frames = [encode(i, r) for i, r in enumerate(requests)]
    results = [reference(r) for r in requests]
    max_elements = ServeConfig().max_elements
    t0 = time.perf_counter()
    parsed = []
    for frame, result in zip(frames, results):
        req = parse_request(decode_frame(frame), known_ops=SERVABLE_OPS,
                            max_elements=max_elements)
        ok_frame(req.id, result, steps=1, batched=1, cached=False)
        parsed.append(req)
    codec_us = (time.perf_counter() - t0) * 1e6 / len(frames)

    engine = BatchEngine()
    size = max(1, int(round(occupancy)))
    groups: dict = {}
    for req in parsed:
        groups.setdefault(req.op, []).append(req)
    t0 = time.perf_counter()
    for op, reqs in groups.items():
        for k in range(0, len(reqs), size):
            chunk = reqs[k:k + size]
            engine.run_group(SERVABLE_OPS[op],
                             [(r.values, r.seg_flags) for r in chunk])
    execute_us = (time.perf_counter() - t0) * 1e6 / len(parsed)
    return {"codec_us_per_req": codec_us, "execute_us_per_req": execute_us,
            "group_size": size}
