"""Served inference: micro-batched throughput vs a serial baseline.

Starts a real ``ServeServer`` (loopback TCP, ephemeral port) over a
programmed lenet deployment and drives it twice through the stdlib
client:

* **serial** — one connection issuing single-sample requests
  back-to-back: the one-request-at-a-time floor every serving stack
  degrades to without batching;
* **batched** — a fleet of concurrent client threads, each its own
  connection, so the micro-batcher actually coalesces traffic into
  fixed-shape ``max_batch`` dispatches.

It writes two reports: ``serve_throughput`` (serial and batched req/s)
and ``serve_p99`` (request latency percentiles of the batched pass).

The reproducible claim (acceptance floor): micro-batched throughput is
at least 2x the serial baseline on the same machine — the batcher must
actually amortize the crossbar forward across coalesced requests.
"""

import asyncio
import tempfile
import threading
import time

from _common import preset, report

from repro.cache import CacheStore
from repro.serve import (InferenceService, ModelRegistry, ServeClient,
                         ServeConfig, ServeServer)

CONCURRENCY = 16
BATCHED_REQUESTS = 512
SERIAL_REQUESTS = 128


def _start_server(service):
    """Run the server on a background thread; return (server, endpoint,
    thread)."""
    ready = threading.Event()
    endpoint = {}

    def on_ready(host, port):
        endpoint["host"], endpoint["port"] = host, port
        ready.set()

    server = ServeServer(service, port=0, on_ready=on_ready)
    thread = threading.Thread(target=lambda: asyncio.run(server.run()),
                              daemon=True)
    thread.start()
    if not ready.wait(timeout=600):
        raise TimeoutError("serve server did not come up")
    return server, endpoint, thread


def _serial_pass(endpoint, n_test):
    """n single-sample requests back-to-back on one connection."""
    with ServeClient(endpoint["host"], endpoint["port"]) as client:
        start = time.perf_counter()
        for i in range(SERIAL_REQUESTS):
            client.infer(indices=[i % n_test])
        return time.perf_counter() - start


def _batched_pass(endpoint, n_test):
    """The concurrent fleet: per-thread connections, shared wall clock.

    Returns (wall_s, sorted per-request latencies).
    """
    per_thread = BATCHED_REQUESTS // CONCURRENCY
    latencies = [[] for _ in range(CONCURRENCY)]
    barrier = threading.Barrier(CONCURRENCY + 1)

    def worker(tid):
        with ServeClient(endpoint["host"], endpoint["port"]) as client:
            barrier.wait()
            for i in range(per_thread):
                t0 = time.perf_counter()
                client.infer(indices=[(tid * per_thread + i) % n_test])
                latencies[tid].append(time.perf_counter() - t0)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(CONCURRENCY)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    flat = sorted(lat for per in latencies for lat in per)
    return wall, flat


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    pos = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(pos)]


def run():
    from repro.eval.experiments import build_workload

    wl = build_workload("lenet", preset=preset(), seed=0)
    config = ServeConfig(workload="lenet", preset=preset(),
                         max_batch=8, max_wait_ms=2.0, queue_limit=256)
    with tempfile.TemporaryDirectory() as tmp:
        service = InferenceService(config,
                                   registry=ModelRegistry(CacheStore(tmp)),
                                   workload=wl)
        service.prepare()
        n_test = wl.test.images.shape[0]
        server, endpoint, thread = _start_server(service)
        try:
            serial_s = _serial_pass(endpoint, n_test)
            batched_s, latencies = _batched_pass(endpoint, n_test)
        finally:
            with ServeClient(endpoint["host"], endpoint["port"]) as client:
                client.shutdown()
            thread.join(timeout=60)

    serial_rps = SERIAL_REQUESTS / serial_s
    batched_rps = BATCHED_REQUESTS / batched_s
    speedup = batched_rps / serial_rps
    stats = server.stats()
    mean_batch = (stats["requests"] - SERIAL_REQUESTS) / max(
        1, stats["batches"] - SERIAL_REQUESTS)
    p50 = _quantile(latencies, 0.50)
    p95 = _quantile(latencies, 0.95)
    p99 = _quantile(latencies, 0.99)

    throughput_lines = [
        f"Served throughput — lenet ({preset()})",
        f"serial:   {serial_rps:8.1f} req/s "
        f"({SERIAL_REQUESTS} requests, {serial_s:.3f} s)",
        f"batched:  {batched_rps:8.1f} req/s "
        f"({BATCHED_REQUESTS} requests x {CONCURRENCY} clients, "
        f"{batched_s:.3f} s)",
        f"speedup:  {speedup:8.1f}x over serial (acceptance floor: 2x)",
        f"batches:  {stats['batches']} dispatches, "
        f"~{mean_batch:.1f} live samples each (max_batch 8)",
    ]
    data = {"serial_rps": serial_rps, "batched_rps": batched_rps,
            "speedup": speedup, "concurrency": CONCURRENCY,
            "requests": BATCHED_REQUESTS, "serial_requests": SERIAL_REQUESTS,
            "batches": stats["batches"], "shed": stats["shed"],
            "latency_p50_s": p50, "latency_p95_s": p95, "latency_p99_s": p99}
    report("serve_throughput", throughput_lines, data=data)
    report("serve_p99",
           [f"Served tail latency — batched pass, {CONCURRENCY} clients",
            f"p50: {p50 * 1e3:8.2f} ms   p95: {p95 * 1e3:8.2f} ms   "
            f"p99: {p99 * 1e3:8.2f} ms"],
           data=data)
    return serial_rps, batched_rps


def test_serve_throughput(benchmark):
    serial_rps, batched_rps = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance claim: micro-batching >= 2x serial throughput.
    assert batched_rps >= 2 * serial_rps
