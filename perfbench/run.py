"""The flow-shop B&B platform's benchmark: one workload per run.

    python3 perfbench/run.py --workload proof-serial --seed 1 --seconds 15 --trace 0

Workloads (see README.md): ``proof-serial`` (time to proven optimality,
single-step serial engine), ``deep-gpu-m20`` (budgeted m=20 search, batch
engine with the simulated GPU executor), ``service-wire`` (``repro serve``
driven over TCP by a closed-loop client).  Every run repeats whole rounds
of its workload's operations until ``--seconds`` have passed, checks every
answer with :mod:`checks`, and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read their thread counts once, when the library loads:
# pin them before anything imports numpy, here and, through the
# environment, in every process this benchmark starts.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OPTIMA_PATH = HERE / "optima.json"

WORKLOADS = ("proof-serial", "deep-gpu-m20", "service-wire")
#: engine-set constructions timed before each round; setup_s is the median
#: of all of them, spread over the run so that it sees the same host as
#: the solves do
SETUP_REPEATS = 8
#: server launches per service run; setup_s is the median readiness + connect
SERVICE_SETUP_REPEATS = 5
#: closed-loop client: requests in flight on each connection
IN_FLIGHT = 2
#: one request must answer within this many seconds, or it counts as failed
REQUEST_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "bb.driver.busy_s": "s",
    "bb.driver.self_s": "s",
    "bb.driver.nodes_bounded": "count",
    "bb.driver.nodes_per_s": "1/s",
    "bb.driver.prune_share": "ratio",
    "flowshop.bounds.calls": "count",
    "flowshop.bounds.rows": "count",
    "flowshop.bounds.rows_per_call": "count",
    "flowshop.bounds.busy_s": "s",
    "flowshop.bounds.us_per_row": "us",
    "flowshop.bounds.pair_evals": "count",
    "bb.frontier.select_busy_s": "s",
    "bb.frontier.push_busy_s": "s",
    "bb.frontier.prune_busy_s": "s",
    "bb.frontier.branch_busy_s": "s",
    "bb.frontier.peak_pending": "count",
    "flowshop.neh.busy_s": "s",
    "gpu.launches": "count",
    "gpu.rows_per_launch": "count",
    "gpu.sim_device_s": "s",
    "service.protocol.msgs": "count",
    "service.protocol.bytes": "bytes",
    "service.protocol.busy_s": "s",
    "service.dispatch.requests": "count",
    "service.dispatch.launches": "count",
    "service.dispatch.requests_per_launch": "count",
    "service.dispatch.timeout_flushes": "count",
    "service.dispatch.park_wait_s": "s",
    "service.dispatch.launch_busy_s": "s",
    "service.session.solve_s": "s",
    "service.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


# --------------------------------------------------------------------- #
#  small helpers
# --------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a failed operation enters as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_fingerprint() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_env": PINNED_ENV,
    }


def timed_rounds(seconds: float, one_round) -> list:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round())
    return rounds


def layer_metrics(totals: dict, n_rounds: int, solves: list[dict]) -> dict:
    """Per-layer metrics per round, from span totals and solve counters."""
    spans = totals["spans"]

    def span(name: str, field: str = "busy_s") -> float:
        return spans.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    bound_spans = ("flowshop.bounds", "gpu.evaluate_block", "service.dispatch.launch")
    calls = sum(span(s, "calls") for s in bound_spans)
    rows = sum(span(s, "work") for s in bound_spans)
    bound_busy = sum(span(s) for s in bound_spans)
    bounded = sum(s["bounded"] for s in solves)
    pruned = sum(s["pruned"] for s in solves)
    driver_busy = span("bb.driver.run")
    r = float(n_rounds)
    return {
        "bb.driver.busy_s": driver_busy / r,
        "bb.driver.self_s": span("bb.driver.run", "self_s") / r,
        "bb.driver.nodes_bounded": bounded / r,
        "bb.driver.nodes_per_s": ratio(bounded, driver_busy),
        "bb.driver.prune_share": ratio(pruned, bounded),
        "flowshop.bounds.calls": calls / r,
        "flowshop.bounds.rows": rows / r,
        "flowshop.bounds.rows_per_call": ratio(rows, calls),
        "flowshop.bounds.busy_s": bound_busy / r,
        "flowshop.bounds.us_per_row": 1e6 * ratio(bound_busy, rows),
        "flowshop.bounds.pair_evals": totals["pair_evals"] / r,
        "bb.frontier.select_busy_s": span("bb.frontier.select") / r,
        "bb.frontier.push_busy_s": span("bb.frontier.push") / r,
        "bb.frontier.prune_busy_s": span("bb.frontier.prune") / r,
        "bb.frontier.branch_busy_s": span("bb.frontier.branch") / r,
        "bb.frontier.peak_pending": totals["peak_pending"],
        "flowshop.neh.busy_s": span("flowshop.neh") / r,
        "gpu.launches": span("gpu.evaluate_block", "calls") / r,
        "gpu.rows_per_launch": ratio(
            span("gpu.evaluate_block", "work"), span("gpu.evaluate_block", "calls")
        ),
        "gpu.sim_device_s": totals["sim_device_s"] / r,
        "service.protocol.msgs": span("service.protocol", "calls") / r,
        "service.protocol.bytes": span("service.protocol", "work") / r,
        "service.protocol.busy_s": span("service.protocol") / r,
        "service.dispatch.requests": span("service.dispatch.flush", "work") / r,
        "service.dispatch.launches": span("service.dispatch.launch", "calls") / r,
        "service.dispatch.requests_per_launch": ratio(
            span("service.dispatch.flush", "work"), span("service.dispatch.launch", "calls")
        ),
        "service.dispatch.timeout_flushes": totals["timeout_flushes"] / r,
        "service.dispatch.park_wait_s": span("service.dispatch.park") / r,
        "service.dispatch.launch_busy_s": span("service.dispatch.launch") / r,
        "service.session.solve_s": span("service.session.run") / r,
    }


# --------------------------------------------------------------------- #
#  proof-serial and deep-gpu-m20: engines solved in this process
# --------------------------------------------------------------------- #
def run_solver(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.bb.sequential import SequentialBranchAndBound
    from repro.core import GpuBBConfig, GpuBranchAndBound
    from repro.flowshop.instance import FlowShopInstance

    import tracing

    proof = workload == "proof-serial"
    if proof:
        items = [(name, pt, None) for name, pt in inputs.proof_order(seed)]
        optima = json.loads(OPTIMA_PATH.read_text())["optima"]

        def engine(name, pt, budget):
            return SequentialBranchAndBound(FlowShopInstance(pt, name=name))
    else:
        items = inputs.deep_order(seed)

        def engine(name, pt, budget):
            return GpuBranchAndBound(
                FlowShopInstance(pt, name=name), GpuBBConfig(max_nodes=budget)
            )

    frontiers, undo_capture = tracing.capture_frontiers()
    setup_samples: list[float] = []

    def build() -> list:
        t0 = time.perf_counter()
        engines = [engine(*item) for item in items]
        setup_samples.append(time.perf_counter() - t0)
        return engines

    def one_round() -> dict:
        for _ in range(SETUP_REPEATS):
            engines = build()
        solves = []
        start = time.perf_counter()
        for (name, pt, budget), eng in zip(items, engines):
            t0 = time.perf_counter()
            result = eng.solve()
            elapsed = time.perf_counter() - t0
            pending = len(frontiers[-1])
            frontiers.clear()  # keep no finished frontier alive (peak RSS)
            st = result.stats
            solves.append({
                "name": name, "seconds": elapsed, "makespan": result.best_makespan,
                "order": list(result.best_order), "proved": result.proved_optimal,
                "bounded": st.nodes_bounded, "branched": st.nodes_branched,
                "pruned": st.nodes_pruned, "leaves": st.leaves_evaluated,
                "explored": st.nodes_explored, "pending": pending, "budget": budget,
            })
        return {"wall": time.perf_counter() - start, "solves": solves}

    engine("warmup", inputs.warmup_matrix(), 2_000).solve()
    frontiers.clear()

    if trace:
        plain = timed_rounds(seconds / 2, one_round)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        traced = timed_rounds(seconds / 2, one_round)
        uninstall()
        rounds = plain + traced
    else:
        rounds = timed_rounds(seconds, one_round)
    rss = peak_rss_mb()
    undo_capture()

    # ---- checks, all after the timed phase ---------------------------- #
    matrices = {name: pt for name, pt, _ in items}
    failures, problems_run = [], []
    solves = [s for rnd in rounds for s in rnd["solves"]]
    for s in solves:
        pt = matrices[s["name"]]
        problems = checks.check_answer(pt, s["makespan"], s["order"])
        problems += checks.check_conservation(
            s["bounded"], s["branched"], s["pruned"], s["leaves"], s["pending"]
        )
        if proof:
            if not s["proved"]:
                problems.append("not proved optimal")
            if s["makespan"] != optima[s["name"]]:
                problems.append(f"optimum {optima[s['name']]} expected")
            if s["makespan"] > checks.makespan(pt, list(range(len(pt)))):
                problems.append("worse than the identity order")
        elif not s["proved"] and s["explored"] < s["budget"]:
            problems.append(f"stopped at {s['explored']} nodes, before its budget")
        if problems:
            failures.append({"op": s["name"], "problems": problems})
    signatures = {}
    for s in solves:
        key = (s["makespan"], tuple(s["order"]), s["bounded"], s["pruned"])
        if signatures.setdefault(s["name"], key) != key:
            problems_run.append(f"{s['name']}: rounds explored different trees")

    detail = {
        "rounds": len(rounds),
        "solves": len(solves),
        "round_walls_s": [rnd["wall"] for rnd in rounds],
        "setup_samples": len(setup_samples),
        "nodes_bounded_per_round": sum(s["bounded"] for s in rounds[0]["solves"]),
        "per_instance": {
            s["name"]: {
                "nodes_bounded": s["bounded"],
                "median_s": statistics.median(
                    o["seconds"] for o in solves if o["name"] == s["name"]
                ),
            }
            for s in rounds[0]["solves"]
        },
        "failures": failures,
        "run_problems": problems_run,
    }
    out = {
        "attempted": len(solves),
        "failed": len(failures),
        "correct": not failures and not problems_run,
        "detail": detail,
    }
    if trace:
        traced_solves = [s for rnd in traced for s in rnd["solves"]]
        layers = layer_metrics(tracer.totals(), len(traced), traced_solves)
        layers["service.overhead_s"] = 0.0
        layers["trace.overhead_ratio"] = statistics.median(
            r["wall"] for r in traced
        ) / statistics.median(r["wall"] for r in plain)
        detail["untraced_rounds"] = len(plain)
        out["metrics"] = layers
    else:
        # one latency per instance: its median over the rounds
        per_instance = [entry["median_s"] for entry in detail["per_instance"].values()]
        out["metrics"] = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(r["wall"] for r in rounds),
            "latency_p50_s": percentile(per_instance, 0.5),
            "latency_p90_s": percentile(per_instance, 0.9),
            "peak_rss_mb": rss,
        }
    return out


# --------------------------------------------------------------------- #
#  service-wire: `repro serve` in its own process, one client process
# --------------------------------------------------------------------- #
def _cpu_split() -> tuple[set[int], set[int]]:
    """(client CPUs, server CPUs): one CPU each when there are two or more.

    The server's session, dispatcher and event-loop threads share one
    interpreter lock; spread over two CPUs they hand it across cores, which
    on a 2-CPU host made the stream 1.5x slower and its run-to-run spread
    twice as wide as with the server held on one CPU (README).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[-1]}


class Server:
    """A ``repro serve --port 0`` child started through ``serve.py``."""

    def __init__(self, traced: bool, cpus: set[int]):
        command = [sys.executable, "-u", str(HERE / "serve.py"), "--port", "0"]
        if traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        # set while the child is still importing, before it starts a thread
        os.sched_setaffinity(self.proc.pid, cpus)
        imported_at = None
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError("the server exited before it was ready")
            if line.startswith("perfbench-imported "):
                imported_at = float(line.split()[1])
            elif line.startswith("serving on ") and imported_at is not None:
                self.ready_s = time.monotonic() - imported_at
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                return

    def command(self, word: str, answer: str) -> str:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"the server exited during {word!r}")
            if line.startswith(answer):
                return line[len(answer):]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


class Connection:
    """One JSON-lines connection; replies are matched by ``request_id``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, name: str):
        self.reader, self.writer, self.name = reader, writer, name
        self.waiting: dict[str, asyncio.Future] = {}
        self.task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int, name: str) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, name)

    async def _read(self) -> None:
        while line := await self.reader.readline():
            reply = json.loads(line)
            if reply.get("type") in ("result", "error", "overloaded"):
                future = self.waiting.pop(reply.get("request_id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        for future in self.waiting.values():
            if not future.done():
                future.set_exception(ConnectionError("the server closed the connection"))

    async def request(self, request_id: str, instance: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.waiting[request_id] = future
        message = {"type": "solve", "request_id": request_id, "instance": instance,
                   "params": {}, "client_id": self.name}
        self.writer.write(json.dumps(message).encode() + b"\n")
        await self.writer.drain()
        return await asyncio.wait_for(future, REQUEST_TIMEOUT_S)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


async def _connect(port: int, n: int) -> tuple[list[Connection], float]:
    t0 = time.perf_counter()
    conns = [await Connection.open(port, f"client-{i}") for i in range(n)]
    return conns, time.perf_counter() - t0


async def _connect_and_close(port: int, n: int) -> float:
    conns, connect_s = await _connect(port, n)
    for conn in conns:
        await conn.close()
    return connect_s


async def _stream_round(conns: list[Connection], stream: list[dict], tag: str) -> dict:
    """Closed loop: IN_FLIGHT workers per connection share one request queue."""
    records: list = [None] * len(stream)
    queue = iter(enumerate(stream))

    async def worker(conn: Connection) -> None:
        for i, item in queue:
            t0 = time.perf_counter()
            try:
                reply = await conn.request(f"{tag}-{i}", item["instance"])
            except (asyncio.TimeoutError, ConnectionError) as exc:
                reply = {"type": "error", "message": repr(exc)}
            records[i] = (time.perf_counter() - t0, reply)

    start = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in conns for _ in range(IN_FLIGHT)))
    return {"wall": time.perf_counter() - start, "records": records}


def _serve_rounds(server: Server, stream: list[dict], seconds: float, n_conn: int,
                  traced: bool) -> tuple[list[dict], float]:
    """Warm up, then whole rounds of the stream; returns (rounds, connect_s)."""

    async def drive() -> tuple[list[dict], float]:
        conns, connect_s = await _connect(server.port, n_conn)
        try:
            # warm-up: every distinct instance once, one at a time, so the
            # server's per-instance bound tables exist before the timing
            seen = {}
            for item in stream:
                seen.setdefault(item["name"], item["instance"])
            for i, instance in enumerate(seen.values()):
                await conns[0].request(f"warmup-{i}", instance)
            if traced:
                await asyncio.to_thread(server.command, "reset", "perfbench-reset")
            rounds = []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                rounds.append(await _stream_round(conns, stream, f"r{len(rounds)}"))
            return rounds, connect_s
        finally:
            for conn in conns:
                await conn.close()

    return asyncio.run(drive())


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    stream = inputs.service_stream(seed)
    n_conn = min(2, os.cpu_count() or 1)
    setup_samples: list[float] = []
    servers: list[Server] = []
    client_cpus, server_cpus = _cpu_split()
    os.sched_setaffinity(0, client_cpus)

    def launch(traced: bool) -> Server:
        servers.append(Server(traced, server_cpus))
        return servers[-1]

    try:
        if trace:
            plain_server = launch(False)
            plain, _ = _serve_rounds(plain_server, stream, seconds / 2, n_conn, False)
            plain_server.stop()
            server = launch(True)
            rounds, _ = _serve_rounds(server, stream, seconds / 2, n_conn, True)
            totals = json.loads(server.command("dump", "perfbench-trace "))
        else:
            for _ in range(SERVICE_SETUP_REPEATS - 1):
                server = launch(False)
                connect_s = asyncio.run(_connect_and_close(server.port, n_conn))
                setup_samples.append(server.ready_s + connect_s)
                server.stop()
            server = launch(False)
            rounds, connect_s = _serve_rounds(server, stream, seconds, n_conn, False)
            setup_samples.append(server.ready_s + connect_s)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        for s in servers:
            s.stop()

    checked = check_service(stream, rounds + (plain if trace else []))
    out = {
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "correct": checked["correct"],
        "detail": {
            "rounds": len(rounds),
            "requests_per_round": len(stream),
            "connections": n_conn,
            "client_cpus": sorted(client_cpus),
            "server_cpus": sorted(server_cpus),
            "in_flight_per_connection": IN_FLIGHT,
            "round_walls_s": [rnd["wall"] for rnd in rounds],
            "setup_samples_s": setup_samples,
            "serial_reference_s": checked["serial_reference_s"],
            "failures": checked["failures"],
        },
    }
    if trace:
        solves = [
            {"bounded": reply["stats"]["nodes_bounded"], "pruned": reply["stats"]["nodes_pruned"]}
            for rnd in rounds for _, reply in rnd["records"] if reply.get("type") == "result"
        ]
        layers = layer_metrics(totals, len(rounds), solves)
        session_s = totals["spans"].get("service.session.run", {}).get("busy_s", 0.0)
        n_requests = len(rounds) * len(stream)
        layers["service.overhead_s"] = (
            sum(latency for rnd in rounds for latency, _ in rnd["records"]) - session_s
        ) / n_requests
        layers["trace.overhead_ratio"] = statistics.median(
            r["wall"] for r in rounds
        ) / statistics.median(r["wall"] for r in plain)
        out["detail"]["untraced_rounds"] = len(plain)
        out["metrics"] = layers
    else:
        latencies = [
            math.inf if i in checked["failed_ops"][r] else latency
            for r, rnd in enumerate(rounds) for i, (latency, _) in enumerate(rnd["records"])
        ]
        out["metrics"] = {
            "setup_s": statistics.median(setup_samples),
            "solve_s": statistics.median(r["wall"] for r in rounds),
            "latency_p50_s": percentile(latencies, 0.5),
            "latency_p90_s": percentile(latencies, 0.9),
            "peak_rss_mb": rss,
        }
    return out


def check_service(stream: list[dict], rounds: list[dict]) -> dict:
    """Check every reply; references are computed once per distinct instance."""
    from repro.bb.sequential import SequentialBranchAndBound
    from repro.flowshop.instance import FlowShopInstance
    from repro.flowshop.taillard import taillard_instance

    references: dict[str, dict] = {}
    t0 = time.perf_counter()
    for item in stream:
        name = item["name"]
        if name in references:
            continue
        spec = item["instance"]
        if spec["kind"] == "taillard":
            pt = taillard_instance(spec["jobs"], spec["machines"], spec["index"])
            pt = pt.processing_times.tolist()
        else:
            pt = item["matrix"]
        result = SequentialBranchAndBound(FlowShopInstance(pt)).solve()
        references[name] = {"pt": pt, "makespan": result.best_makespan,
                            "order": list(result.best_order)}
    serial_reference_s = time.perf_counter() - t0
    for ref in references.values():
        if len(ref["pt"]) <= 8:
            ref["optimum"] = checks.brute_force_optimum(ref["pt"])

    failures, failed_ops, correct = [], [], True
    for r, rnd in enumerate(rounds):
        failed_here = set()
        for i, (_, reply) in enumerate(rnd["records"]):
            item = stream[i]
            ref = references[item["name"]]
            problems = _reply_problems(reply, ref)
            if not problems:
                continue
            failed_here.add(i)
            fault = item.get("fault")
            correct = correct and fault is not None
            failures.append({"op": item["name"], "round": r, "fault": fault or "unexpected",
                             "problems": problems})
        failed_ops.append(failed_here)
    return {
        "attempted": sum(len(rnd["records"]) for rnd in rounds),
        "failed": len(failures),
        "failed_ops": failed_ops,
        "correct": correct,
        "failures": failures,
        "serial_reference_s": serial_reference_s,
    }


def _reply_problems(reply: dict, ref: dict) -> list[str]:
    if reply.get("type") != "result":
        return [f"{reply.get('type')} reply: {reply.get('message', '')}"]
    pt = ref["pt"]
    problems = checks.check_answer(pt, reply["makespan"], reply["order"])
    if "optimum" in ref and reply["makespan"] != ref["optimum"]:
        problems.append(f"brute force gives {ref['optimum']}, service {reply['makespan']}")
    if (reply["makespan"], reply["order"]) != (ref["makespan"], ref["order"]):
        problems.append("differs from the in-process SequentialBranchAndBound solve")
    if not reply["proved_optimal"] or reply.get("cancelled"):
        problems.append("not proved optimal")
    st = reply["stats"]
    problems += checks.check_conservation(
        st["nodes_bounded"], st["nodes_branched"], st["nodes_pruned"], st["leaves_evaluated"], 0
    )
    return problems


# --------------------------------------------------------------------- #
def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "service-wire":
        out = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_solver(args.workload, args.seed, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else END_TO_END
    detail = dict(out["detail"], workload=args.workload, seed=args.seed,
                  trace=args.trace, host=host_fingerprint())
    print(json.dumps(detail))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
