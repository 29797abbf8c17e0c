"""The benchmark's four workloads.

Each workload turns the benchmark seed into its inputs in ``setup``
(outside the timed region), then runs one timed *operation* per
``op(index)`` call through the program's public entry points, and
checks that operation's outputs in ``check`` (outside the timed region
again).  README.md in this directory records why each workload exists
and which layers it stresses or bypasses.

An operation returns a dict:

``points``        points in the finished output
``jobs``          top-level operations the user submitted (1 in-process)
``latencies_ms``  one latency per job, submit to result in hand
``failed``        jobs that did not complete
``layers``        per-layer numbers the session reports itself
``output``        what ``check`` inspects (dropped after the check)
"""

import hashlib
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time

PLACEMENTS = ("2D-In", "2D-Off", "3D-In", "3D-In-STT")
CIS_NODES = (130, 65)
OBJECTIVES = ("energy_per_frame", "power_density", "latency")
PASS_NAMES = ("resolve", "checks", "timeline", "cycle_sim", "analog_usage",
              "timing", "analog_energy", "digital_energy", "comm_energy")


def digest(value):
    """SHA-256 of a canonical JSON rendering (or of a str as is)."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stratified(rng, low, high, count):
    """``count`` seeded values in [low, high), one per equal-width bin.

    Every seed then covers the range the same way: the share of
    infeasible points and the Pareto structure barely move with the
    seed, so the work per operation does not either.
    """
    width = (high - low) / count
    return [low + (bin_index + rng.random()) * width
            for bin_index in range(count)]


def percentile(values, level):
    """Linear-interpolated percentile, ``level`` in [0, 1]."""
    ordered = sorted(values)
    position = level * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def session_layers(simulator):
    """Per-layer numbers a finished in-process session reports itself."""
    passes = simulator.pass_info()
    cache = simulator.cache_info()
    probes = cache.hits + cache.misses
    layers = {f"sim.pass_runs.{name}": passes.get(name, 0)
              for name in PASS_NAMES}
    layers["api.simulator.cache_hit_share"] = (
        cache.hits / probes if probes else 0.0)
    return layers


def _edgaze_product(rates):
    from repro.explore import choice, product
    return product(choice("placement", list(PLACEMENTS)),
                   choice("cis_node", list(CIS_NODES)),
                   choice("options.frame_rate", list(rates)))


class SweepGrid:
    """``explore()`` over a 40,000-point Ed-Gaze options-only grid."""

    name = "sweep-grid"
    RATES = 5000
    SUBSAMPLE = 32

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def setup(self):
        from repro.explore import explore
        rng = random.Random(self.seed)
        # Every Ed-Gaze design meets its frame budget below ~509 FPS, so
        # the whole grid is feasible and every group vectorizes.
        self.rates = stratified(rng, 15.0, 480.0, self.RATES)
        self.space = _edgaze_product(self.rates)
        self.size = len(self.space)
        self.subsample = sorted(rng.sample(range(self.size), self.SUBSAMPLE))
        # Warm-up: one small explore over the same eight designs fills the
        # process-wide design-lowering cache, as in a long-lived session.
        explore(_edgaze_product(self.rates[:4]), "edgaze",
                objectives=OBJECTIVES)
        self.reference = None
        self.digest = None

    def op(self, index):
        from repro.api import Simulator
        from repro.explore import explore
        with Simulator() as simulator:
            result = explore(self.space, "edgaze", objectives=OBJECTIVES,
                             simulator=simulator)
            layers = session_layers(simulator)
        return {"points": len(result.points), "jobs": 1, "failed": 0,
                "layers": layers, "output": result}

    def check(self, index, result):
        problems = []
        if result.engines != {"vectorized": self.size, "fallback": 0}:
            problems.append(f"not all points vectorized: {result.engines}")
        if len(result.feasible_points) != self.size:
            problems.append(f"{len(result.infeasible_points)} infeasible "
                            f"points on an all-feasible grid")
        metrics = [point.metrics for point in result.points]
        if self.reference is None:
            self.reference = metrics
            self.digest = digest([point.to_dict() for point in result.points])
            problems.extend(self._object_equivalence(result))
        elif metrics != self.reference:
            problems.append(f"operation {index} differs from operation 0")
        return problems

    def _object_equivalence(self, result):
        """The object engine must serialize the subsample identically."""
        from repro.api import Simulator
        from repro.explore import choice, explore, zipped
        params = [result.points[i].params for i in self.subsample]
        space = zipped(*(choice(name, [p[name] for p in params])
                         for name in params[0]))
        with Simulator() as simulator:
            reference = explore(space, "edgaze", objectives=OBJECTIVES,
                                simulator=simulator, engine="object")
        ours = [result.points[i].to_dict() for i in self.subsample]
        theirs = [point.to_dict() for point in reference.points]
        if ours != theirs:
            return ["vector and object engines disagree on the subsample"]
        return []

    def close(self):
        pass


class SweepDocument:
    """The ``repro explore`` flow in-process: spec dict to JSON document."""

    name = "sweep-document"
    RATES = 100

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    @staticmethod
    def _spec(name, rates):
        return {"schema": "repro.explore-spec/1", "name": name,
                "usecase": "edgaze",
                "space": {"product": [
                    {"name": "placement", "values": list(PLACEMENTS)},
                    {"name": "cis_node", "values": list(CIS_NODES)},
                    {"name": "options.frame_rate", "values": list(rates)}]},
                "objectives": list(OBJECTIVES)}

    def setup(self):
        rng = random.Random(self.seed)
        # Up to 700 FPS: points past ~509 FPS miss the frame budget and
        # come back as typed infeasible points.
        rates = stratified(rng, 15.0, 700.0, self.RATES)
        self.spec = self._spec("perfbench-document", rates)
        self._document(self._spec("perfbench-warmup", rates[:4]))
        self.reference = None
        self.digest = None

    @staticmethod
    def _document(payload):
        from repro.api import Simulator
        from repro.explore import spec as spec_module
        spec = spec_module.exploration_spec_from_dict(payload)
        with Simulator() as simulator:
            result = spec.run(simulator)
            layers = session_layers(simulator)
        return result, result.to_json(), layers

    def op(self, index):
        result, document, layers = self._document(self.spec)
        return {"points": len(result.points), "jobs": 1, "failed": 0,
                "layers": layers, "output": (result, document)}

    def check(self, index, output):
        from repro.explore import ExplorationResult
        result, document = output
        problems = []
        infeasible = result.infeasible_points
        if not infeasible or not result.feasible_points:
            problems.append(f"expected a feasible and an infeasible region, "
                            f"got {len(infeasible)} infeasible points")
        if any(point.failure_type is None for point in infeasible):
            problems.append("an infeasible point carries no failure type")
        if self.reference is None:
            self.reference = document
            self.digest = digest(document)
            if ExplorationResult.from_json(document).to_json() != document:
                problems.append("document does not round-trip")
        elif document != self.reference:
            problems.append(f"operation {index} differs from operation 0")
        return problems

    def close(self):
        pass


class McEnsemble:
    """``RobustSpec.run_document`` of the Ed-Gaze Monte Carlo example."""

    name = "mc-ensemble"
    SAMPLES = 2048

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def _mc_seed(self, index):
        # A distinct MC seed per operation: the process-wide memo of
        # perturbed designs never serves an earlier operation.
        return self.seed * 100003 + index + 1

    def setup(self):
        path = self.root / "examples" / "robust_edgaze.json"
        self.payload = json.loads(path.read_text())
        self._document(dict(self.payload, samples=16,
                            seed=self._mc_seed(-1)))
        self.digest = None

    @staticmethod
    def _document(payload):
        from repro.api import Simulator
        from repro.robust import spec as spec_module
        spec = spec_module.robust_spec_from_dict(payload)
        with Simulator() as simulator:
            document = spec.run_document(simulator=simulator)
            layers = session_layers(simulator)
        return document, layers

    def op(self, index):
        document, layers = self._document(dict(
            self.payload, samples=self.SAMPLES, seed=self._mc_seed(index)))
        accounting = document["accounting"]
        return {"points": accounting["total"], "jobs": 1,
                "failed": 0, "layers": layers, "output": document}

    def check(self, index, document):
        problems = []
        accounting = document["accounting"]
        expected = {"total": self.SAMPLES, "ok": self.SAMPLES, "failed": 0}
        if accounting != expected:
            problems.append(f"operation {index} accounting {accounting}")
        if index == 0:
            self.digest = digest(document)
        return problems

    def close(self):
        pass


class _Daemon:
    """One ``repro serve`` daemon subprocess, optionally span-traced."""

    def __init__(self, root, out_dir, spans_path=None):
        self.root = root
        stamp = f"{os.getpid()}-{time.monotonic_ns()}"
        ready = out_dir / f"ready-{stamp}.json"
        self.log_path = out_dir / f"daemon-{stamp}.log"
        self.spans_path = spans_path
        serve = ["serve", "--workers", "2", "--port", "0",
                 "--ready-file", str(ready)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [sys.executable,
                       str(root / "perfbench" / "daemon.py"),
                       "--spans", str(spans_path), "--"] + serve
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.process.poll() is not None:
                self._log.close()
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}: "
                    f"{self.log_path.read_text()[-2000:]}")
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon not ready within 60 s")
            time.sleep(0.01)
        address = json.loads(ready.read_text())
        ready.unlink()
        from repro.serve.client import ServeClient
        self.client_args = (address["host"], address["port"])
        self.client = ServeClient(*self.client_args, timeout=60.0)

    def peak_rss_mb(self):
        status = pathlib.Path(f"/proc/{self.process.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("daemon peak RSS unavailable")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        self._log.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.process.returncode}: "
                f"{self.log_path.read_text()[-2000:]}")
        self.log_path.unlink()


class ServeMixed:
    """Closed-loop clients against a real ``repro serve`` daemon."""

    name = "serve-mixed"
    JOBS_PER_ROUND = 600
    MIX = (("fresh", 0.5), ("repeat", 0.4), ("explore", 0.1))
    EXPLORE_POINTS = 64
    ROUND_DEADLINE_S = 150.0

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.out_dir = root / "perfbench" / "out"
        # Load generation is capped at the host's processors: one
        # closed-loop client thread, one connection at a time, per CPU.
        self.clients = max(1, min(2, os.cpu_count() or 1))
        self.daemon = None
        self.tracer = None
        self.spans = []
        self.round_windows = {}
        self.digest = None

    # --- inputs ------------------------------------------------------------

    def setup(self):
        from repro.api import build_usecase
        from repro.robust import VariationModel
        robust = json.loads(
            (self.root / "examples" / "robust_edgaze.json").read_text())
        self.variation = VariationModel.from_dict(robust["variation"])
        self.base = build_usecase("edgaze", placement="2D-In",
                                  cis_node=65).to_dict()
        self.out_dir.mkdir(exist_ok=True)
        self.daemon = _Daemon(self.root, self.out_dir)
        self._warm_up()

    def _warm_up(self):
        # Sample numbers below the first round's are never timed.
        rng = random.Random(f"{self.seed}:warm-up")
        self._run_job(self.daemon.client, "fresh", self._fresh_spec(1))
        self._run_job(self.daemon.client, "explore",
                      self._explore_spec(rng, "perfbench-warm-up"))

    def _fresh_spec(self, sample):
        from repro.robust import perturb_payload
        factors = self.variation.factors(self.seed, sample)
        return {"design": perturb_payload(self.base, factors),
                "options": {"frame_rate": 30.0}}

    def _explore_spec(self, rng, tag):
        rates = stratified(rng, 15.0, 480.0, self.EXPLORE_POINTS)
        return {"schema": "repro.explore-spec/1", "name": tag,
                "usecase": "edgaze",
                "space": {"product": [
                    {"name": "placement", "values": [rng.choice(PLACEMENTS)]},
                    {"name": "cis_node", "values": [rng.choice(CIS_NODES)]},
                    {"name": "options.frame_rate", "values": rates}]},
                "objectives": list(OBJECTIVES)}

    def _plan_round(self, round_index):
        """Per client: [(kind, spec, first_index)] for one round.

        Fresh jobs are distinct perturbed designs (cache writes);
        repeats resend an earlier payload of the same client (cache
        reads); explores are 64-point option sweeps.
        """
        per_client = self.JOBS_PER_ROUND // self.clients
        plans = []
        for client in range(self.clients):
            rng = random.Random(f"{self.seed}:{round_index}:{client}")
            kinds = [kind for kind, share in self.MIX
                     for _ in range(round(share * per_client))]
            kinds = (kinds + ["fresh"] * per_client)[:per_client]
            rng.shuffle(kinds)
            first_fresh = kinds.index("fresh")
            kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
            plan, fresh = [], []
            base_sample = 1 + ((round_index + 1) * self.clients + client) \
                * per_client
            for position, kind in enumerate(kinds):
                if kind == "fresh":
                    fresh.append(position)
                    spec = self._fresh_spec(base_sample + position)
                    plan.append((kind, spec, position))
                elif kind == "repeat":
                    first = rng.choice(fresh)
                    plan.append((kind, plan[first][1], first))
                else:
                    tag = f"perfbench-{round_index}-{client}-{position}"
                    plan.append((kind, self._explore_spec(rng, tag),
                                 position))
            plans.append(plan)
        return plans

    # --- one job -------------------------------------------------------------

    def _run_job(self, client, kind, spec):
        submit_kind = "explore" if kind == "explore" else "run"
        started = time.perf_counter()
        t_submit = time.monotonic_ns()
        job = client.submit(spec, kind=submit_kind)
        submitted = time.perf_counter()
        t_submitted = time.monotonic_ns()
        final = None
        for event in client.stream(job["id"]):
            if event.get("event") == "done":
                final = event["job"]
        notified_wall = time.time()
        notified = time.perf_counter()
        t_notified = time.monotonic_ns()
        payload = client.result(job["id"])
        finished = time.perf_counter()
        if self.tracer is not None:
            self.tracer.record("serve.submit", t_submit, t_submitted)
            self.tracer.record("serve.stream", t_submitted, t_notified)
            self.tracer.record("serve.result", t_notified,
                               time.monotonic_ns())
        return {
            "kind": kind,
            "state": final["state"] if final else "missing",
            "latency_ms": (finished - started) * 1e3,
            "submit_rtt_ms": (submitted - started) * 1e3,
            "result_rtt_ms": (finished - notified) * 1e3,
            "queue_wait_ms": (final["started_at"] - final["created_at"]) * 1e3,
            "service_ms": (final["finished_at"] - final["started_at"]) * 1e3,
            "notify_ms": (notified_wall - final["finished_at"]) * 1e3,
            "result_bytes": len(json.dumps(payload, separators=(",", ":"))),
            "result": payload["result"],
        }

    def _client_loop(self, plan, records, errors, index):
        from repro.serve.client import ServeClient
        client = ServeClient(*self.daemon.client_args, timeout=60.0)
        try:
            for kind, spec, first in plan:
                record = self._run_job(client, kind, spec)
                record["first"] = first
                records.append(record)
        except BaseException as error:  # reported by the round, loudly
            errors[index] = error

    # --- the timed operation -------------------------------------------------

    def _stats(self):
        stats = self.daemon.client.stats()
        return {"cache": stats["cache"], "passes": stats["passes"],
                "resilience": stats["resilience"]}

    def op(self, index):
        plans = self._plan_round(index)
        before = self._stats()
        records = [[] for _ in plans]
        errors = [None] * len(plans)
        threads = [threading.Thread(
            target=self._client_loop, args=(plan, records[i], errors, i),
            name=f"perfbench-client-{i}", daemon=True)
            for i, plan in enumerate(plans)]
        window_start = time.monotonic_ns()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + self.ROUND_DEADLINE_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        wall = time.perf_counter() - started
        self.round_windows[index] = (window_start, time.monotonic_ns())
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"load generator fell behind: round {index} "
                               f"not done in {self.ROUND_DEADLINE_S} s")
        for client, error in enumerate(errors):
            if error is not None:
                raise RuntimeError(
                    f"client thread {client} died: {error!r}") from error
        for client, (plan, done) in enumerate(zip(plans, records)):
            if len(done) != len(plan):
                raise RuntimeError(f"client {client} sent {len(done)} of "
                                   f"{len(plan)} jobs")
        after = self._stats()
        jobs = [record for client in records for record in client]
        points = sum(self.EXPLORE_POINTS if record["kind"] == "explore"
                     else 1 for record in jobs)
        failed = sum(1 for record in jobs if record["state"] != "done")
        return {"points": points, "jobs": len(jobs), "failed": failed,
                "wall_s": wall,
                "latencies_ms": [record["latency_ms"] for record in jobs],
                "layers": self._round_layers(jobs, before, after),
                "output": records}

    def _round_layers(self, jobs, before, after):
        layers = {}

        def spread(name, values):
            layers[f"{name}.p50"] = percentile(values, 0.5) if values else 0.0
            layers[f"{name}.p95"] = percentile(values, 0.95) if values else 0.0

        for field in ("submit_rtt_ms", "queue_wait_ms", "notify_ms",
                      "result_rtt_ms"):
            spread(f"serve.{field}", [job[field] for job in jobs])
        for kind, label in (("run", ("fresh", "repeat")),
                            ("explore", ("explore",))):
            spread(f"serve.service_ms.{kind}",
                   [job["service_ms"] for job in jobs if job["kind"] in label])
        layers["serve.result_bytes"] = sum(job["result_bytes"]
                                           for job in jobs)
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        share = hits / (hits + misses) if hits + misses else 0.0
        layers["serve.cache_hit_share"] = share
        layers["api.simulator.cache_hit_share"] = share
        for name in PASS_NAMES:
            layers[f"sim.pass_runs.{name}"] = (
                after["passes"].get(name, 0) - before["passes"].get(name, 0))
        for counter in ("retries", "timeouts", "pool_rebuilds",
                        "quarantined"):
            layers[f"exec.{counter}"] = (
                after["resilience"].get(counter, 0)
                - before["resilience"].get(counter, 0))
        return layers

    def check(self, index, records):
        problems = []
        for client, done in enumerate(records):
            for position, record in enumerate(done):
                if record["state"] != "done":
                    problems.append(f"client {client} job {position} "
                                    f"ended {record['state']}")
                    continue
                if record["kind"] == "repeat":
                    first = done[record["first"]]["result"]
                    if (record["result"]["report"], record["result"]
                            ["design_hash"]) != (first["report"],
                                                 first["design_hash"]):
                        problems.append(f"client {client} repeat {position} "
                                        f"differs from its first submission")
        if index == 0:
            self.digest = digest([[
                record["result"] if record["kind"] == "explore"
                else [record["result"]["design_hash"],
                      record["result"]["report"]]
                for record in done] for done in records])
        return problems

    # --- tracing and teardown ------------------------------------------------

    def restart(self, spans_path):
        """Replace the daemon by a fresh one (span-traced if a path)."""
        self.daemon.stop()
        self.daemon = None
        self.daemon = _Daemon(self.root, self.out_dir, spans_path)
        self._warm_up()

    def peak_rss_mb(self):
        return self.daemon.peak_rss_mb()

    def close(self):
        if self.daemon is not None:
            daemon, self.daemon = self.daemon, None
            daemon.stop()
            if daemon.spans_path is not None and daemon.spans_path.exists():
                self.spans.extend(
                    tuple(span) for span in
                    json.loads(daemon.spans_path.read_text()))
                daemon.spans_path.unlink()


WORKLOADS = {workload.name: workload for workload in
             (SweepGrid, SweepDocument, McEnsemble, ServeMixed)}
