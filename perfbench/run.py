"""Benchmark of the funnelbias Monte Carlo and analyze paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-trimfill --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout, in this process,
at parallelism 1. With ``--trace 0`` the run times whole rounds of ops
for ``--seconds`` and reports the end-to-end metrics; with ``--trace 1``
it times half of that untraced and half traced, and reports the
per-layer metrics and the tracing overhead. Either way it then checks
the program's outputs against ``reference.py`` and the properties the
program promises, and prints one JSON object as its last line.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9  # fresh interpreters timed per run
WORKLOAD_NAMES = ("grid-trimfill", "analyze-cli")
# A round's inputs repeat from round to round, so a first round much
# slower than the median one means that later rounds reuse earlier work.
FIRST_ROUND_LIMIT = 3.0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def build(workload: str, seed: int, workdir: Path):
    """Import the program, build the inputs and warm the caches.

    Returns (workload, import_s, inputs_s).
    """
    import workloads

    t1 = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm()
    return wl, t1 - T_START, time.perf_counter() - t1


def probe(args) -> int:
    """Child: set up as a run does, report its breakdown, exit."""
    _, import_s, inputs_s = build(args.workload, args.seed, OUT / f"probe-{args.workload}")
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}), flush=True)
    return 0


def setup_probe(args) -> dict:
    """Time set-up in a fresh interpreter: from spawn until its first op is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - t0
        child.communicate()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return {"wall_s": wall, **json.loads(line)}


class Phase:
    """Whole rounds until the next would overrun ``budget`` seconds by over half a round.

    The set-up probes run between rounds, spread evenly over the budget,
    so that they sample the host at other moments than a single burst
    would.
    """

    def __init__(self, args, wl, budget: float, min_rounds: int, probes: int, tracer=None):
        self.rounds: list[list[float]] = []
        self.round_times: list[float] = []
        self.output_times: list[float] = []
        self.tallies: list[str] = []
        self.probes: list[dict] = []
        spent = 0.0
        while True:
            r0 = time.perf_counter()
            op_times, output_s, tally = wl.round(tracer)
            last = time.perf_counter() - r0
            spent += last
            self.rounds.append(op_times)
            self.round_times.append(last)
            self.output_times.append(output_s)
            self.tallies.append(tally)
            if len(self.probes) < probes and spent >= len(self.probes) * budget / probes:
                self.probes.append(setup_probe(args))
            if len(self.probes) == probes and len(self.rounds) >= min_rounds and spent + last / 2 >= budget:
                break
        # An op runs once per round on the same inputs; its best time over
        # the rounds is its cost with the least interference from the host.
        self.best = [min(times) for times in zip(*self.rounds)]

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def ops_per_s(self) -> float:
        return len(self.best) / (sum(self.best) + min(self.output_times))

    def first_round_ratio(self) -> float:
        return self.round_times[0] / statistics.median(self.round_times)


def end_to_end_metrics(phase: Phase, rss_mib: float) -> dict:
    return {
        "setup_s": (statistics.median(p["wall_s"] for p in phase.probes), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(phase.best), "ms"),
        "op_ms_p95": (1e3 * statistics.quantiles(phase.best, n=100)[94], "ms"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


def per_layer_metrics(wl, tracer, probes, overhead):
    def mean_us(name):
        d = tracer.durations(name)
        return 1e6 * statistics.fmean(d) if d else 0.0

    def ratio(num, den):
        return tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0

    runs = tracer.self_times("harness.run_condition")
    reps = len(runs) * getattr(wl, "REPS", 0)
    cli_self = tracer.self_times("cli.main")
    output = tracer.durations("harness.output")
    m = {
        "sampler.replicate_rng_us": (mean_us("sampler.replicate_rng"), "us"),
        "sampler.studies_per_dataset": (ratio("sampler.studies", "sampler.datasets"), "count"),
    }
    for mech in ("none", "selection", "mixture"):
        m[f"sampler.generate_us.{mech}"] = (mean_us(f"sampler.generate.{mech}"), "us")
    # grid-trimfill measures lnDOR only; analyze-cli measures all four
    m["measures.compute_usable_us.lndor"] = (mean_us("measures.compute_usable.lndor"), "us")
    m["measures.usable_share.lndor"] = (ratio("measures.usable.lndor", "measures.measured.lndor"), "ratio")
    for meas in ("lndor", "lntheta", "youden", "kappa"):
        m[f"measures.measure_studies_us.{meas}"] = (mean_us(f"measures.measure_studies.{meas}"), "us")
    for family in ("egger", "macaskill", "begg", "trimfill"):
        m[f"asymmetry.{family}_us"] = (mean_us(f"asymmetry.{family}"), "us")
    m["asymmetry.trimfill_passes"] = (ratio("asymmetry.trimfill_passes", "asymmetry.trimfill_calls"), "count")
    m["asymmetry.trimfill_unconverged_share"] = (
        ratio("asymmetry.trimfill_unconverged", "asymmetry.trimfill_calls"), "ratio")
    m["harness.self_us_per_rep"] = (1e6 * sum(runs) / reps if reps else 0.0, "us")
    m["harness.degenerate_share"] = (wl.degenerate_share(), "ratio")
    m["harness.output_ms"] = (1e3 * statistics.fmean(output) if output else 0.0, "ms")
    m["model.read_dataset_csv_us"] = (mean_us("model.read_dataset_csv"), "us")
    m["model.validate_dataset_us"] = (mean_us("model.validate_dataset"), "us")
    m["cli.self_us"] = (1e6 * statistics.fmean(cli_self) if cli_self else 0.0, "us")
    m["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    m["setup.inputs_s"] = (statistics.median(p["inputs_s"] for p in probes), "s")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def main() -> int:
    args = parse_args()
    if not (SRC / "funnelbias" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe(args)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl, _, _ = build(args.workload, args.seed, workdir)
    import tracing
    import workloads

    if args.trace:
        plain = Phase(args, wl, args.seconds / 2, 2, SETUP_PROBES)
        tracer = tracing.Tracer()
        with tracer.patched():
            traced = Phase(args, wl, args.seconds / 2, 2, 0, tracer)
        phases = [plain, traced]
    else:
        plain = Phase(args, wl, args.seconds, 2, SETUP_PROBES)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [plain]

    correct = True
    tallies = [t for phase in phases for t in phase.tallies]
    try:
        if len(set(tallies)) != 1:
            raise workloads.CheckFailed(f"rounds disagree: {len(set(tallies))} distinct outputs")
        ratio = plain.first_round_ratio()
        print(f"first round / median round: {ratio:.3f}", file=sys.stderr)
        print("set-up probes (s):", " ".join(f"{p['wall_s']:.3f}" for p in plain.probes), file=sys.stderr)
        if ratio > FIRST_ROUND_LIMIT:
            raise workloads.CheckFailed(f"the first round took {ratio:.2f} times the median round")
        wl.check()
    except workloads.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        tracer.write(workdir / "spans.jsonl")
        overhead = 1.0 - traced.ops_per_s() / plain.ops_per_s()
        metrics = per_layer_metrics(wl, tracer, plain.probes, overhead)
    else:
        metrics = end_to_end_metrics(plain, rss_mib)
    rounds = sum(len(phase.rounds) for phase in phases)
    result = {
        "correct": correct,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": rounds * wl.round_failures(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
