"""cure-rl benchmark: closed-loop desk training runs, timed from outside.

    python3 perfbench/run.py --workload rae_cure --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one BLAS thread. A run repeats a unit of work (set-up builds,
a Trainer driven through run_main or resumed from a checkpoint, checkpoint
round trips) until the next unit would end after ``--seconds``. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
units and prints the per-layer metrics. The last stdout line is the JSON
result; a correctness-gate violation makes it ``"correct": false``. See
README.md for the workloads and metrics.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Pin BLAS to one thread before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Probes, Tracer, final_phase  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
CONFIG = ROOT / "configs" / "desk_reacher_hard.txt"
SETUP_REPEATS = 5   # Trainer builds at the start and again at the end of each unit


@dataclass
class Workload:
    overrides: dict
    updates: int          # gradient-update steps per unit
    round_trips: int = 0  # checkpoint save + load pairs per unit
    fill: bool = False    # each unit fills the buffer, then resumes from its checkpoint
    min_units: int = 3


# Every workload is configs/desk_reacher_hard.txt with the run length set by
# the benchmark and one evaluation at the end of each run_main.
WORKLOADS = {
    "rae_cure": Workload({}, updates=60, round_trips=8),
    # not in BENCHMARK.json while its checkpoint round trip fails the gate
    "contrastive_cure": Workload({"srl.head": "contrastive"}, updates=60, round_trips=8),
    "collect_eval_resume": Workload({}, updates=40, fill=True, min_units=2),
}
SMOKE = dict(init_steps=40, capacity=64, updates=6, round_trips=2, episodes=1)


def import_program():
    src = ROOT / "src"
    if not (src / "cure_rl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cure_rl sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    cure_rl = importlib.import_module("cure_rl")
    if not Path(cure_rl.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported cure_rl from {cure_rl.__file__}, not {src}")
    # by module path: the package re-exports a train() function as cure_rl.train
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"cure_rl.{name}") for name in (
            "autodiff", "checkpoint", "config", "envs", "metrics", "replay", "sac", "srl",
            "train")})


def make_config(m, w: Workload, seed: int, out: Path, smoke: bool, resume: bool = False):
    cfg = m.config.load_config(str(CONFIG))
    for key, value in w.overrides.items():
        m.config.set_by_path(cfg, key, value)
    cfg.seed = seed
    cfg.out = str(out)
    updates = SMOKE["updates"] if smoke else w.updates
    if smoke:
        cfg.init_steps = SMOKE["init_steps"]
        cfg.eval.episodes = SMOKE["episodes"]
        if w.fill:
            cfg.replay.capacity = SMOKE["capacity"]
    if w.fill:
        cfg.init_steps = cfg.steps = cfg.replay.capacity
    else:
        cfg.steps = cfg.init_steps + updates
    cfg.eval.interval = cfg.steps
    if resume:
        cfg.steps += updates
    cfg.validate()
    return cfg


class StepClock:
    """Phase hook: wall time of each collected step, from the previous step's
    last phase mark to this step's last mark. The first step of a loop and
    the step after an evaluation have no known start and are not timed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.init_steps = 0
        self.last = None
        self.update_ms = []
        self.collect_ms = []

    def begin_loop(self, init_steps):
        self.init_steps = init_steps
        self.last = None
        if self.tracer is not None:
            self.tracer.begin_loop(init_steps)

    def lose_mark(self):
        self.last = None

    def __call__(self, t, phase):
        now = perf_counter()
        if self.tracer is not None:
            self.tracer.phase(t, phase, now)
        if phase == final_phase(t, self.init_steps):
            if self.last is not None:
                ms = 1e3 * (now - self.last)
                (self.update_ms if t >= self.init_steps else self.collect_ms).append(ms)
            self.last = now


@dataclass
class Unit:
    traced: bool
    clock: StepClock
    eval_start: int                 # index of this unit's first episode in Probes.evals
    run_main: tuple = (0, 0.0)      # steps and seconds of a run_main from step 0
    evals: list = field(default_factory=list)
    save_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    ckpt_mb: float = 0.0
    digest: tuple = ()    # outputs that every repeated unit of a seed must reproduce
    violations: list = field(default_factory=list)   # correctness-gate failures


def state_digest(tr) -> dict:
    """Digests of everything a checkpoint must restore exactly, by part."""
    parts = {}

    def add(part, name, arr):
        h = parts.setdefault(part, hashlib.sha256())
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr)

    params = dict(tr.srl.all_param_tensors())
    opts = {"srl": tr.srl.opt}
    for agent in (tr.task_agent, tr.curious_agent):
        if agent is not None:
            params.update(agent.all_param_tensors())
            opts.update({f"{agent.name}.critic": agent.critic_opt,
                         f"{agent.name}.actor": agent.actor_opt,
                         f"{agent.name}.alpha": agent.alpha_opt})
    for k in sorted(params):
        add("params", k, params[k].data)
    for k in sorted(opts):
        add("adam", f"{k}.t", np.array(opts[k].t))
        for name in sorted(opts[k].state):
            add("adam", f"{k}/{name}/m", opts[k].state[name].m)
            add("adam", f"{k}/{name}/v", opts[k].state[name].v)
    b = tr.buffer
    add("buffer", "cursor,count", np.array([b.cursor, b.count]))
    if b.obs is not None:
        for name in ("obs", "actions", "rewards", "next_obs", "dones"):
            add("buffer", name, getattr(b, name)[:b.count])
    snap = tr.env.snapshot()
    add("env", "stack", snap["stack"])
    state = {
        "rng": tr.streams.export_state(),
        "env": [snap["inner_step"], {k: np.asarray(v).tolist() for k, v in snap["state"].items()},
                snap["rng_state"]],
        "trainer": [tr.phase, tr.phase_t, tr.episode, tr.episode_reward, tr.eval_count],
        "agg": tr.agg.export_state(),
    }
    for k, v in state.items():
        add(k, k, np.frombuffer(json.dumps(v, sort_keys=True).encode(), np.uint8))
    return {k: h.hexdigest() for k, h in parts.items()}


def check_outputs(m, tr, csv_path: Path, violations: list) -> str:
    """metrics.csv parses and every loss in it and in the pending aggregate is
    finite; returns the file's digest."""
    try:
        rows = m.metrics.read_metrics(str(csv_path))
    except ValueError as e:
        violations.append(f"metrics.csv does not parse: {e}")
        rows = []
    for row in rows:
        bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            violations.append(f"metrics.csv step {row['step']}: non-finite {bad}")
    if not all(math.isfinite(v) for v in tr.agg.sums.values()):
        violations.append("non-finite loss in the trainer's pending aggregate")
    return hashlib.sha256(csv_path.read_bytes()).hexdigest()


def new_unit(m, w: Workload, seed: int, out: Path, smoke: bool, probes: Probes,
             tracer: Tracer | None) -> Unit:
    """A unit starts with set-up builds."""
    shutil.rmtree(out, ignore_errors=True)
    unit = Unit(traced=tracer is not None, clock=StepClock(tracer),
                eval_start=len(probes.evals))
    probes.on_eval_end = unit.clock.lose_mark
    timed_setup(unit, m, w, seed, out, smoke)
    return unit


def timed_setup(unit: Unit, m, w: Workload, seed: int, out: Path, smoke: bool):
    """Set-up builds: load the config and build a Trainer. Each unit builds at
    its start and at its end, so the samples span the whole run."""
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        m.train.Trainer(make_config(m, w, seed, out, smoke))
        unit.setup_s.append(perf_counter() - t0)


def finish_unit(unit: Unit, probes: Probes, updates: int, collects: int):
    unit.evals = probes.evals[unit.eval_start:]
    timed = (len(unit.clock.update_ms), len(unit.clock.collect_ms))
    if timed != (updates, collects):
        unit.violations.append(f"timed {timed[0]} update and {timed[1]} seeding steps, "
                               f"expected {updates} and {collects}")


def timed_save(unit: Unit, tr, path: Path):
    t0 = perf_counter()
    tr.save_checkpoint(str(path))
    unit.save_s.append(perf_counter() - t0)
    unit.ckpt_mb = path.stat().st_size / 1e6


def timed_load(unit: Unit, m, cfg, path: Path, ref: dict):
    """A fresh Trainer plus load_checkpoint, which must restore ``ref`` exactly."""
    t0 = perf_counter()
    tr = m.train.Trainer(cfg, phase_hook=unit.clock)
    tr.load_checkpoint(str(path))
    unit.load_s.append(perf_counter() - t0)
    got = state_digest(tr)
    differ = [k for k in ref if got.get(k) != ref[k]]
    if differ:
        unit.violations.append("checkpoint round trip did not restore the trainer state "
                               f"exactly: {', '.join(differ)} differ")
    return tr


def fresh_unit(m, w, seed, out, smoke, probes, tracer):
    """Set-up builds, then a fresh Trainer through run_main: seeding steps,
    update steps, one evaluation. Returns the unit, the trainer, its config
    and the digest of its final state."""
    unit = new_unit(m, w, seed, out, smoke, probes, tracer)
    cfg = make_config(m, w, seed, out, smoke)
    tr = m.train.Trainer(cfg, phase_hook=unit.clock)
    unit.clock.begin_loop(cfg.init_steps)
    t0 = perf_counter()
    tr.run_main()
    unit.run_main = (cfg.steps, perf_counter() - t0)
    if tracer is not None:
        tracer.set_ctx("ckpt")
    return unit, tr, cfg, state_digest(tr)


def train_unit(m, w, seed, out, smoke, probes, tracer) -> Unit:
    """A fresh run, then chained checkpoint round trips."""
    unit, tr, cfg, ref = fresh_unit(m, w, seed, out, smoke, probes, tracer)
    path = out / "bench.ckpt"
    for _ in range(SMOKE["round_trips"] if smoke else w.round_trips):
        timed_save(unit, tr, path)
        del tr
        gc.collect()
        tr = timed_load(unit, m, cfg, path, ref)
        # every save writes a new file: replacing one adds the kernel's cost of
        # freeing the old file's pages, which varies with the page cache
        path.unlink()
    unit.digest = (check_outputs(m, tr, out / "metrics.csv", unit.violations),
                   sorted(ref.items()))
    timed_setup(unit, m, w, seed, out, smoke)
    finish_unit(unit, probes, cfg.steps - cfg.init_steps, cfg.init_steps - 1)
    return unit


def cycle_unit(m, w, seed, out, smoke, probes, tracer) -> Unit:
    """Fill the buffer by seeding, evaluate and save; then load that checkpoint
    into a fresh Trainer, train on, evaluate and save."""
    unit, tr, cfg, ref = fresh_unit(m, w, seed, out, smoke, probes, tracer)
    base = out / "fill.ckpt"
    timed_save(unit, tr, base)
    filled = check_outputs(m, tr, out / "metrics.csv", unit.violations)
    collects = cfg.init_steps - 1
    del tr
    gc.collect()
    cfg = make_config(m, w, seed, out, smoke, resume=True)
    tr = timed_load(unit, m, cfg, base, ref)
    base.unlink()
    unit.clock.begin_loop(cfg.init_steps)
    tr.run_main(resume=True)
    reward = tr.evaluate()
    if tracer is not None:
        tracer.set_ctx("ckpt")
    state = state_digest(tr)
    timed_save(unit, tr, out / "bench.ckpt")
    (out / "bench.ckpt").unlink()
    unit.digest = (check_outputs(m, tr, out / "metrics.csv", unit.violations),
                   filled, sorted(ref.items()), sorted(state.items()), reward)
    timed_setup(unit, m, w, seed, out, smoke)
    # the first step after a resume is not timed
    finish_unit(unit, probes, cfg.steps - cfg.init_steps - 1, collects)
    return unit


def step_pairs(ms: list) -> list:
    """Mean of each two consecutive steps. The actor and critic-target updates
    run every second step, so single steps fall in two clusters and their
    median jumps between them; any two consecutive steps hold one of each."""
    return [(a + b) / 2 for a, b in zip(ms[0::2], ms[1::2])]


def end_to_end(units) -> dict:
    update = [x for u in units for x in step_pairs(u.clock.update_ms)]
    steps, seconds = zip(*(u.run_main for u in units))
    return {
        "update_step_ms_p50": statistics.median(update),
        "update_step_ms_p90": float(np.percentile(update, 90)),
        "train_steps_per_s": sum(steps) / sum(seconds),
        "collect_step_ms_p50": statistics.median(x for u in units for x in u.clock.collect_ms),
        "eval_steps_per_s": statistics.median(n / s for u in units for n, s in u.evals),
        "checkpoint_save_s": statistics.median(x for u in units for x in u.save_s),
        "checkpoint_load_s": statistics.median(x for u in units for x in u.load_s),
        "setup_s": statistics.median(x for u in units for x in u.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(m, t: Tracer, probes: Probes, units) -> dict:
    n = t.steps["update"]

    def step_s(name):               # inclusive seconds per update step
        return t.total(name, "update")[1] / n

    def per_call(name):             # inclusive seconds per call, any context
        calls, incl, _ = t.total(name)
        return incl / calls if calls else 0.0

    def step_count(name):
        return t.counted(name, "update") / n

    out = {f"train.{p}_ms": 1e3 * step_s(f"train.{p}") for p in m.train.PHASES}
    named = ("conv2d", "conv_transpose2d", "dense")
    for d in ("fwd", "bwd"):
        for op in named:
            out[f"autodiff.{op}.{d}_ms"] = 1e3 * step_s(f"autodiff.{op}.{d}")
        others = {name for names in t.agg.values() for name in names
                  if name.startswith("autodiff.")
                  and name.endswith("." + d) and name.split(".")[1] not in named}
        out[f"autodiff.other.{d}_ms"] = 1e3 * sum(step_s(x) for x in others)
    out["autodiff.conv2d.calls"] = t.total("autodiff.conv2d.fwd", "update")[0] / n
    out["autodiff.conv2d.bwd_calls"] = step_count("autodiff.conv2d.bwd_calls")
    out["autodiff.conv2d.discarded_input_grads"] = step_count(
        "autodiff.conv2d.discarded_input_grads")
    out["autodiff.tape_self_ms"] = 1e3 * t.total("autodiff.tape", "update")[2] / n
    out["autodiff.adam_step_ms"] = 1e3 * step_s("autodiff.adam_step")
    out["autodiff.adam_step.calls"] = t.total("autodiff.adam_step", "update")[0] / n
    out["autodiff.conv.mflop"] = 2e-6 * (step_count("autodiff.conv2d.macs")
                                         + step_count("autodiff.conv_transpose2d.macs"))
    for name in ("update", "srl_error", "ema_key", "encoder"):
        out[f"srl.{name}_ms"] = 1e3 * step_s(f"srl.{name}")
    out["srl.encoder.calls"] = step_count("srl.encoder.calls")
    out["srl.encoder.duplicate_calls"] = step_count("srl.encoder.duplicate_calls")
    for name in ("update_critic", "compute_target", "update_actor", "polyak"):
        out[f"sac.{name}_ms"] = 1e3 * step_s(f"sac.{name}")
    out["sac.act_ms"] = 1e3 * per_call("sac.act")
    out["replay.sample_us"] = 1e6 * step_s("replay.sample")
    out["replay.augmented_views_us"] = 1e6 * step_s("replay.augmented_views")
    out["replay.push_us"] = 1e6 * per_call("replay.push")
    out["replay.center_crop_us"] = 1e6 * per_call("replay.center_crop")
    out["envs.step_us"] = 1e6 * per_call("envs.step")
    out["envs.reset_ms"] = 1e3 * per_call("envs.reset")
    out["checkpoint.save_s"] = per_call("checkpoint.save")
    out["checkpoint.load_s"] = per_call("checkpoint.load")
    out["checkpoint.mb"] = max(u.ckpt_mb for u in units)
    out["skipped_update_share"] = probes.skipped / max(probes.attempted, 1)

    traced = [x for u in units if u.traced for x in u.clock.update_ms]
    plain = [x for u in units if not u.traced for x in u.clock.update_ms]
    out["bench.trace_overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    autodiff = sum(out[f"autodiff.{op}.{d}_ms"] for op in named + ("other",)
                   for d in ("fwd", "bwd"))
    autodiff += out["autodiff.tape_self_ms"] + out["autodiff.adam_step_ms"]
    blocking = out["train.srl_ms"] + out["train.task_ac_ms"] + out["train.curious_ac_ms"]
    out["bench.autodiff_share_pct"] = 100 * autodiff / blocking
    return out


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays per workload.
    Fails if any workload fails or reports a correctness-gate violation."""
    failed = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            failed.append(name)
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few steps per unit, for the smoke test only")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    m = import_program()
    record = run_record()
    w = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probes = Probes(m)
    probes.install()
    tracer = Tracer(m) if args.trace else None
    units = []

    def call(traced, make):
        if traced:
            tracer.install()
        try:
            return make(m, w, args.seed, work / f"unit{len(units)}", args.smoke,
                        probes, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()

    try:
        start = last = perf_counter()
        # stop before a unit that would end past --seconds
        while len(units) < w.min_units or 2 * perf_counter() - last - start <= args.seconds:
            last = perf_counter()
            traced = tracer is not None and len(units) % 2 == 1
            units.append(call(traced, cycle_unit if w.fill else train_unit))
        metrics = end_to_end(units) if tracer is None else per_layer(m, tracer, probes, units)
    finally:
        probes.uninstall()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units_of = {d["name"]: d["unit"] for d in spec["per_layer" if tracer else "end_to_end"]}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    violations = sorted({v for u in units for v in u.violations})
    also = ", traced and untraced" if tracer is not None else ""
    if any(u.digest[0] != units[0].digest[0] for u in units):
        violations.append(f"metrics.csv differs between repeats of one seed{also}")
    if any(u.digest[1:] != units[0].digest[1:] for u in units):
        violations.append(f"trained state or evaluation differs between repeats of one seed{also}")
    for v in violations:
        print(f"perfbench: correctness gate failed: {v}", file=sys.stderr)

    record["loadavg_end"] = os.getloadavg()
    record["units"] = len(units)
    record["violations"] = violations
    if tracer is not None:
        tracer.write(work / "trace.jsonl", dict(record, workload=args.workload, seed=args.seed))
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units_of[name]}")
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": not violations,
        "attempted": probes.attempted,
        "failed": probes.skipped,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
