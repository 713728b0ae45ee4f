"""Seeded task lists for the three benchmark workloads.

A task is one ``nts`` CLI command on one generated config.  Everything random
in a task (channel, ``q0``, rate, blocklength, simulation seed) is drawn from
``numpy.random.default_rng([seed, workload index])``, so the same seed gives
the same tasks.  The generators use numpy only: the program under test sees
the generated configs and nothing else, and a change to ``nts`` cannot change
the inputs.

Every workload starts with the two fixed anchor configs: BSC(0.1) with
uniform ``q0``, and the ternary symmetric channel 0.8/0.1/0.1 with uniform
``q0``.  Their command parameters are drawn like those of any other instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("closed_form", "types_exact", "nts_adapt")

# Competitor class cap of ``nts.oracle.competitor_class_table`` (its default,
# which the CLI does not expose).  The cap probe is sized against it.
CLASS_CAP = 5_000_000

ANCHORS = (
    ("bsc0.1", [[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
    ("ternary0.8", [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1 / 3, 1 / 3, 1 / 3]),
)


@dataclass
class Task:
    """One CLI command on one config, with what its output checks need."""

    command: str
    config: dict
    label: str
    # Facts about the config computed here, independently of ``nts``:
    # ``mutual_info`` is I(Q0 o P) in nats.  ``expect_exit`` is the exit code
    # the command must return, and ``expect_stderr`` a substring of its message.
    mutual_info: float = 0.0
    expect_exit: int = 0
    expect_stderr: str = ""


def mutual_info(rows: np.ndarray, q: np.ndarray) -> float:
    """I(Q o P) in nats."""
    joint = q[:, None] * rows
    out = joint.sum(axis=0)
    pos = joint > 0
    ratio = joint[pos] / (q[:, None] * out[None, :])[pos]
    return float(np.sum(joint[pos] * np.log(ratio)))


def capacity(rows: np.ndarray, iters: int = 5000, tol: float = 1e-12) -> float:
    """Channel capacity in nats by Blahut-Arimoto."""
    q = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(iters):
        out = q @ rows
        with np.errstate(divide="ignore", invalid="ignore"):
            logratio = np.where(rows > 0, np.log(rows / out[None, :]), 0.0)
        div = (rows * logratio).sum(axis=1)
        c = np.exp(div)
        low, up = math.log(float(q @ c)), float(div.max())
        if up - low <= tol:
            break
        q = q * c / float(q @ c)
    return low


def noisy_channel(rng: np.random.Generator, nx: int, ny: int, noise: float) -> np.ndarray:
    """Rows that mix a clean input-to-output map with Dirichlet(2) noise.

    Input x points at position x (ny-1)/(nx-1) on the output axis, split
    between the two nearest outputs (a 3x2 channel's middle input is a fair
    coin), with weight 1 - noise.  Two inputs pointing at one output give
    near-duplicate rows, along which ``iterate-slope`` crawls (over 3000
    steps, 12 s, in one run).
    Pure Dirichlet rows often give channels of near-zero capacity, on which
    the fixed-rate iteration runs for thousands of steps; the clean part keeps
    capacity away from zero.  Dirichlet(1) noise often leaves entries near
    0.001, on which one ``oracle`` run took 21.6 s instead of the usual 3-5 s
    and doubled its pass; Dirichlet(2) makes such entries rare.
    """
    rows = np.empty((nx, ny))
    for x in range(nx):
        clean = np.zeros(ny)
        pos = x * (ny - 1) / (nx - 1)
        low = math.floor(pos)
        clean[low] = 1.0 - (pos - low)
        clean[math.ceil(pos)] += pos - low
        rows[x] = (1.0 - noise) * clean + noise * rng.dirichlet(np.full(ny, 2.0))
    return rows


def random_q(rng: np.random.Generator, nx: int) -> np.ndarray:
    """Dirichlet(3) input distribution, kept away from the simplex boundary."""
    q = 0.1 / nx + 0.9 * rng.dirichlet(np.full(nx, 3.0))
    return q / q.sum()


def stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` draws from [lo, hi], one in each of ``count`` equal slices,
    in seeded order.

    Task cost depends steeply on these parameters (noise level, rate factor,
    blocklength).  Stratified draws give every seed the same spread of them,
    so the cost of a pass varies little from seed to seed.
    """
    return rng.permutation(lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count)


def by_group(rng: np.random.Generator, keys: list, lo: float, hi: float) -> list[float]:
    """One draw per key from [lo, hi], stratified within each group of equal keys."""
    out = [0.0] * len(keys)
    for key in dict.fromkeys(keys):
        members = [i for i, k in enumerate(keys) if k == key]
        for i, value in zip(members, stratified(rng, len(members), lo, hi)):
            out[i] = float(value)
    return out


def _base(rows, q, name: str) -> dict:
    return {"channel": {"rows": np.asarray(rows, dtype=float).tolist(), "name": name}, "q0": [float(v) for v in q]}


def _instances(rng: np.random.Generator, count: int, shapes) -> list[tuple]:
    """(name, rows, q0) of the two anchors, then of ``count`` seeded
    instances cycling over ``shapes`` with noise weights in [0.1, 0.3]."""
    out = [(name, np.array(rows), np.array(q)) for name, rows, q in ANCHORS]
    shape_of = [shapes[k % len(shapes)] for k in range(count)]
    for k, ((nx, ny), noise) in enumerate(zip(shape_of, by_group(rng, shape_of, 0.1, 0.3))):
        out.append((f"rand{k}_{nx}x{ny}", noisy_channel(rng, nx, ny, noise), random_q(rng, nx)))
    return out


def closed_form(rng: np.random.Generator, count: int) -> list[Task]:
    """Per instance: ``curves`` on 100 rates running past I(Q0 o P);
    ``iterate-rate`` above capacity, or below I(Q0 o P) on 3x2 channels;
    on every other instance ``iterate-slope`` at rho in (-0.9, -0.1).

    ``iterate-slope`` converges in milliseconds.  With one per instance,
    about half of all tasks take under 0.15 s and the median task time
    falls in the gap between those and the rest, jumping from seed to seed.
    """
    tasks = []
    instances = _instances(rng, count, ((2, 2), (2, 3), (3, 3), (3, 2)))
    shapes = [rows.shape for _, rows, _ in instances]
    above = by_group(rng, shapes, 1.4, 1.8)
    below = by_group(rng, shapes, 0.5, 0.9)
    rhos = stratified(rng, (len(instances) + 1) // 2, -0.9, -0.1)
    for k, (name, rows, q) in enumerate(instances):
        base = _base(rows, q, name)
        info = mutual_info(rows, q)
        stop = 1.3 * info
        grid = {"start": 0.0, "stop": stop, "step": stop / 99.0}
        tasks.append(Task("curves", {**base, "params": {"rate_grid": grid}}, name, info))
        if shapes[k] != (3, 2):
            # Above capacity the exponent stays positive and the iteration
            # converges linearly: the long solver runs.
            rate = capacity(rows) * above[k]
        else:
            # Above capacity a 3x2 optimum drops an input and the iteration
            # converges sublinearly (over 1500 steps, 20 s, in probes), too
            # long for one run; below I(Q0 o P) the exponent is already zero.
            # Rates between I(Q0 o P) and capacity are left out on every
            # shape: there the exponent creeps to zero sublinearly, and one
            # probe ran 7463 steps (107 s).
            rate = info * below[k]
        tasks.append(Task("iterate-rate", {**base, "params": {"rate": rate}}, name, info))
        if k % 2:
            tasks.append(Task("iterate-slope", {**base, "params": {"rho": float(rhos[k // 2])}}, name, info))
    return tasks


# Blocklengths of the four ``exact`` runs per instance, by |X||Y|: the
# joint type count C(n + |X||Y| - 1, |X||Y| - 1) reaches 12k-24k at the top.
_EXACT_N = {4: (12, 20, 30, 40), 6: (9, 10, 11, 12), 9: (7, 7, 8, 9)}


def types_exact(rng: np.random.Generator, count: int) -> list[Task]:
    """Four ``exact`` runs per instance with n sized to the alphabet, and
    ``oracle`` at a rate below or above I(Q0 o P) on the anchors (|X||Y| = 4
    and 9) and on the first seeded instance (a 6-cell shape).

    One ``oracle`` run takes 2-5 s on 6 or 9 cells; three keep a pass short
    enough to repeat three times in a run, and keep ``oracle`` under two
    thirds of the workload's time.
    """
    tasks = []
    instances = _instances(rng, count, ((2, 3), (3, 2), (2, 2), (3, 3)))
    shapes = [rows.shape for _, rows, _ in instances]
    sides = by_group(rng, shapes, 0.0, 1.0)
    runs = len(_EXACT_N[4])
    rates = stratified(rng, runs * len(instances), 0.3, 1.2)
    deltas = stratified(rng, runs * len(instances), 0.02, 0.1)
    for k, (name, rows, q) in enumerate(instances):
        base = _base(rows, q, name)
        info = mutual_info(rows, q)
        if k < len(ANCHORS) + 1:
            u = sides[k]
            factor = 0.3 + 1.1 * u if u < 0.5 else 1.05 + 0.5 * (u - 0.5)
            tasks.append(Task("oracle", {**base, "params": {"rate": info * factor}}, name, info))
        for j, n in enumerate(rng.permutation(_EXACT_N[rows.size])):
            # The analyzer refuses codebooks beyond 2^30 = e^20.8 words.
            rate = min(info * float(rates[runs * k + j]), 20.0 / n)
            params = {"n": int(n), "rate": rate, "delta": float(deltas[runs * k + j])}
            tasks.append(Task("exact", {**base, "params": params}, name, info))
    return tasks


def _sim(base: dict, name: str, info: float, n: int, rate: float, blocks: int, rng) -> Task:
    params = {
        "n": int(n),
        "rate": float(rate),
        "delta": float(rng.uniform(0.02, 0.08)),
        "blocks": int(blocks),
        "seed": int(rng.integers(0, 2**31)),
    }
    return Task("simulate", {**base, "params": params}, name, info)


def class_count(r, support: int) -> int:
    """Competitor classes of one codeword for output counts ``r``."""
    out = 1
    for ry in r:
        out *= math.comb(int(ry) + support - 1, support - 1)
    return out


def cap_probe_n(rng: np.random.Generator) -> int:
    """A blocklength near the class cap for 3 inputs and 2 outputs.

    The balanced received type (n/2, n/2) exceeds the cap by a factor drawn
    in [1.2, 1.6], so the run stops with exit 4 once a block's received type
    is near balance.
    """
    target = rng.uniform(1.2, 1.6) * CLASS_CAP
    n = 2
    while class_count((n // 2, n - n // 2), 3) < target:
        n += 1
    return n


# Virtual path (binary input): blocklength range, blocks per task and rate
# factor range (times capacity) by |Y|.  A class table has about
# (n/|Y|)^|Y| classes, so |Y| = 3 runs shorter.
VIRTUAL = {2: ((100, 250), 75, (0.4, 0.7)), 3: ((100, 120), 20, (0.4, 0.7))}
# A fixed 2x3 config at capacity sets the workload's peak memory.  With
# delta = 0.5 no decoding margin passes delta, so Q never changes and the
# class tables cached for one Q pile up, one per distinct received type
# (about 10 MB each here).  Random configs pile up by chance, so without
# this one the peak moved by half from seed to seed.
MEMORY = ("memory_2x3", [[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]], [0.5, 0.5], 140, 12, 0.5)
# Literal path: n in [10, 18] with m = LITERAL_SYMBOLS / n codewords
# (6.7k-12k), so every literal block draws and scores about as many symbols.
LITERAL_N, LITERAL_SYMBOLS, LITERAL_BLOCKS = (10, 18), 120_000, 50


def nts_adapt(rng: np.random.Generator, count: int) -> list[Task]:
    """``simulate`` on the virtual path (binary input, n 100-250, e^{nR} far
    above the codebook cap), on the literal path (3 inputs, n 10-18, up to
    12k codewords), a fixed config that sets peak memory, the README config,
    and one cap probe."""
    tasks = []
    instances = _instances(rng, count, ((2, 2), (2, 3), (3, 2), (3, 3)))
    shapes = [rows.shape for _, rows, _ in instances]
    sizes = by_group(rng, shapes, 0.0, 1.0)
    factors = by_group(rng, shapes, 0.0, 1.0)
    for k, (name, rows, q) in enumerate(instances):
        base = _base(rows, q, name)
        info = mutual_info(rows, q)
        nx, ny = rows.shape
        if nx == 2:
            (lo, hi), blocks, (f_lo, f_hi) = VIRTUAL[ny]
            n = round(lo + (hi - lo) * sizes[k])
            # e^{nR} >= e^16 > 2^20, the codebook cap.
            rate = max(capacity(rows) * (f_lo + (f_hi - f_lo) * factors[k]), 16.0 / n)
        else:
            lo, hi = LITERAL_N
            n = round(lo + (hi - lo) * sizes[k])
            rate, blocks = math.log(LITERAL_SYMBOLS / n) / n, LITERAL_BLOCKS
        tasks.append(_sim(base, name, info, n, rate, blocks, rng))
    name, rows, q, n, blocks, delta = MEMORY
    rows, q = np.array(rows), np.array(q)
    memory = _sim(_base(rows, q, name), name, mutual_info(rows, q), n, capacity(rows), blocks, rng)
    memory.config["params"]["delta"] = delta
    tasks.append(memory)
    readme_rows, readme_q = np.array([[0.95, 0.05], [0.05, 0.95]]), np.array([0.9, 0.1])
    readme = _base(readme_rows, readme_q, "readme_bsc0.05")
    tasks.append(_sim(readme, "readme_bsc0.05", mutual_info(readme_rows, readme_q), 200, 0.25, VIRTUAL[2][1], rng))
    # Balanced outputs under uniform q0: the received type sits near the
    # balanced one, whose class count is over the cap.
    a = rng.uniform(0.05, 0.2)
    rows = np.array([[1.0 - a, a], [0.5, 0.5], [a, 1.0 - a]])
    q = np.full(3, 1.0 / 3.0)
    probe = _sim(_base(rows, q, "cap_probe_3x2"), "cap_probe_3x2", mutual_info(rows, q),
                 cap_probe_n(rng), rng.uniform(0.15, 0.3), 200, rng)
    probe.expect_exit = 4
    probe.expect_stderr = f"exceeds cap {CLASS_CAP}"
    tasks.append(probe)
    return tasks


_GENERATORS = {"closed_form": closed_form, "types_exact": types_exact, "nts_adapt": nts_adapt}


def make_tasks(workload: str, seed: int, count: int) -> list[Task]:
    """The seeded task list of ``workload`` with ``count`` random instances."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, count)
