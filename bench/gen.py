"""Seeded planted-data generator for the benchmark.

Everything is drawn from a planted model, so the ground truth is known:

* KDD-shaped labelled connection rows from a planted class -> feature model
  over the 41 KDD features. Features the model does not mention keep the
  value of the feature template in tests/data/gen_fixtures.py.
* A connection stream with the `timestamp,src_ip,dst_ip` prefix, drawn from
  the same model. Its planted labels go to a separate file that the program
  never reads.
* A timestamped alert log made of attack episodes that walk a planted plan
  DAG, plus held-out episodes for replay and the planted edges.

Numeric values are quantized the way KDD Cup 1999 files are: rates to 0.01,
counts to integers capped at 511 (255 for the dst_host counts), byte counts
to integers. gini_rank groups values by exact equality, so the numeric
cardinality sets its cost; unquantized floats would make every value
distinct and time a different program.

write_dataset(seed, out) writes one data set; the benchmark calls it.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _feature_template() -> list[tuple[str, str]]:
    path = os.path.join(ROOT, "tests", "data", "gen_fixtures.py")
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.FEATURES)


@dataclass(frozen=True)
class GenParams:
    """Sizes and quantization of one generated data set."""

    train_rows: int = 50_000
    stream_records: int = 1_500
    plan_types: int = 150
    plan_group: int = 25
    plan_stages: int = 5
    train_episodes: int = 1200
    episode_gap_s: float = 120.0  # mean time between episode starts
    replay_steps: int = 25  # steps of the replayed episodes, one forecast each
    rate_step: float = 0.01  # KDD rates carry two decimals
    count_max: int = 511  # KDD count / srv_count are capped at 511


TINY = GenParams(train_rows=2_000, stream_records=100, plan_types=24,
                 train_episodes=120, replay_steps=15)

# Attack label -> (5-way category, share of traffic). About 40% is attack.
CLASSES = {
    "normal": ("normal", 0.60),
    "neptune": ("dos", 0.12),
    "smurf": ("dos", 0.09),
    "back": ("dos", 0.02),
    "portsweep": ("probe", 0.035),
    "satan": ("probe", 0.03),
    "ipsweep": ("probe", 0.03),
    "guess_passwd": ("r2l", 0.03),
    "warezclient": ("r2l", 0.035),
    "buffer_overflow": ("u2r", 0.01),
}

SERVICES = (
    "http", "smtp", "ftp", "ftp_data", "telnet", "pop_3", "imap4", "domain",
    "domain_u", "private", "ecr_i", "eco_i", "finger", "auth", "ssh", "time",
    "whois", "sunrpc", "netbios_ns", "netbios_dgm", "netbios_ssn", "ldap",
    "uucp", "nntp", "gopher", "courier", "csnet_ns", "ctf", "daytime",
    "discard", "echo", "exec", "hostnames", "http_443", "iso_tsap", "klogin",
    "kshell", "link", "login", "mtp", "name", "other", "remote_job", "rje",
    "shell",
)


def _mix(**weights: float) -> tuple[tuple[str, ...], np.ndarray]:
    names = tuple(weights)
    w = np.array([weights[n] for n in names], dtype=float)
    return names, w / w.sum()


def _uniform_services() -> tuple[tuple[str, ...], np.ndarray]:
    return SERVICES, np.full(len(SERVICES), 1.0 / len(SERVICES))


# Per-class planted feature distributions. Specs:
#   ("cat", (values, probs))          categorical draw
#   ("rate", mean, concentration)     Beta, quantized to rate_step
#   ("count", mean, sd, cap)          rounded normal clipped to [0, cap]
#   ("bytes", log_mean, log_sd)       rounded log-normal
#   ("flag", p)                       1 with probability p, else 0
_NORMAL_SERVICES = _mix(http=40, smtp=12, ftp_data=8, domain_u=10, private=6,
                        ftp=3, telnet=2, pop_3=2, ssh=2, auth=2, finger=1,
                        other=3, ecr_i=1, imap4=1)
PROFILES: dict[str, dict[str, tuple]] = {
    "normal": {
        "protocol_type": ("cat", _mix(tcp=75, udp=20, icmp=5)),
        "service": ("cat", _NORMAL_SERVICES),
        "flag": ("cat", _mix(SF=92, REJ=3, S0=1, RSTO=2, S1=1, RSTR=1)),
        "src_bytes": ("bytes", 5.5, 1.2),
        "dst_bytes": ("bytes", 7.0, 1.0),
        "logged_in": ("cat", _mix(**{"1": 72, "0": 28})),
        "count": ("count", 8, 10, 511),
        "srv_count": ("count", 10, 12, 511),
        "serror_rate": ("rate", 0.01, 40),
        "srv_serror_rate": ("rate", 0.01, 40),
        "rerror_rate": ("rate", 0.03, 30),
        "same_srv_rate": ("rate", 0.95, 20),
        "diff_srv_rate": ("rate", 0.04, 25),
        "dst_host_count": ("count", 150, 90, 255),
        "dst_host_srv_count": ("count", 190, 70, 255),
        "dst_host_same_srv_rate": ("rate", 0.6, 1.5),
        "dst_host_diff_srv_rate": ("rate", 0.04, 20),
        "dst_host_same_src_port_rate": ("rate", 0.1, 5),
        "dst_host_serror_rate": ("rate", 0.01, 40),
        "dst_host_rerror_rate": ("rate", 0.04, 20),
        "duration": ("count", 0, 40, 511),
        "hot": ("flag", 0.03),
    },
    "neptune": {
        "protocol_type": ("cat", _mix(tcp=100)),
        "service": ("cat", _mix(private=60, http=4, telnet=4, ftp_data=4,
                                other=8, finger=3, ldap=3, csnet_ns=3,
                                daytime=3, discard=3, echo=3, ctf=2)),
        "flag": ("cat", _mix(S0=60, REJ=25, SF=15)),
        "src_bytes": ("bytes", 0.0, 0.05),
        "dst_bytes": ("bytes", 0.0, 0.05),
        "logged_in": ("cat", _mix(**{"0": 99, "1": 1})),
        "count": ("count", 100, 200, 511),
        "srv_count": ("count", 12, 8, 511),
        "serror_rate": ("rate", 0.95, 40),
        "srv_serror_rate": ("rate", 0.5, 1),
        "rerror_rate": ("rate", 0.1, 10),
        "same_srv_rate": ("rate", 0.06, 12),
        "diff_srv_rate": ("rate", 0.06, 12),
        "dst_host_count": ("count", 250, 10, 255),
        "dst_host_srv_count": ("count", 14, 10, 255),
        "dst_host_same_srv_rate": ("rate", 0.05, 12),
        "dst_host_diff_srv_rate": ("rate", 0.07, 12),
        "dst_host_serror_rate": ("rate", 0.5, 1),
        "dst_host_rerror_rate": ("rate", 0.1, 10),
    },
    "smurf": {
        "protocol_type": ("cat", _mix(icmp=100)),
        "service": ("cat", _mix(ecr_i=97, eco_i=2, other=1)),
        "flag": ("cat", _mix(SF=100)),
        "src_bytes": ("bytes", 6.9, 0.3),
        "logged_in": ("cat", _mix(**{"0": 100})),
        "count": ("count", 480, 60, 511),
        "srv_count": ("count", 480, 60, 511),
        "same_srv_rate": ("rate", 0.98, 40),
        "dst_host_count": ("count", 250, 10, 255),
        "dst_host_srv_count": ("count", 250, 10, 255),
        "dst_host_same_srv_rate": ("rate", 0.97, 40),
        "dst_host_same_src_port_rate": ("rate", 0.95, 30),
    },
    "back": {
        "service": ("cat", _mix(http=100)),
        "src_bytes": ("bytes", 8.5, 0.2),
        "dst_bytes": ("bytes", 8.5, 0.3),
        "hot": ("flag", 0.9),
        "count": ("count", 5, 4, 511),
        "srv_count": ("count", 5, 4, 511),
        "dst_host_count": ("count", 200, 60, 255),
        "dst_host_srv_count": ("count", 200, 60, 255),
    },
    "portsweep": {
        "protocol_type": ("cat", _mix(tcp=95, icmp=5)),
        "service": ("cat", _mix(private=85, other=10, eco_i=5)),
        "flag": ("cat", _mix(REJ=45, RSTR=35, SF=10, S0=10)),
        "src_bytes": ("bytes", 0.0, 0.1),
        "logged_in": ("cat", _mix(**{"0": 100})),
        "count": ("count", 2, 2, 511),
        "srv_count": ("count", 2, 2, 511),
        "rerror_rate": ("rate", 0.5, 3),
        "same_srv_rate": ("rate", 0.5, 3),
        "diff_srv_rate": ("rate", 0.3, 4),
        "dst_host_count": ("count", 100, 90, 255),
        "dst_host_srv_count": ("count", 3, 3, 255),
        "dst_host_same_srv_rate": ("rate", 0.1, 5),
        "dst_host_diff_srv_rate": ("rate", 0.4, 4),
        "dst_host_same_src_port_rate": ("rate", 0.8, 5),
        "dst_host_rerror_rate": ("rate", 0.6, 4),
        "duration": ("count", 400, 600, 511),
    },
    "satan": {
        "protocol_type": ("cat", _mix(tcp=85, udp=10, icmp=5)),
        "service": ("cat", _uniform_services()),
        "flag": ("cat", _mix(REJ=55, S0=15, SF=20, RSTO=10)),
        "src_bytes": ("bytes", 0.5, 1.0),
        "logged_in": ("cat", _mix(**{"0": 97, "1": 3})),
        "count": ("count", 60, 60, 511),
        "srv_count": ("count", 5, 5, 511),
        "rerror_rate": ("rate", 0.7, 4),
        "same_srv_rate": ("rate", 0.1, 6),
        "diff_srv_rate": ("rate", 0.6, 4),
        "dst_host_count": ("count", 220, 40, 255),
        "dst_host_srv_count": ("count", 8, 6, 255),
        "dst_host_same_srv_rate": ("rate", 0.05, 10),
        "dst_host_diff_srv_rate": ("rate", 0.6, 4),
        "dst_host_rerror_rate": ("rate", 0.7, 4),
    },
    "ipsweep": {
        "protocol_type": ("cat", _mix(icmp=90, tcp=10)),
        "service": ("cat", _mix(eco_i=85, ecr_i=5, private=5, other=5)),
        "flag": ("cat", _mix(SF=95, REJ=5)),
        "src_bytes": ("bytes", 2.5, 0.8),
        "logged_in": ("cat", _mix(**{"0": 100})),
        "count": ("count", 2, 2, 511),
        "srv_count": ("count", 20, 15, 511),
        "same_srv_rate": ("rate", 0.9, 8),
        "srv_diff_host_rate": ("rate", 0.7, 4),
        "dst_host_count": ("count", 40, 40, 255),
        "dst_host_srv_count": ("count", 40, 40, 255),
        "dst_host_same_srv_rate": ("rate", 0.9, 8),
        "dst_host_same_src_port_rate": ("rate", 0.9, 8),
        "dst_host_srv_diff_host_rate": ("rate", 0.5, 3),
    },
    "guess_passwd": {
        "service": ("cat", _mix(telnet=70, pop_3=20, imap4=5, ftp=5)),
        "flag": ("cat", _mix(SF=85, RSTO=15)),
        "src_bytes": ("bytes", 4.7, 0.3),
        "dst_bytes": ("bytes", 4.9, 0.4),
        "logged_in": ("cat", _mix(**{"0": 95, "1": 5})),
        "num_failed_logins": ("flag", 0.95),
        "count": ("count", 1, 1, 511),
        "srv_count": ("count", 1, 1, 511),
        "dst_host_count": ("count", 60, 60, 255),
        "dst_host_srv_count": ("count", 20, 20, 255),
        "dst_host_same_srv_rate": ("rate", 0.4, 3),
        "duration": ("count", 3, 3, 511),
    },
    "warezclient": {
        "service": ("cat", _mix(ftp_data=65, ftp=35)),
        "flag": ("cat", _mix(SF=100)),
        "src_bytes": ("bytes", 7.5, 0.8),
        "dst_bytes": ("bytes", 1.0, 1.5),
        "is_guest_login": ("cat", _mix(**{"1": 80, "0": 20})),
        "hot": ("flag", 0.8),
        "count": ("count", 1, 1, 511),
        "srv_count": ("count", 1, 1, 511),
        "dst_host_count": ("count", 80, 70, 255),
        "dst_host_srv_count": ("count", 30, 30, 255),
        "dst_host_same_src_port_rate": ("rate", 0.5, 3),
        "duration": ("count", 200, 150, 511),
    },
    "buffer_overflow": {
        "service": ("cat", _mix(telnet=80, ftp_data=10, login=10)),
        "flag": ("cat", _mix(SF=100)),
        "src_bytes": ("bytes", 7.0, 1.0),
        "dst_bytes": ("bytes", 8.0, 1.0),
        "hot": ("flag", 0.7),
        "root_shell": ("flag", 0.7),
        "num_file_creations": ("flag", 0.4),
        "count": ("count", 1, 1, 511),
        "srv_count": ("count", 1, 1, 511),
        "dst_host_count": ("count", 30, 40, 255),
        "dst_host_srv_count": ("count", 20, 30, 255),
        "duration": ("count", 100, 100, 511),
    },
}


def _draw(spec: tuple, n: int, rng: np.random.Generator, params: GenParams) -> np.ndarray:
    kind = spec[0]
    if kind == "cat":
        values, probs = spec[1]
        return np.asarray(values, dtype=object)[rng.choice(len(values), size=n, p=probs)]
    if kind == "rate":
        mean, conc = spec[1], spec[2]
        x = rng.beta(max(mean * conc, 1e-3), max((1 - mean) * conc, 1e-3), size=n)
        return np.round(x / params.rate_step) * params.rate_step
    if kind == "count":
        mean, sd, cap = spec[1], spec[2], min(spec[3], params.count_max)
        return np.clip(np.rint(rng.normal(mean, sd, size=n)), 0, cap)
    if kind == "bytes":
        return np.rint(np.exp(rng.normal(spec[1], spec[2], size=n)) - 1).clip(0)
    if kind == "flag":
        return (rng.random(n) < spec[1]).astype(float)
    raise ValueError(f"unknown spec kind {kind!r}")


def _format_column(values: np.ndarray, numeric: bool) -> list[str]:
    if not numeric:
        return values.astype(str).tolist()
    # quantized values repeat, so format each distinct one once; rounding
    # to 0.01 clears float noise, + 0.0 turns -0.0 into 0.0
    distinct, inverse = np.unique(np.round(values.astype(float), 2) + 0.0,
                                  return_inverse=True)
    return np.array([f"{v:.10g}" for v in distinct], dtype=object)[inverse].tolist()


def connection_rows(n: int, rng: np.random.Generator, params: GenParams
                    ) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """n rows of 41 KDD feature strings plus each row's planted attack label."""
    from hidpas.features import KDD_FEATURES, NUMERIC

    template = dict(_feature_template())
    labels = list(CLASSES)
    shares = np.array([CLASSES[c][1] for c in labels])
    label_idx = rng.choice(len(labels), size=n, p=shares / shares.sum())
    columns = []
    for name, kind in KDD_FEATURES:
        numeric = kind == NUMERIC
        col = np.empty(n, dtype=object)
        col[:] = float(template[name]) if numeric else template[name]
        for c, label in enumerate(labels):
            spec = PROFILES[label].get(name) or PROFILES["normal"].get(name)
            rows = np.flatnonzero(label_idx == c)
            if spec is not None and len(rows):
                col[rows] = _draw(spec, len(rows), rng, params)
        columns.append(_format_column(col, numeric))
    return list(zip(*columns)), np.asarray(labels, dtype=object)[label_idx]


# -- attack plans ---------------------------------------------------------------

def plan_dag(rng: np.random.Generator, params: GenParams) -> tuple[list[str], list[tuple[int, int]], list[int]]:
    """Attack-step types split into scenarios of plan_group types each.

    Inside a scenario the types form plan_stages layers, and every type past
    the first layer has two parents in the layer before it, so moralizing
    joins each layer's types into wide cliques. Returns the type names, the
    planted edges and the types an episode may start from.
    """
    names = [f"step{t:03d}" for t in range(params.plan_types)]
    edges = []
    starts = []
    groups = np.array_split(np.arange(params.plan_types),
                            max(1, params.plan_types // params.plan_group))
    for group in groups:
        stages = np.array_split(group, params.plan_stages)
        starts += [int(t) for t in stages[0]]
        for layer, nxt in zip(stages, stages[1:]):
            for child in nxt:
                parents = rng.choice(layer, size=min(2, len(layer)), replace=False)
                edges += [(int(p), int(child)) for p in parents]
    return names, edges, starts


# The plan DAG and the alert log learned from it do not follow the seed:
# K2's structure, and with it the junction-tree cost of every forecast,
# varies up to 1.6x between sampled logs, which would swamp the code's own
# cost. The seed draws the replayed episodes, the connection rows and the
# stream.
PLAN_SEED = 20090927
SENSORS = ("ids1", "ids2", "ids3")
PORTS = ("21", "22", "23", "25", "53", "80", "110", "139", "443", "445", "3306", "8080")


def episode(rng: np.random.Generator, successors: list[list[int]], starts: list[int],
            t0: float, attackers: int, go_on: float = 0.85,
            alerts_per_step: tuple[int, int] = (1, 3)) -> tuple[list[int], list[list[str]]]:
    """One walk down the plan DAG and the alerts its steps raise.

    The walk takes a next step with probability go_on; each step raises
    between alerts_per_step[0] and alerts_per_step[1] alerts.
    """
    step = int(rng.choice(starts))
    steps = [step]
    while successors[step] and rng.random() < go_on:
        step = int(rng.choice(successors[step]))
        steps.append(step)
    attacker = f"10.0.0.{int(rng.integers(1, attackers + 1))}"
    victim = f"192.168.1.{int(rng.integers(10, 30))}"
    sensor = SENSORS[int(rng.integers(len(SENSORS)))]
    alerts = []
    t = t0
    for s in steps:
        dst_port = PORTS[s % len(PORTS)]
        for _ in range(int(rng.integers(alerts_per_step[0], alerts_per_step[1] + 1))):
            src_port = str(1024 + int(rng.integers(0, 16)))
            alerts.append([f"{t:.1f}", sensor, attacker, src_port, victim, dst_port,
                           f"step{s:03d}"])
            t += float(rng.uniform(0.5, 4.0))
        t += float(rng.uniform(5.0, 40.0))
    return steps, alerts


def write_dataset(seed: int, out: str, params: GenParams = GenParams()) -> dict:
    """Write every input file for one seed into out; returns the file map."""
    os.makedirs(out, exist_ok=True)
    rng_train, rng_stream, rng_replay = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    rng_plan = np.random.default_rng(PLAN_SEED)
    files = {k: os.path.join(out, v) for k, v in (
        ("train", "train.csv"), ("stream", "stream.csv"),
        ("stream_labels", "stream_labels.txt"), ("alerts", "alerts.csv"),
        ("replay", "replay.json"), ("plan_truth", "plan_truth.json"),
        ("params", "params.json"))}
    with open(os.path.join(out, "files.json"), "w", encoding="utf-8") as fh:
        json.dump(files, fh)

    rows, labels = connection_rows(params.train_rows, rng_train, params)
    with open(files["train"], "w", encoding="utf-8") as fh:
        fh.writelines(",".join(r) + f",{lab}.\n" for r, lab in zip(rows, labels))

    rows, labels = connection_rows(params.stream_records, rng_stream, params)
    # strictly increasing millisecond stamps identify each record's alert
    ts_ms = np.cumsum(rng_stream.integers(1, 1000, size=len(rows)))
    src = rng_stream.integers(2, 250, size=len(rows))
    with open(files["stream"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{t / 1000:.3f},172.16.0.{s},192.168.1.10," + ",".join(r) + "\n"
                      for t, s, r in zip(ts_ms, src, rows))
    with open(files["stream_labels"], "w", encoding="utf-8") as fh:
        fh.writelines(CLASSES[lab][0] + "\n" for lab in labels)

    names, edges, starts = plan_dag(rng_plan, params)
    successors: list[list[int]] = [[] for _ in names]
    for a, b in edges:
        successors[a].append(b)
    log_rows = []
    t0 = 0.0
    for _ in range(params.train_episodes):
        t0 += float(rng_plan.exponential(params.episode_gap_s))
        log_rows += episode(rng_plan, successors, starts, t0, attackers=12)[1]
    log_rows.sort(key=lambda r: float(r[0]))
    with open(files["alerts"], "w", encoding="utf-8") as fh:
        fh.write("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n")
        fh.writelines(",".join(r) + "\n" for r in log_rows)

    # Replayed episodes walk as far as the DAG goes and raise two alerts per
    # step; the last is cut so that every seed replays replay_steps steps.
    replay = []
    left = params.replay_steps
    while left > 0:
        steps, alerts = episode(rng_replay, successors, starts, 0.0, attackers=16,
                                go_on=1.0, alerts_per_step=(2, 2))
        steps, alerts = steps[:left], alerts[:2 * left]
        left -= len(steps)
        replay.append({"steps": [names[s] for s in steps], "alerts": alerts})
    with open(files["replay"], "w", encoding="utf-8") as fh:
        json.dump(replay, fh)
    with open(files["plan_truth"], "w", encoding="utf-8") as fh:
        json.dump([[names[a], names[b]] for a, b in edges], fh)
    with open(files["params"], "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, **asdict(params)}, fh, indent=1)
    return files

