"""Golden record of the learn-detector output.

`learn-detector --no-timestamp` runs on the scenario's detector training
file and on a KDD-shaped file generated here like the benchmark's
train-detector input (several attack labels, rates to 0.01, counts capped
at 511, trained on the 5-way category); the sha256 of each saved model
must equal the record in tests/data/detector_golden.json, which was written
before load_kdd read a file in one pass and gini_rank counted values by
class. Any change to one byte of a ranking, a rule or a model fails here.

    PYTHONPATH=src python tests/test_detector_golden.py   # prints the record
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from hidpas.cli import run_command
from hidpas.features import KDD_FEATURES, load_kdd

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# label -> (share of rows, {feature: value spec}); a spec is a tuple of
# categorical values drawn uniformly, or an inclusive integer range
# ("rate" in hundredths, "int" as is). Features not named draw the defaults.
DEFAULTS: dict[str, tuple] = {
    "protocol_type": ("tcp", "udp", "icmp"),
    "service": ("http", "smtp", "ftp_data", "domain_u", "private", "other"),
    "flag": ("SF", "SF", "SF", "REJ", "S0"),
    "logged_in": ("1", "0"),
    "src_bytes": ("int", 0, 3000),
    "dst_bytes": ("int", 0, 9000),
    "count": ("int", 0, 40),
    "srv_count": ("int", 0, 40),
    "serror_rate": ("rate", 0, 10),
    "rerror_rate": ("rate", 0, 10),
    "same_srv_rate": ("rate", 70, 100),
    "diff_srv_rate": ("rate", 0, 20),
    "dst_host_count": ("int", 0, 255),
    "dst_host_srv_count": ("int", 0, 255),
    "dst_host_same_srv_rate": ("rate", 0, 100),
    "dst_host_same_src_port_rate": ("rate", 0, 30),
    "dst_host_serror_rate": ("rate", 0, 10),
    "duration": ("int", 0, 60),
}
PROFILES: dict[str, tuple[float, dict[str, tuple]]] = {
    "normal": (0.60, {}),
    "neptune": (0.12, {"protocol_type": ("tcp",), "flag": ("S0", "REJ"),
                       "service": ("private", "other", "telnet"), "logged_in": ("0",),
                       "src_bytes": ("int", 0, 0), "count": ("int", 100, 511),
                       "serror_rate": ("rate", 80, 100),
                       "dst_host_serror_rate": ("rate", 60, 100)}),
    "smurf": (0.09, {"protocol_type": ("icmp",), "service": ("ecr_i",), "logged_in": ("0",),
                     "src_bytes": ("int", 520, 1032), "count": ("int", 400, 511),
                     "srv_count": ("int", 400, 511),
                     "dst_host_same_src_port_rate": ("rate", 80, 100)}),
    "back": (0.02, {"service": ("http",), "src_bytes": ("int", 5000, 9000)}),
    "portsweep": (0.05, {"flag": ("REJ", "RSTR"), "service": ("private", "eco_i"),
                         "rerror_rate": ("rate", 30, 100),
                         "dst_host_same_src_port_rate": ("rate", 50, 100),
                         "duration": ("int", 0, 511)}),
    "satan": (0.04, {"flag": ("REJ", "S0", "SF"), "diff_srv_rate": ("rate", 20, 90),
                     "rerror_rate": ("rate", 20, 100)}),
    "guess_passwd": (0.04, {"service": ("telnet", "ftp"), "logged_in": ("0",),
                            "src_bytes": ("int", 100, 130)}),
    "buffer_overflow": (0.04, {"service": ("telnet", "ftp_data"), "logged_in": ("1",),
                               "duration": ("int", 20, 300)}),
}
TEMPLATE = dict(zip((name for name, _ in KDD_FEATURES),
                    ("0", "tcp", "http", "SF") + ("0",) * 37))


def _draw(rng: np.random.Generator, spec: tuple) -> str:
    if spec[0] == "rate":
        hundredths = int(rng.integers(spec[1], spec[2] + 1))
        return "0" if hundredths == 0 else f"{hundredths / 100:.2f}"
    if spec[0] == "int":
        return str(int(rng.integers(spec[1], spec[2] + 1)))
    return spec[int(rng.integers(0, len(spec)))]


def bench_shaped_kdd(path: str, seed: int = 20091019, rows: int = 3000) -> None:
    """Labelled KDD rows from per-label profiles; values repeat, as they do
    in KDD files, so gini_rank groups many rows per value."""
    rng = np.random.default_rng(seed)
    labels = list(PROFILES)
    cumulative = np.cumsum([PROFILES[label][0] for label in labels])
    lines = []
    for _ in range(rows):
        label = labels[int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))]
        specs = {**DEFAULTS, **PROFILES[label][1]}
        cells = [_draw(rng, specs[name]) if name in specs else TEMPLATE[name]
                 for name, _ in KDD_FEATURES]
        lines.append(",".join(cells) + f",{label}.\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def detector_digest(data: str, work: str) -> str:
    """sha256 of the model `learn-detector` saves from data."""
    out = os.path.join(work, "detector.bn")
    assert run_command(["learn-detector", "--data", data, "--out", out,
                        "--label-granularity", "category", "--no-timestamp"]) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def record(work: str) -> dict[str, str]:
    bench_data = os.path.join(work, "bench_kdd.csv")
    bench_shaped_kdd(bench_data)
    inputs = {"scenario": os.path.join(DATA_DIR, "scenario", "detector_train.csv"),
              "bench-shaped": bench_data}
    return {name: detector_digest(data, work) for name, data in inputs.items()}


def test_learn_detector_output_matches_the_golden_record(tmp_path):
    with open(os.path.join(DATA_DIR, "detector_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert record(str(tmp_path)) == golden


def test_bench_shaped_kdd_has_the_benchmark_shape(tmp_path):
    path = str(tmp_path / "kdd.csv")
    bench_shaped_kdd(path)
    table = load_kdd(path)
    assert table.row_count == 3000
    assert len(table.column("attack_type")[0]) == len(PROFILES)
    rates = [c for n, c in zip(table.names, table.columns) if n.endswith("_rate")]
    assert all(np.allclose(c * 100, np.round(c * 100)) and len(np.unique(c)) <= 101
               for c in rates)
    assert 90 < len(np.unique(table.column("count"))) <= 512


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(sys.stderr):
        golden = record(work)
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()
