#!/usr/bin/env python3
"""One-shot converter: RealSecure alert table -> flat alert-log CSV.

Reads a delimited export of RealSecure alerts (such as the LLDOS1.0 alert
tables redistributed with common alert-correlation toolkits) and writes the
CSV consumed by `hidpas aggregate` / `hidpas learn-plan`:

    timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type

Column names in the source are matched case-insensitively against common
spellings (EventName, SrcIPAddress, DestPort, BeginTime, ...). Timestamps
may be epoch seconds or `YYYY-MM-DD HH:MM:SS`; missing sensors default to
`realsecure`. Every whitespace character or comma inside a field becomes
`_`, so that each field is a token as the alert log requires; the converter
imports that character class from the `hidpas` package under `src/`. A
record whose time is unparseable or not finite (`nan`, `inf`), or whose
event name is empty, is skipped with its line named on stderr, since the
alert log rejects it.

Usage:
    python convert_realsecure_log.py --in alerts.tsv --out alert_log.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
from hidpas.core import NOT_TOKEN  # noqa: E402

COLUMN_ALIASES = {
    "timestamp": ("begintime", "starttime", "timestamp", "time", "ts", "date"),
    "sensor": ("sensorid", "sensor", "analyzer", "agent"),
    "src_ip": ("srcipaddress", "sourceip", "srcip", "src_ip", "source"),
    "src_port": ("srcport", "sourceport", "src_port", "sport"),
    "dst_ip": ("destipaddress", "destinationip", "dstip", "destip", "dst_ip",
               "target"),
    "dst_port": ("destport", "destinationport", "dstport", "dst_port", "dport"),
    "attack_type": ("eventname", "attacktype", "alertname", "signature",
                    "attack_type", "event"),
}

TIME_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y/%m/%d %H:%M:%S",
                "%m/%d/%Y %H:%M:%S", "%Y-%m-%dT%H:%M:%S")


def normalize(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


def map_columns(header: list[str]) -> dict[str, int]:
    normalized = [normalize(h) for h in header]
    mapping: dict[str, int] = {}
    for field, aliases in COLUMN_ALIASES.items():
        for alias in aliases:
            if alias in normalized:
                mapping[field] = normalized.index(alias)
                break
    required = ("timestamp", "src_ip", "dst_ip", "attack_type")
    missing = [f for f in required if f not in mapping]
    if missing:
        raise SystemExit(
            f"cannot locate columns for {missing} in header {header}"
        )
    return mapping


def parse_timestamp(raw: str) -> float:
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp {raw!r}")
        return value
    for fmt in TIME_FORMATS:
        try:
            return datetime.strptime(raw, fmt).replace(
                tzinfo=timezone.utc).timestamp()
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp {raw!r}")


def sniff_delimiter(sample: str) -> str:
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t|").delimiter
    except csv.Error:
        return ","


def convert(in_path: str, out_path: str) -> int:
    with open(in_path, newline="", encoding="utf-8", errors="replace") as fh:
        delimiter = sniff_delimiter(fh.read(4096))
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise SystemExit("input file is empty")
        mapping = map_columns(header)
        rows = []
        end = reader.line_num
        for rec in reader:
            # a quoted newline spans lines: name the line the record starts on
            lineno, end = end + 1, reader.line_num
            if not rec or all(not cell.strip() for cell in rec):
                continue
            try:
                ts = parse_timestamp(rec[mapping["timestamp"]])
            except (ValueError, IndexError) as exc:
                print(f"line {lineno}: skipped ({exc})", file=sys.stderr)
                continue

            def cell(field: str, default: str = "") -> str:
                idx = mapping.get(field)
                if idx is None or idx >= len(rec):
                    return default
                return NOT_TOKEN.sub("_", rec[idx].strip())

            if not cell("attack_type"):
                print(f"line {lineno}: skipped (no attack type)", file=sys.stderr)
                continue
            rows.append([
                f"{ts:.6f}".rstrip("0").rstrip("."),
                cell("sensor", "realsecure") or "realsecure",
                cell("src_ip"),
                cell("src_port"),
                cell("dst_ip"),
                cell("dst_port"),
                cell("attack_type"),
            ])

    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return len(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="in_path", required=True)
    parser.add_argument("--out", dest="out_path", required=True)
    args = parser.parse_args()
    count = convert(args.in_path, args.out_path)
    print(f"wrote {count} alerts to {args.out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
