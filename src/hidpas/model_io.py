"""Versioned text persistence for networks and the models that wrap them.

Layout:
    HIDPAS-BN v1
    VARIABLES            one `<id> <name> <state,...>` line per variable
    EDGES                one `<parent_id> -> <child_id>` line per edge
    CPT <var_id>         one `(cfg) : p0 p1 ...` line per parent config

Model wrappers append their own sections (DETECTOR/RULES, CLASSIFIER, PLAN)
after the network. `#` starts a comment; files are UTF-8.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, Iterator, Mapping

import numpy as np

from .core import (
    NOT_TOKEN,
    PARAMS,
    BayesNet,
    DataError,
    Dag,
    Variable,
    open_output,
    open_text,
    parent_configurations,
    validate_network,
)
from .features import format_rules, parse_rules
from .possibility import TRANSFORM_BUDGET

FORMAT_HEADER = "HIDPAS-BN v1"


def _check_token(kind: str, value: str) -> str:
    if not value or NOT_TOKEN.search(value):
        raise ValueError(f"{kind} {value!r} must be nonempty without spaces or commas")
    return value


def format_network(net: BayesNet, timestamp: bool = True) -> str:
    lines = [FORMAT_HEADER]
    if timestamp:
        lines.append(f"# generated {_dt.datetime.now().isoformat(timespec='seconds')}")
    lines.append("VARIABLES")
    for var in net.dag.variables:
        _check_token("variable name", var.name)
        states = ",".join(_check_token("state label", s) for s in var.states)
        lines.append(f"{var.id} {var.name} {states}")
    lines.append("EDGES")
    for child, parents in enumerate(net.dag.parents):
        for p in parents:
            lines.append(f"{p} -> {child}")
    rows = _spelled_rows([net.cpts[var.id] for var in net.dag.variables])
    for var in net.dag.variables:
        lines.append(f"CPT {var.id}")
        # configurations first: zip stops at their end without taking a row
        for cfg, row in zip(parent_configurations(net, var.id), rows):
            lines.append(f"{_config_label(cfg)} : {row}")
    return "\n".join(lines) + "\n"


def _spelled_rows(tables: list[np.ndarray]) -> Iterator[str]:
    """The rows of the tables, in order, as `p0 p1 ...`, each value spelled
    `%.12g`.

    Rows go in blocks of about TRANSFORM_BUDGET entries, across tables. Each
    distinct float64 bit pattern is spelled once (so -0.0 and 0.0 keep their
    own spellings), and a block's rows are joined by index into its
    patterns."""
    pieces = []
    for table in tables:
        table = np.ascontiguousarray(table, dtype=np.float64)
        step = max(1, TRANSFORM_BUDGET // table.shape[1])
        pieces += [table[s:s + step] for s in range(0, len(table), step)]
    pieces.reverse()  # taken from the end
    spelled: dict[int, str] = {}
    while pieces:
        block = [pieces.pop()]
        size = block[0].size
        while pieces and size + pieces[-1].size <= TRANSFORM_BUDGET:
            block.append(pieces.pop())
            size += block[-1].size
        bits, index = np.unique(np.concatenate([p.view(np.uint64).ravel() for p in block]),
                                return_inverse=True)
        words = []
        for b, value in zip(bits.tolist(), bits.view(np.float64).tolist()):
            word = spelled.get(b)
            if word is None:
                word = spelled[b] = f"{value:.12g}"
            words.append(word)
        start = 0
        for piece in block:
            for row in index[start:start + piece.size].reshape(piece.shape).tolist():
                yield " ".join([words[i] for i in row])
            start += piece.size


def _config_label(cfg: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in cfg) + ")"


def _write(path: str, text: str) -> None:
    with open_output(path) as fh:
        fh.write(text)


def _read_sections(text: str, path: str) -> list[tuple[str, list[str]]]:
    """Split into (section header, body lines); comments and blanks dropped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != FORMAT_HEADER:
        raise DataError(f"{path}: missing '{FORMAT_HEADER}' header")
    sections: list[tuple[str, list[str]]] = []
    headers: set[str] = set()
    for ln in lines[1:]:
        head = ln.split(None, 1)
        if head and head[0] in ("VARIABLES", "EDGES", "CPT", "DETECTOR",
                                "RULES", "CLASSIFIER", "PLAN"):
            if ln in headers:
                raise DataError(f"{path}: duplicate section {ln!r}")
            headers.add(ln)
            sections.append((ln, []))
        elif not sections:
            raise DataError(f"{path}: content before first section: {ln!r}")
        else:
            sections[-1][1].append(ln)
    return sections


def _parse_id(token: str) -> int:
    """A variable id as format_network writes it: decimal digits, no sign or leading 0."""
    if not (token.isascii() and token.isdigit()) or token != str(int(token)):
        raise ValueError(f"bad id {token!r}")
    return int(token)


def _parse_row(values: str, known: dict[str, float]) -> list[float]:
    """A CPT row's probabilities, each spelled as format_network writes it
    (%.12g); another spelling would not survive a save, and raises
    ValueError. known maps each entry already read to its value, so each
    distinct one is checked once."""
    row = []
    for token in values.split(" "):
        value = known.get(token)
        if value is None:
            value = float(token)
            if f"{value:.12g}" != token:
                raise ValueError(f"bad probability {token!r}")
            known[token] = value
        row.append(value)
    return row


def parse_network(text: str, path: str = "<string>") -> tuple[BayesNet, dict[str, list[str]]]:
    """Parse and validate the network sections; returns the net plus any extra
    sections.

    Fields are separated by single spaces, ids and probabilities are spelled
    as format_network spells them (no sign or leading zero on an id; 12
    significant digits in %g form for a probability, so `0.50` and `1.0` are
    rejected), and each CPT row is labelled with its parent configuration in
    order, so a net that loads saves back to the same lines. A malformed
    line, a duplicate section, or a net that breaks an invariant of
    validate_network raises DataError naming the path."""
    sections = _read_sections(text, path)
    variables: list[Variable] = []
    edges: list[tuple[int, int, str]] = []  # (parent, child, line)
    cpt_lines: dict[int, list[str]] = {}
    extras: dict[str, list[str]] = {}

    for header, body in sections:
        parts = header.split(" ")
        if header == "VARIABLES":
            for ln in body:
                try:
                    vid_s, name, states_s = ln.split(" ")
                    states = tuple(_check_token("state label", s) for s in states_s.split(","))
                    variables.append(Variable(_parse_id(vid_s),
                                              _check_token("variable name", name), states))
                except ValueError:
                    raise DataError(f"{path}: bad variable line {ln!r}") from None
        elif header == "EDGES":
            for ln in body:
                try:
                    p_s, arrow, c_s = ln.split(" ")
                    if arrow != "->":
                        raise ValueError
                    edges.append((_parse_id(p_s), _parse_id(c_s), ln))
                except ValueError:
                    raise DataError(f"{path}: bad edge line {ln!r}") from None
        elif parts[0] == "CPT":
            try:
                [vid] = [_parse_id(x) for x in parts[1:]]
            except ValueError:
                raise DataError(f"{path}: bad CPT header {header!r}") from None
            cpt_lines[vid] = body
        else:
            extras[parts[0]] = body

    variables.sort(key=lambda v: v.id)
    if [v.id for v in variables] != list(range(len(variables))):
        raise DataError(f"{path}: variable ids must be 0..n-1 without gaps")
    unknown = sorted(set(cpt_lines) - set(range(len(variables))))
    if unknown:
        raise DataError(f"{path}: CPT section for unknown variable {unknown[0]}")
    parent_lists: list[list[int]] = [[] for _ in variables]
    for parent, child, ln in edges:
        if not (0 <= parent < len(variables) and 0 <= child < len(variables)):
            raise DataError(f"{path}: edge names an unknown variable: {ln!r}")
        parent_lists[child].append(parent)
    cpts = []
    labels: list[list[str]] = []
    known: dict[str, float] = {}
    for var in variables:
        if var.id not in cpt_lines:
            raise DataError(f"{path}: no CPT section for variable {var.id}")
        rows: list[list[float]] = []
        labels.append([])
        for ln in cpt_lines[var.id]:
            label, sep, values = ln.partition(" : ")
            try:
                if not sep:
                    raise ValueError
                row = _parse_row(values, known)
            except ValueError:
                raise DataError(f"{path}: bad CPT line {ln!r}") from None
            if len(row) != var.arity:
                raise DataError(f"{path}: CPT {var.id} line {ln!r} has {len(row)} "
                                f"values for {var.arity} states")
            rows.append(row)
            labels[-1].append(label)
        cpts.append(np.array(rows, dtype=float).reshape(len(rows), var.arity))
    net = BayesNet(Dag(variables, parent_lists), cpts)
    violations = validate_network(net)
    if violations:
        raise DataError(f"{path}: invalid network: {violations[0]}")
    for var, var_labels in zip(variables, labels):
        for label, cfg in zip(var_labels, parent_configurations(net, var.id)):
            if label != _config_label(cfg):
                raise DataError(f"{path}: CPT {var.id} row labelled {label!r} where "
                                f"{_config_label(cfg)!r} belongs")
    return net, extras


def _read_file(path: str) -> str:
    with open_text(path) as fh:
        return fh.read()


def _section(extras: dict[str, list[str]], path: str, section: str,
             parsers: Mapping[str, Callable[[str], object]],
             repeated: str | None = None) -> dict[str, object]:
    """Fields of a model section: `key value` lines, each value read by
    parsers[key]. Every key occurs once, except that lines of the repeated
    key gather into a list. An unknown key, a bad value, or a missing or
    doubled key raises DataError naming the path and the line or key."""
    if section not in extras:
        raise DataError(f"{path}: no {section} section")
    found: dict[str, list] = {key: [] for key in parsers}
    for ln in extras[section]:
        key, _, value = ln.partition(" ")
        try:
            if key not in parsers:
                raise ValueError(f"unknown key {key!r}")
            found[key].append(parsers[key](value))
        except ValueError as exc:
            raise DataError(f"{path}: bad {section} line {ln!r}: {exc}") from None
    fields: dict[str, object] = {}
    for key, values in found.items():
        if key == repeated:
            fields[key] = values
        elif len(values) != 1:
            raise DataError(f"{path}: {section} needs one {key!r} line, not {len(values)}")
        else:
            fields[key] = values[0]
    return fields


def _class_var(net: BayesNet) -> Callable[[str], int]:
    return lambda token: net.variable(_parse_id(token)).id


# -- detector ---------------------------------------------------------------

def format_detector(model, timestamp: bool = True) -> str:
    text = format_network(model.net, timestamp)
    meta = [
        "DETECTOR",
        f"class_var {model.class_var}",
        f"tau {model.tau!r}",
        f"features {','.join(model.features)}",
        "RULES",
        format_rules(model.rules).rstrip("\n"),
    ]
    return text + "\n".join(meta) + "\n"


def save_detector(model, path: str, timestamp: bool = True) -> None:
    _write(path, format_detector(model, timestamp))


def load_detector(path: str):
    from .detection import DetectorModel

    net, extras = parse_network(_read_file(path), path)
    fields = _section(extras, path, "DETECTOR", {
        "class_var": _class_var(net),
        "tau": PARAMS["tau"].read,
        "features": lambda token: tuple(token.split(",")) if token else (),
    })
    features = fields.pop("features")
    try:
        rules = parse_rules("\n".join(extras.get("RULES", [])))
        model = DetectorModel(rules=rules, net=net, **fields)
    except ValueError as exc:  # bad rules, or a feature the model cannot read
        raise DataError(f"{path}: {exc}") from None
    if features != model.features:
        raise DataError(f"{path}: features {','.join(features)!r} must list the net's variables "
                        f"other than class_var in id order: {','.join(model.features)!r}")
    return model


# -- alert classifier ---------------------------------------------------------

def format_classifier(model, timestamp: bool = True) -> str:
    text = format_network(model.net, timestamp)
    meta = ["CLASSIFIER", f"class_var {model.class_var}", f"tau {model.tau!r}"]
    return text + "\n".join(meta) + "\n"


def save_classifier(model, path: str, timestamp: bool = True) -> None:
    _write(path, format_classifier(model, timestamp))


def load_classifier(path: str):
    from .prediction import AlertClassifierModel

    net, extras = parse_network(_read_file(path), path)
    fields = _section(extras, path, "CLASSIFIER",
                      {"class_var": _class_var(net), "tau": PARAMS["tau"].read})
    try:
        return AlertClassifierModel(net=net, **fields)
    except ValueError as exc:  # an attribute field the net lacks, or the class variable
        raise DataError(f"{path}: {exc}") from None


# -- plan model ---------------------------------------------------------------

def format_plan(model, timestamp: bool = True) -> str:
    text = format_network(model.net, timestamp)
    meta = ["PLAN", f"tau {model.tau!r}"]
    for vid, name in enumerate(model.hyper_names):
        meta.append(f"hyper {vid} {name}")
    return text + "\n".join(meta) + "\n"


def save_plan(model, path: str, timestamp: bool = True) -> None:
    _write(path, format_plan(model, timestamp))


def load_plan(path: str):
    from .prediction import PlanModel

    net, extras = parse_network(_read_file(path), path)

    def hyper(value: str) -> int:
        vid_s, name = value.split(" ")
        var = net.variable(_parse_id(vid_s))
        if name != var.name:
            raise ValueError(f"variable {var.id} is named {var.name!r}")
        return var.id

    fields = _section(extras, path, "PLAN", {"tau": PARAMS["tau"].read, "hyper": hyper},
                      repeated="hyper")
    if sorted(fields["hyper"]) != list(range(len(net.dag.variables))):
        raise DataError(f"{path}: PLAN needs one hyper line per variable, "
                        f"ids 0..{len(net.dag.variables) - 1}")
    try:
        return PlanModel(net=net, tau=fields["tau"])
    except ValueError as exc:  # states other than absent,present
        raise DataError(f"{path}: {exc}") from None
