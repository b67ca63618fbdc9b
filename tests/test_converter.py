import importlib.util
import os
import sys

import pytest

CONVERTER = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                         "convert_realsecure_log.py")


def load_converter():
    spec = importlib.util.spec_from_file_location("convert_realsecure_log", CONVERTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_converter_maps_common_realsecure_headers(tmp_path):
    conv = load_converter()
    src = tmp_path / "rs.tsv"
    src.write_text(
        "EventID\tEventName\tBeginTime\tSrcIPAddress\tSrcPort\t"
        "DestIPAddress\tDestPort\tSensorID\n"
        "1\tSadmind_Ping\t2000-04-07 08:49:35\t202.77.162.213\t53327\t"
        "172.16.112.10\t32773\tRealSecure-1\n"
        "2\tEmail Ehlo\t952418976\t172.16.113.84\t43477\t172.16.112.50\t25\t\n"
    )
    out = tmp_path / "alerts.csv"
    count = conv.convert(str(src), str(out))
    assert count == 2
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp,sensor,src_ip,src_port,dst_ip,dst_port,attack_type"
    first = lines[1].split(",")
    assert first[1] == "RealSecure-1"
    assert first[2] == "202.77.162.213"
    assert first[6] == "Sadmind_Ping"
    second = lines[2].split(",")
    assert second[0] == "952418976"
    assert second[1] == "realsecure"  # missing sensor gets the default
    assert second[6] == "Email_Ehlo"  # spaces sanitized for the flat format

    from hidpas.prediction import aggregate_alerts, load_alert_log

    hypers = aggregate_alerts(load_alert_log(str(out)))
    assert {h.name for h in hypers} == {"Sadmind_Ping", "Email_Ehlo"}


def test_converter_writes_tokens_and_names_physical_lines(tmp_path, capsys):
    conv = load_converter()
    src = tmp_path / "rs.csv"
    src.write_text(
        "EventName,BeginTime,SrcIPAddress,DestIPAddress\n"
        '"Port\tScan",952418976,172.16.113.84,172.16.112.50\n'
        '"Multi\nLine",952418977,172.16.113.84,172.16.112.50\n'  # lines 3-4
        "Email,soon,172.16.113.84,172.16.112.50\n"
    )
    out = tmp_path / "rs_out.csv"
    assert conv.convert(str(src), str(out)) == 2
    assert "line 5: skipped (unparseable timestamp 'soon')" in capsys.readouterr().err

    from hidpas.prediction import load_alert_log

    assert [a.attack_type for a in load_alert_log(str(out))] == ["Port_Scan", "Multi_Line"]


def test_converter_skips_records_the_alert_log_rejects(tmp_path, capsys):
    conv = load_converter()
    src = tmp_path / "rs.csv"
    src.write_text(
        "BeginTime,SrcIPAddress,DestIPAddress,EventName\n"
        "10,172.16.113.84,172.16.112.50,Scan\n"
        "11,172.16.113.84,172.16.112.50,\n"  # no event name
        "nan,172.16.113.84,172.16.112.50,Probe\n"
        "inf,172.16.113.84,172.16.112.50,Probe\n"
    )
    out = tmp_path / "out.csv"
    assert conv.convert(str(src), str(out)) == 1
    err = capsys.readouterr().err
    assert "line 3: skipped (no attack type)" in err
    assert "line 4: skipped (non-finite timestamp 'nan')" in err
    assert "line 5: skipped (non-finite timestamp 'inf')" in err

    from hidpas.prediction import load_alert_log

    assert [(a.timestamp, a.attack_type) for a in load_alert_log(str(out))] == [(10.0, "Scan")]


def test_converter_rejects_unmappable_header(tmp_path):
    conv = load_converter()
    src = tmp_path / "odd.csv"
    src.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SystemExit):
        conv.convert(str(src), str(tmp_path / "out.csv"))
