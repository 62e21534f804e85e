"""CLI contract: flags, exit codes, JSON/CSV documents, determinism."""

import json

from apnspectra.cli import main
from apnspectra.gf2m import field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def test_spectrum_taniguchi_json(capsys):
    doc = run_json(capsys, "spectrum", "--family", "taniguchi", "--m", "3",
                   "--k", "1", "--alpha", "0x2", "--beta", "0x3")
    assert doc["schema"] == 1
    assert doc["field"] == {"m": 3, "reduction_polynomial": "b"}
    spec = doc["payload"]["spectrum"]
    assert "classical" in spec
    assert spec["bent_count"] + spec["semibent_count"] == 63
    assert doc["payload"]["params"]["alpha"] == "2"


def test_spectrum_classical_for_apn_instance(capsys):
    F = field(3)
    hit = next((a, b) for a in F.nonzero_elements()
               for b in F.nonzero_elements()
               if all(F.mul(F.frobenius(x, 1), x) ^ F.mul(a, x) ^ b
                      for x in F.elements()))
    doc = run_json(capsys, "spectrum", "--family", "taniguchi", "--m", "3",
                   "--k", "1", "--alpha", format(hit[0], "x"),
                   "--beta", format(hit[1], "x"))
    assert doc["payload"]["spectrum"]["classical"] is True
    assert doc["payload"]["spectrum"]["bent_count"] == 42


def test_spectrum_missing_flag_exits_2(capsys):
    code, _, err = run(capsys, "spectrum", "--family", "taniguchi",
                       "--m", "3", "--k", "1", "--alpha", "0x2")
    assert code == 2
    assert "beta" in err


def test_spectrum_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "spectrum", "--family", "nosuch", "--m", "3")
    assert code == 2


def test_shared_parser_keeps_no_state_between_calls(capsys):
    flags = ("--family", "taniguchi", "--m", "3", "--k", "1",
             "--alpha", "0x2", "--beta", "0x3")
    code, _, _ = run(capsys, "apn", *flags, "--method", "nosuch")
    assert code == 2
    code, out, _ = run(capsys, "apn", *flags, "--method", "criterion",
                       "--format", "csv")
    assert code == 0
    assert "method,criterion" in out
    # neither the rejected nor the CSV call's flags carry over
    doc = run_json(capsys, "apn", *flags)
    assert doc["payload"]["method"] == "both"
    assert doc["payload"]["agree"] is True


def test_spectrum_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--family", "taniguchi",
                       "--m", "4", "--k", "2", "--alpha", "1", "--beta", "1")
    assert code == 2
    assert "gcd" in err


def test_spectrum_memory_cap_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("APNSPECTRA_MAX_M", "3")
    code, _, err = run(capsys, "spectrum", "--family", "taniguchi",
                       "--m", "4", "--k", "1", "--alpha", "1", "--beta", "1")
    assert code == 3
    assert "cap" in err


def test_spectrum_csv_matches_json(capsys):
    args = ("spectrum", "--family", "zhoupott", "--m", "3", "--k", "1",
            "--j", "1", "--alpha", "0x4")
    doc = run_json(capsys, *args)
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    spec = doc["payload"]["spectrum"]
    for level, count in spec["plateau_counts"].items():
        assert lines[f"spectrum.plateau_counts.{level}"] == str(count)
    assert lines["spectrum.nonlinearity"] == str(spec["nonlinearity"])
    assert lines["spectrum.classical"] == ("true" if spec["classical"]
                                           else "false")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "spectrum", "--family", "butterfly",
                       "--m", "3", "--alpha", "2", "--beta", "2",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["payload"]["params"]["family"] == "butterfly"


def test_json_byte_identical_excluding_timing(capsys):
    args = ("spectrum", "--family", "taniguchi", "--m", "3", "--k", "1",
            "--alpha", "3", "--beta", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    strip = lambda s: "\n".join(l for l in s.splitlines()
                                if "elapsed_s" not in l)
    assert strip(out1) == strip(out2)


# ----------------------------------------------------------------------
# apn
# ----------------------------------------------------------------------

def test_apn_zhoupott_both_agree(capsys):
    F = field(4)
    noncube = next(x for x in F.nonzero_elements() if not F.is_cube(x))
    doc = run_json(capsys, "apn", "--family", "zhoupott", "--m", "4",
                   "--k", "1", "--j", "2", "--alpha", format(noncube, "x"),
                   "--method", "both")
    p = doc["payload"]
    assert p["agree"] and p["apn"] and p["apn_brute"] and p["apn_criterion"]
    assert p["simple_predicate"] is True
    assert p["uniformity"] == 2


def test_apn_taniguchi_beta_zero_criterion_false(capsys):
    doc = run_json(capsys, "apn", "--family", "taniguchi", "--m", "3",
                   "--k", "1", "--alpha", "1", "--beta", "0",
                   "--method", "criterion")
    assert doc["payload"]["apn_criterion"] is False
    assert doc["payload"]["apn"] is False


def test_apn_butterfly_criterion_unsupported(capsys):
    code, _, err = run(capsys, "apn", "--family", "butterfly", "--m", "3",
                       "--alpha", "2", "--beta", "2",
                       "--method", "criterion")
    assert code == 2
    assert "butterfly" in err


def test_apn_butterfly_brute(capsys):
    F = field(3)
    alpha = next(a for a in F.nonzero_elements()
                 if F.trace(a) == 0 and a != 1)
    beta = F.pow(alpha, 3) ^ alpha
    doc = run_json(capsys, "apn", "--family", "butterfly", "--m", "3",
                   "--alpha", format(alpha, "x"), "--beta", format(beta, "x"),
                   "--method", "brute")
    assert doc["payload"]["apn"] is True
    assert doc["payload"]["uniformity"] == 2


def test_apn_zhoupott_m2_exact_vs_simple(capsys):
    # at m = 2, odd j with non-cube alpha is APN although the simplified
    # predicate says no; the exact criterion and brute force agree
    doc = run_json(capsys, "apn", "--family", "zhoupott", "--m", "2",
                   "--k", "1", "--j", "1", "--alpha", "2",
                   "--method", "both")
    p = doc["payload"]
    assert p["agree"] and p["apn"]
    assert p["simple_predicate"] is False


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_kernel_wht_m3_confirmed(capsys):
    doc = run_json(capsys, "verify", "--claim", "kernel-wht",
                   "--m-min", "3", "--m-max", "3")
    assert doc["payload"]["finding"]["status"] == "confirmed"


def test_verify_s_full_m2_boundary_exit_0(capsys):
    doc = run_json(capsys, "verify", "--claim", "s-full",
                   "--m-min", "2", "--m-max", "2")
    finding = doc["payload"]["finding"]
    assert finding["status"] == "confirmed"
    assert finding["boundary"]


def test_verify_refuted_claim_exits_1(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "taniguchi-spectrum",
                       "--m-min", "3", "--m-max", "3")
    assert code == 1
    finding = json.loads(out)["payload"]["finding"]
    assert finding["status"] == "refuted"
    assert finding["details"]["apn_violations"] == 0


def test_verify_unknown_claim_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "--claim", "nonsense",
                     "--m-min", "2", "--m-max", "2")
    assert code == 2


def test_verify_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--claim", "s-full",
                       "--m-min", "1", "--m-max", "2")
    assert code == 2
    assert "m-min" in err


def test_verify_json_deterministic(capsys):
    args = ("verify", "--claim", "zhoupott", "--m-min", "2", "--m-max", "2",
            "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    strip = lambda s: "\n".join(l for l in s.splitlines()
                                if "elapsed_s" not in l)
    assert strip(out1) == strip(out2)
