"""Command-line workbench: spectrum reports, APN checks, claim sweeps.

Reports are JSON documents (schema 1) or flat name,value CSV.  Element
values are lowercase hex in the canonical polynomial basis, whose
reduction polynomial is printed in every report header.  Identical
invocations produce byte-identical JSON apart from the trailing timing
block.

Exit codes: 0 success/confirmed, 1 refuted claim or oracle mismatch,
2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .errors import MemoryCapError, ParameterError
from .families import (
    Butterfly,
    Carlet11,
    Taniguchi,
    ZhouPott,
    build_function,
    carlet11_is_apn,
    carlet_general_is_apn,
    taniguchi_as_general,
    taniguchi_is_apn,
    zhoupott_apn_predicate,
    zhoupott_as_general,
)
from .gf2m import field as canonical_field
from .vbf import differential_spectrum, spectrum_report
from .verifier import CLAIMS, DEFAULT_SEED

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_FAMILY_FLAGS = {
    "taniguchi": ("k", "alpha", "beta"),
    "carlet11": ("i", "j", "S", "T", "U", "V"),
    "zhoupott": ("k", "j", "alpha"),
    "butterfly": ("alpha", "beta"),
}


def _hex_value(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise ParameterError(f"{text!r} is not a hex field element")


def _params_from_args(args) -> tuple:
    fam = args.family
    missing = [name for name in _FAMILY_FLAGS[fam]
               if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"--family {fam} requires --" +
                             ", --".join(missing))
    if fam == "taniguchi":
        return Taniguchi(args.m, args.k, _hex_value(args.alpha),
                         _hex_value(args.beta))
    if fam == "carlet11":
        return Carlet11(args.m, args.i, args.j, _hex_value(args.S),
                        _hex_value(args.T), _hex_value(args.U),
                        _hex_value(args.V))
    if fam == "zhoupott":
        return ZhouPott(args.m, args.k, args.j, _hex_value(args.alpha))
    return Butterfly(args.m, _hex_value(args.alpha), _hex_value(args.beta))


def _params_payload(params, f) -> dict:
    out = {"family": type(params).__name__.lower(), "m": params.m}
    for name, value in vars(params).items():
        if name == "m":
            continue
        out[name] = f.to_hex(value) if name in ("alpha", "beta", "s", "t",
                                                "u", "v") else value
    return out


def _document(field_obj, argv, payload, started) -> dict:
    return {
        "schema": 1,
        "tool": "apnspectra",
        "version": __version__,
        "field": {"m": field_obj.m,
                  "reduction_polynomial": field_obj.poly_hex()},
        "command": argv,
        "payload": payload,
        "timing": {"elapsed_s": round(time.perf_counter() - started, 3)},
    }


def _flatten_for_csv(payload: dict, prefix: str = "") -> list:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows += _flatten_for_csv(value, prefix=f"{name}.")
        elif isinstance(value, list):
            rows.append((name, ";".join(str(v) for v in value)))
        elif isinstance(value, bool):
            rows.append((name, "true" if value else "false"))
        else:
            rows.append((name, value))
    return rows


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        rows = [("schema", doc["schema"]), ("version", doc["version"]),
                ("m", doc["field"]["m"]),
                ("reduction_polynomial", doc["field"]["reduction_polynomial"])]
        rows += _flatten_for_csv(doc["payload"])
        rows.append(("elapsed_s", doc["timing"]["elapsed_s"]))
        text = "name,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args, argv) -> int:
    started = time.perf_counter()
    params = _params_from_args(args)
    f = canonical_field(args.m)
    report = spectrum_report(build_function(params, f))
    payload = {
        "params": _params_payload(params, f),
        "spectrum": {
            "plateau_counts": {str(k): v for k, v in report.counts.items()},
            "non_plateaued": report.non_plateaued,
            "bent_count": report.bent_count,
            "semibent_count": report.semibent_count,
            "nonlinearity": report.nonlinearity,
            "classical": report.classical,
        },
    }
    _emit(_document(f, argv, payload, started), args)
    return EXIT_OK


def _criterion_verdict(params) -> tuple[bool, dict]:
    """(verdict, extra payload) from the family's published APN test."""
    if isinstance(params, Taniguchi):
        direct = taniguchi_is_apn(params.m, params.k, params.alpha,
                                  params.beta)
        general = carlet_general_is_apn(taniguchi_as_general(params))
        if direct != general:
            raise AssertionError(f"root scan and derivative-kernel "
                                 f"criterion disagree at {params}")
        return direct, {}
    if isinstance(params, Carlet11):
        return carlet11_is_apn(params.m, params.i, params.j, params.s,
                               params.t, params.u, params.v), {}
    if isinstance(params, ZhouPott):
        # the exact criterion; the simple j/cube form is reported alongside
        # because its necessity direction fails at m = 2
        general = carlet_general_is_apn(zhoupott_as_general(params))
        extra = {}
        if params.m % 2 == 0:
            extra["simple_predicate"] = zhoupott_apn_predicate(
                params.m, params.k, params.j, params.alpha)
        return general, extra
    raise ParameterError("no published APN criterion for the butterfly "
                         "family; use --method brute")


def cmd_apn(args, argv) -> int:
    started = time.perf_counter()
    params = _params_from_args(args)
    f = canonical_field(args.m)
    payload = {"params": _params_payload(params, f), "method": args.method}
    code = EXIT_OK
    if args.method in ("brute", "both"):
        spec = differential_spectrum(build_function(params, f))
        payload["uniformity"] = spec.uniformity
        payload["apn_brute"] = spec.is_apn
    if args.method in ("criterion", "both"):
        verdict, extra = _criterion_verdict(params)
        payload["apn_criterion"] = verdict
        payload.update(extra)
    if args.method == "both":
        agree = payload["apn_brute"] == payload["apn_criterion"]
        payload["agree"] = agree
        if not agree:
            payload["refutation"] = {
                "reason": "criterion disagrees with brute-force uniformity",
                "params": payload["params"],
            }
            code = EXIT_REFUTED
    payload["apn"] = payload.get("apn_brute",
                                 payload.get("apn_criterion"))
    _emit(_document(f, argv, payload, started), args)
    return code


def cmd_verify(args, argv) -> int:
    started = time.perf_counter()
    if not 2 <= args.m_min <= args.m_max <= 16:
        raise ParameterError("need 2 <= m-min <= m-max <= 16")
    m_values = list(range(args.m_min, args.m_max + 1))
    finding = CLAIMS[args.claim](m_values, seed=args.seed)
    record = finding.to_dict()
    record.pop("elapsed_s", None)
    payload = {"claim": args.claim, "seed": args.seed,
               "m_min": args.m_min, "m_max": args.m_max,
               "reduction_polynomials": {
                   str(m): canonical_field(m).poly_hex() for m in m_values},
               "finding": record}
    _emit(_document(canonical_field(args.m_min), argv, payload, started), args)
    return EXIT_REFUTED if finding.status == "refuted" else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="apnspectra",
        description="Walsh spectra and APN tests for quadratic vectorial "
                    "functions on GF(2^m) x GF(2^m)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_flags(p):
        p.add_argument("--family", required=True,
                       choices=sorted(_FAMILY_FLAGS))
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--k", type=int)
        p.add_argument("--i", type=int)
        p.add_argument("--j", type=int)
        p.add_argument("--alpha")
        p.add_argument("--beta")
        p.add_argument("--S")
        p.add_argument("--T")
        p.add_argument("--U")
        p.add_argument("--V")
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    spectrum = sub.add_parser("spectrum",
                              help="full component spectrum report")
    add_family_flags(spectrum)

    apn = sub.add_parser("apn", help="APN verdict by table or criterion")
    add_family_flags(apn)
    apn.add_argument("--method", choices=("brute", "criterion", "both"),
                     default="both")

    verify = sub.add_parser("verify", help="run a claim sweep")
    verify.add_argument("--claim", required=True, choices=sorted(CLAIMS))
    verify.add_argument("--m-min", type=int, required=True)
    verify.add_argument("--m-max", type=int, required=True)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--out")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {"spectrum": cmd_spectrum, "apn": cmd_apn,
                "verify": cmd_verify}
    try:
        return handlers[args.command](args, argv)
    except MemoryCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # includes ParameterError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
