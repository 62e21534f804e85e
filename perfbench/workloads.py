"""The benchmark's workloads: seeded inputs, the timed call, the check.

Each workload is a stream of instances drawn from the seed alone.  The
program sees only the generated parameter record (``triangle-m5``) or the
argv list built from it (the two CLI workloads).  Every output is checked
by a route independent of the timed call, after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass

from apnspectra import cli, families, lincurves, verifier, vbf
from apnspectra.families import Butterfly, Carlet11, Taniguchi, ZhouPott

from warmup import coprime_steps

# Smallest degree of the butterfly family in the small-size smoke run.
SMOKE_BUTTERFLY_M = 5


@dataclass(frozen=True)
class Instance:
    params: object
    argv: list | None = None  # CLI workloads only
    apn: bool | None = None  # apn-m6 only: the published test's verdict


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    families: tuple[str, ...]  # drawn round-robin in this order
    command: str | None  # CLI subcommand, or None for the verifier sweep
    smoke_m: int  # degree of the small-size smoke run


# Why each workload was chosen is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("spectrum-m6", 6, ("taniguchi", "carlet11", "zhoupott"),
             "spectrum", 3),
    Workload("triangle-m5", 5,
             ("taniguchi", "carlet11", "zhoupott", "butterfly"), None, 3),
    Workload("apn-m6", 6, ("taniguchi", "carlet11", "zhoupott"), "apn", 4),
)}


def _draw(rng: random.Random, family: str, m: int):
    q = 1 << m
    if family == "taniguchi":
        return Taniguchi(m, rng.choice(coprime_steps(m)),
                         rng.randrange(1, q), rng.randrange(1, q))
    if family == "carlet11":
        i, j = rng.choice([(i, j) for i in range(m) for j in range(m)
                           if math.gcd((i - j) % m, m) == 1])
        return Carlet11(m, i, j, rng.randrange(1, q), rng.randrange(1, q),
                        rng.randrange(q), rng.randrange(q))
    if family == "zhoupott":
        return ZhouPott(m, rng.choice(coprime_steps(m)), rng.randrange(4),
                        rng.randrange(1, q))
    m = max(m, SMOKE_BUTTERFLY_M)
    return Butterfly(m, rng.randrange(1, 1 << m), rng.randrange(1, 1 << m))


def published_apn(p) -> bool:
    """The family's published APN test (root scan or cube predicate)."""
    if isinstance(p, Taniguchi):
        return families.taniguchi_is_apn(p.m, p.k, p.alpha, p.beta)
    if isinstance(p, Carlet11):
        return families.carlet11_is_apn(p.m, p.i, p.j, p.s, p.t, p.u, p.v)
    return families.zhoupott_apn_predicate(p.m, p.k, p.j, p.alpha)


# CLI flag -> parameter field; the steps k, i, j are decimal, elements hex
_FLAGS = {
    "taniguchi": {"k": "k", "alpha": "alpha", "beta": "beta"},
    "carlet11": {"i": "i", "j": "j", "S": "s", "T": "t", "U": "u", "V": "v"},
    "zhoupott": {"k": "k", "j": "j", "alpha": "alpha"},
}


def _argv(command: str, p) -> list[str]:
    family = families.family_name(p)
    argv = [command, "--family", family, "--m", str(p.m)]
    for flag, attr in _FLAGS[family].items():
        value = getattr(p, attr)
        argv += [f"--{flag}",
                 str(value) if attr in ("k", "i", "j") else format(value, "x")]
    if command == "apn":
        argv += ["--method", "both"]
    return argv


def generate(workload: Workload, seed: int, count: int,
             m: int | None = None) -> list[Instance]:
    """``count`` instances of the workload, a function of the seed alone.

    Families alternate round-robin.  For ``apn`` the stream also alternates
    APN and non-APN draws per family, labelled by the published test, so
    any prefix holds about one half of each.
    """
    m = m or workload.m
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    fams = workload.families
    out = []
    for n in range(count):
        family = fams[n % len(fams)]
        p = _draw(rng, family, m)
        if workload.command == "apn":
            want = (n // len(fams)) % 2 == 0
            while published_apn(p) != want:
                p = _draw(rng, family, m)
            out.append(Instance(p, _argv("apn", p), want))
        elif workload.command == "spectrum":
            out.append(Instance(p, _argv("spectrum", p)))
        else:
            out.append(Instance(p))
    return out


def call(workload: Workload, inst: Instance):
    """The timed call.  Modules are read at call time so spans can wrap."""
    if workload.command is None:
        return verifier.verify_kernel_wht_agreement([inst.params.m],
                                                    instances=[inst.params])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(inst.argv)
    return code, out.getvalue()


def check(workload: Workload, inst: Instance, output) -> str | None:
    """None when the output is right, else the reason it is not."""
    p = inst.params
    components = (1 << (2 * p.m)) - 1
    if workload.command is None:
        if output.status != verifier.CONFIRMED or output.counterexamples:
            return f"triangle finding {output.status}"
        if output.details.get("components") != components:
            return f"components {output.details.get('components')}"
        return None
    code, text = output
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(text)["payload"]
    if workload.command == "apn":
        if payload.get("agree") is not True:
            return "brute force and criterion disagree"
        if payload["apn"] != inst.apn:
            return "verdict differs from the published test"
        return None
    # plateau levels are kernel dimensions of the component pairs
    q = 1 << p.m
    expected = Counter()
    for c in range(1, components + 1):
        pair = lincurves.derive_pair(p, c & (q - 1), c >> p.m)
        expected[str(lincurves.kernel_dimension(pair.A, pair.B))] += 1
    spectrum = payload["spectrum"]
    if spectrum["non_plateaued"] or spectrum["plateau_counts"] != expected:
        return "plateau histogram differs from the pair kernels"
    return None


def descriptors(workload: Workload, seed: int,
                attempted: list[Instance]) -> dict:
    """What was run, beside the results: sizes, mix and working set."""
    m = workload.m
    out = {
        "m": m,
        "seed": seed,
        "instances": len(attempted),
        "family_mix": dict(Counter(families.family_name(i.params)
                                   for i in attempted)),
        "computed_bytes": {
            "truth_table": 8 * 4 ** m,
            "fwht_chunk": vbf._COMPONENT_CHUNK * 4 ** m * 8,
            "fwht_chunk_selectors": vbf._COMPONENT_CHUNK,
        },
    }
    if workload.command == "apn" and attempted:
        out["apn_share"] = sum(i.apn for i in attempted) / len(attempted)
    return out
