"""Seeded corpus generator for the pipeline benchmark.

A corpus is RFC texts (with Updates:/Obsoletes: headers and dates), C source
trees, triplet records, a ground-truth matrix and a config that runs the
pipeline on them with the offline mock provider. The ground truth comes from
the generator's own plan -- which features each code version carries and
which RFC introduces each feature -- never from a pipeline run.

The mock responder knows five behaviours (features). Each RFC section states
at most one requirement sentence, built so that its trigger phrases survive
line wrapping. Each code version carries a feature set that is closed under
the words the judge looks for: whenever a feature is missing, one word of
its key terms is absent from every function of that version. Filler
functions that no RFC is about live in files of their own, so they never
share a chunk with a feature function and never crowd the candidate budget.

The seed picks RFC numbers, dates, identifiers, filler words and which
code version carries which feature set. It does not change the amount of work: every
sentence, heading and function of one kind has the same token count
whatever the seed picks.
"""

from __future__ import annotations

import json
import random
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path

# -- features ------------------------------------------------------------------

# Requirement sentences. Each matches exactly one entry rule of the mock
# responder and has the same token count as the others (checked below).
FEATURE_SENTENCES = {
    "isn": ("Implementations MUST derive the initial sequence number of a "
            "new connection from a clock that advances every four "
            "microseconds and never repeat it early."),
    "keyed": ("Implementations MUST compute a hash over the connection "
              "identifiers together with a secret key that stays private to "
              "the host and is never exported."),
    "reseed": ("Implementations SHOULD reseed the secret key after a "
               "configurable amount of uptime so that one old compromise "
               "stops helping an attacker very soon after."),
    "challenge": ("When a questionable segment arrives the receiver MUST "
                  "send a challenge ACK to its peer and leave the whole "
                  "connection state unchanged for now."),
    "rst": ("A receiver MUST accept an RST segment only when its sequence "
            "number falls inside the receive window and drop every other "
            "such segment silently."),
}
FEATURE_HEADINGS = {
    "isn": "Sequence Number Clock",
    "keyed": "Keyed Identifier Mixing",
    "reseed": "Periodic Key Refresh",
    "challenge": "Questionable Segment Handling",
    "rst": "Reset Acceptance Rules",
}
FEATURES = tuple(FEATURE_SENTENCES)
# Phrases the entry and entity rules match on; a line wrap must not split them.
TRIGGER_PHRASES = ("initial sequence number", "secret key", "challenge ACK",
                   "RST segment", "receive window", "sequence number")

# Code versions carry one of these closed feature sets. "keyed" needs "isn"
# and "reseed" needs "keyed", because their functions share the isn words.
PATTERNS = (
    frozenset(FEATURES),
    frozenset({"isn", "keyed", "challenge"}),
    frozenset({"isn", "rst"}),
)

# -- family templates --------------------------------------------------------------

# A node is (parents, relation, slots). Slots a..e stand for features;
# which feature fills which slot rotates from one family to the next.
TREE_FAMILY = (
    ((), "", "ab"),            # root, judged over both entries
    ((0,), "Updates", "abc"),  # adds c
    ((0,), "Updates", "ab"),   # restates the root, inherits its verdict
    ((1,), "Obsoletes", "acd"),  # adds d, drops b
    ((2,), "Updates", "be"),   # adds e, drops a
)
CHAIN_FAMILY = (
    ((), "", "a"),
    ((0,), "Updates", "ab"),
    ((1,), "Updates", "abc"),
    ((2,), "Obsoletes", "bcd"),
)


def ladder_family(length: int) -> tuple:
    """RFC k updates RFCs k-1 and k-2: a merge at every node and a number
    of root-to-leaf paths that grows like the Fibonacci numbers.

    Odd nodes add the next slot and even nodes restate their predecessor,
    so every incoming increment of a merge node implies the same verdict.
    """
    nodes = [((), "", "a")]
    slots = "a"
    for k in range(1, length):
        if k % 2 == 1 and len(slots) < 5:
            slots += "abcde"[len(slots)]
        parents = (k - 1,) if k == 1 else (k - 1, k - 2)
        nodes.append((parents, "Updates", slots))
    return tuple(nodes)


@dataclass(frozen=True)
class Workload:
    warm: bool  # keep the cache of the set-up run for the timed runs
    delay_s: float  # added to every provider call
    tree_families: int
    chain_families: int
    ladder: int  # RFCs in the ladder family, 0 for none
    patterns: tuple[frozenset, ...]
    filler_files: int
    filler_functions: int  # per filler file
    descriptions: int
    patches: int


# The cold workload adds 10 ms to every provider call.
WORKLOADS = {
    "cold-provider": Workload(warm=False, delay_s=0.010, tree_families=3,
                              chain_families=0, ladder=0, patterns=PATTERNS,
                              filler_files=2, filler_functions=12,
                              descriptions=6, patches=4),
    "warm-replay": Workload(warm=True, delay_s=0.0, tree_families=5,
                            chain_families=0, ladder=15,
                            patterns=PATTERNS[:2], filler_files=2,
                            filler_functions=12, descriptions=24, patches=12),
    "big-tree": Workload(warm=True, delay_s=0.0, tree_families=0,
                         chain_families=1, ladder=0, patterns=PATTERNS[:2],
                         filler_files=2, filler_functions=200,
                         descriptions=6, patches=4),
}

# -- filler vocabulary ---------------------------------------------------------------

# Words that match no entity or entry rule and, in code, contain none of the
# judge's key-term words as substrings.
ADJECTIVES = ("stable", "modest", "bounded", "ordinary", "careful", "common",
              "local", "remote", "simple", "steady", "quiet", "plain")
NOUNS = ("host", "path", "buffer", "queue", "route", "peer", "link", "frame",
         "table", "field", "counter", "option", "socket", "stream", "timer")
VERBS = ("updates", "tracks", "reports", "holds", "limits", "carries",
         "records", "bounds", "names", "moves", "checks", "orders")
PREPS = ("for", "across", "within", "beyond", "after", "before", "beside")
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
CODE_WORDS = ("flow", "mix", "fold", "scale", "merge", "count", "mask",
              "shift", "rotate", "blend", "trim", "clamp", "pool", "route",
              "queue", "table", "slot", "span", "level", "phase")
AUTHORS = ("A. Lindqvist", "B. Moreau", "C. Okafor", "D. Tanaka",
           "E. Ruiz", "F. Novak")

# deltaspec's tokenizer rule, restated so the generator never imports the
# program whose output it is the truth for.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")


def count_tokens(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def filler_sentence(rng: random.Random) -> str:
    """Eleven tokens: ten words and a full stop."""
    return (f"The {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} "
            f"{rng.choice(VERBS)} each {rng.choice(NOUNS)} "
            f"{rng.choice(PREPS)} the {rng.choice(ADJECTIVES)} "
            f"{rng.choice(NOUNS)} {rng.choice(('here', 'today', 'again'))}.")


def wrap(text: str) -> list[str]:
    """RFC-style paragraph lines that never split a trigger phrase."""
    for phrase in TRIGGER_PHRASES:
        text = text.replace(phrase, phrase.replace(" ", "\x00"))
    return [line.replace("\x00", " ")
            for line in textwrap.wrap(text, width=69, break_long_words=False,
                                      initial_indent="   ",
                                      subsequent_indent="   ")]


# -- RFC texts ------------------------------------------------------------------------

@dataclass
class RfcPlan:
    number: int
    date: tuple[int, int]  # (year, month)
    parents: tuple[int, ...]  # RFC numbers
    relation: str
    features: tuple[str, ...]
    family: str


def render_rfc(plan: RfcPlan, rng: random.Random) -> str:
    year, month = plan.date
    left = ["Internet Engineering Task Force (IETF)",
            f"Request for Comments: {plan.number}"]
    if plan.parents:
        left.append(f"{plan.relation}: "
                    + ", ".join(str(p) for p in plan.parents))
    left.append("Category: Standards Track")
    # The date ends the last header line, where the parser looks for it.
    right = ([rng.choice(AUTHORS), "Example Labs", ""][:len(left) - 1]
             + [f"{MONTHS[month - 1]} {year}"])
    header = [f"{l:<52}{r:>20}".rstrip() for l, r in zip(left, right)]

    sections = [("Introduction", [filler_sentence(rng) for _ in range(3)])]
    for feature in plan.features:
        sections.append((FEATURE_HEADINGS[feature],
                         [FEATURE_SENTENCES[feature], filler_sentence(rng),
                          filler_sentence(rng)]))
    sections.append(("Operational Considerations",
                     [filler_sentence(rng) for _ in range(2)]))

    lines = header + ["", f"      Transport Behaviour Profile {plan.family}",
                      "", "Status of This Memo", ""]
    lines += wrap("This is an Internet Standards Track document.")
    for i, (heading, sentences) in enumerate(sections, start=1):
        lines += ["", f"{i}.  {heading}", ""]
        lines += wrap(" ".join(sentences))
    lines += ["", "Authors' Addresses", "", f"   {rng.choice(AUTHORS)}",
              "   Example Labs", ""]
    return "\n".join(lines)


def plan_rfcs(wl: Workload, rng: random.Random) -> list[RfcPlan]:
    families = ([("tree", TREE_FAMILY)] * wl.tree_families
                + [("chain", CHAIN_FAMILY)] * wl.chain_families)
    if wl.ladder:
        families.append(("ladder", ladder_family(wl.ladder)))
    # Families rotate through the slot assignment, so over five families
    # every feature fills every slot once. The rotation is not seeded: the
    # features a family uses set its prompt sizes, so a seeded choice would
    # make the work depend on the seed.
    base = list(FEATURES)
    number = rng.randrange(2000, 6000)
    year, month = 1990, 1
    plans: list[RfcPlan] = []
    for fam_index, (kind, template) in enumerate(families):
        shift = fam_index % len(base)
        slot_map = dict(zip("abcde", base[shift:] + base[:shift]))
        numbers: list[int] = []
        for parents, relation, slots in template:
            number += rng.randrange(1, 40)
            month += rng.randrange(1, 4)
            year, month = year + (month - 1) // 12, (month - 1) % 12 + 1
            plan = RfcPlan(number=number, date=(year, month),
                           parents=tuple(numbers[p] for p in parents),
                           relation=relation,
                           features=tuple(slot_map[s] for s in slots),
                           family=f"{kind}-{fam_index + 1}")
            numbers.append(number)
            plans.append(plan)
    return plans


def plan_truth(plans: list[RfcPlan],
               versions: dict[str, frozenset]) -> dict[str, dict[str, str]]:
    """Expected verdict per (version, RFC) from the plan alone.

    A root is consistent when its version carries every root feature. Any
    other RFC is judged over the features it adds relative to a parent and
    inherits that parent's label when it adds none. All parents of a merge
    node must imply the same label, otherwise the plan is rejected.
    """
    by_number = {p.number: p for p in plans}
    truth: dict[str, dict[str, str]] = {}
    for version, carried in versions.items():
        labels: dict[int, bool] = {}
        for plan in plans:  # parents precede children
            if not plan.parents:
                labels[plan.number] = set(plan.features) <= carried
                continue
            implied = set()
            for parent in plan.parents:
                added = set(plan.features) - set(by_number[parent].features)
                implied.add(added <= carried if added else labels[parent])
            if len(implied) != 1:
                raise ValueError(f"RFC {plan.number}: parents imply "
                                 "different verdicts")
            labels[plan.number] = implied.pop()
        truth[version] = {str(n): ("consistent" if ok else "inconsistent")
                          for n, ok in sorted(labels.items())}
    return truth


# -- code trees -----------------------------------------------------------------------

STUB_HEADER = """\
/* Stand-ins for the kernel typedefs the generated sources use. */

typedef unsigned char u8;
typedef unsigned short u16;
typedef unsigned int u32;
typedef unsigned long long u64;

struct sock {
\tint sk_state;
};
"""


def isn_file(carried: frozenset, tag: str) -> str:
    """The isn family: clock-based (isn), keyed hash (keyed), reseed."""
    parts = ["// SPDX-License-Identifier: GPL-2.0",
             "/* Connection sequence space selection. */", "",
             "#include <linux/types.h>", ""]
    if "keyed" in carried:
        parts += ["static u32 isn_secret_key[4];", ""]
    if "reseed" in carried:
        parts += ["static u32 isn_key_age;", ""]
    if "keyed" in carried:
        parts += [
            "/* Mix the connection identifiers with the secret key material. */",
            f"static u32 tcp_isn_hash_{tag}(u32 saddr, u32 daddr, u16 sport, "
            "u16 dport, u32 *key)",
            "{", "\tu32 acc = saddr ^ key[0];", "",
            "\tacc ^= daddr ^ key[1];",
            "\tacc ^= ((u32)sport << 16 | (u32)dport) ^ key[2];",
            "\treturn acc * 2654435761u + key[3];", "}", "",
            "/* Populate the key material from the entropy pool at boot. */",
            f"void net_secret_init_{tag}(void)",
            "{", "\tu32 i;", "",
            "\tfor (i = 0; i < 4; i++)",
            "\t\tisn_secret_key[i] = 0x9e3779b9u * (i + 1);", "}", ""]
    if "reseed" in carried:
        parts += [
            "/* Rotate the secret key once it has aged out. */",
            f"static int isn_reseed_check_{tag}(void)",
            "{", "\tif (isn_key_age < 3600)", "\t\treturn 0;",
            "\t/* reseed the secret key and restart the aging clock */",
            f"\tnet_secret_init_{tag}();", "\tisn_key_age = 0;",
            "\treturn 1;", "}", ""]
    parts += [
        f"static u32 isn_clock_units_{tag}(void)",
        "{", "\t/* four-microsecond clock component */",
        "\treturn 4096u;", "}", "",
        f"u32 tcp_init_sequence_{tag}(u32 saddr, u32 daddr, u16 sport, "
        "u16 dport)",
        "{", "\tu32 base = saddr ^ daddr;", ""]
    if "reseed" in carried:
        parts.append(f"\tisn_reseed_check_{tag}();")
    parts.append("\t/* initial sequence number generation for a new "
                 "connection */")
    if "keyed" in carried:
        parts.append(f"\tbase = tcp_isn_hash_{tag}(saddr, daddr, sport, "
                     "dport, isn_secret_key);")
    else:
        parts.append("\tbase ^= ((u32)sport << 16) | (u32)dport;")
    parts += [f"\treturn base + isn_clock_units_{tag}();", "}", ""]
    return "\n".join(parts)


def input_file(carried: frozenset, tag: str) -> str:
    parts = ["// SPDX-License-Identifier: GPL-2.0",
             "/* Incoming segment checks for established connections. */", "",
             "#include <linux/types.h>", ""]
    if "rst" in carried:
        parts += [
            f"int tcp_validate_reset_{tag}(u32 seq, u32 rcv_nxt, u32 rcv_wnd)",
            "{",
            "\t/* an rst segment outside the receive window is dropped */",
            "\tif (seq - rcv_nxt >= rcv_wnd)", "\t\treturn 0;",
            "\tif (seq == rcv_nxt)", "\t\treturn 1;", "\treturn 2;", "}", ""]
    if "challenge" in carried:
        parts += [
            f"int tcp_send_challenge_ack_{tag}(u32 rcv_nxt)",
            "{", "\t/* the challenge ack echoes the current ack number */",
            "\treturn (int)(rcv_nxt & 0x7fffffffu);", "}", ""]
    return "\n".join(parts)


def filler_file(rng: random.Random, n_functions: int, tag: str) -> str:
    """Functions no RFC is about; every tenth is macro-wrapped, so the
    strict parser rejects it and the fallback tier extracts it."""
    parts = ["// SPDX-License-Identifier: GPL-2.0",
             "/* Flow bookkeeping helpers. */", "",
             "#include <linux/types.h>", ""]
    for i in range(n_functions):
        name = f"{rng.choice(CODE_WORDS)}_{rng.choice(CODE_WORDS)}_{tag}_{i}"
        a, b, c = (rng.randrange(3, 999) for _ in range(3))
        if i % 10 == 9:
            parts += [f"DEFINE_FLOW_OP({name}, u32 left, u32 right)",
                      "{", f"\treturn (left + {a}u) ^ (right >> {b % 31});",
                      "}", ""]
            continue
        if i % 3 == 0:
            parts.append(f"/* Combine two {rng.choice(CODE_WORDS)} "
                         f"values for the {rng.choice(CODE_WORDS)} table. */")
        parts += [f"static u32 {name}(u32 left, u32 right)",
                  "{", f"\tu32 total = left * {a}u;", "",
                  f"\ttotal ^= right + {b}u;",
                  f"\treturn total >> {c % 31};", "}", ""]
    return "\n".join(parts)


# -- triplet records -----------------------------------------------------------------

def triplet_records(wl: Workload, rng: random.Random) -> tuple[list, list]:
    descriptions = []
    for i in range(wl.descriptions):
        w1, w2 = rng.choice(CODE_WORDS), rng.choice(CODE_WORDS)
        descriptions.append({
            "id": f"desc-{i}",
            "description": " ".join(filler_sentence(rng) for _ in range(2)),
            "solution": (f"u32 {w1}_{w2}_{i}(u32 left, u32 right)\n{{\n"
                         f"\treturn (left ^ right) * {rng.randrange(3, 999)}u;"
                         "\n}"),
        })
    patches = []
    for i in range(wl.patches):
        w1 = rng.choice(CODE_WORDS)
        k = rng.randrange(3, 999)
        patches.append({
            "id": f"patch-{i}",
            "summary": " ".join(filler_sentence(rng) for _ in range(2)),
            "before": (f"int {w1}_ok_{i}(u32 seq, u32 nxt, u32 span)\n{{\n"
                       f"\treturn (int)(seq - nxt) <= (int)span + {k};\n}}"),
            "after": (f"int {w1}_ok_{i}(u32 seq, u32 nxt, u32 span)\n{{\n"
                      f"\treturn seq - nxt < span + {k}u;\n}}"),
        })
    return descriptions, patches


# -- assembly -------------------------------------------------------------------------

def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def generate(out: Path, workload: str, seed: int) -> dict:
    """Write one corpus under ``out`` and return its summary.

    The config (``out/config.json``) keeps its workdir and cache under
    ``out`` as well, so removing ``out`` removes everything a run leaves.
    """
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    plans = plan_rfcs(wl, rng)

    rfc_paths = []
    for plan in plans:
        rel = f"rfc/rfc{plan.number}.txt"
        _write(out / rel, render_rfc(plan, rng))
        rfc_paths.append(rel)

    versions: dict[str, frozenset] = {}
    patterns = list(wl.patterns)
    rng.shuffle(patterns)
    for i, carried in enumerate(patterns):
        tag = f"{rng.choice(CODE_WORDS)}{rng.randrange(10, 99)}"
        version = f"v{i + 1}.{rng.randrange(0, 20)}-{tag}"
        versions[version] = carried
        root = out / "code" / version
        if "isn" in carried:
            _write(root / "net/ipv4/tcp_isn.c", isn_file(carried, tag))
        if carried & {"rst", "challenge"}:
            _write(root / "net/ipv4/tcp_input.c", input_file(carried, tag))
        for f in range(wl.filler_files):
            _write(root / f"net/core/flow_{f}.c",
                   filler_file(rng, wl.filler_functions, f"{tag}_{f}"))
        # Outside the protocol globs and keywords: selection must skip it.
        _write(root / "lib/util.c", filler_file(rng, 3, f"{tag}_lib"))
    _write(out / "code/stubs/types.h", STUB_HEADER)

    descriptions, patches = triplet_records(wl, rng)
    _write(out / "triplets/descriptions.jsonl", _jsonl(descriptions))
    _write(out / "triplets/patches.jsonl", _jsonl(patches))

    truth = plan_truth(plans, versions)
    _write(out / "truth.json", json.dumps(truth, indent=1, sort_keys=True))
    config = {
        "workdir": "work",
        "cache_dir": "cache",
        "model": "judge-1",
        "provider": "mock",
        "temperature": 0.0,
        "rfc_sources": rfc_paths,
        "code_trees": {v: f"code/{v}" for v in versions},
        "stub_headers": "code/stubs",
        "triplets": {"descriptions": "triplets/descriptions.jsonl",
                     "patches": "triplets/patches.jsonl",
                     "paired_positive": True},
        "ground_truth": "truth.json",
        "chunking": {"chunk_size": 160, "redundancy_ratio": 0.1},
        "retrieval": {"k": 5, "fusion_alpha": 0.5, "damping": 0.5,
                      "budget": 20},
        "verification": {"trials": 5},
        "prices": {"judge-1": [0.005, 0.015]},
        "price_unit": 1000,
    }
    _write(out / "config.json", json.dumps(config, indent=1))
    return {"rfcs": len(plans), "versions": sorted(versions),
            "cells": sum(len(row) for row in truth.values())}


def _check_sentences() -> None:
    counts = {count_tokens(s) for s in FEATURE_SENTENCES.values()}
    heads = {count_tokens(h) for h in FEATURE_HEADINGS.values()}
    if len(counts) != 1 or len(heads) != 1:
        raise AssertionError("feature sentences or headings differ in "
                             "token count; the work would depend on the seed")


_check_sentences()

