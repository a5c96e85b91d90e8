"""Pinned outputs of the journaled sweeps: the refactoring safety net.

Every other sweep test compares one run mode against another, so a change
that moves every mode the same way passes them all. These digests pin the
actual bytes: the SHA-256 of each ``--output`` document with its
wall-clock ``metrics`` section removed (canonical JSON), and of the
journal where the run writes one deterministically. A digest may only
move in a change that means to alter that sweep's output.
"""

import hashlib
import json

import pytest

from repro.cli import main

LOOKUP = ["lookup-sweep", "--prefixes", "60", "200", "--lookups", "80",
          "--seed", "5"]
DATAPATH = ["sdc", "--table", "sequential", "--buses", "1", "--site", "bus",
            "--site", "result", "--trials", "3", "--seed", "3",
            "--rate", "0.05", "--entries", "8", "--packets", "2"]
MEMORY = ["sdc", "--prefixes", "40", "--lookups", "30", "--trials", "1",
          "--seed", "7", "--table", "sequential", "--table", "cam",
          "--table", "bloom"]
TABLE1 = ["table1", "--entries", "10", "--packets", "2"]

#: name -> (argv, pin the journal bytes); every case writes a journal
CASES = {
    "lookup-jobs1": (LOOKUP + ["--jobs", "1"], True),
    "lookup-jobs2": (LOOKUP + ["--jobs", "2"], True),
    "datapath-jobs1": (DATAPATH + ["--jobs", "1"], True),
    "datapath-jobs2": (DATAPATH + ["--jobs", "2"], True),
    "memory-jobs1": (MEMORY + ["--jobs", "1"], True),
    "memory-jobs2": (MEMORY + ["--jobs", "2"], True),
    # the parallel campaign journal was written in completion order
    # when these digests were pinned, so only its output is pinned;
    # test_sweep_engine.py checks that journal against a jobs=1 run
    "table1-jobs2": (TABLE1 + ["--jobs", "2"], False),
}

#: name -> (output digest, journal digest or None)
GOLDEN = {
    "datapath-jobs1": (
        "3bc3b617209d21bb966ab5638a186523e9be3ef33b599fc3c330a155657627e5",
        "f1a596e12198e055b94a14f55ca9f6e8dce95a06746ead4e7d5be068681b7b2f"),
    "datapath-jobs2": (
        "3bc3b617209d21bb966ab5638a186523e9be3ef33b599fc3c330a155657627e5",
        "f1a596e12198e055b94a14f55ca9f6e8dce95a06746ead4e7d5be068681b7b2f"),
    "lookup-jobs1": (
        "e8db436d4482e9b368c0d5b9eaab8b80b7460382d7243dadcbd551ffb11f8449",
        "cd10ab1c4ce6585ca745f5763d5e6300e0a834c2a627b8581f221aafeabe8bc9"),
    "lookup-jobs2": (
        "e8db436d4482e9b368c0d5b9eaab8b80b7460382d7243dadcbd551ffb11f8449",
        "cd10ab1c4ce6585ca745f5763d5e6300e0a834c2a627b8581f221aafeabe8bc9"),
    "memory-jobs1": (
        "cc1fc362f37c19fa8e00f2741f12e20383fc792ed023017756655379090d1f5e",
        "4bd69e6b52ee791f153047f4198f57a9a938d1f40eddbc43f1ffbd67061f8ec3"),
    "memory-jobs2": (
        "cc1fc362f37c19fa8e00f2741f12e20383fc792ed023017756655379090d1f5e",
        "4bd69e6b52ee791f153047f4198f57a9a938d1f40eddbc43f1ffbd67061f8ec3"),
    "table1-jobs2": (
        "35449676f151948a0a0a1e7a0d0f27a45d8751e6fd2003cb2483385ee63916e2",
        None),
}


def run_case(name, directory):
    """Run one case's CLI command; returns (output digest, journal
    digest or None)."""
    argv, pin_journal = CASES[name]
    output = directory / "out.json"
    journal = directory / "journal.jsonl"
    main(list(argv) + ["--output", str(output), "--journal", str(journal)])
    document = json.loads(output.read_text())
    document.pop("metrics", None)
    output_digest = hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()
    journal_digest = hashlib.sha256(journal.read_bytes()).hexdigest() \
        if pin_journal else None
    return output_digest, journal_digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden(name, tmp_path, capsys):
    digests = run_case(name, tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN[name]
