"""Pinned outputs of the journaled sweeps: the refactoring safety net.

Every other sweep test compares one run mode against another, so a change
that moves every mode the same way passes them all. These digests pin the
actual bytes: the SHA-256 of each ``--output`` document with its
wall-clock ``metrics`` section removed (canonical JSON), and of the
journal. A digest may only move in a change that means to alter that
sweep's output.
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
#: the datapath sweep with only socket faults: a misrouted move writes a
#: port other than the one its instruction names
DATAPATH_SOCKET = ["sdc", "--table", "sequential", "--buses", "1",
                   "--site", "socket", "--trials", "3", "--seed", "3",
                   "--rate", "0.05", "--entries", "8", "--packets", "2"]
TABLE1 = ["table1", "--entries", "10", "--packets", "2"]
EXPLORE = ["explore", "--max-power", "25"]

#: name -> argv; every case writes a journal
CASES = {
    "lookup-jobs1": LOOKUP + ["--jobs", "1"],
    "lookup-jobs2": LOOKUP + ["--jobs", "2"],
    "datapath-jobs1": DATAPATH + ["--jobs", "1"],
    "datapath-jobs2": DATAPATH + ["--jobs", "2"],
    "datapath-socket": DATAPATH_SOCKET + ["--jobs", "1"],
    "memory-jobs1": MEMORY + ["--jobs", "1"],
    "memory-jobs2": MEMORY + ["--jobs", "2"],
    "table1-jobs1": TABLE1 + ["--jobs", "1"],
    "table1-jobs2": TABLE1 + ["--jobs", "2"],
    # the compiled backend: pinned to the interpreter's bytes
    "table1-compiled": TABLE1 + ["--backend", "compiled", "--jobs", "1"],
    # the interpreter with the hazard detector's move_hook attached
    "table1-hazards": TABLE1 + ["--hazards", "--jobs", "1"],
    "explore-jobs2": EXPLORE + ["--jobs", "2"],
}

#: name -> (output digest, journal digest)
GOLDEN = {
    "datapath-jobs1": (
        "3bc3b617209d21bb966ab5638a186523e9be3ef33b599fc3c330a155657627e5",
        "f1a596e12198e055b94a14f55ca9f6e8dce95a06746ead4e7d5be068681b7b2f"),
    "datapath-jobs2": (
        "3bc3b617209d21bb966ab5638a186523e9be3ef33b599fc3c330a155657627e5",
        "f1a596e12198e055b94a14f55ca9f6e8dce95a06746ead4e7d5be068681b7b2f"),
    "datapath-socket": (
        "ca3844ab985bc4ba3d2fca608401cf6e5e54c7184e6b1af30557138862cfa83c",
        "905d00bc02c07a75fa1c3a17a429062ea271d488b0092bad6122543152b241df"),
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
    "table1-jobs1": (
        "35449676f151948a0a0a1e7a0d0f27a45d8751e6fd2003cb2483385ee63916e2",
        "7c8bf7441465080f4e29875e93bf6cf9a90bfbf6940daf4da297d5afdd60eaf0"),
    "table1-jobs2": (
        "35449676f151948a0a0a1e7a0d0f27a45d8751e6fd2003cb2483385ee63916e2",
        "7c8bf7441465080f4e29875e93bf6cf9a90bfbf6940daf4da297d5afdd60eaf0"),
    "table1-compiled": (
        "35449676f151948a0a0a1e7a0d0f27a45d8751e6fd2003cb2483385ee63916e2",
        "7c8bf7441465080f4e29875e93bf6cf9a90bfbf6940daf4da297d5afdd60eaf0"),
    "table1-hazards": (
        "35449676f151948a0a0a1e7a0d0f27a45d8751e6fd2003cb2483385ee63916e2",
        "9abf448cfa4c8c64dea31c22f394019e8d2b2bfb80b6b535e2b3260de8d39a08"),
    "explore-jobs2": (
        "482ace3e67794d41bec44f3cd181fafbe572025f00f6cb21e48aef53f4ea0049",
        "b17bf52e4e6408d50e7a7cc0e0ade518308a3f5cd6baa2a45b92f84ba361f86a"),
}


def output_digest(argv, directory):
    """Run one CLI command; returns the digest of its --output document."""
    output = directory / "out.json"
    main(list(argv) + ["--output", str(output)])
    document = json.loads(output.read_text())
    document.pop("metrics", None)
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()).hexdigest()


def run_case(name, directory):
    """Run one case's CLI command; returns (output digest, journal
    digest)."""
    journal = directory / "journal.jsonl"
    digest = output_digest(CASES[name] + ["--journal", str(journal)],
                           directory)
    return digest, hashlib.sha256(journal.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden(name, tmp_path, capsys):
    digests = run_case(name, tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN[name]


#: runs without a journal, pinned to the digest of the journalled case
#: named: ``table1`` and ``explore`` take the same campaign path either way
UNJOURNALLED = {
    "table1-jobs1": (TABLE1 + ["--jobs", "1"], "table1-jobs1"),
    "explore-jobs1": (EXPLORE + ["--jobs", "1"], "explore-jobs2"),
}


@pytest.mark.parametrize("name", sorted(UNJOURNALLED))
def test_unjournalled_output_matches_golden(name, tmp_path, capsys):
    argv, pinned = UNJOURNALLED[name]
    digest = output_digest(argv, tmp_path)
    capsys.readouterr()
    assert digest == GOLDEN[pinned][0]


#: (fetched document digest, job journal digest) of a supervised service
#: job: ``submit --entries 10 --packets 2``, ``serve --jobs 2``, then
#: ``jobs --fetch <id> --output``
SERVICE_GOLDEN = (
    "f130eb619f8bc5ff016c408769b728f21d9d31517cfbfbaf58f4039168966e9f",
    "7c8bf7441465080f4e29875e93bf6cf9a90bfbf6940daf4da297d5afdd60eaf0")


def test_service_job_matches_golden(tmp_path, capsys):
    root = str(tmp_path / "svc")
    assert main(["submit", "--root", root, "--entries", "10",
                 "--packets", "2"]) == 0
    job_id = capsys.readouterr().out.strip()
    assert main(["serve", "--root", root, "--jobs", "2"]) == 0
    digest = output_digest(["jobs", "--root", root, "--fetch", job_id],
                           tmp_path)
    journal = tmp_path / "svc" / "journals" / f"{job_id}.jsonl"
    capsys.readouterr()
    assert (digest, hashlib.sha256(journal.read_bytes()).hexdigest()) \
        == SERVICE_GOLDEN
