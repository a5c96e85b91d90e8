"""Pinned outputs of the journaled sweeps: the refactoring safety net.

Every other sweep test compares one run mode against another, so a change
that moves every mode the same way passes them all. These digests pin the
actual bytes: the SHA-256 of each ``--output`` document with its
wall-clock ``metrics`` section removed (canonical JSON), and of the
journal. A digest may only move in a change that means to alter that
sweep's output. The two SDC sweeps pin their rendered stdout too, and
the router and conformance commands at the end, which write no journal,
pin their stdout as well.
"""

import hashlib
import json
import re

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry, set_registry

LOOKUP = ["lookup-sweep", "--prefixes", "60", "200", "--lookups", "80",
          "--seed", "5"]
DATAPATH = ["sdc", "--table", "sequential", "--buses", "1", "--site", "bus",
            "--site", "result", "--trials", "3", "--seed", "3",
            "--rate", "0.05", "--entries", "8", "--packets", "2"]
MEMORY = ["sdc", "--prefixes", "40", "--lookups", "30", "--trials", "1",
          "--seed", "7", "--table", "sequential", "--table", "cam",
          "--table", "bloom"]
#: every table kind under parity with three flips a trial: damage of even
#: weight in one record slips past the scrub, and the trie and tree sites
#: are struck too
MEMORY_PARITY = ["sdc", "--prefixes", "80", "--lookups", "40", "--trials",
                 "6", "--seed", "11", "--protection", "parity", "--flips",
                 "3"]
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
    "memory-parity-flips3": MEMORY_PARITY + ["--jobs", "1"],
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
    "memory-parity-flips3": (
        "c9b4ada2dbb6ecc466a6b95c5609fded6abb0db87d7f0bbaf27328f79faa786f",
        "e621a9f84a99daa34c2109c623a976e54135a62a77d8e40daef98f26af629da0"),
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


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def canonical(document):
    """Digest of a JSON document in canonical form."""
    return sha256(json.dumps(document, sort_keys=True).encode())


def output_digest(argv, directory):
    """Run one CLI command; returns the digest of its --output document."""
    output = directory / "out.json"
    main(list(argv) + ["--output", str(output)])
    document = json.loads(output.read_text())
    document.pop("metrics", None)
    return canonical(document)


def run_case(name, directory):
    """Run one case's CLI command; returns (output digest, journal
    digest)."""
    journal = directory / "journal.jsonl"
    digest = output_digest(CASES[name] + ["--journal", str(journal)],
                           directory)
    return digest, sha256(journal.read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_output_matches_golden(name, tmp_path, capsys):
    digests = run_case(name, tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN[name]


#: name -> digest of the rendered table the case prints, which neither
#: the ``--output`` document nor the journal holds
STDOUT_GOLDEN = {
    "datapath-jobs1":
        "8f698de62332cc10a428df544eeb2ae2dd8c95ea06866f5f011156db116253d1",
    "datapath-socket":
        "5651ae97096324632cc1c46c6c47fbe7bb1b58c46071d408eed32b784836100b",
    "memory-jobs1":
        "67cc2d8026d5c5a64e6c5d967c384188e258cb92fa6e3797a59ce7638d476aa0",
}


@pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
def test_sweep_stdout_matches_golden(name, tmp_path, capsys):
    capsys.readouterr()
    run_case(name, tmp_path)
    assert sha256(capsys.readouterr().out.encode()) == STDOUT_GOLDEN[name]


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
#: ``jobs --fetch <id> --output``. The document holds the job id and the
#: canonical plan (every ``api.table1_campaign`` keyword a job may set);
#: its records and render are the journal's.
SERVICE_GOLDEN = (
    "66f2c6e4e0574d27120e5ebe750db05c7011a46c42f0196539867d188fc88741",
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
    assert (digest, sha256(journal.read_bytes())) == SERVICE_GOLDEN


# -- router and conformance surfaces ------------------------------------------------

#: commands with no journal, run with metrics off: name -> argv
SURFACES = {
    "chaos-ring": ["chaos", "--topology", "ring", "--routers", "4",
                   "--prefixes", "50", "--drop", "0.05", "--corrupt", "0.02",
                   "--reorder", "0.05", "--seed", "3"],
    **{f"conformance-{kind}": ["conformance", "--table", kind,
                               "--no-datapath"]
       for kind in ("sequential", "balanced-tree", "cam", "multibit-trie",
                    "bloom")},
}

#: name -> (stdout digest, output digest)
SURFACE_GOLDEN = {
    "chaos-ring": (
        "811120b9887e0c7deb72e91aba7fa3311cfc1cacd211f378ac2f5584594d5e58",
        "22dc40a377c5cd952b0210b7606cb85a2d09db7283dc6820211e9f423951182e"),
    "conformance-balanced-tree": (
        "b3353bbf3c0f30c3e2fdc293b5f2fbc7d5adf4ea38c9b4a682572f92ad443d2b",
        "56f3b26ecdd033fa1bb902dfbe40589b2c20952f5bffc502369242c8075fb258"),
    "conformance-bloom": (
        "204d8b1871b99a41b4c8a77a475a05e6d34e490788dfe13ab25329bb1cce7c9a",
        "117a2baa410c22931f9128fa651055d92b5b6e1ab4ebb5eb9cb2ded92c7b5d41"),
    "conformance-cam": (
        "dba223b0cdcb295b3d7e897c757dd192f8257c06d5d8c84993b0767b325f29cb",
        "8b18004b110c5cba0e560e892591fe44903b9db1299ac962031ce48b17f1f941"),
    "conformance-multibit-trie": (
        "5b30b0c45d50c86128a72f994486b5c182ed380c8401713913cb5a5d497d08ea",
        "ea3cfcb7eb88e39b56dc58bfd90b350cb382e7200d4aecefc4767c8928d03889"),
    "conformance-sequential": (
        "b2199a39627420f5c9dda9cb0238d1d9152ca714ab855c1fc2499c51b4543f13",
        "2325a70685ee21df058c09db78a33131759b4c7fe60eebaabf9310a0e195f11a"),
}

#: the capture the replay case reads, relative to the test's directory
#: (stdout names it)
CAPTURE = "capture.pcap"
RIPNG = ["ripng", "--topology", "ring", "--routers", "4", "--prefixes",
         "50", "--capture", CAPTURE]
#: the wall-clock latency percentiles of a replay, which differ between runs
LATENCY = re.compile(r"; latency p50 \S+ p99 \S+$", re.MULTILINE)

#: digests of ``ripng --capture`` and of ``conformance --replay`` on that
#: capture, with the replay's latency percentiles left out
CAPTURE_GOLDEN = {
    "ripng-stdout":
        "4e6a68a536fa7c0ef976cdd3c5dec6a1b57e240beaba1031f3f82c82d990d772",
    "ripng-output":
        "0e5134711863f02990a7d312269adfb890eb82a8865d1d944dff7dca4a74755b",
    "pcap":
        "0f71dc8b423415ec69da05d4b3b4f5fb7359ed8e4725631261240725206efaf2",
    "replay-stdout":
        "a0c44898e27ca4ac7883bd8f2ab15a84180f2a7b2878c4ee7ae73d6897cf95fa",
    "replay-output":
        "463e6069d3e80e0131ea405d27e16089af5c0aedc2aa5b16d1711e9088b1ff54",
}


@pytest.fixture
def metrics_off(monkeypatch):
    monkeypatch.setenv("REPRO_NO_METRICS", "1")
    previous = set_registry(MetricsRegistry(enabled=False))
    yield
    set_registry(previous)


def run_surface(argv, directory, capsys):
    """Run one CLI command; returns (stdout, its --output document sans
    ``metrics``)."""
    capsys.readouterr()
    output = directory / "out.json"
    assert main(list(argv) + ["--output", str(output)]) == 0
    stdout = capsys.readouterr().out
    document = json.loads(output.read_text())
    document.pop("metrics", None)
    return stdout, document


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surface_matches_golden(name, tmp_path, capsys, metrics_off):
    stdout, document = run_surface(SURFACES[name], tmp_path, capsys)
    assert (sha256(stdout.encode()), canonical(document)) \
        == SURFACE_GOLDEN[name]


def test_capture_and_replay_match_golden(tmp_path, capsys, monkeypatch,
                                         metrics_off):
    monkeypatch.chdir(tmp_path)
    stdout, document = run_surface(RIPNG, tmp_path, capsys)
    digests = {"ripng-stdout": sha256(stdout.encode()),
               "ripng-output": canonical(document),
               "pcap": sha256((tmp_path / CAPTURE).read_bytes())}
    stdout, document = run_surface(["conformance", "--replay", CAPTURE],
                                   tmp_path, capsys)
    document["replay"].pop("latency_percentiles")
    digests["replay-stdout"] = sha256(LATENCY.sub("", stdout).encode())
    digests["replay-output"] = canonical(document)
    assert digests == CAPTURE_GOLDEN
