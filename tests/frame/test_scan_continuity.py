"""What a scan hands the graph layer stays byte-identical across refactors.

Partition task keys are cross-call cache keys and the fingerprint and
chunk stamps key the zone-map and chunk sidecars, so a change to how scans
are built must leave all of them exactly as they were: cache entries and
sidecars written before the change keep answering after it.  The table
below was recorded from fixed files (relative paths, pinned mtimes) for a
one-file scan, a two-path list and a glob over the same two files, plus an
append-refresh of the one-file scan.  Everything is read off
``partitions()`` so the same assertions hold for any scan class layout.
"""

from __future__ import annotations

import os

from repro.frame.io import scan_csv
from repro.graph import PartitionedFrame

MTIME_NS = 1_700_000_000_000_000_000
ROWS = [f"{index},{index * 0.5},w{index % 3}\n" for index in range(7)]

ONE_FILE = {
    "fingerprint": "5fa4012b7475011f803ab24b9cafee5ed1a5fbcd",
    "n_rows": 7,
    "boundaries": [(0, 3), (3, 6), (6, 7)],
    "byte_ranges": [("whole.csv", 10, 37), ("whole.csv", 37, 64),
                    ("whole.csv", 64, 73)],
    "chunk_stamps": [(1170869741, 27), (2993301930, 27), (2487093342, 9)],
    "keys": {
        "plain": ["read_csv_partition-88ca86af22792b040c41b99968939d74",
                  "read_csv_partition-b2732804d1b3ff5df050c57e694f0e3b",
                  "read_csv_partition-047073dd8a382bf9c15d382b1111550a"],
        "projected": ["read_csv_partition.proj-2f72a69864695cb5f359c90cd88af9d5",
                      "read_csv_partition.proj-9fdaad50c07964a3f1fe8635d20124a5",
                      "read_csv_partition.proj-fdd51635c4a3bf5012451b6b314428cb"],
        "filtered": ["read_csv_partition.filt-ea1c88393534ac75552a2e6adb952c55",
                     "read_csv_partition.filt-812da3b5208414e41dcaa26283ccbfc0",
                     "read_csv_partition.filt-26e2764ddf5fb3f7704a61569ffae376"],
    },
}

#: A two-path list and a glob over the same files are the same source.
TWO_FILES = {
    "fingerprint": "6fecd170d2f809b16c6e8a1f8eba541ae0553456",
    "n_rows": 7,
    "boundaries": [(0, 3), (3, 4), (4, 7)],
    "byte_ranges": [("part-0.csv", 10, 37), ("part-0.csv", 37, 46),
                    ("part-1.csv", 10, 37)],
    "chunk_stamps": [(1170869741, 27), (2178339656, 9), (1009110384, 27)],
    "keys": {
        "plain": ["read_csv_partition-38ab0dbc1077ffcff491446ed8da6d7b",
                  "read_csv_partition-3bcc7e5e1abee447cb71c43450055f8c",
                  "read_csv_partition-3cb90db21f0983b3638ff32b62f3242b"],
        "projected": ["read_csv_partition.proj-c0991d753b72894e0ee7a73268bc82cb",
                      "read_csv_partition.proj-4d30809f0f4056cb0dc8e61cd70124b9",
                      "read_csv_partition.proj-20d1484521ff00b28a06f376083017c7"],
        "filtered": ["read_csv_partition.filt-525a24ba4abf99bf2c35bf1ba68351f7",
                     "read_csv_partition.filt-dd6f543c04b13d3fea421aaaf7b0d611",
                     "read_csv_partition.filt-e4f60f81eefb6119e699cc61e0e0d9a4"],
    },
}

#: The one-file scan after two appended rows: the old chunks keep their
#: ranges, stamps and keys; one new chunk follows.
APPENDED = {
    "fingerprint": "582ddb7e12ce9408be2b3919bf0bf56858f6feaf",
    "n_rows": 9,
    "boundaries": [(0, 3), (3, 6), (6, 7), (7, 9)],
    "byte_ranges": ONE_FILE["byte_ranges"] + [("whole.csv", 73, 91)],
    "chunk_stamps": ONE_FILE["chunk_stamps"] + [(382501767, 18)],
    "keys": {"plain": ONE_FILE["keys"]["plain"]
             + ["read_csv_partition-fd1f285f0944494da78f18a822319aa2"]},
}


def _write(name, rows, mtime_ns=MTIME_NS, mode="w"):
    with open(name, mode, encoding="utf-8", newline="") as handle:
        handle.write(("x,y,label\n" if mode == "w" else "") + "".join(rows))
    os.utime(name, ns=(mtime_ns, mtime_ns))


def _facts(scan, pushdowns=("plain", "projected", "filtered")):
    parts = scan.partitions()
    requests = {"plain": {}, "projected": {"columns": ["y"]},
                "filtered": {"predicate": (("x", ">=", 2),)}}
    return {
        "fingerprint": scan.fingerprint(),
        "n_rows": scan.n_rows,
        "boundaries": [(part.start, part.stop) for part in parts],
        "byte_ranges": [part.args[:3] for part in parts],
        "chunk_stamps": [part.args[5] for part in parts],
        "keys": {name: [value.key for value in PartitionedFrame.from_source(
            scan, **requests[name]).partitions] for name in pushdowns},
    }


def test_scans_hand_the_graph_the_recorded_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write("whole.csv", ROWS)
    _write("part-0.csv", ROWS[:4])
    _write("part-1.csv", ROWS[4:])

    one = scan_csv("whole.csv", chunk_rows=3)
    assert _facts(one) == ONE_FILE
    assert (one.boundaries, one.chunk_stamps) == \
        (ONE_FILE["boundaries"], ONE_FILE["chunk_stamps"])
    assert one.byte_ranges == [span[1:] for span in ONE_FILE["byte_ranges"]]
    for target in (["part-0.csv", "part-1.csv"], "part-*.csv"):
        assert _facts(scan_csv(target, chunk_rows=3)) == TWO_FILES

    _write("whole.csv", ["7,3.5,w1\n", "8,4.0,w2\n"], MTIME_NS + 1, mode="a")
    assert _facts(one.refreshed(), ("plain",)) == APPENDED
