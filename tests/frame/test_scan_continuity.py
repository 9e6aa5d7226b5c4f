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
    "fingerprint": "361958ca95a4c86e60c07a564961a93623f33f2f",
    "n_rows": 7,
    "boundaries": [(0, 3), (3, 6), (6, 7)],
    "byte_ranges": [("whole.csv", 10, 37), ("whole.csv", 37, 64),
                    ("whole.csv", 64, 73)],
    "chunk_stamps": [(1170869741, 1170869741), (2993301930, 2993301930),
                     (2487093342, 2487093342)],
    "keys": {
        "plain": ["read_csv_partition-ee25b593b30a9612a5628885eb40b153",
                  "read_csv_partition-cdb922f764c088d55bf60ee1c8b1a5c2",
                  "read_csv_partition-e821c9183889681b66073ff6032f0386"],
        "projected": ["read_csv_partition.proj-d6ab956ad7cee4abb5132a81b46f4a9e",
                      "read_csv_partition.proj-3f2d58626598cd87e5345d616f5b1036",
                      "read_csv_partition.proj-e8189b5c731b15fa9bc330f4a075bf93"],
        "filtered": ["read_csv_partition.filt-4a6c866f1f154f4a1aa1aa5b0a240af6",
                     "read_csv_partition.filt-9fd42b86f3bdea05a2435d10396ca2af",
                     "read_csv_partition.filt-c885d8011ba1f29fecd02efb10cf45e6"],
    },
}

#: A two-path list and a glob over the same files are the same source.
TWO_FILES = {
    "fingerprint": "9cb56536d74e3cb915c667d42f0f6ccb655e26c0",
    "n_rows": 7,
    "boundaries": [(0, 3), (3, 4), (4, 7)],
    "byte_ranges": [("part-0.csv", 10, 37), ("part-0.csv", 37, 46),
                    ("part-1.csv", 10, 37)],
    "chunk_stamps": [(1170869741, 1170869741), (2178339656, 2178339656),
                     (1009110384, 1009110384)],
    "keys": {
        "plain": ["read_csv_partition-42445e167909831237f4caab685e2780",
                  "read_csv_partition-050e0d71ecb5a567f51ae92584fcb561",
                  "read_csv_partition-40bce161398e32c0182973c1b1647196"],
        "projected": ["read_csv_partition.proj-957c2e9c9038618453a2310d75bd9bbb",
                      "read_csv_partition.proj-44f5258de5d01f8dd0a0d25c2781dbd9",
                      "read_csv_partition.proj-c7e10efb02b05803613040457f14f4ca"],
        "filtered": ["read_csv_partition.filt-9a9a48748e998ed418adc5d6eb956748",
                     "read_csv_partition.filt-a5ea32bc5176df0b09970a0a92766daf",
                     "read_csv_partition.filt-f8bad743545e80bb4476c56a6b9c00b9"],
    },
}

#: The one-file scan after two appended rows: the old chunks keep their
#: ranges, stamps and keys; one new chunk follows.
APPENDED = {
    "fingerprint": "c7d31ee25add380ca04c1e56ccdd98b745b1da71",
    "n_rows": 9,
    "boundaries": [(0, 3), (3, 6), (6, 7), (7, 9)],
    "byte_ranges": ONE_FILE["byte_ranges"] + [("whole.csv", 73, 91)],
    "chunk_stamps": ONE_FILE["chunk_stamps"] + [(382501767, 382501767)],
    "keys": {"plain": ONE_FILE["keys"]["plain"]
             + ["read_csv_partition-0a7e70154e41a1f672ee9cb7759962e6"]},
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
