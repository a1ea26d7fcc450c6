"""`emaflow simulate` output files: pinned bytes, memory, atomic CSV, the writer process."""

import hashlib
import os
import signal
import tracemalloc

import numpy as np
import pytest

from emaflow import cli, lagrange
from emaflow.cli import main
from emaflow.errors import DomainError, WorkerError

SUBCRITICAL = [
    "--set", "profile.preset=quadratic",
    "--set", "profile.a=0.2",
    "--set", "profile.c=0.3",
]
SMALL = ["--set", "simulate.n_chars=64", "--set", "simulate.grid_size=32"]

# sha256 of (snapshots.csv, diagnostics.json) for one config that reaches
# the horizon, one that blows up part-way and one that starts at a pole.
GOLDEN = {
    "horizon": (
        SUBCRITICAL + SMALL + ["--set", "simulate.n_snapshots=5"],
        0,
        "deceab39edf11e1e6085520db8c453502775b548580243ac92aea86651fb8f18",
        "aa197ebefd96673584a618d85d742d2c96268744c2b523bd9ae1eef956db072e",
    ),
    "blowup": (
        [
            "--set", "profile.preset=quadratic", "--set", "profile.a=0",
            "--set", "profile.c=-2", "--set", "profile.d=1",
        ] + SMALL,
        2,
        "409ba08e39d1ffe5327a0e4b5b609da241a00880563f5df81867417c9a3ff08c",
        "04d7a7c228dc2f14272fef811a089a75debabf25eaf0c7ea4d16edda9a4c5165",
    ),
    "pole_at_t0": (
        [
            "--set", "simulate.n_chars=8",
            "--set", "profile.preset=quadratic", "--set", "profile.c=1e200",
        ],
        2,
        "0c2accf5893dd8d0dc234161bdf53f6ab151a78451d4a592bebdca2efc41621c",
        "76c6fdb1ad18ab0ddd3082ec5e44a9ce9b003f5d1565ad5e09e2e0fa0cc7fc10",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_outputs_are_bitwise_golden(name, tmp_path, capsys):
    argv, code, snapshots_sha, diagnostics_sha = GOLDEN[name]
    assert main(["simulate", "--out", str(tmp_path), *argv]) == code
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diagnostics.json", "snapshots.csv"]
    assert (_sha(tmp_path / "snapshots.csv"), _sha(tmp_path / "diagnostics.json")) == (
        snapshots_sha,
        diagnostics_sha,
    )


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_snapshots(tmp_path, capsys):
    # Each output time is written and dropped before the next one, so
    # 129 snapshots need about as much memory as 9.
    base = ["simulate", *SUBCRITICAL, "--set", "simulate.n_chars=4096"]
    peaks = {
        count: _traced_peak(
            base + ["--set", f"simulate.n_snapshots={count}", "--out", str(tmp_path / str(count))]
        )
        for count in (9, 129)
    }
    capsys.readouterr()
    assert peaks[129] < 1.25 * peaks[9], peaks


def test_simulate_error_part_way_keeps_the_old_snapshots(tmp_path, capsys, monkeypatch):
    old = b"t,r\nfrom,an earlier run\n"
    (tmp_path / "snapshots.csv").write_bytes(old)
    snapshot = lagrange._snapshot
    calls = []

    def failing_snapshot(*args):
        calls.append(None)
        if len(calls) == 3:
            raise DomainError("snapshot fields are not finite; cannot interpolate them")
        return snapshot(*args)

    monkeypatch.setattr(lagrange, "_snapshot", failing_snapshot)
    code = main(["simulate", "--out", str(tmp_path), *SUBCRITICAL, *SMALL])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: DomainError: snapshot fields are not finite; cannot interpolate them"
    ]
    assert len(calls) == 3
    _old_snapshots_kept(tmp_path, old)


def _old_snapshots_kept(tmp_path, old):
    # No temporary file is left behind, the old output is untouched and
    # the writer process has been reaped.
    assert [p.name for p in tmp_path.iterdir()] == ["snapshots.csv"]
    assert (tmp_path / "snapshots.csv").read_bytes() == old
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_writer_that_dies_is_one_worker_error(tmp_path, capsys, monkeypatch):
    old = b"t,r\nfrom,an earlier run\n"
    (tmp_path / "snapshots.csv").write_bytes(old)
    monkeypatch.setattr(cli, "_writer", lambda *args: os.kill(os.getpid(), signal.SIGKILL))
    # A block of 2048 rows is more than a pipe holds, so sending it
    # meets the writer's death as a broken pipe.
    big = ["--set", "simulate.grid_size=2048"]
    code = main(["simulate", "--out", str(tmp_path), *SUBCRITICAL, *SMALL, *big])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: WorkerError: the snapshot writer process was killed by signal 9"
    ]
    _old_snapshots_kept(tmp_path, old)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_write_error_in_the_writer_names_its_cause(tmp_path, capsys):
    old = b"t,r\nfrom,an earlier run\n"
    (tmp_path / "snapshots.csv").write_bytes(old)
    # Every write to the temporary file fails as on a full disk.
    (tmp_path / "snapshots.csv.tmp").symlink_to("/dev/full")
    code = main(["simulate", "--out", str(tmp_path), *SUBCRITICAL, *SMALL])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: WorkerError: the snapshot writer process exited with status 1: "
        "OSError: [Errno 28] No space left on device"
    ]
    _old_snapshots_kept(tmp_path, old)


def test_a_record_cut_short_is_one_worker_error(tmp_path):
    # The writer reads records of 1 + 4 * 2 floats; the second block has
    # three rows, so the stream ends inside a record.
    old = b"t,r\nfrom,an earlier run\n"
    path = tmp_path / "snapshots.csv"
    path.write_bytes(old)
    blocks = [(0.0, np.zeros((4, 2))), (1.0, np.ones((3, 2)))]
    with pytest.raises(WorkerError) as info:
        cli._write_blocks(path, ("t", "x", "y"), 4, iter(blocks))
    message = str(info.value)
    assert "exited with status 1: ValueError" in message
    assert len(message.splitlines()) == 1
    _old_snapshots_kept(tmp_path, old)
