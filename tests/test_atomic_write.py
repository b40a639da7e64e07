"""The CLI's output writer: atomic replace, bytes already on disk left in
place, and the mode a plain open(path, "w") would give."""

import errno
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from volnet import cli
from volnet.cli import _atomic_write
from volnet.synthetic import SyntheticSpec, spec_to_dict

TEXT = "# config=abc\ndate,A\n2020-01-02,0.25\n"


@pytest.fixture
def replaces(monkeypatch) -> list:
    """Every os.replace call the writer makes, passed through."""
    calls = []
    real = os.replace

    def spy(src, dst):
        calls.append((src, dst))
        return real(src, dst)
    monkeypatch.setattr(os, "replace", spy)
    return calls


def temp_files(directory, name):
    return [p.name for p in directory.iterdir() if p.name.startswith(f".{name}.")]


def disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_identical_bytes_are_left_in_place_with_mtime_bumped(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    _atomic_write(path, TEXT)
    os.utime(path, (0, 0))
    inode = path.stat().st_ino

    def refuse(*args, **kwargs):
        raise AssertionError("an unchanged output must not be rewritten")
    monkeypatch.setattr(os, "replace", refuse)
    monkeypatch.setattr(cli.tempfile, "mkstemp", refuse)
    _atomic_write(path, TEXT)
    assert path.read_text() == TEXT
    assert path.stat().st_ino == inode
    assert path.stat().st_mtime > 0
    assert temp_files(tmp_path, "out.csv") == []


def test_same_size_other_bytes_are_replaced(tmp_path, replaces):
    path = tmp_path / "out.csv"
    path.write_text(TEXT)
    other = TEXT.replace("0.25", "0.26")
    assert len(other) == len(TEXT)
    _atomic_write(path, other)
    assert path.read_text() == other
    assert [dst for _, dst in replaces] == [path]


def test_a_symlink_is_replaced_by_a_regular_file(tmp_path, replaces):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text(TEXT)
    link.symlink_to(target)
    _atomic_write(link, TEXT)
    assert not link.is_symlink() and link.is_file()
    assert link.read_text() == TEXT == target.read_text()
    assert len(replaces) == 1


def test_a_directory_destination_is_code_file_not_found(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_dict(SyntheticSpec(
        assets=("A",), length=40, own=np.array([[0.01, 0.4, 0.3, 0.2]]),
        innovation_cov=np.array([[1e-4]]), seed=1))))
    out = tmp_path / "rv.csv"
    out.mkdir()
    assert cli.main(["simulate", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("volnet: code=FileNotFound")
    assert out.is_dir()
    assert temp_files(tmp_path, "rv.csv") == []


def test_an_unreadable_file_falls_back_to_replace(tmp_path, monkeypatch, replaces):
    # root reads a mode-000 file anyway, so the failed read is simulated
    path = tmp_path / "out.csv"
    path.write_text(TEXT)

    def unreadable(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")
    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    _atomic_write(path, TEXT)
    assert path.read_text() == TEXT
    assert [dst for _, dst in replaces] == [path]


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_a_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch, stage):
    path = tmp_path / "out.csv"
    path.write_text(TEXT)
    if stage == "write":
        real_fdopen = os.fdopen

        class FullDisk:
            def __init__(self, fd, mode):
                self.fh = real_fdopen(fd, mode)
                self.fileno = self.fh.fileno
                self.write = disk_full

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
        monkeypatch.setattr(os, "fdopen", FullDisk)
    else:
        monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="No space left"):
        _atomic_write(path, TEXT + "more\n")
    assert path.read_text() == TEXT
    assert temp_files(tmp_path, "out.csv") == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_the_umask_allows(tmp_path, umask, mode):
    new, changed = tmp_path / "new.csv", tmp_path / "changed.csv"
    changed.write_text("old\n")
    changed.chmod(0o600 if mode != 0o600 else 0o644)
    code = ("import sys; from volnet.cli import _atomic_write; "
            "[_atomic_write(p, 'x\\n') for p in sys.argv[1:]]")
    proc = subprocess.run([sys.executable, "-c", code, str(new), str(changed)],
                          capture_output=True, text=True, umask=umask)
    assert proc.returncode == 0, proc.stderr
    for path in (new, changed):
        assert path.read_text() == "x\n"
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
