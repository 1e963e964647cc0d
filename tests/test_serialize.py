import os
import stat
import threading

from qcompact.serialize import write_atomic


def test_write_atomic_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        target = tmp_path / "report.json"
        write_atomic(str(target), "{}\n")
    finally:
        os.umask(old)
    assert target.read_text() == "{}\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_atomic_writes_into_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_atomic(str(fifo), "{}\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == ["{}\n"]
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]
