import os
import stat

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
