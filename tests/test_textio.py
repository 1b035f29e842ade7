import io

import numpy as np

from gossipsim.textio import write_rows


def test_write_rows_cell_rule(tmp_path):
    rows = [
        (None, True, np.bool_(False), np.float64(0.1), np.int32(-7)),
        (1.0, np.float32(0.5), 3, "x", ""),
        (),
    ]
    buf = io.StringIO()
    write_rows(buf, "a,b,c,d,e", rows)
    assert buf.getvalue() == "a,b,c,d,e\n,1,0,0.1,-7\n1.0,0.5,3,x,\n\n"
    path = tmp_path / "rows.txt"
    write_rows(str(path), "# a b", [(np.int64(2), np.float64(1e-20))], sep=" ")
    assert path.read_bytes() == b"# a b\n2 1e-20\n"
