"""Unit tests for secondary indexes."""

from repro.db.index import HashIndex


def test_hash_index_add_find_remove():
    idx = HashIndex("t", "c")
    idx.add("x", 1)
    idx.add("x", 2)
    idx.add("y", 3)
    assert idx.find("x") == {1, 2}
    assert idx.find("y") == {3}
    assert idx.find("z") == set()
    idx.remove("x", 1)
    assert idx.find("x") == {2}
    idx.remove("x", 2)
    assert idx.find("x") == set()
    assert len(idx) == 1


def test_hash_index_remove_missing_is_noop():
    idx = HashIndex("t", "c")
    idx.remove("never", 1)  # no error
    idx.add("a", 1)
    idx.remove("a", 99)  # rowid not present
    assert idx.find("a") == {1}


def test_hash_index_bytearray_keys():
    idx = HashIndex("t", "c")
    idx.add(bytearray(b"blob"), 1)
    assert idx.find(b"blob") == {1}

