"""Unit tests for both log-store backends (parametrized)."""

import sqlite3
from contextlib import closing

import pytest

from repro.errors import StorageError
from repro.storage import MemoryLogStore, SqliteLogStore

from ..conftest import make_record


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    backend = MemoryLogStore() if request.param == "memory" \
        else SqliteLogStore()
    yield backend
    backend.close()


def records(n, router="r1"):
    return [make_record(router_id=router, sport=1000 + i)
            for i in range(n)]


class TestAppendRead:
    def test_append_and_read_back(self, store):
        original = records(5)
        store.append_records("r1", 0, original)
        assert store.window_records("r1", 0) == original
        assert store.window_blobs("r1", 0) == \
            [r.to_bytes() for r in original]

    def test_append_preserves_order_across_calls(self, store):
        first, second = records(3), records(2)
        store.append_records("r1", 0, first)
        store.append_records("r1", 0, second)
        assert store.window_records("r1", 0) == first + second

    def test_windows_isolated(self, store):
        store.append_records("r1", 0, records(2))
        store.append_records("r1", 5, records(3))
        assert store.window_count("r1", 0) == 2
        assert store.window_count("r1", 5) == 3
        assert store.window_indices("r1") == [0, 5]

    def test_routers_isolated(self, store):
        store.append_records("r1", 0, records(2))
        store.append_records("r2", 0, records(1, router="r2"))
        assert store.router_ids() == ["r1", "r2"]
        assert store.window_count("r2", 0) == 1

    def test_missing_window_is_empty(self, store):
        assert store.window_blobs("ghost", 9) == []
        assert store.window_indices("ghost") == []


class TestMutation:
    def test_overwrite_raw(self, store):
        store.append_records("r1", 0, records(3))
        store.overwrite_raw("r1", 0, 1, b"tampered")
        assert store.window_blobs("r1", 0)[1] == b"tampered"

    def test_overwrite_missing_row(self, store):
        store.append_records("r1", 0, records(1))
        with pytest.raises(StorageError):
            store.overwrite_raw("r1", 0, 5, b"x")
        with pytest.raises(StorageError):
            store.overwrite_raw("ghost", 0, 0, b"x")

    def test_replace_window(self, store):
        store.append_records("r1", 0, records(3))
        store.replace_window("r1", 0, [b"a", b"b"])
        assert store.window_blobs("r1", 0) == [b"a", b"b"]

    def test_replace_with_empty(self, store):
        store.append_records("r1", 0, records(2))
        store.replace_window("r1", 0, [])
        assert store.window_blobs("r1", 0) == []

    def test_purge_window(self, store):
        store.append_records("r1", 0, records(4))
        assert store.purge_window("r1", 0) == 4
        assert store.window_blobs("r1", 0) == []
        assert store.purge_window("r1", 0) == 0


class TestLifecycle:
    def test_closed_store_rejects_operations(self, store):
        store.append_records("r1", 0, records(1))
        store.close()
        with pytest.raises(StorageError):
            store.window_blobs("r1", 0)

    def test_context_manager(self):
        with MemoryLogStore() as store:
            store.append_records("r1", 0, records(1))
        with pytest.raises(StorageError):
            store.router_ids()


#: One call of every store method: name → arguments.
STORE_CALLS = {
    "append_records": ("r1", 0, records(1)),
    "overwrite_raw": ("r1", 0, 0, b"x"),
    "replace_window": ("r1", 0, [b"x"]),
    "purge_window": ("r1", 0),
    "window_blobs": ("r1", 0),
    "window_indices": ("r1",),
    "router_ids": (),
    "put_checkpoint": ("c", b"x"),
    "get_checkpoint": ("c",),
    "checkpoint_names": (),
    "delete_checkpoint": ("c",),
}


class TestSqliteSpecific:
    def test_persistence_to_file(self, tmp_path):
        path = str(tmp_path / "logs.db")
        first = SqliteLogStore(path)
        first.append_records("r1", 0, records(3))
        first.close()
        second = SqliteLogStore(path)
        assert second.window_count("r1", 0) == 3
        second.close()

    def test_concurrent_writers(self):
        import threading
        store = SqliteLogStore()

        def writer(router_id):
            for window in range(5):
                store.append_records(router_id, window,
                                     records(3, router=router_id))

        threads = [threading.Thread(target=writer, args=(f"r{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.router_ids()) == 4
        for router_id in store.router_ids():
            assert store.window_indices(router_id) == list(range(5))
        store.close()

    def test_bad_path_raises(self):
        with pytest.raises(StorageError):
            SqliteLogStore("/nonexistent-dir/sub/logs.db")

    @pytest.mark.parametrize("method", sorted(STORE_CALLS))
    def test_sqlite_error_is_typed(self, tmp_path, method):
        """Every method turns a failing statement into a StorageError,
        never a raw ``sqlite3.Error``."""
        with closing(dropped_tables_store(tmp_path)) as store:
            with pytest.raises(StorageError):
                getattr(store, method)(*STORE_CALLS[method])


def dropped_tables_store(tmp_path):
    """A live store whose tables a second connection has dropped."""
    path = str(tmp_path / "logs.db")
    store = SqliteLogStore(path)
    store.append_records("r1", 0, records(1))
    store.put_checkpoint("c", b"x")
    other = sqlite3.connect(path)
    other.execute("DROP TABLE rlogs")
    other.execute("DROP TABLE checkpoints")
    other.commit()
    other.close()
    return store
