"""NameNode: directory tree, file metadata, replica map, source picking."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hdfs.blocks import Block
from repro.hdfs.namenode import FileEntry, NameNode


def entry(path="/data/f", n_blocks=2):
    blocks = [Block(f"{path}#b{i}", path=path, index=i, size=10.0) for i in range(n_blocks)]
    return FileEntry(path=path, size=10.0 * n_blocks, blocks=blocks)


@pytest.fixture
def nn():
    return NameNode()


class TestDirectories:
    def test_mkdirs_creates_ancestors(self, nn):
        nn.mkdirs("/a/b/c")
        assert nn.is_dir("/a")
        assert nn.is_dir("/a/b")
        assert nn.is_dir("/a/b/c")

    def test_mkdirs_idempotent(self, nn):
        nn.mkdirs("/a/b")
        nn.mkdirs("/a/b")
        assert nn.is_dir("/a/b")

    def test_root_exists(self, nn):
        assert nn.is_dir("/")

    def test_relative_path_rejected(self, nn):
        with pytest.raises(ConfigurationError):
            nn.mkdirs("relative/path")

    def test_listdir(self, nn):
        nn.register_file(entry("/data/x"))
        nn.register_file(entry("/data/y"))
        nn.mkdirs("/data/sub")
        assert nn.listdir("/data") == ["sub", "x", "y"]
        assert nn.listdir("/") == ["data"]

    def test_listdir_on_file_rejected(self, nn):
        nn.register_file(entry("/data/x"))
        with pytest.raises(ConfigurationError):
            nn.listdir("/data/x")

    def test_mkdir_over_file_rejected(self, nn):
        nn.register_file(entry("/data/x"))
        with pytest.raises(ConfigurationError):
            nn.mkdirs("/data/x/sub")


class TestFiles:
    def test_register_and_lookup(self, nn):
        nn.register_file(entry("/data/f", 3))
        f = nn.file("/data/f")
        assert f.block_count == 3
        assert nn.exists("/data/f")

    def test_register_creates_parent_dirs(self, nn):
        nn.register_file(entry("/deep/nested/f"))
        assert nn.is_dir("/deep/nested")

    def test_duplicate_path_rejected(self, nn):
        nn.register_file(entry("/data/f"))
        with pytest.raises(ConfigurationError):
            nn.register_file(entry("/data/f"))

    def test_duplicate_block_id_rejected(self, nn):
        e1 = entry("/data/f1")
        nn.register_file(e1)
        clash = FileEntry(path="/data/f2", size=10.0, blocks=[e1.blocks[0]])
        with pytest.raises(ConfigurationError):
            nn.register_file(clash)

    def test_missing_file_rejected(self, nn):
        with pytest.raises(ConfigurationError):
            nn.file("/nope")

    def test_delete_removes_metadata(self, nn):
        e = entry("/data/f")
        nn.register_file(e)
        nn.delete("/data/f")
        assert not nn.exists("/data/f")
        with pytest.raises(ConfigurationError):
            nn.locations(e.blocks[0].block_id)

    def test_path_normalisation(self, nn):
        nn.register_file(entry("/data//f"))
        assert nn.exists("/data/f")


class TestReplicas:
    def test_add_and_locate(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        nn.add_replica(bid, "w-2")
        nn.add_replica(bid, "w-0")
        assert nn.locations(bid) == ["w-0", "w-2"]
        assert nn.replication_of(bid) == 2

    def test_locate_file_pairs_blocks_and_nodes(self, nn):
        e = entry("/data/f", 2)
        nn.register_file(e)
        nn.add_replica(e.blocks[0].block_id, "w-0")
        nn.add_replica(e.blocks[1].block_id, "w-1")
        located = nn.locate_file("/data/f")
        assert located[0] == (e.blocks[0], ["w-0"])
        assert located[1] == (e.blocks[1], ["w-1"])

    def test_remove_replica(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        nn.add_replica(bid, "w-0")
        nn.remove_replica(bid, "w-0")
        assert nn.locations(bid) == []

    def test_add_replica_unknown_block_rejected(self, nn):
        with pytest.raises(ConfigurationError):
            nn.add_replica("ghost", "w-0")

    def test_block_report_reconciles(self, nn):
        e = entry("/data/f", 2)
        nn.register_file(e)
        b0, b1 = (b.block_id for b in e.blocks)
        nn.add_replica(b0, "w-0")
        nn.add_replica(b1, "w-0")
        nn.apply_block_report("w-0", [b0])  # b1 lost on w-0
        assert nn.locations(b0) == ["w-0"]
        assert nn.locations(b1) == []

    def test_serves_matches_serving_locations(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        nn.add_replica(bid, "w-0")
        nn.add_cached_replica(bid, "w-1")
        for node in ("w-0", "w-1", "w-2"):
            assert nn.serves(bid, node) == (node in nn.serving_locations(bid))
        nn.remove_cached_replica(bid, "w-1")
        nn.remove_replica(bid, "w-0")
        assert not nn.serves(bid, "w-0") and not nn.serves(bid, "w-1")

    def test_serves_unknown_block_rejected(self, nn):
        with pytest.raises(ConfigurationError):
            nn.serves("ghost", "w-0")

    def test_stats(self, nn):
        e = entry("/data/f", 2)
        nn.register_file(e)
        nn.add_replica(e.blocks[0].block_id, "w-0")
        stats = nn.stats()
        assert stats["files"] == 1.0
        assert stats["blocks"] == 2.0
        assert stats["replicas"] == 1.0
        assert stats["mean_replication"] == 0.5


class TestPickSource:
    def test_prefers_non_reader_holder(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        nn.add_replica(bid, "w-0")
        nn.add_replica(bid, "w-1")
        assert nn.pick_source(bid, reader_node="w-0") == "w-1"

    def test_preferred_holder_wins(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        nn.add_replica(bid, "w-0")
        nn.add_replica(bid, "w-5")
        assert nn.pick_source(bid, reader_node="w-9", preferred="w-5") == "w-5"

    def test_no_replica_rejected(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        with pytest.raises(ConfigurationError):
            nn.pick_source(e.blocks[0].block_id, reader_node="w-0")

    def test_deterministic_choice(self, nn):
        e = entry("/data/f", 1)
        nn.register_file(e)
        bid = e.blocks[0].block_id
        for node in ("w-3", "w-1", "w-2"):
            nn.add_replica(bid, node)
        assert nn.pick_source(bid, "w-9") == "w-1"
