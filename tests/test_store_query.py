"""Unit tests for query predicates and the xpath-lite language."""

import pytest

from repro.errors import QueryError
from repro.model.records import DataRecord, RecordClass
from repro.store.query import AttributePredicate, RecordQuery, xpath_lite
from repro.store.xmlcodec import StoredRow, encode_row


def record(**attributes):
    return DataRecord.create(
        "PE3", "App01", "jobrequisition", timestamp=50, attributes=attributes
    )


class TestAttributePredicate:
    def test_equality(self):
        assert AttributePredicate("type", "==", "new").matches(
            record(type="new")
        )
        assert not AttributePredicate("type", "==", "new").matches(
            record(type="existing")
        )

    def test_inequality(self):
        assert AttributePredicate("type", "!=", "new").matches(
            record(type="existing")
        )

    def test_ordering(self):
        assert AttributePredicate("amount", ">", 10).matches(record(amount=11))
        assert not AttributePredicate("amount", ">", 10).matches(
            record(amount=10)
        )
        assert AttributePredicate("amount", "<=", 10).matches(
            record(amount=10)
        )

    def test_exists_absent(self):
        assert AttributePredicate("type", "exists").matches(record(type="x"))
        assert not AttributePredicate("type", "exists").matches(record())
        assert AttributePredicate("type", "absent").matches(record())

    def test_missing_attribute_never_matches_comparison(self):
        assert not AttributePredicate("type", "==", "new").matches(record())

    def test_cross_type_comparison_is_false_not_error(self):
        assert not AttributePredicate("amount", ">", 10).matches(
            record(amount="lots")
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            AttributePredicate("a", "~=", 1)


class TestRecordQuery:
    def test_where_chains_immutably(self):
        base = RecordQuery(entity_type="jobrequisition")
        refined = base.where("type", "==", "new")
        assert len(base.predicates) == 0
        assert len(refined.predicates) == 1

    def test_all_facets_conjoin(self):
        query = RecordQuery(
            record_class=RecordClass.DATA,
            app_id="App01",
            entity_type="jobrequisition",
            since=10,
            until=100,
        ).where("type", "==", "new")
        assert query.matches(record(type="new"))
        assert not query.matches(record(type="existing"))

    def test_time_window(self):
        assert not RecordQuery(since=51).matches(record())
        assert RecordQuery(since=50, until=50).matches(record())
        assert not RecordQuery(until=49).matches(record())


class TestXpathLite:
    @pytest.fixture
    def row(self):
        return encode_row(
            record(reqid="Req001", type="new", position="Sales")
        )

    def test_child_path(self, row):
        assert xpath_lite(row, "/jobrequisition/reqid") == ["Req001"]

    def test_child_path_with_ps_prefix(self, row):
        assert xpath_lite(row, "/ps:jobrequisition/ps:type") == ["new"]

    def test_anywhere_path(self, row):
        assert xpath_lite(row, "//position") == ["Sales"]

    def test_root_attribute(self, row):
        assert xpath_lite(row, "/jobrequisition/@ps:class") == ["data"]

    def test_no_match_returns_empty(self, row):
        assert xpath_lite(row, "/jobrequisition/salary") == []
        assert xpath_lite(row, "/invoice/amount") == []

    def test_timestamp_value_attribute(self, row):
        assert xpath_lite(row, "/jobrequisition/timestamp/@value") == ["50"]

    def test_malformed_path_rejected(self, row):
        with pytest.raises(QueryError):
            xpath_lite(row, "jobrequisition/reqid")
        with pytest.raises(QueryError):
            xpath_lite(row, "/")

    def test_malformed_xml_rejected(self):
        row = StoredRow("X", RecordClass.DATA, "App01", "<broken")
        with pytest.raises(QueryError):
            xpath_lite(row, "/a/b")


class TestXpathParseMemo:
    """xpath_lite parses each row's XML at most once per row visit."""

    def test_row_major_loop_parses_once_per_row(self):
        from repro.store import query as query_module

        paths = [
            "/jobrequisition/reqid",
            "/jobrequisition/type",
            "//reqid",
            "/jobrequisition/@ps:class",
        ]
        first = encode_row(record(reqid="R1", type="new"))
        before = query_module.xml_parse_count()
        values = [xpath_lite(first, path) for path in paths]
        assert values[0] == ["R1"]
        assert values[1] == ["new"]
        # Four path expressions, one parse.
        assert query_module.xml_parse_count() - before == 1

        # Moving to the next row re-parses exactly once more, even when
        # the loop later alternates back (the memo holds one row).
        second = encode_row(record(reqid="R2", type="replacement"))
        assert xpath_lite(second, paths[0]) == ["R2"]
        assert xpath_lite(second, paths[1]) == ["replacement"]
        assert query_module.xml_parse_count() - before == 2
        assert xpath_lite(first, paths[0]) == ["R1"]
        assert query_module.xml_parse_count() - before == 3

    def test_malformed_row_parses_once_but_raises_per_call(self):
        from repro.store import query as query_module

        bad = StoredRow(
            record_id="PE9",
            record_class=RecordClass.DATA,
            app_id="App01",
            xml="<jobrequisition><reqid>R1",
        )
        before = query_module.xml_parse_count()
        for __ in range(3):
            with pytest.raises(QueryError, match="malformed XML"):
                xpath_lite(bad, "/jobrequisition/reqid")
        assert query_module.xml_parse_count() - before == 1


def count_decodes(monkeypatch):
    """Count every row decode (XML or columnar) from here on."""
    from repro.store.columnar import ColumnarCodec
    from repro.store.xmlcodec import XmlCodec

    counts = {"decodes": 0}
    for cls, name in (
        (XmlCodec, "decode_row"),
        (ColumnarCodec, "decode_cols"),
    ):
        original = getattr(cls, name)

        def counted(self, *args, _original=original, **kwargs):
            counts["decodes"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


class TestOpenReadsNoRows:
    """Opening a store decodes nothing: finding rows is the backend's job,
    so there is no store-side index to hydrate from the table."""

    @pytest.mark.parametrize("shards", [1, 4], ids=["plain", "4-shard"])
    def test_open_over_populated_sqlite_decodes_nothing(
        self, shards, tmp_path, monkeypatch
    ):
        from repro.store.backends import ShardedBackend, SQLiteBackend
        from repro.store.store import ProvenanceStore

        from tests.test_store_store import sample_records

        path = str(tmp_path / "prov.db")

        def backend():
            if shards == 1:
                return SQLiteBackend(path)
            return ShardedBackend.for_sqlite(path, shards)

        store = ProvenanceStore(backend=backend())
        for index in range(8):
            store.extend(sample_records(f"App{index:02d}"))
        store.close()

        counts = count_decodes(monkeypatch)
        reopened = ProvenanceStore(backend=backend())
        assert len(reopened) == 24
        assert counts["decodes"] == 0
        # The first trace query decodes that trace's rows and no others.
        hits = reopened.select(RecordQuery(app_id="App03"))
        assert [r.record_id for r in hits] == [
            "R1-App03", "D1-App03", "E1-App03"
        ]
        assert counts["decodes"] == 3
        reopened.close()


class TestSQLiteAppIds:
    def test_cached_trace_list_follows_foreign_appends(self, tmp_path):
        import sqlite3

        from repro.model.records import DataRecord
        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore

        from tests.test_store_store import sample_records

        path = str(tmp_path / "prov.db")

        def group_by():
            conn = sqlite3.connect(path)
            try:
                return [
                    appid for (appid,) in conn.execute(
                        "SELECT appid FROM provenance "
                        "GROUP BY appid ORDER BY MIN(rowid)"
                    )
                ]
            finally:
                conn.close()

        local = ProvenanceStore(backend=SQLiteBackend(path))
        local.extend(sample_records("App02"))
        local.extend(sample_records("App01"))
        assert local.backend.app_ids() == group_by() == ["App02", "App01"]

        # A second handle appends to existing traces and starts new ones.
        foreign = ProvenanceStore(backend=SQLiteBackend(path))
        foreign.append(DataRecord.create("D2-App01", "App01", "note"))
        foreign.extend(sample_records("App09"))
        foreign.append(DataRecord.create("D2-App02", "App02", "note"))
        foreign.extend(sample_records("App03"))
        foreign.flush()
        assert local.backend.app_ids() == group_by() == [
            "App02", "App01", "App09", "App03"
        ]
        assert local.app_ids() == group_by()

        local.extend(sample_records("App00"))
        assert local.backend.app_ids() == group_by()
        assert local.backend.app_ids()[-1] == "App00"
        foreign.close()
        local.close()
