"""b-file parsing, caching, and the comparison table."""

import urllib.request

import pytest

from skewdyck.oeis import (
    CACHE_ENV_VAR,
    OeisError,
    compare_table,
    default_cache_dir,
    load_terms,
    parse_b_file,
)


class TestParse:
    def test_basic(self):
        terms = parse_b_file("# comment\n0 1\n1 1\n\n2 4\n")
        assert terms == {0: 1, 1: 1, 2: 4}

    def test_malformed_line(self):
        with pytest.raises(OeisError, match="malformed"):
            parse_b_file("0 1 extra\n")

    def test_non_integer_field(self):
        with pytest.raises(OeisError, match=r"malformed b-file line: '1 x'"):
            parse_b_file("0 1\n1 x\n")

    def test_empty(self):
        with pytest.raises(OeisError, match="no terms"):
            parse_b_file("# nothing\n")


class TestLoadTerms:
    def test_bundled_snapshot(self, tmp_path):
        terms = load_terms("A007564", cache_dir=tmp_path, offline=True)
        assert terms[0] == 1
        assert terms[5] == 562
        assert terms[7] == 20071
        assert len(terms) >= 40

    def test_cache_beats_bundle(self, tmp_path):
        (tmp_path / "A007564.txt").write_text("0 7\n")
        assert load_terms("A007564", cache_dir=tmp_path, offline=True) == {0: 7}

    def test_offline_without_data(self, tmp_path):
        with pytest.raises(OeisError, match="no cached or bundled"):
            load_terms("A999999", cache_dir=tmp_path, offline=True)

    def test_bad_id(self, tmp_path):
        with pytest.raises(OeisError, match="unknown sequence id"):
            load_terms("7564", cache_dir=tmp_path, offline=True)

    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert default_cache_dir() == tmp_path

    def test_fetch_writes_cache_atomically(self, tmp_path, monkeypatch):
        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return b"# fetched\n0 1\n1 2\n"

        seen = {}

        def fake_urlopen(url, timeout):
            seen["url"] = url
            return FakeResponse()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        terms = load_terms("A000123", cache_dir=tmp_path, offline=False)
        assert terms == {0: 1, 1: 2}
        assert seen["url"] == "https://oeis.org/A000123/b000123.txt"
        # cached in place, no leftover partial files
        assert (tmp_path / "A000123.txt").read_text().endswith("1 2\n")
        assert not list(tmp_path.glob("*.part"))
        # second load is served from the cache, no network touch
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda *a, **k: pytest.fail("network hit")
        )
        assert load_terms("A000123", cache_dir=tmp_path, offline=False) == {0: 1, 1: 2}

    def test_network_failure_suggests_offline(self, tmp_path, monkeypatch):
        def boom(url, timeout):
            raise urllib.error.URLError("no route")

        import urllib.error

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        with pytest.raises(OeisError, match="--offline uses the bundled snapshot"):
            load_terms("A007564", cache_dir=tmp_path, offline=False)


class TestCompare:
    def test_flags(self, tmp_path):
        rows = compare_table("A007564", 6, cache_dir=tmp_path, offline=True)
        by_n = {row["n"]: row for row in rows}
        assert by_n[4]["oeis_matches_dp"] and by_n[4]["oeis_matches_r"]
        assert not by_n[5]["oeis_matches_dp"]
        assert by_n[5]["oeis_matches_r"]
        assert by_n[6]["dp_total"] == 3322
