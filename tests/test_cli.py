"""CLI behaviour: outputs, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyck
from skewdyck import render
from skewdyck.cli import _emit_table, _parse_plain, build_parser, main
from skewdyck.render import render_document
from skewdyck.series import Series


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCount:
    def test_single_length(self, capsys):
        rc, out, _ = run(capsys, "count", "--t", "2", "--n", "9")
        assert rc == 0
        assert out.splitlines()[-1].split() == ["9", "19"]

    def test_parity_zero(self, capsys):
        rc, out, _ = run(capsys, "count", "--t", "2", "--n", "8")
        assert rc == 0
        assert out.splitlines()[-1].split() == ["8", "0"]

    def test_t3_length8(self, capsys):
        # exhaustively confirmed count (see test_automaton): five words
        rc, out, _ = run(capsys, "count", "--t", "3", "--n", "8")
        assert rc == 0
        assert out.splitlines()[-1].split() == ["8", "5"]

    def test_range_csv(self, capsys):
        rc, out, _ = run(capsys, "count", "--n", "0:6", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == "length,count"
        assert out.splitlines()[-1] == "6,4"

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "count", "--n", "3:3", "--format", "json")
        data = json.loads(out)
        assert data == [{"length": "3", "count": "1"}]

    def test_bad_t_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--t", "1", "--n", "3"])
        assert exc.value.code == 2


# sha256 of `count` stdout at lengths beyond the benchmark's sizes,
# recorded with the dense counting walk (commit 34ee6ca) so that a
# change to the walk cannot alter a byte of a large table unnoticed.
COUNT_DIGESTS = {
    ("--t", "2", "--n", "0:1500"): "4f1eee150e7fcd99669ef459aef031318cc946878e7cdd9a8a7b83d15faca7c5",
    ("--t", "3", "--n", "0:1200", "--format", "csv"): (
        "6bd21a82773df1c6a1876266b6a6ab688775f558db9f31baca7fe0b836d970cc"
    ),
}


class TestCountBytes:
    @pytest.mark.parametrize("argv", sorted(COUNT_DIGESTS))
    def test_output_digest(self, capsys, argv):
        rc, out, _ = run(capsys, "count", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == COUNT_DIGESTS[argv]

    def test_benchmark_count_vectors(self, capsys):
        # every `count` vector the benchmark can draw (52 of them: t, the
        # length range and the four formats) against the digest it checks;
        # the file is only read
        expected = Path(__file__).parents[1] / "bench" / "expected.json"
        digests = json.loads(expected.read_text())["digests"]
        vectors = sorted(argv for argv in digests if argv.split()[0] == "count")
        assert vectors
        for argv in vectors:
            rc, out, _ = run(capsys, *argv.split())
            assert rc == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digests[argv], argv

    @pytest.mark.parametrize("rows", [[], [[3, 1]], [[n, 7**n] for n in range(12)]])
    def test_json_is_what_json_dumps_writes(self, rows):
        # the JSON table is written without the json module, in its bytes
        for headers, body in (
            (["length", "count"], rows),
            (["n", "oeis", "table(3n)", "R", "oeis=table", "oeis=R"],
             [[n, "-", c, c, "yes", "NO"] for n, c in rows]),
        ):
            records = [dict(zip(headers, map(str, row))) for row in body]
            assert _emit_table(headers, body, "json") == json.dumps(records, indent=2) + "\n"


class TestSeries:
    def test_g0_text(self, capsys):
        rc, out, _ = run(capsys, "series", "g0", "--order", "22")
        assert rc == 0
        assert "12921*z^21" in out

    def test_s4_laurent(self, capsys):
        rc, out, _ = run(capsys, "series", "s4", "--order", "27")
        assert rc == 0
        assert out.startswith("z^-1 - z^2")
        assert "280250*z^26" in out

    def test_r_series(self, capsys):
        rc, out, _ = run(capsys, "series", "R", "--order", "8")
        assert rc == 0
        assert "562*z^5" in out and "20071*z^7" in out

    def test_prefix_selector(self, capsys):
        rc, out, _ = run(capsys, "series", "prefix:F:1", "--order", "8")
        assert rc == 0
        assert out.startswith("z + z^4")

    def test_json_exact_strings(self, capsys):
        rc, out, _ = run(capsys, "series", "s1", "--order", "9", "--format", "json")
        data = json.loads(out)
        assert data["valuation"] == 2
        assert data["coeffs"][0] == "1/2"

    def test_s6_selector(self, capsys):
        rc, out, _ = run(capsys, "series", "s6", "--order", "16")
        assert rc == 0
        assert out.startswith("z^-1 - z^3")

    def test_rl_g0_selector(self, capsys):
        rc, out, _ = run(capsys, "series", "rl-g0", "--order", "16")
        assert rc == 0
        assert "19*z^9" in out

    def test_unknown_selector(self, capsys):
        rc, _, err = run(capsys, "series", "g7")
        assert rc == 1
        assert "unknown series selector" in err

    def test_order_floor(self, capsys):
        with pytest.raises(SystemExit):
            main(["series", "g0", "--order", "4"])


# sha256 of `series <selector> --order <order> --format <format>` output,
# recorded with the Fraction-per-coefficient engine (commit 283c104) so
# that no later change to the series engine alters a byte unnoticed.
SERIES_DIGESTS = {
    ("g0", 8, "text"): "d86956cddcfa9281a8774862df98266423d41e7b805929d28309d388cb97160b",
    ("g0", 8, "json"): "18865abaa027c8d4b6d5b2cb6242ab9de0df289211058be7f18279d06dd1cec8",
    ("g0", 61, "text"): "e64fec02f6c8079dcdd6d40a96d8117b694951b7d924af1ff95ac071bdca0669",
    ("g0", 61, "json"): "0e07864c04faa4a2fb184e71c2db9592efc432b656f0d83855c7b1e5b7f6a71b",
    ("g0", 192, "text"): "ba6360f4b0179a7c12ff56ae730c00cc6109a95f6133b8b7cc808aaa7ddd4476",
    ("g0", 192, "json"): "f374d30eb3590e3d217eb81e0b9fd34b885eff92c8b1a8f8bab8f2f7203798bf",
    ("h0", 8, "text"): "91c05254ed3705d91802964b5d697f42f7380beb7d5e0f6eabbe5c1782baa798",
    ("h0", 8, "json"): "88e6143c3492f5c6c1668dfa253d0aec3d01b4e38e32e91aef1645a409216af4",
    ("h0", 61, "text"): "929453b6b70d71f1127399101061ed6dc3b77ff6336b58b97f36c88506df90e8",
    ("h0", 61, "json"): "c54ad6ce1a92185d138a9762a83e30efc1642f62a25e73bc0c18efd83a730b08",
    ("h0", 192, "text"): "6b050ceb23b1243484584e31099cc420dd595d0732dec69eff5446af6de2da23",
    ("h0", 192, "json"): "5f5a608cbd929837471131b3d68cce115ef34d7e1e0b7688587bc61177d413d0",
    ("total", 8, "text"): "e4f7dbd6439014fdb7f0323a6a4e53ab76353e91bdf865cf0968816632222130",
    ("total", 8, "json"): "34b0ffd24dbf867f3efc0fc18e05e8e002f9d8e49a92a4f4d3923a51fa2f3a52",
    ("total", 61, "text"): "22dd34b3215688b2672d3b51d0877926cff6fea430907d85fd1d170c12a0ad46",
    ("total", 61, "json"): "032e80aa1994777ecf12dc22929a4e0b3d78da1287147eda8219cd1957b3a474",
    ("total", 192, "text"): "b5e483c0582246122fc0941b00c7cd0f65541400e0fe5ac5ed78cc9f7988cfb5",
    ("total", 192, "json"): "4b2bcd3d31972ebc6bb088101e03acf3310ce2db398d84aa616944cae9d8598b",
    ("s4", 8, "text"): "93d46e99b8667ff7077e571482fbede0682e28bd1f7372c6f17a8b70bcd200bc",
    ("s4", 8, "json"): "9f8aec91c7e0691b266c5f84fae2eb48c180b663a3fa32e19f86c3eca108e38b",
    ("s4", 61, "text"): "8573f028e9a311889e6ad35f8200588ef932427328f3944c721a65cec322b122",
    ("s4", 61, "json"): "be6f47fa6d789753380778ad5001aa9366646f773996a02cbfe27f29dfdc3faf",
    ("s4", 192, "text"): "f8af1d26a860a10e65ba9f096e0ba7ff1fb9a4efaa1caa76e7de3d96e0cee483",
    ("s4", 192, "json"): "5d5c4d5e83d185510699c5bfa1bf473e988f38d9994d89218d99b81cc0e60040",
    ("s6", 8, "text"): "9731256c6e7f71bb9be23d6f5f94362eca7a2d4d1a64984fd4a7ea893ed43389",
    ("s6", 8, "json"): "8ac19cd123f44353abc16575ebeed6df17ba9ba16cbab928c20f8f6c78170574",
    ("s6", 61, "text"): "9a5843f7e2f02c6dc5ec323a42711b49065e772cb54499b535dc2bdd27b9c14d",
    ("s6", 61, "json"): "ca03818d1ba1c02c878569773761760b25c020ec1179cd9e105d8fa83b64de2d",
    ("s6", 192, "text"): "78d4ffd5361fff33cc3e296cc841f824bfdb3f03dade483cb7b30dd89a2f867d",
    ("s6", 192, "json"): "0e9f4fa941b23b8f1a5947875e889cdd6b527e6e874cb0cd8c9830511c6722ac",
    ("s1", 8, "text"): "043e214c3aa472ed31f1aae33d64c02bfa44522ace66814829a229bc17567c6c",
    ("s1", 8, "json"): "c64552c47e1f6ba5e0ae12e050bccc06e930626ffcae94ef0637ed071ac4aba1",
    ("s1", 61, "text"): "d9b655222b2e2fe66574611920fc34f75bb1e8cbc7e78417b5758ad50420217e",
    ("s1", 61, "json"): "7d08b706a20724f57efb3174f38a4a3e26c35a004bb0337727e48ae765e3432d",
    ("s1", 192, "text"): "0a37ca5796dd7dae2bb05d86ed2467d80521af51949d26e53458a7782277977d",
    ("s1", 192, "json"): "f608bd83409f529266134ec942eaf317ea6d6c804af288f4912f86a62be4ca0c",
    ("rl-g0", 8, "text"): "e4f7dbd6439014fdb7f0323a6a4e53ab76353e91bdf865cf0968816632222130",
    ("rl-g0", 8, "json"): "34b0ffd24dbf867f3efc0fc18e05e8e002f9d8e49a92a4f4d3923a51fa2f3a52",
    ("rl-g0", 61, "text"): "22dd34b3215688b2672d3b51d0877926cff6fea430907d85fd1d170c12a0ad46",
    ("rl-g0", 61, "json"): "032e80aa1994777ecf12dc22929a4e0b3d78da1287147eda8219cd1957b3a474",
    ("rl-g0", 192, "text"): "b5e483c0582246122fc0941b00c7cd0f65541400e0fe5ac5ed78cc9f7988cfb5",
    ("rl-g0", 192, "json"): "4b2bcd3d31972ebc6bb088101e03acf3310ce2db398d84aa616944cae9d8598b",
    ("R", 8, "text"): "bd9199a28c742f5aad4a6af17f67a5d6e91bcaac24ad61b87c659e23d32982ac",
    ("R", 8, "json"): "591be81c473a90a0dd31ddfe93dfd48d9a2bf07ff5fa7b0121ace27fcf98aa2f",
    ("R", 61, "text"): "e271e3c3ef01efbd6b4c58f39b1849faff2506c142bc190cb9aa26b21ad7458b",
    ("R", 61, "json"): "eec4391a01d057b6802d74d227b93d59160ac9b31f8fa08736bc88e1f631a664",
    ("R", 192, "text"): "6298b78f295bd112b62e1b857050780dcf967fc9c38716be9ecb219945467869",
    ("R", 192, "json"): "f52cf45a79c905d6955f738ece584cf301bf1a872a190d99eb8b5e7efb138b6c",
    ("prefix:F:0", 8, "text"): "5d4b6ab481eafc2ed60ea33cda929c518bfe5cc31db39dc3161d9aff5c033487",
    ("prefix:F:0", 8, "json"): "85490d88f8de0b5d5a33ca76023e5043f09ef42eaeb34280d6620701546918c0",
    ("prefix:F:0", 61, "text"): "d9c0ff732de13633c55751d16db1abf7e4c4c5256c925a15feb30f2c23857676",
    ("prefix:F:0", 61, "json"): "c3b5da264f464d54c5bc9091012aabf27f271a72ec7b2ed3a39419c738109165",
    ("prefix:F:0", 192, "text"): "d4bd73583ff229cd09d995fbac4165160b45d781414ec956ba3c8f67f8720d6b",
    ("prefix:F:0", 192, "json"): "911ea529a1db1d544ddf8f834d3618743061898c08ce1e1a15fc1b63278821d7",
    ("prefix:F:4", 8, "text"): "f68b622a81a00d61924c4d75d0f2cd0bd049a29591c09bf97d0275844b3c046b",
    ("prefix:F:4", 8, "json"): "861b7cdb2cb42f9b448877e622697071607aa7edd898a6e5656e331b06bb0a8c",
    ("prefix:F:4", 61, "text"): "42f6708d8235c11cd0a01f6085e73fbf869b0b61d9a7f0265a6ca058d3f8f76f",
    ("prefix:F:4", 61, "json"): "606c262b2ec38823edd0aebd8c2ef00d4a3606868e502bad6082574bddf86743",
    ("prefix:F:4", 192, "text"): "97c30ae703f0048770b2d312f08ecef44812a32fd0b2ee975a71a5395bc03c54",
    ("prefix:F:4", 192, "json"): "05e55d53fb36684b234250b8ccd4ca39e90019fd8755aa59e67d491bd2934c1a",
    ("prefix:G:0", 8, "text"): "d86956cddcfa9281a8774862df98266423d41e7b805929d28309d388cb97160b",
    ("prefix:G:0", 8, "json"): "18865abaa027c8d4b6d5b2cb6242ab9de0df289211058be7f18279d06dd1cec8",
    ("prefix:G:0", 61, "text"): "e64fec02f6c8079dcdd6d40a96d8117b694951b7d924af1ff95ac071bdca0669",
    ("prefix:G:0", 61, "json"): "0e07864c04faa4a2fb184e71c2db9592efc432b656f0d83855c7b1e5b7f6a71b",
    ("prefix:G:0", 192, "text"): "ba6360f4b0179a7c12ff56ae730c00cc6109a95f6133b8b7cc808aaa7ddd4476",
    ("prefix:G:0", 192, "json"): "f374d30eb3590e3d217eb81e0b9fd34b885eff92c8b1a8f8bab8f2f7203798bf",
    ("prefix:G:4", 8, "text"): "43ec6813b391796072b9ccf1bc85b6cf41852f53c74d86f7b9a630699aacbed8",
    ("prefix:G:4", 8, "json"): "e576f9315219ac0b188d6f8cfd88c540f9eb0dd4e3a4991518a679daa5dd3c75",
    ("prefix:G:4", 61, "text"): "624b6abb1664cb779f93132567132894037cf528602fdbe03690cb9353b2998a",
    ("prefix:G:4", 61, "json"): "5281eef5582e6790c6fdfbd78b4fe82be78a2f31b043fa07b7665fa972d90c0a",
    ("prefix:G:4", 192, "text"): "a3bd563b19f298ea85e5781e91a00d9aada13772b75500ef5280899ac206310d",
    ("prefix:G:4", 192, "json"): "79e062811ea235c49b4c711dff4860837195748dc55db3a557970f5ab64d716e",
    ("prefix:H:0", 8, "text"): "91c05254ed3705d91802964b5d697f42f7380beb7d5e0f6eabbe5c1782baa798",
    ("prefix:H:0", 8, "json"): "88e6143c3492f5c6c1668dfa253d0aec3d01b4e38e32e91aef1645a409216af4",
    ("prefix:H:0", 61, "text"): "929453b6b70d71f1127399101061ed6dc3b77ff6336b58b97f36c88506df90e8",
    ("prefix:H:0", 61, "json"): "c54ad6ce1a92185d138a9762a83e30efc1642f62a25e73bc0c18efd83a730b08",
    ("prefix:H:0", 192, "text"): "6b050ceb23b1243484584e31099cc420dd595d0732dec69eff5446af6de2da23",
    ("prefix:H:0", 192, "json"): "5f5a608cbd929837471131b3d68cce115ef34d7e1e0b7688587bc61177d413d0",
    ("prefix:H:4", 8, "text"): "cce4dcb93ecd84fedd3e17070cece3ce6720291be9d25b291be378776394d013",
    ("prefix:H:4", 8, "json"): "9965e036fc287a43a726318d4c9b3f3ee33b4633d69382d15722bdf8a7cef459",
    ("prefix:H:4", 61, "text"): "dc0a8a06b3ce778bafe7c3d4e4e4e58bcc60b5e555ed2220d4703a16de7e7795",
    ("prefix:H:4", 61, "json"): "72c88b3059de195e7c6f4965cd4705f4c83537743a51ca7bec37355883ab3e7a",
    ("prefix:H:4", 192, "text"): "caba2a94203dd243441e85834f542322adbe3f011b9c707838c36c2a9d5464c4",
    ("prefix:H:4", 192, "json"): "56d297120be9b371c3d57b3befa96a3e593700f94207527e166e0b757bdd4195",
}


# sha256 of `series <selector> --order <order>` text output at orders
# past `SERIES_DIGESTS`, where s1's denominators grow and R's square root
# runs to large coefficients, recorded with the Newton solver (commit
# c85b66e) so that the coefficient-by-coefficient solver that replaced it
# is pinned to the same bytes.
HIGH_ORDER_DIGESTS = {
    ("total", 2048): "2547b7548d535754877b946d094fead459a3466d42c2d7409f86967894efb6c7",
    ("s1", 1024): "6aef226431626a4941efaf44952b365909fdbf46cd56f26e6cd88429d917913f",
    ("R", 1024): "73318aa3f3eae2cd094b4db0a05e03aebbdd1852aea773e70202adf41dd06461",
}


class TestSeriesBytes:
    @pytest.mark.parametrize("selector", sorted({sel for sel, _, _ in SERIES_DIGESTS}))
    def test_output_digests(self, capsys, selector):
        expected = {k: v for k, v in SERIES_DIGESTS.items() if k[0] == selector}
        got = {}
        for key in expected:
            _, order, fmt = key
            rc, out, _ = run(capsys, "series", selector, "--order", str(order), "--format", fmt)
            assert rc == 0
            got[key] = hashlib.sha256(out.encode()).hexdigest()
        assert got == expected

    @pytest.mark.parametrize("selector, order", sorted(HIGH_ORDER_DIGESTS))
    def test_high_order_digests(self, capsys, selector, order):
        rc, out, _ = run(capsys, "series", selector, "--order", str(order))
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == HIGH_ORDER_DIGESTS[selector, order]


class TestRender:
    def test_stdout_svg(self, capsys):
        rc, out, _ = run(capsys, "render", "--t", "2", "--n", "9", "--mode", "plain")
        assert rc == 0
        assert out.count('class="diagram"') == 12

    def test_skew_tikz_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig.tex"
        rc, out, _ = run(
            capsys, "render", "--t", "2", "--n", "9", "--mode", "skew",
            "--format", "tikz", "--out", str(target),
        )
        assert rc == 0
        assert str(target) in out
        assert target.read_text().count("\\begin{tikzpicture}") == 19

    def test_cap_exceeded(self, capsys):
        rc, _, err = run(capsys, "render", "--t", "2", "--n", "27")
        assert rc == 1
        assert "cap" in err

    @pytest.mark.parametrize("before", [None, b"an earlier figure\n"], ids=["absent", "existing"])
    def test_cap_exceeded_leaves_out_file_alone(self, tmp_path, capsys, before):
        # a failed render must neither create nor truncate the --out file
        target = tmp_path / "fig.svg"
        if before is not None:
            target.write_bytes(before)
        rc, out, err = run(capsys, "render", "--t", "2", "--n", "27", "--out", str(target))
        assert rc == 1
        assert "cap" in err and "use the automaton counting table instead (`skewdyck count`" in err
        assert out == ""
        assert (target.read_bytes() if target.exists() else None) == before

    @pytest.mark.parametrize("fmt", ["svg", "tikz"])
    def test_cap_refused_before_any_box_sized_table(self, tmp_path, capsys, monkeypatch, fmt):
        # the grid box costs nothing to work out, so only the walk's own
        # check keeps a huge --n from building a vertex table over its box
        def refused(*args):
            raise AssertionError("a vertex table was built")

        monkeypatch.setattr(render, "_vertex_text", refused)
        target = tmp_path / f"fig.{fmt}"
        rc, out, err = run(
            capsys, "render", "--t", "2", "--n", "100000", "--format", fmt, "--out", str(target)
        )
        assert rc == 1
        assert "exceeds the exhaustive-enumeration cap (24)" in err
        assert out == ""
        assert not target.exists()

    def test_unwritable_out_is_a_command_error(self, tmp_path, capsys):
        # a file error ends as one stderr line and status 1, not a traceback
        target = tmp_path / "missing" / "fig.svg"
        rc, out, err = run(capsys, "render", "--n", "3", "--out", str(target))
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1

    def test_mode_choices_are_the_modes_render_accepts(self):
        parser = build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        mode = next(a for a in commands.choices["render"]._actions if a.dest == "mode")
        assert sorted(mode.choices) == ["plain", "skew"]
        for choice in mode.choices:
            render_document(2, 3, choice, "red-overlay", False, "svg")  # accepted
        with pytest.raises(ValueError, match="mode must be one of"):
            render_document(2, 3, "fancy", "red-overlay", False, "svg")


# sha256 of the `render --out` file for
# (t, n, mode, style, mirrored, format), recorded with the Fraction
# coordinate emitters (commit 64666ca) so that no later change to
# `paths` or `render` alters a byte of a figure unnoticed.
RENDER_DIGESTS = {
    (2, 0, "skew", "red-overlay", True, "svg"): "8afbd57f3b6a4069c1311b6654f4665aaf214947ab1b02d31999f0c7a930bcca",
    (2, 1, "skew", "red-overlay", False, "tikz"): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    # three diagrams, so the SVG header's row is narrower than four
    # (sha256 copied from bench/expected.json)
    (2, 6, "plain", "red-overlay", False, "svg"): "050f8d431a0007b24fa0b1659c15f896f11c584003bb23ed0ab6aa125e5a56a2",
    (2, 6, "plain", "red-overlay", True, "svg"): "1361638c3cbb4f09cf3f1db40b9a364c3c38d8a9cd99015d698aef8c0a97a162",
    (2, 6, "plain", "left", False, "svg"): "72d5f27e51de47dbffd8d2247e5ba6778df073e273cb05fff4d0fe00a1dce1f3",
    (2, 6, "plain", "left", True, "svg"): "dd65c71d1889137d88d50faeb09cee42d5b8b4cbd3195813707ae68cb8fde6b2",
    (2, 9, "skew", "red-overlay", False, "svg"): "d43a70935c9d00bef839e528bcd349ec4b4b60a36a59f2694de45eec9ba5789f",
    (2, 9, "skew", "red-overlay", True, "tikz"): "e1347138b2d1482f5e22fef4115f5ffb209fa59e58b45764aec12db02e7bdc5b",
    (2, 12, "skew", "left", False, "tikz"): "47fb7130b1c18c09bdd340a79d1d2fc2ff9eb5cf01dc1dc816ef67aac0dbab19",
    (2, 12, "plain", "left", True, "svg"): "bb4486ceb256f717d2a7294e90a12bfd8cd503cf42558d0520dafe2044b80842",
    (2, 12, "skew", "red-overlay", True, "svg"): "58b5f05a7adbb96e3eef65681e34477a2c67d897ea92401200a2f38b210e3a13",
    (3, 12, "skew", "left", True, "svg"): "45f79d2451e03b02889c77bbb05595b7078aa2a90f751bf7ddec7b5b8acf5f0c",
    (3, 12, "plain", "red-overlay", False, "tikz"): "5bb6661fd65e18857ff8d24cc527953b618e4a376048a0d2f7af17621d610192",
    (3, 16, "skew", "red-overlay", False, "tikz"): "ab57e40e855f82c852567428f500dca13456d425141b9f1bc74a4664e0279d53",
    (3, 16, "skew", "left", False, "svg"): "e4c4f4bf4a2c5b1ebe582934c952922d120121275fff671e081e7f6ec5687923",
    (3, 16, "plain", "left", True, "tikz"): "2176a90077955b58e2dff50e0c549901045552f2f4a3380480050ab2e606b13e",
    (3, 16, "plain", "red-overlay", True, "svg"): "3f41fae2cb2e10eee9de8c0e628485cf37116572eaf314e00c048d59fa9b4616",
    (4, 10, "plain", "left", False, "svg"): "39fd369d3e051171221f1c6201a41dbd1afb3fbd728b2d5e4aed3ac995fc9bf2",
    (4, 15, "skew", "red-overlay", True, "tikz"): "541173c8306225bee2129a18207f22b1cfdded4c7b4d745a366b43d6cc63f018",
    (4, 15, "skew", "left", True, "tikz"): "82d0719ec2caa46d4966b2524ff88c1544024cef1c6be2549db7a7034353c2ea",
    (4, 15, "plain", "red-overlay", False, "svg"): "a52335c8b94de066f1dcb52494e769af7f6d58f11f41f931ca9f6dac80caf90b",
    (4, 15, "skew", "red-overlay", False, "svg"): "7b1bfdbc747201c7054cecfaa70e5dab0b83e0ea4caddd5508ca415da006f1b2",
}


def render_digest(tmp_path, capsys, vector) -> str:
    """sha256 of the `render --out` file for one argument vector."""
    t, n, mode, style, mirrored, fmt = vector
    target = tmp_path / f"fig.{fmt}"
    argv = [
        "render", "--t", str(t), "--n", str(n), "--mode", mode,
        "--style", style, "--format", fmt, "--out", str(target),
    ]
    rc, _, _ = run(capsys, *argv, *(["--mirrored"] if mirrored else []))
    assert rc == 0
    return hashlib.sha256(target.read_bytes()).hexdigest()


class TestRenderBytes:
    @pytest.mark.parametrize("vector", sorted(RENDER_DIGESTS))
    def test_output_digest(self, tmp_path, capsys, vector):
        assert render_digest(tmp_path, capsys, vector) == RENDER_DIGESTS[vector]


# The benchmark's heaviest figures, the ones past n = 16, with the sha256
# that bench/expected.json records for them.
HEAVY_RENDER_DIGESTS = {
    (3, 24, "skew", "red-overlay", False, "tikz"): "ca71528072cb621d4b87aff5529a46c7c0cdc7ebc3ef179e7358ffc9285072cb",
    (2, 18, "skew", "red-overlay", False, "svg"): "c99b4b96d6c6ce459689734326c8a8eeaffa7475c9bc950f34cb3d18012ce3bc",
    (3, 20, "skew", "left", False, "svg"): "e74a8a0bdbd948768a9a740dd8dc487a96cec8301940d6a6b9f5ef6259f8a81c",
    (2, 18, "plain", "left", False, "tikz"): "21d24bf852216ea6e7a4304950a09847ab22d4defa9394438110850ab9affc45",
    (4, 20, "skew", "left", False, "tikz"): "1541740cdc6e87ebc7fedbf55a4d95f2270c1bb00cea1467554199c1b67ee9ae",
    (4, 20, "plain", "red-overlay", False, "svg"): "16b701e2db5ade97b28ee6e4ec96380498c11f6bbbd4b3fbff948bac51d86cf4",
    (2, 18, "skew", "red-overlay", True, "svg"): "8db8b76e29de5bcc8546d343027d08b9ca0223f7a331779c169ae01a09488518",
    (4, 20, "skew", "left", True, "tikz"): "d4c78db8155428e3c0cc0ab9a4a58461ce92f252c120d97aabef0bcffa14314e",
}


@pytest.mark.parametrize("vector", sorted(HEAVY_RENDER_DIGESTS))
def test_heavy_render_digest(tmp_path, capsys, vector):
    assert render_digest(tmp_path, capsys, vector) == HEAVY_RENDER_DIGESTS[vector]


class TestVerify:
    def test_small_order_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "12", "--t", "2")
        assert rc == 0
        assert "result: PASS" in out
        assert "reduced" in out  # the coverage note

    def test_minimum_order_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "8", "--t", "2")
        assert rc == 0
        assert "reduced" in out

    def test_adjudication_line_present(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "16", "--t", "2,3")
        assert rc == 0
        [line] = [l for l in out.splitlines() if "adjudication" in l]
        assert "563" in line and "562" in line

    def test_large_t_passes(self, capsys):
        # u^(2t) in the residual check used to pass the recursion limit
        rc, out, _ = run(capsys, "verify", "--order", "8", "--t", "600")
        assert rc == 0
        # the root is solved far enough for the residual to reach z^0
        assert "PASS  good-root residual t=600  [zero through z^9]" in out

    def test_repeated_t_values_run_once(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "12", "--t", "2,2")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "verification (order=12, t=2)"
        checks = [line for line in lines if line.startswith(("  PASS", "  FAIL"))]
        assert len(checks) == len(set(checks))
        assert sum("enumeration-vs-table" in line for line in checks) == 1
        assert "result: PASS" in out

    def test_repeated_t_values_keep_first_seen_order(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "12", "--t", "3,2,3")
        assert rc == 0
        assert out.splitlines()[0] == "verification (order=12, t=3,2)"

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "verify", "--order", "12", "--t", "2", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["passed"] is True


# sha256 of `verify --order <order> --t <ts> --format <format>` stdout for
# the three verify-suite benchmark vectors, so that a change to the series
# engine cannot alter a byte of a verify report unnoticed.  Re-recorded
# when the kernel checks became one loop over t (one general-t kernel
# solution replaced the t = 2 closed forms and the ratio law).
VERIFY_DIGESTS = {
    (48, "2,3,4", "text"): "2d3392c2087afab41e430047e051df8a15a36b14aee6ddb7f90eba6cb30a97e4",
    (48, "2,3,4", "json"): "810efead8e18922de29d5640c3d585f9da986aaa94f4e01bb62a8dede99afe2b",
    (64, "2", "text"): "cb022d109ef1a353f82687fac723a17fb22da3894a05de8c414d6c2bc5a9927d",
    (64, "2", "json"): "0388a494ea1297259c2f44e116ba793a4496f5fc67dbcee1fac3693bbe0a43a1",
    (96, "2,3", "text"): "5747bf1df008a05b76f765ba459d902d253290028054a4d3e6a0fecceeab1c3a",
    (96, "2,3", "json"): "2d69ac5fa3d91ea2f45bbf14ea108bcc5d1303da86dc5be5617fc849c0d25669",
    # low orders print the reduced-window note; a repeated t is dropped and
    # the first-seen order kept
    (8, "2,3", "text"): "1b26023ac326c35c6f74fa6a5d51da1f125ecc2e31f5d415dffe7509d404f324",
    (31, "2,3,4", "json"): "4a7f85db07a118607b3596613388341092ff08a5f2ff45de5d28f911cb2a3709",
    (64, "3,2,3", "text"): "b7ba0cd1ad43fb5f2be364301f5d722e5c636513aeec49e96f3c35fa28806361",
}


class TestVerifyBytes:
    @pytest.mark.parametrize("vector", sorted(VERIFY_DIGESTS))
    def test_output_digest(self, capsys, vector):
        order, ts, fmt = vector
        rc, out, _ = run(capsys, "verify", "--order", str(order), "--t", ts, "--format", fmt)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[vector]


class TestBounds:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series", "g0", "--order", "4"], "order must be between 8 and 2048, got 4"),
            (["series", "g0", "--order", "2049"], "order must be between 8 and 2048, got 2049"),
            (["series", "g0", "--order", "x"], "invalid order value: 'x'"),
            (["verify", "--order", "513"], "order must be between 8 and 512, got 513"),
            (["count", "--n", "0:4001"], "length must be at most 4000, got 4001"),
            (["count", "--n", "4001"], "length must be at most 4000, got 4001"),
            (["render", "--n", "-1"], "length must be at least 0, got -1"),
            (["oeis", "A007564", "--n-max", "1334"], "n-max must be between 0 and 1333, got 1334"),
            (["oeis", "A007564", "--t", "3"], "unrecognized arguments: --t 3"),
            (["count", "--n", "3:"], "invalid length value: '3:'"),
            (["count", "--t", "x", "--n", "3"], "invalid t value: 'x'"),
            (["verify", "--t", "601"], "t must be between 2 and 600, got 601"),
            (["verify", "--t", "2,3,601"], "t must be between 2 and 600, got 601"),
            (["verify", "--t", "2,3,4,5,6,7,8,9,10"], "t list must hold at most 8 values, got 9"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_prefix_level_beyond_cap(self, capsys):
        # order + k may pass the order cap: no word shorter than the order
        # ends at level k >= order, so the series is zero on its window
        rc, out, _ = run(capsys, "series", "prefix:F:2000", "--order", "64")
        assert rc == 0
        assert out == str(Series.zero(64)) + "\n"

    def test_benchmark_vectors_within_caps(self):
        # every argument vector the benchmark can draw must still parse, and
        # on the plain path, to the namespace argparse builds
        expected = Path(__file__).parents[1] / "bench" / "expected.json"
        vectors = json.loads(expected.read_text())["digests"]
        parser = build_parser()
        for argv in vectors:
            argv = argv.replace("{out}", "out.svg").split()
            plain = _parse_plain(argv)
            assert plain is not None, argv
            assert vars(plain) == vars(parser.parse_args(argv))


# sha256 of `--help` stdout and of usage-error stderr with COLUMNS=80,
# recorded with the hand-written argparse parser (commit 1aa1709) under
# CPython 3.11, so that building the parser from the argument table cannot
# move a byte of help or of an error message.
HELP_DIGESTS = {
    ("--help",): "09c4c0c192eb45974b4c21e3c11b7c9afbc44752defb31e4434e1d22c1157aae",
    ("count", "--help"): "b69427f07a2d89f816cfaad30232a65a40a5cbee0e05f4b90377b2c9473b34c3",
    ("series", "--help"): "f26010e581f76365bddd76658f45649de99b5d61e76a9390fdaab31f9cb655b1",
    ("render", "--help"): "6f4843a95cf6378e4891eeebf73a22715d06d601485439874b45d96aabf46f85",
    ("verify", "--help"): "c0914457053f2d8107701072076a70e76d200d16cfb8cdaa7abc1f9e271e6eae",
    ("oeis", "--help"): "49ac345edf6207e71f33cd0642de9b1ff056d57ea28ced77129ec7a281113739",
}
USAGE_ERROR_DIGESTS = {
    ("series", "g0", "--order", "4"): "103a48510280c2daa128a5d9df7559a13b35ef563cbe9a52f0ae1e4f3e6536cb",
    ("series", "g0", "--order", "2049"): "4217bb443987dbe015fbc365041af749f9471681f60563e53a22b1161f8731ae",
    ("series", "g0", "--order", "x"): "35970278cd529c341fbd1ec079af686ae351cabdc36472d7c2f2106351b4d797",
    ("verify", "--order", "513"): "1cadf374542d8c3e3bd42f1af73d8105dc395001770000edf650971aba69f8b5",
    ("count", "--n", "0:4001"): "03b05423a2b83e5fa051d7cc0cac4f6a71a4777d650d093fe4d704a875aed99f",
    ("count", "--n", "4001"): "03b05423a2b83e5fa051d7cc0cac4f6a71a4777d650d093fe4d704a875aed99f",
    ("render", "--n", "-1"): "d007720e575054b688cfb13a0bcf795d60bf675be051452d5b2bc6d6f242913e",
    ("oeis", "A007564", "--n-max", "1334"): "357f8a28b06542b456b51dec8e411a3e3d430d32e40fcc883d0168b9a82eda82",
    ("oeis", "A007564", "--t", "3"): "be011e51583259ab395439ca3d10088fa96dc184b529436f3f743f2cc0a2fe65",
    ("count", "--n", "3:"): "69b0917d188ca883af942e5d5aba893629b4e566e97111efd2b327440a05defe",
    ("count", "--t", "x", "--n", "3"): "577dd434f074d3f7e45f4429f4021164e3a13738ed81dc58d4de6b41b37ebf61",
    ("verify", "--t", "601"): "2195765e225e284a9106905ce066a43826f5530a743c652d096c64ce773238f7",
    ("verify", "--t", "2,3,601"): "2195765e225e284a9106905ce066a43826f5530a743c652d096c64ce773238f7",
    ("verify", "--t", "2,3,4,5,6,7,8,9,10"): (
        "51631fe92518823232aef7a45783f8014eb00d47d4dce8323944a5d54fe8de84"
    ),
}


@pytest.mark.parametrize("argv", [*HELP_DIGESTS, *USAGE_ERROR_DIGESTS])
def test_help_and_usage_error_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    if argv in HELP_DIGESTS:
        assert (exc.value.code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[argv]
    else:
        assert (exc.value.code, out) == (2, "")
        assert hashlib.sha256(err.encode()).hexdigest() == USAGE_ERROR_DIGESTS[argv]


# Argument vectors near the canonical spelling of a command: options of
# the command with values in and out of range, negative, not integers or
# not a choice, some spelled `--opt=value`, repeated or missing, and, mixed
# in, words only argparse takes: abbreviations, help, `--`, stray values.
_COMMAND_OPTIONS = {
    "count": ["--t", "--n", "--format"],
    "series": ["--order", "--format"],
    "render": ["--t", "--n", "--mode", "--style", "--mirrored", "--format", "--out"],
    "verify": ["--order", "--t", "--format"],
    "oeis": ["--n-max", "--cache-dir", "--offline", "--format"],
}
_FLAGS = ("--mirrored", "--offline")
_VALUES = {
    "--t": ["2", "3", "600", "601", "1", "-1", "x", "2,3", "2,,3", "2,3,601", "2,3,4,5,6,7,8,9,10"],
    "--n": ["0", "9", "24", "0:20", "3:", "5:2", "4001", "0:4001", "-1", "x"],
    "--format": ["table", "csv", "json", "markdown", "text", "svg", "tikz", "xml", ""],
    "--order": ["8", "16", "4", "2048", "2049", "1.5", "-3", "x"],
    "--mode": ["plain", "skew", "fancy"],
    "--style": ["red-overlay", "left", "right"],
    "--out": ["out.svg", ""],
    "--n-max": ["0", "3", "1333", "1334", "-1"],
    "--cache-dir": ["cache"],
}
_POSITIONALS = ["total", "g0", "prefix:G:4", "A007564", ""]
_ODD_WORDS = [
    "--ord", "--fo", "--mi", "--n-m", "--cache", "-h", "--help", "--", "--order", "--n-max",
    "-1", "stray",
]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_COMMAND_OPTIONS, "bogus"]))
    options = _COMMAND_OPTIONS.get(command, ["--t"])
    n_positionals = 1 if command in ("series", "oeis") else 0
    if draw(st.integers(0, 4)) == 0:
        n_positionals = draw(st.integers(0, 2))
    chunks = [[draw(st.sampled_from(_POSITIONALS))] for _ in range(n_positionals)]
    for opt in draw(st.lists(st.sampled_from(options), unique=draw(st.booleans()))):
        if opt in _FLAGS:
            chunks.append([opt])
            continue
        value = draw(st.sampled_from(_VALUES[opt]))
        chunks.append(draw(st.sampled_from([[opt, value], [opt, value], [f"{opt}={value}"], [opt]])))
    chunks += [[word] for word in draw(st.lists(st.sampled_from(_ODD_WORDS), max_size=1))]
    head = [command] if draw(st.integers(0, 9)) else []
    return head + [word for chunk in draw(st.permutations(chunks)) for word in chunk]


@settings(deadline=None, max_examples=1000)
@given(_argvs())
def test_plain_parse_agrees_with_argparse(argv):
    # the plain parser may refuse any argv, but what it accepts argparse
    # accepts too, into the same namespace
    plain = _parse_plain(argv)
    if plain is not None:
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which the plain parser accepts")
        assert vars(parsed) == vars(plain)


class TestOeis:
    def test_offline_bundled(self, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "oeis", "A007564", "--n-max", "6", "--offline",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "oeis", "table(3n)", "R", "oeis=table", "oeis=R"]
        assert lines[5].split() == ["4", "100", "100", "100", "yes", "yes"]
        assert lines[6].split() == ["5", "562", "563", "562", "NO", "yes"]

    def test_unknown_id(self, tmp_path, capsys):
        rc, _, err = run(capsys, "oeis", "X123", "--offline", "--cache-dir", str(tmp_path))
        assert rc == 1
        assert "unknown sequence id" in err

    def test_unbundled_offline_errors(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "oeis", "A000108", "--offline", "--cache-dir", str(tmp_path)
        )
        assert rc == 1
        assert "no cached or bundled" in err

    def test_error_is_one_stderr_line(self, tmp_path, capsys):
        # the command, not main, catches OeisError: status and line stay
        rc, out, err = run(
            capsys, "oeis", "A999999", "--offline", "--cache-dir", str(tmp_path)
        )
        assert (rc, out) == (1, "")
        assert err == (
            "error: no cached or bundled terms for A999999; "
            "rerun without --offline to fetch\n"
        )

    def test_unreadable_cache_is_a_command_error(self, tmp_path, capsys):
        # a cache entry that cannot be read is reported like any other error
        cached = tmp_path / "A007564.txt"
        cached.mkdir()
        rc, out, err = run(
            capsys, "oeis", "A007564", "--offline", "--cache-dir", str(tmp_path)
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and str(cached) in err
        assert err.count("\n") == 1

    def test_cache_is_used_when_present(self, tmp_path, capsys):
        (tmp_path / "A000002.txt").write_text("# fake sequence\n0 1\n1 1\n2 4\n3 19\n")
        rc, out, _ = run(
            capsys, "oeis", "A000002", "--n-max", "3", "--offline",
            "--cache-dir", str(tmp_path),
        )
        assert rc == 0
        assert out.splitlines()[-1].split()[:2] == ["3", "19"]

    def test_markdown_format(self, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "oeis", "A007564", "--n-max", "2", "--offline",
            "--cache-dir", str(tmp_path), "--format", "markdown",
        )
        assert rc == 0
        assert out.splitlines()[0].startswith("| n |")


    def test_non_integer_r_is_a_command_error(self, tmp_path, capsys, monkeypatch):
        # only a corrupted R can reach the integer check; it names the coefficient
        from skewdyck import oeis

        r_series = oeis.r_series
        monkeypatch.setattr(oeis, "r_series", lambda order: r_series(order) / 2)
        rc, out, err = run(
            capsys, "oeis", "A007564", "--n-max", "4", "--offline", "--cache-dir", str(tmp_path),
        )
        assert (rc, out) == (1, "")
        assert err == "error: R has non-integer z^0 coefficient 1/2\n"


# sha256 of `oeis A007564 --offline --n-max <n> --format <format>` stdout,
# served from the bundled snapshot, so that a change to how R or the table
# is read cannot alter a byte of the comparison unnoticed.
OEIS_DIGESTS = {
    (12, "table"): "7fd04edaddab63ee7e27b6aca4505aff30f9eb11df90f73230a5641084d06f7e",
    (12, "csv"): "f3727f602b5fc6900807a8332722d2e87602485a660f342b84962ab056ecc522",
    (12, "json"): "5a23d4393e86c09f5fb3f281bbddfa1a250912d6ae547b03bde5ce63472f3d11",
    (12, "markdown"): "e54d8bbf93d0b7dce81449d9b385e2e9f73b5b9ab83ebfabc62018659d868c60",
    (40, "table"): "d65e58868d5eafe5c5c8134b2acbca1b2930209d7743c1050196eabcf56095f1",
    (40, "csv"): "26e7fb289eafb73b0b509560f0c1505fe3bfce31314f546fa8115b87d1715bfc",
    (40, "json"): "39e835b735922c2532736462bdf7f3efc4208dc7c4490682ccf53386c9ebdc7b",
    (40, "markdown"): "75c4b6e5f418f17af07389a5e8635fc3bfd5b22b30c24205f444caf07fb1aef0",
    (1333, "table"): "4f33021dc1cd8659e16f161af33a31f73a02b6706ef1fc644101327958ada2de",
    (1333, "csv"): "9808e3e1314d068e515ffd9555aa3b6191151eafb49f705aec6bcedb317834f3",
    (1333, "json"): "9825643ea8cbc0bd48faca89a255aa18057f41f46f9c0be4c61ea2f4dbc9f3e5",
    (1333, "markdown"): "207444cf1bd6f7d162b06bd0cae2f36d943a25f0faa64ffc9e29879dd1158b33",
}


class TestOeisBytes:
    @pytest.mark.parametrize("vector", sorted(OEIS_DIGESTS))
    def test_output_digest(self, tmp_path, capsys, vector):
        n_max, fmt = vector
        rc, out, _ = run(
            capsys, "oeis", "A007564", "--n-max", str(n_max), "--offline",
            "--cache-dir", str(tmp_path), "--format", fmt,
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == OEIS_DIGESTS[vector]


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, out1, _ = run(capsys, "series", "total", "--order", "24")
        _, out2, _ = run(capsys, "series", "total", "--order", "24")
        assert out1 == out2


# The CLI as a user runs it: one fresh interpreter per command, its
# stdout block-buffered as it is without PYTHONUNBUFFERED.
def child_command(*argv: str, script: str | None = None, flags: tuple = ()) -> list[str]:
    """`python *flags -m skewdyck.cli *argv`, or `python *flags -c script *argv`."""
    run_as = ["-m", "skewdyck.cli"] if script is None else ["-c", script]
    return [sys.executable, *flags, *run_as, *argv]


def child_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(skewdyck.__file__).parents[1]), **extra}


def spawn(*argv: str, script=None, flags=(), **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        child_command(*argv, script=script, flags=flags), stderr=subprocess.PIPE,
        env=child_env(COLUMNS="80"), timeout=120, **kwargs,
    )


# The head of a child script.  Only the interpreter's teardown deletes
# `probe`, so "teardown" on stderr shows the ordinary exit; the
# atexit callback runs on either exit.
_PROBE = """
import atexit, runpy, sys
class Probe:
    def __del__(self, write=sys.stderr.write):
        write("teardown\\n")
probe = Probe()
atexit.register(print, "atexit callback")
"""
_RUN_CLI = 'runpy.run_module("skewdyck.cli", run_name="__main__")'  # as `python -m` runs it


def test_installed_script_takes_the_process_exit():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["skewdyck"] == "skewdyck.cli:run"


class TestProcess:
    @pytest.mark.parametrize("argv", [
        ("count", "--n", "0:30", "--format", "csv"),
        ("series", "total", "--order", "24", "--format", "json"),
    ])
    def test_success_bytes_equal_main(self, capsys, argv):
        proc = spawn(*argv)
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    def test_command_error_is_one_stderr_line(self):
        proc = spawn("render", "--n", "30")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"error: length 30 exceeds") and proc.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("argv", [("--help",), ("series", "g0", "--order", "4")])
    def test_help_and_usage_error_bytes(self, argv):
        proc = spawn(*argv)
        if argv in HELP_DIGESTS:
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert hashlib.sha256(proc.stdout).hexdigest() == HELP_DIGESTS[argv]
        else:
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert hashlib.sha256(proc.stderr).hexdigest() == USAGE_ERROR_DIGESTS[argv]

    def test_out_file_is_complete(self, tmp_path):
        vector = (3, 16, "skew", "left", False, "svg")
        target = tmp_path / "fig.svg"
        proc = spawn(
            "render", "--t", "3", "--n", "16", "--mode", "skew", "--style", "left",
            "--format", "svg", "--out", str(target),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {target}\n".encode(), b"")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == RENDER_DIGESTS[vector]

    def test_reader_closing_the_pipe(self):
        with subprocess.Popen(
            child_command("count", "--n", "0:4000"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"error: [Errno 32] Broken pipe\n")

    def test_reader_closing_the_pipe_on_a_figure(self):
        # a figure is written a piece at a time, so a write after the reader
        # has gone fails and the command reports it, as `count` does
        with subprocess.Popen(
            child_command("render", "--t", "3", "--n", "24", "--format", "tikz"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"error: [Errno 32] Broken pipe\n")

    def test_figure_on_stdout_is_the_out_file(self):
        # the pieces written to stdout are the bytes `--out` writes
        vector = (3, 24, "skew", "red-overlay", False, "tikz")
        proc = spawn("render", "--t", "3", "--n", "24", "--format", "tikz")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == HEAVY_RENDER_DIGESTS[vector]

    def test_closed_stdout_is_a_command_error(self):
        proc = spawn("count", "--n", "3", stdout=None, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (1, b"error: standard output is closed\n")

    def test_atexit_callbacks_run_and_teardown_is_skipped(self):
        proc = spawn("count", "--n", "3", script=_PROBE + _RUN_CLI)
        assert proc.returncode == 0
        assert proc.stdout == b"length  count\n     3      1\natexit callback\n"
        assert proc.stderr == b""

    @pytest.mark.parametrize("setup", [
        "sys.settrace(lambda *args: None)",
        "sys.setprofile(lambda *args: None)",
    ])
    def test_tracer_or_profiler_takes_the_ordinary_exit(self, setup):
        proc = spawn("count", "--n", "3", script=f"{_PROBE}{setup}\n{_RUN_CLI}")
        assert proc.returncode == 0
        assert proc.stdout == b"length  count\n     3      1\natexit callback\n"
        assert proc.stderr == b"teardown\n"

    def test_cprofile_prints_its_report(self):
        proc = spawn("count", "--n", "3", flags=("-m", "cProfile"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.startswith(b"length  count\n     3      1\n")
        assert b"function calls" in proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failing_flush_takes_the_ordinary_exit(self):
        with open("/dev/full", "wb") as full:
            proc = spawn("count", "--n", "3", script=_PROBE + _RUN_CLI, stdout=full)
        # Python's own report of a failed flush at exit, and its status 120
        assert proc.returncode == 120
        assert b"OSError: [Errno 28] No space left on device\n" in proc.stderr
        assert proc.stderr.endswith(b"teardown\n")

    def test_non_int_code_takes_the_ordinary_exit(self):
        stop = 'from skewdyck import cli\ncli.main = lambda: sys.exit("stop")\ncli.run()'
        proc = spawn(script=_PROBE + stop)
        assert (proc.returncode, proc.stdout) == (1, b"atexit callback\n")
        assert proc.stderr == b"stop\nteardown\n"

    def test_interactive_takes_the_ordinary_exit(self):
        proc = spawn("count", "--n", "3", flags=("-i",), stdin=subprocess.DEVNULL)
        # the module's SystemExit is reported and the prompt still opens
        assert proc.returncode == 0
        assert proc.stdout == b"length  count\n     3      1\n"
        assert b"SystemExit: 0\n>>> " in proc.stderr
