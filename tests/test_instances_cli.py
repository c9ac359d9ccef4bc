import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import run_cli, run_python

from transemi import bitsets, cli, instances
from transemi.errors import InstanceFormatError
from transemi.instances import (
    AbstractInstance,
    TransInstance,
    parse_instance,
    parse_instance_text,
    render_instance,
    write_instance,
)
from transemi.partial_maps import relations
from transemi.reports import WITNESS_CAP
from transemi.representation import sum_representation

DATA = Path(__file__).parent / "data"
FAILING_REPORTS = json.loads((DATA / "failing_reports.json").read_text())

MALFORMED = {
    "unclosed-flow-sequence": "kind: [unclosed\n",
    "mapping-in-plain-value": "a: b: c\n",
    "bad-block-indent": "kind: abstract\nsize: 1\nmul:\n- [0]\n meet:\n- [0]\n",
    "truncated-maps": "kind: transformations\nbase_size: 2\nmaps: [[0,1]\n",
}

S1_TEXT = """\
kind: abstract
size: 1
mul:
- [0]
meet:
- [0]
xi:
- [0, 0]
delta:
- [0, 0]
"""

# texts the reader leaves to `yaml.safe_load`: each is S1_TEXT with one
# construct outside the subset `render_instance` writes
FALLBACK = {
    "trailing-comment": S1_TEXT.replace("size: 1\n", "size: 1  # one element\n"),
    "indented-comment": S1_TEXT.replace("meet:\n", "  # the meet\nmeet:\n"),
    "document-start": "---\n" + S1_TEXT,
    "document-end": S1_TEXT + "...\n",
    "crlf": S1_TEXT.replace("\n", "\r\n"),
    "tab-in-flow-list": S1_TEXT.replace("- [0, 0]", "- [0,\t0]"),
    "tab-after-dash": S1_TEXT.replace("- [0]", "-\t[0]"),
    "double-quoted-name": S1_TEXT + 'name: "s1"\n',
    "single-quoted-kind": S1_TEXT.replace("kind: abstract", "kind: 'abstract'"),
    **{f"name-{word}": S1_TEXT + f"name: {word}\n"
       for word in ("yes", "on", "No", "OFF", "true", "null", "~")},
    **{f"seed-{word}": S1_TEXT + f"seed: {word}\n"
       for word in ("1.5", "0x10", "010", "+1", "1_0", "-0", "null")},
    "key-on": S1_TEXT + "on: 1\n",
    "unknown-key": S1_TEXT + "extra: 1\n",
    "duplicate-key": S1_TEXT + "size: 2\n",
    "indented-sequence": S1_TEXT.replace("mul:\n- [0]", "mul:\n  - [0]"),
    "flow-list-without-spaces": S1_TEXT.replace("[0, 0]", "[0,0]"),
    "nested-flow-list": S1_TEXT.replace("xi:\n- [0, 0]", "xi: [[0, 0]]"),
    "key-without-value": S1_TEXT + "name:\n",
    "blank-line": S1_TEXT.replace("meet:", "\nmeet:"),
    "no-final-newline": S1_TEXT[:-1],
    "comment-only": "# c\n",
    "byte-order-mark": "\ufeff" + S1_TEXT,
}

# pieces the random edits insert or put in place of one character
EDIT_PIECES = list(" -[],:#\n\t\r'\"0123456789abnoyNY_.~!&*?{}|>%@`+xe\\") + [
    "yes", "on", "null", "~", "0x10", "010", "+1", "1_0", "1.5", "-0", "---\n", "...\n",
    "  ", "- ", "\n- ", "\n  - ", "\n- - ", "kind: a\n", "seed: 1\n", "# c\n", "\n#", "?",
    ",\n  ", "\n  ", "\n    "]
EDITS = 10_000


class TestParsing:
    def test_minimal_abstract(self):
        inst = parse_instance_text(S1_TEXT)
        assert isinstance(inst, AbstractInstance)
        sys = inst.build()
        assert sys.size == 1 and sys.xi[0, 0] and sys.delta[0, 0]

    def test_transformations(self):
        inst = parse_instance_text(
            "kind: transformations\nbase_size: 2\nmaps:\n- [[0, 0]]\n- [[0, 0], [1, 1]]\n"
        )
        assert isinstance(inst, TransInstance)
        sys = inst.build(cap=8)
        assert sys.size == 2

    def test_duplicate_first_component_rejected(self):
        with pytest.raises(InstanceFormatError, match=r"maps\[0\].*element 0 mapped to both"):
            parse_instance_text(
                "kind: transformations\nbase_size: 2\nmaps:\n- [[0, 0], [0, 1]]\n"
            )

    @pytest.mark.parametrize("pairs, message", [
        (((-1, 0),), "element -1 out of range for carrier of size 2"),
        (((0, -1),), "element -1 out of range for carrier of size 2"),
        (((2, 0),), "element 2 out of range for carrier of size 2"),
        (((1, 0), (0, 2)), "element 2 out of range for carrier of size 2"),
        (((0, 0), (0, 1)), "element 0 mapped to both 0 and 1"),
    ])
    def test_build_checks_pairs_made_in_code(self, pairs, message):
        # the parser's checks, for an instance that never went through it
        inst = TransInstance(2, ((), pairs))
        with pytest.raises(ValueError, match=f"^{message}$"):
            inst.build()

    def test_build_takes_a_repeated_pair(self):
        inst = TransInstance(2, (((0, 1), (0, 1), (1, 1)),))
        assert inst.build(cap=8).rows.tolist() == [[1, 1]]

    def test_position_tagged_diagnostics(self):
        with pytest.raises(InstanceFormatError, match=r"mul\[1\]"):
            parse_instance_text(
                "kind: abstract\nsize: 2\nmul:\n- [0, 0]\n- [0]\nmeet:\n- [0, 0]\n- [0, 1]\n"
            )
        with pytest.raises(InstanceFormatError, match=r"xi\[0\]"):
            parse_instance_text(
                "kind: abstract\nsize: 1\nmul:\n- [0]\nmeet:\n- [0]\nxi:\n- [0, 7]\n"
            )

    def test_unknown_kind(self):
        with pytest.raises(InstanceFormatError, match="kind"):
            parse_instance_text("kind: mystery\n")

    def test_not_yaml(self):
        with pytest.raises(InstanceFormatError, match="YAML"):
            parse_instance_text("kind: [unclosed\n")

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_yaml_keeps_pure_python_message(self, text, tmp_path, capsys):
        assert instances._read(text) is None
        self.assert_pure_python_rejects(text, tmp_path, capsys)

    def test_lone_surrogate_keeps_pure_python_message(self):
        # PyYAML's reader refuses the character, and so the text is refused
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.safe_load("kind: \ud800\n")
        with pytest.raises(InstanceFormatError, match="^instance: not valid YAML: ") as got:
            parse_instance_text("kind: \ud800\n")
        assert str(got.value).endswith(str(pure.value))

    def test_tab_after_colon_rejected_with_or_without_libyaml(self, tmp_path, capsys):
        # libyaml loads this text; PyYAML alone does not, so neither may we
        self.assert_pure_python_rejects(S1_TEXT.replace("kind: ", "kind:\t"), tmp_path, capsys)

    def test_question_mark_in_flow_sequence_rejected(self, tmp_path, capsys):
        # libyaml loads this text as a valid instance with an unread key; it
        # exits 2 like any text PyYAML rejects
        self.assert_pure_python_rejects(S1_TEXT + "note:\n- [0, 0?]\n", tmp_path, capsys)

    @staticmethod
    def assert_pure_python_rejects(text, tmp_path, capsys):
        """Parsing and `check` fail with `yaml.safe_load`'s message."""
        with pytest.raises(yaml.YAMLError) as pure:
            yaml.safe_load(text)
        want = f"not valid YAML: {pure.value}"
        with pytest.raises(InstanceFormatError) as got:
            parse_instance_text(text)
        assert str(got.value) == f"instance: {want}"
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli.main(["check", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {path}: {want}\n"

    def test_tab_inside_quoted_value_still_loads(self):
        text = S1_TEXT + 'name: "a\tb"\n'
        assert instances._read(text) is None
        assert parse_instance_text(text).name == "a\tb"

    def test_golden_files_parse(self):
        for name in ("axiom_fail_adjacency.yaml", "axiom_fail_semicompat.yaml"):
            parse_instance(DATA / name).build()


def typed(value):
    """The parsed value with the type of every element and key spelled out."""
    if isinstance(value, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [typed(v) for v in value])
    return (type(value).__name__, value)


@pytest.fixture(scope="module")
def loader_texts(tmp_path_factory, m70_file):
    """Instance texts: the test data, the m = 70 fixture, `transemi
    generate` output for transformations on 3-6 points and abstract
    systems of size 3, and an abstract instance of size 26, whose table
    rows `yaml.safe_dump` wraps onto two lines."""
    out = tmp_path_factory.mktemp("loader")
    paths = sorted(DATA.glob("*.yaml")) + [m70_file, out / "wrapped.yaml"]
    rows = tuple(tuple((i + j) % 26 for j in range(26)) for i in range(26))
    write_instance(AbstractInstance(26, rows, rows, ((0, 1),), ((1, 0),)), paths[-1])
    for seed in range(4):
        for points in (3, 4, 5, 6):
            paths.append(out / f"t-{seed}-{points}.yaml")
            assert cli.main(["generate", "--seed", str(seed), "--points", str(points),
                             "--maps", "3", "--out", str(paths[-1])]) == 0
        paths.append(out / f"a-{seed}.yaml")
        assert cli.main(["generate", "--seed", str(seed), "--kind", "abstract",
                         "--size", "3", "--out", str(paths[-1])]) == 0
    return {path.name: path.read_text() for path in paths}


class TestLoader:
    def test_same_values_as_pure_python(self, loader_texts):
        kinds = set()
        for name, text in loader_texts.items():
            want = yaml.safe_load(text)
            assert typed(instances._read(text)) == typed(want), name
            inst = parse_instance_text(text)
            assert typed(instances.instance_to_dict(inst)) == typed(want), name
            kinds.add(inst.kind)
        assert kinds == {"transformations", "abstract"}

    def test_write_then_parse_is_identity(self, loader_texts, tmp_path):
        for name, text in loader_texts.items():
            inst = parse_instance_text(text)
            write_instance(inst, tmp_path / name)
            assert parse_instance(tmp_path / name) == inst, name

    def test_reader_takes_every_instance_text(self, loader_texts, monkeypatch):
        # `yaml.safe_load` builds a Reader; loader_texts holds the data files
        readers = []
        init = yaml.reader.Reader.__init__
        monkeypatch.setattr(yaml.reader.Reader, "__init__",
                            lambda self, stream: readers.append(stream) or init(self, stream))
        for name, text in loader_texts.items():
            assert instances._read(text) is not None, name
            parse_instance_text(text)
        assert readers == []
        yaml.safe_load(S1_TEXT)
        assert readers == [S1_TEXT]

    def test_wrapped_flow_lists(self, loader_texts):
        # `yaml.safe_dump` goes on with a list past 80 columns on lines
        # indented two spaces past its item's dash or its key
        assert "\n  23, 24, 25, 0]\n" in loader_texts["wrapped.yaml"]
        text = yaml.safe_dump({"maps": [[[1, 2], list(range(40))], [list(range(30))]],
                               "xi": list(range(-30, 0))}, sort_keys=False,
                              default_flow_style=None)
        for line in ("  - [0, 1, 2,", "    22, 23,", "- - [0, 1, 2,", "  -14, -13,"):
            assert f"\n{line}" in text
        assert typed(instances._read(text)) == typed(yaml.safe_load(text))
        for cut in ("\n    22", "\n  -14"):  # other indents go to PyYAML
            for indent in ("", " ", "   ", "      "):
                assert instances._read(text.replace(cut, "\n" + indent + cut.lstrip())) is None

    @pytest.mark.parametrize("text", FALLBACK.values(), ids=FALLBACK.keys())
    def test_fallback_texts_go_to_pure_python(self, text):
        assert instances._read(text) is None
        try:
            want = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            with pytest.raises(InstanceFormatError, match="not valid YAML") as got:
                parse_instance_text(text)
            assert str(got.value).endswith(str(exc))
            return
        try:
            inst = parse_instance_text(text)
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError) as again:
                instances.instance_from_dict(want)
            assert str(exc) == str(again.value)
        else:
            assert inst == instances.instance_from_dict(want)

    def test_reader_agrees_with_pure_python_on_random_edits(self, loader_texts):
        # whenever the reader takes an edited text, its value is PyYAML's,
        # element and key types included
        rng = random.Random("reader-edits")
        texts = list(loader_texts.values())
        read = 0
        for _ in range(EDITS):
            text = rng.choice(texts)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                piece = rng.choice(EDIT_PIECES)
                text = text[:at] + piece + text[at + rng.randrange(2):]
            got = instances._read(text)
            if got is not None:
                read += 1
                assert typed(got) == typed(yaml.safe_load(text)), text
        assert read > EDITS // 50


class TestImports:
    def test_check_runs_without_pyyaml(self, trans_file):
        # the instance is `generate` output, so the reader takes it
        code = ("import sys, transemi.cli; "
                f"code = transemi.cli.main(['check', '--input', {str(trans_file)!r}]); "
                "print(code, 'yaml' in sys.modules)")
        res = run_python("-c", code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 False"


class TestRoundTrip:
    def test_abstract_round_trip(self, tmp_path):
        inst = parse_instance_text(S1_TEXT)
        path = tmp_path / "s1.yaml"
        write_instance(inst, path)
        assert parse_instance(path) == inst

    def test_transformations_round_trip(self, tmp_path):
        inst = TransInstance(3, (((0, 1), (1, 2)), ()), name="x", seed=4)
        path = tmp_path / "t.yaml"
        write_instance(inst, path)
        assert parse_instance(path) == inst

    def test_render_is_stable(self):
        inst = parse_instance_text(S1_TEXT)
        assert render_instance(inst) == render_instance(inst)

    def test_whole_system_round_trip(self, trans_corpus):
        # without seeds_only every row of the system is written, as pairs
        # of Python ints (yaml.safe_dump rejects numpy ints); saturating
        # the closed rows again adds nothing and keeps their ids
        for sys in trans_corpus[::7]:
            inst = instances.trans_instance_from_system(sys, name="whole")
            assert {type(v) for pairs in inst.maps for pair in pairs for v in pair} == {int}
            back = parse_instance_text(render_instance(inst))
            assert back == inst
            rebuilt = back.build(cap=sys.size)
            for name in ("rows", "mul_table", "meet"):
                assert np.array_equal(getattr(rebuilt, name), getattr(sys, name)), name


class TestPinnedDigests:
    """sha256 digests of generated instances and of the corpus's rows and
    tables, taken when a partial map still had a scalar encoding beside its
    row: the seed draws, the saturation order and so the element ids must
    not depend on how maps are encoded."""

    @pytest.mark.parametrize("fixture, digest", [
        ("m70_file", "4e3e348b0d3d7944bd29ae8a9fa803632a24e9b91bf84a5a7ad2e436f50978a1"),
        ("m245_file", "1e4e3cb0c1b30de344a4e50e347491a11d5f83a55b98278198e127346231c324"),
    ])
    def test_generate_output(self, fixture, digest, request):
        assert hashlib.sha256(request.getfixturevalue(fixture).read_bytes()).hexdigest() == digest

    @staticmethod
    def tables_digest(systems):
        h = hashlib.sha256()
        for sys in systems:
            for arr in (sys.rows, sys.mul_table, sys.meet):
                h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()

    def test_corpus_rows_and_tables(self, trans_corpus):
        assert self.tables_digest(trans_corpus) == (
            "88a8d740c2358a0f8eb4b68bcf2f440b5cabdf802e47f670eb5292be32d4a0ee")

    def test_m245_rows_and_tables(self, m245_file):
        # taken when saturation gave ids one product row at a time
        assert self.tables_digest([parse_instance(m245_file).build()]) == (
            "e50f97593c459ed940db92952d3dd431f6fa1ae1ba2250214926849729f230a6")


@pytest.fixture(scope="module")
def trans_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "inst.yaml"
    res = run_cli("generate", "--seed", "7", "--points", "3", "--maps", "2",
                  "--out", str(path))
    assert res.returncode == 0
    return path


class TestCli:
    def test_generate_deterministic(self, tmp_path):
        a = run_cli("generate", "--seed", "7", "--points", "3", "--maps", "2")
        b = run_cli("generate", "--seed", "7", "--points", "3", "--maps", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        c = run_cli("generate", "--seed", "8", "--points", "3", "--maps", "2")
        assert c.stdout != a.stdout

    def test_generate_abstract(self):
        res = run_cli("generate", "--seed", "3", "--kind", "abstract", "--size", "2")
        assert res.returncode == 0
        inst = parse_instance_text(res.stdout)
        assert isinstance(inst, AbstractInstance)

    def test_check_passes_and_is_deterministic(self, trans_file):
        a = run_cli("check", "--input", str(trans_file), "--format", "machine")
        b = run_cli("check", "--input", str(trans_file), "--format", "machine")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert payload["passed"] is True
        assert all("seconds" not in c for c in payload["checks"])

    def test_roundtrip_command(self, trans_file):
        res = run_cli("roundtrip", "--input", str(trans_file))
        assert res.returncode == 0
        assert "verdict: PASS" in res.stdout

    def test_roundtrip_on_abstract_input_is_an_input_error(self, capsys):
        # bad input, not a failed check: nothing on stdout, exit 2
        path = DATA / "axiom_fail_adjacency.yaml"
        assert cli.main(["roundtrip", "--input", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: roundtrip needs a transformations instance\n"

    def test_represent_command(self, trans_file):
        res = run_cli("represent", "--input", str(trans_file))
        assert res.returncode == 0
        assert "representation-built" in res.stdout

    def test_analyze_command(self, trans_file):
        res = run_cli("analyze", "--input", str(trans_file))
        assert res.returncode == 0
        assert "closure-built" in res.stdout

    def test_failing_instance_exits_one(self, tmp_path):
        res = run_cli("check", "--input", str(DATA / "axiom_fail_adjacency.yaml"))
        assert res.returncode == 1
        assert "closure-forces-adjacency" in res.stdout
        assert "verdict: FAIL" in res.stdout

    def test_input_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: nonsense\n")
        res = run_cli("check", "--input", str(bad))
        assert res.returncode == 2
        assert "input error" in res.stderr

    def test_non_utf8_input_exits_two(self, tmp_path):
        bad = tmp_path / "bytes.yaml"
        bad.write_bytes(b'kind: abstract\nname: "\xff\xfe"\n')
        res = run_cli("check", "--input", str(bad))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"input error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_unexpected_exception_exits_three(self, trans_file, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_check", boom)
        assert cli.main(["check", "--input", str(trans_file)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "internal error: RuntimeError: boom\n"

    def test_check_passes_past_bit_63(self, m70_file):
        res = run_cli("check", "--input", str(m70_file), "--format", "machine")
        assert res.returncode == 0
        assert json.loads(res.stdout)["passed"] is True

    def test_check_output_past_bit_63_is_golden(self, m70_file, capsys):
        # tests/data/m70_check.json is `check --format machine` on the
        # fixture as printed before the batched closure sweep
        assert cli.main(["check", "--input", str(m70_file), "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / "m70_check.json").read_text()

    def test_represent_output_past_bit_63_is_golden(self, m70_file, capsys):
        # tests/data/m70_represent.json is `represent --format machine` on
        # the fixture as printed when the verifier compared every pair of
        # maps point by point, before it read the relations and the meet
        # law off pair counts and the product law off the generators
        assert cli.main(["represent", "--input", str(m70_file), "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / "m70_represent.json").read_text()

    def test_check_output_at_m245_is_golden(self, m245_file, capsys):
        # tests/data/m245_check.json is `check --format machine` on the
        # fixture as printed before the law scans took certificates
        assert cli.main(["check", "--input", str(m245_file), "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / "m245_check.json").read_text()

    def test_represent_output_is_golden(self, capsys):
        # tests/data/represent_m16.json is `represent --format machine` on
        # represent_m16.yaml (m = 16) as printed when the sum took one
        # fragment per distinct pair closure (39 points; the all-pairs sum
        # had 1107)
        path = DATA / "represent_m16.yaml"
        assert cli.main(["represent", "--input", str(path), "--format", "machine"]) == 0
        assert capsys.readouterr().out == (DATA / "represent_m16.json").read_text()

    @pytest.mark.parametrize("run", sorted(FAILING_REPORTS))
    def test_failing_reports_are_golden(self, run, capsys):
        # tests/data/failing_reports.json maps "<file> <arguments>" to the
        # exit code and stdout of that run, captured before the checks
        # recorded through `Report.record`; the fail_*.yaml instances fail
        # several hypothesis families or all closure axioms, most of them
        # with more than WITNESS_CAP witnesses
        name, *args = run.split()
        want = FAILING_REPORTS[run]
        assert cli.main([*args, "--input", str(DATA / name)]) == want["exit"]
        out = capsys.readouterr()
        assert out.out == want["stdout"]
        assert out.err == ""

    @pytest.mark.parametrize("command", ["check", "represent"])
    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.yaml")) + ["m70"])
    def test_output_is_independent_of_the_cell_budget(self, name, command, m70_file,
                                                      capsys, monkeypatch):
        # block sizes never reach the output: the default budget, one item
        # per block and one block for everything print the same report
        path = m70_file if name == "m70" else DATA / name
        argv = [command, "--input", str(path), "--format", "machine"]
        runs = []
        for budget in (bitsets._CELLS, 1, 1 << 30):
            monkeypatch.setattr(bitsets, "_CELLS", budget)
            runs.append((cli.main(argv), capsys.readouterr()))
        assert runs[1:] == runs[:1] * 2

    def test_failing_reports_cover_cap_and_count(self):
        checks = [c for run, want in FAILING_REPORTS.items() if "machine" in run
                  for c in json.loads(want["stdout"])["checks"] if not c["passed"]]
        capped = [c for c in checks if len(c["witnesses"]) == WITNESS_CAP]
        assert {c["id"].split("/")[0] for c in capped} == {"hypotheses"}
        assert all(int(c["detail"].split()[0]) > WITNESS_CAP for c in capped)
        assert {c["id"] for c in checks} >= {
            f"axioms/closure-forces-{law}" for law in ("order", "semicompat", "adjacency")}

    def test_oracle_check_times_every_entry(self, trans_file, capsys):
        argv = ["check", "--input", str(trans_file), "--oracle", "on", "--timings",
                "--format", "machine"]
        assert cli.main(argv) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[-1]["id"] == "closure-oracle-agreement"
        assert "detail" not in checks[-1]  # compared with the oracle, not skipped
        assert all(c["seconds"] >= 0 for c in checks)

    def test_represent_passes_past_bit_63(self, m70_file):
        res = run_cli("represent", "--input", str(m70_file), "--format", "machine")
        assert res.returncode == 0
        assert json.loads(res.stdout)["passed"] is True

    @pytest.mark.parametrize("fixture, points", [("m70_file", 125), ("m245_file", 767)])
    def test_represent_at_scale(self, fixture, points, request, capsys):
        path = request.getfixturevalue(fixture)
        assert cli.main(["represent", "--input", str(path)]) == 0
        assert f"carrier of {points} points" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["generate", "--cap", "1", "--maps", "2"], ["generate", "--maps", "0"],
        ["generate", "--points", "0"], ["generate", "--kind", "abstract", "--size", "-1"],
        ["generate", "--kind", "abstract", "--size", "4"],
        ["generate", "--cap", "3", "--maps", "3", "--points", "40"],
        ["check", "--input", str(DATA / "represent_m16.yaml"), "--cap", "3"],
    ])
    def test_bad_values_exit_two(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr and "internal error" not in res.stderr

    @pytest.mark.parametrize("size", [4, 5, 40])
    def test_generate_abstract_above_size_three_is_bad_input(self, size, capsys):
        assert cli.main(["generate", "--kind", "abstract", "--size", str(size)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: abstract systems are generated on sizes 1-3, "
                                  f"not {size}\n")

    def test_cap_exceeded_exits_two(self, tmp_path):
        inst = tmp_path / "grows.yaml"
        inst.write_text(
            "kind: transformations\nbase_size: 3\nmaps:\n"
            "- [[0, 1], [1, 2], [2, 0]]\n- [[0, 0]]\n"
        )
        res = run_cli("check", "--input", str(inst), "--cap", "2")
        assert res.returncode == 2
        assert "cap exceeded" in res.stderr

    def test_oracle_flag(self, tmp_path):
        path = tmp_path / "s1.yaml"
        path.write_text(S1_TEXT)
        res = run_cli("check", "--input", str(path), "--oracle", "on")
        assert res.returncode == 0
        assert "closure-oracle-agreement" in res.stdout

    @pytest.mark.parametrize("command, extra", [
        ("analyze", ["--seed", "1"]), ("analyze", ["--oracle", "on"]),
        ("check", ["--seed", "1"]),
        ("represent", ["--seed", "1"]), ("represent", ["--oracle", "on"]),
        ("roundtrip", ["--seed", "1"]), ("roundtrip", ["--oracle", "on"]),
        ("generate", ["--oracle", "on"]), ("generate", ["--format", "machine"]),
        ("generate", ["--timings"]),
    ])
    def test_flags_a_command_ignores_are_rejected(self, command, extra, trans_file, capsys):
        argv = [command] if command == "generate" else [command, "--input", str(trans_file)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + extra)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in out.err

    def test_represent_built_line_matches_fresh_sum(self, trans_file):
        res = run_cli("represent", "--input", str(trans_file), "--format", "machine")
        assert res.returncode == 0
        built = next(c for c in json.loads(res.stdout)["checks"]
                     if c["id"] == "representation-built")
        ab = parse_instance(trans_file).build().abstract()
        rep = sum_representation(ab)
        _, xi_p, delta_p = relations(rep.rows)
        assert built["detail"] == (
            f"carrier of {rep.num_points} points, {len(rep.rows)} maps, "
            f"xi pairs={int(xi_p.sum())}, delta pairs={int(delta_p.sum())}")

    def test_timings_flag_adds_durations(self, trans_file):
        import re

        a = run_cli("analyze", "--input", str(trans_file), "--timings")
        assert a.returncode == 0
        assert re.search(r"\(\d+\.\d{3}s\)", a.stdout)
        plain = run_cli("analyze", "--input", str(trans_file))
        assert not re.search(r"\(\d+\.\d{3}s\)", plain.stdout)

    def test_failing_machine_report_is_valid_json(self):
        res = run_cli("check", "--input", str(DATA / "axiom_fail_semicompat.yaml"),
                      "--format", "machine")
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["passed"] is False
        failing = [c for c in payload["checks"] if not c["passed"]]
        assert failing and all(c["witnesses"] for c in failing)

    def test_failing_report_deterministic(self):
        runs = [
            run_cli("check", "--input", str(DATA / "axiom_fail_semicompat.yaml"),
                    "--format", "machine")
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode == 1
