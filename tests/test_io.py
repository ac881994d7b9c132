"""Tests for the file frontend (repro.io) and the workload registry.

Covers the DLGP parser/serializer (happy paths, labels, case conventions,
and negative paths with line/column positions), the CSV/TSV loaders (arity
validation, type inference, streaming bulk load), the registry
(``get_workload`` over names and paths, unknown-name errors), and the
round-trip acceptance property: every built-in workload's
ontology/database/queries can be dumped to DLGP/CSV and reloaded, and the
reloaded artifacts produce identical enumeration answers through
``QueryEngine`` and the ``repro run`` CLI.
"""

import json
from pathlib import Path

import pytest

from repro import Atom, Database, Fact, QueryEngine, Variable
from repro.cli import main as cli_main
from repro.cq.query import ConjunctiveQuery
from repro.io import (
    DlgpError,
    dump_facts,
    dump_ontology,
    dump_queries,
    dump_scenario,
    load_database,
    load_ontology,
    load_queries,
    load_scenario,
    parse_document,
)
from repro.io.tabular import (
    dump_database_csv,
    dump_facts_csv,
    iter_facts_csv,
    load_database_csv,
    load_facts_csv,
)
from repro.tgds.parser import parse_ontology
from repro.workloads import Workload, get_workload, list_workloads, register_workload

DATA_DIR = Path(__file__).resolve().parents[1] / "examples" / "data"


# -- DLGP parsing ------------------------------------------------------------


class TestDlgpParse:
    def test_sections_classify_statements(self):
        document = parse_document(
            """
            % a comment
            @rules
            [r1] Office(Y) :- HasOffice(X, Y).
            @facts
            HasOffice(mary, room1), Researcher(mary).
            @queries
            [q] ?(X, Y) :- HasOffice(X, Y).
            """
        )
        assert len(document.rules) == 1
        assert document.rules[0].label == "r1"
        assert set(document.facts) == {
            Fact("HasOffice", ("mary", "room1")),
            Fact("Researcher", ("mary",)),
        }
        assert document.queries[0].name == "q"
        assert document.queries[0].arity == 2

    def test_default_section_infers_statement_kind(self):
        document = parse_document(
            """
            HasOffice(X, Y) :- Researcher(X).
            Researcher(mary).
            ?(X) :- Researcher(X).
            """
        )
        assert len(document.rules) == 1
        assert len(document.facts) == 1
        assert len(document.queries) == 1

    def test_uppercase_is_variable_lowercase_is_constant(self):
        document = parse_document('@queries\n?(X) :- Knows(X, alice, 3, "Bob").')
        atom = next(iter(document.queries[0].atoms))
        assert atom.args == (Variable("x"), "alice", 3, "Bob")

    def test_internal_arrow_order_also_accepted(self):
        document = parse_document("@rules\nResearcher(X) -> HasOffice(X, Y).")
        tgd = document.rules[0]
        assert {atom.relation for atom in tgd.body} == {"Researcher"}
        assert {atom.relation for atom in tgd.head} == {"HasOffice"}

    def test_true_body_gives_bodyless_rule(self):
        document = parse_document("@rules\nSeed(X) :- true.")
        assert document.rules[0].body == frozenset()

    def test_multiline_statements_and_prologue_directives(self):
        document = parse_document(
            "@base <http://example.org/>\n"
            "@prefix ex: <http://example.org/ns#>\n"
            "@facts\n"
            "Edge(a,\n     b).\n"
        )
        assert document.facts == [Fact("Edge", ("a", "b"))]

    def test_escaped_strings_round_trip(self):
        fact = Fact("R", ('say "hi"', "back\\slash", "CamelCase"))
        reparsed = parse_document(dump_facts([fact])).facts
        assert reparsed == [fact]

    def test_control_characters_and_int_shaped_strings_round_trip(self):
        fact = Fact("R", ("two\nlines", "tab\there", "3", 3))
        reparsed = parse_document(dump_facts([fact])).facts
        assert reparsed == [fact]
        assert reparsed[0].args[2] == "3" and reparsed[0].args[3] == 3


class TestDlgpEdgeCases:
    """Robustness: CRLF files, BOMs, comment-only documents, name clashes."""

    def test_crlf_line_endings_parse_like_lf(self):
        text = "@rules\r\nOffice(Y) :- HasOffice(X, Y).\r\n@facts\r\nHasOffice(mary, room1).\r\n"
        document = parse_document(text)
        assert [str(f) for f in document.facts] == ["HasOffice(mary, room1)"]
        assert len(document.rules) == 1
        assert document.rules == parse_document(text.replace("\r\n", "\n")).rules

    def test_crlf_positions_still_point_at_the_right_line(self):
        with pytest.raises(DlgpError) as excinfo:
            parse_document("@facts\r\np(X).\r\n")
        assert excinfo.value.line == 2

    def test_utf8_bom_is_tolerated(self):
        document = parse_document("\ufeff@facts\nResearcher(mary).\n")
        assert [str(f) for f in document.facts] == ["Researcher(mary)"]

    def test_bom_only_in_first_position_everything_else_unchanged(self):
        # A BOM mid-document is still a syntax error, with its position.
        with pytest.raises(DlgpError, match="unexpected character"):
            parse_document("@facts\n\ufeffResearcher(mary).\n")

    def test_bom_file_loads_through_the_path_frontend(self, tmp_path):
        path = tmp_path / "rules.dlgp"
        path.write_bytes("@rules\nOffice(Y) :- HasOffice(X, Y).\n".encode("utf-8-sig"))
        ontology = load_ontology(path)
        assert len(ontology) == 1

    def test_comment_only_document_is_empty(self):
        document = parse_document("% nothing here\n% still nothing\n")
        assert (document.rules, document.facts, document.queries) == ([], [], [])

    def test_comment_only_file_yields_empty_scenario_parts(self, tmp_path):
        path = tmp_path / "empty.dlgp"
        path.write_text("% header comment only\n")
        assert list(load_queries(path)) == []

    def test_crlf_comment_only_document_is_empty(self):
        document = parse_document("% one\r\n% two\r\n")
        assert (document.rules, document.facts, document.queries) == ([], [], [])

    def test_query_variables_colliding_with_null_decode_names(self):
        """Variables named like interned-null decode labels (``N1``, ``_:n…``
        prints) and constants spelled ``n1`` must not confuse evaluation:
        decode happens only at answer emission and never round-trips
        through names."""
        document = parse_document(
            "@rules\nR(X, N1) :- A(X).\n"
            "@facts\nA(n1). R(n1, n2).\n"
            "@queries\n[q] ?(N1, N2) :- R(N1, N2).\n"
        )
        ontology = document.ontology()
        query = document.queries[0]
        answers = QueryEngine(ontology, Database(document.facts)).execute(query)
        assert ("n1", "n2") in answers
        # Certain answers are null-free: the existential office from the
        # rule must not leak a null decoded as a constant-looking name.
        assert all(isinstance(value, str) for answer in answers for value in answer)


class TestDlgpErrors:
    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            ("@rules\np(X) :- q(X)", "expected '.'", 2),
            ("@rules\np(X) q(X).", "expected ':-' or '->'", 2),
            ("@facts\np(X).", "facts must be ground", 2),
            ("@facts\n[f] p(a).", "facts may not carry labels", 2),
            ("@facts\np(\"abc).", "unterminated string", 2),
            ("@facts\np(a,).", "expected a term", 2),
            ("@unknown\np(a).", "unknown directive", 1),
            ("@constraints\nq(X) :- p(X).", "not supported", 2),
            ("@queries\n?(a) :- p(a).", "not a variable", 2),
            ("@queries\n?(X) :- .", "expected a relation symbol", 2),
            ("@rules\n:- p(X).", "expected a relation symbol", 2),
            ("@facts\n$(a).", "unexpected character", 2),
        ],
    )
    def test_malformed_documents_report_positions(self, text, fragment, line):
        with pytest.raises(ValueError) as excinfo:
            parse_document(text)
        message = str(excinfo.value)
        assert fragment in message
        assert f"line {line}" in message

    def test_semantic_errors_carry_positions_too(self):
        # Constants in rules and non-body answer variables are rejected by
        # the TGD/CQ constructors; the parser re-raises with the position.
        with pytest.raises(ValueError, match=r"line 2.*constants"):
            parse_document("@rules\nOffice(mary) :- Researcher(X).")
        with pytest.raises(ValueError, match=r"line 2.*does not occur"):
            parse_document("@queries\n?(X, Y) :- Researcher(X).")

    def test_dlgp_error_is_a_value_error_with_positions(self):
        assert issubclass(DlgpError, ValueError)
        with pytest.raises(DlgpError) as excinfo:
            parse_document("@rules\np(X) :- q(X)")
        assert excinfo.value.line == 2
        assert excinfo.value.column is not None

    def test_load_errors_name_the_file(self, tmp_path):
        bad = tmp_path / "bad.dlgp"
        bad.write_text("@rules\np(X) :- q(X)", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.dlgp.*line 2"):
            load_ontology(bad)
        with pytest.raises(ValueError, match="missing.dlgp"):
            load_ontology(tmp_path / "missing.dlgp")


# -- DLGP serialization ------------------------------------------------------


class TestDlgpDump:
    def test_ontology_dump_is_reparse_stable(self):
        ontology = parse_ontology(
            """
            Researcher(x) -> HasOffice(x, y)
            Prof(x), HasOffice(x, y) -> LargeOffice(y)
            true -> Seed(x)
            """,
            name="o",
        )
        text = dump_ontology(ontology)
        reloaded = parse_document(text).ontology(name="o")
        assert dump_ontology(reloaded) == text
        assert len(reloaded) == len(ontology)

    def test_query_dump_preserves_name_and_answer_order(self):
        query = ConjunctiveQuery(
            (Variable("b"), Variable("a")),
            [Atom("R", (Variable("a"), Variable("b")))],
            name="swap",
        )
        text = dump_queries([query])
        reloaded = parse_document(text).queries[0]
        assert reloaded.name == "swap"
        assert reloaded.answer_variables == (Variable("b"), Variable("a"))

    def test_nulls_are_rejected(self):
        from repro.data.terms import fresh_null

        with pytest.raises(ValueError, match="null"):
            dump_facts([Fact("R", (fresh_null(),))])


# -- CSV / TSV ---------------------------------------------------------------


class TestTabular:
    def test_relation_defaults_to_stem_and_types_infer(self, tmp_path):
        path = tmp_path / "M1.csv"
        path.write_text("1,2\n3,-4\nx,y\n", encoding="utf-8")
        facts = list(load_facts_csv(path))
        assert facts == [
            Fact("M1", (1, 2)),
            Fact("M1", (3, -4)),
            Fact("M1", ("x", "y")),
        ]

    def test_tsv_delimiter_from_suffix(self, tmp_path):
        path = tmp_path / "E.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        assert list(load_facts_csv(path)) == [Fact("E", ("a", "b"))]

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "E.parquet"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown tabular suffix"):
            list(load_facts_csv(path))

    def test_arity_mismatch_reports_file_and_line(self, tmp_path):
        path = tmp_path / "R.csv"
        path.write_text("a,b\nc,d\ne\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"R\.csv, line 3: R row has 1 fields"):
            list(load_facts_csv(path))

    def test_cross_file_arity_conflict_detected(self, tmp_path):
        (tmp_path / "R.csv").write_text("a,b\n", encoding="utf-8")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "R.csv").write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(ValueError, match="arity"):
            load_database_csv([tmp_path / "R.csv", sub / "R.csv"])

    def test_bulk_load_is_one_batch_per_file(self, tmp_path):
        (tmp_path / "R.csv").write_text("a,b\nc,d\n", encoding="utf-8")
        (tmp_path / "S.csv").write_text("e\n", encoding="utf-8")
        database = load_database_csv([tmp_path / "R.csv", tmp_path / "S.csv"])
        assert len(database) == 3
        # one coalesced version bump per file, not per fact
        assert database.version == 2

    def test_dump_database_one_file_per_relation(self, tmp_path):
        database = Database([Fact("B", (1,)), Fact("A", ("x", "y"))])
        written = dump_database_csv(database, tmp_path)
        assert [path.name for path in written] == ["A.csv", "B.csv"]
        assert (tmp_path / "A.csv").read_text() == "x,y\n"

    def test_dump_rejects_foreign_relation_and_exotic_constants(self, tmp_path):
        with pytest.raises(ValueError, match="does not belong"):
            dump_facts_csv([Fact("S", ("a",))], tmp_path / "R.csv")
        with pytest.raises(ValueError, match="cannot serialize"):
            dump_facts_csv([Fact("R", ((1, 2),))], tmp_path / "R.csv")

    def test_dump_refuses_lossy_int_shaped_strings(self, tmp_path):
        # "5" would be reloaded as the int 5; the writer must fail loudly
        # instead of silently changing answers (DLGP quotes these instead).
        with pytest.raises(ValueError, match="integer-shaped"):
            dump_facts_csv([Fact("R", ("5",))], tmp_path / "R.csv")
        dump_facts_csv([Fact("R", (5,))], tmp_path / "R.csv")
        assert list(load_facts_csv(tmp_path / "R.csv")) == [Fact("R", (5,))]

    def test_iter_facts_csv_streams(self):
        rows = iter(["a,b", "c,d"])
        facts = iter_facts_csv(rows, "R")
        assert next(facts) == Fact("R", ("a", "b"))
        assert next(facts) == Fact("R", ("c", "d"))


# -- mixed loading and scenarios ---------------------------------------------


class TestLoadDatabase:
    def test_mixes_dlgp_and_csv(self, tmp_path):
        (tmp_path / "facts.dlgp").write_text("@facts\nR(a, b).\n", encoding="utf-8")
        (tmp_path / "S.csv").write_text("c\n", encoding="utf-8")
        database = load_database([tmp_path / "facts.dlgp", tmp_path / "S.csv"])
        assert set(database.facts()) == {Fact("R", ("a", "b")), Fact("S", ("c",))}

    def test_rules_in_data_files_rejected(self, tmp_path):
        (tmp_path / "facts.dlgp").write_text(
            "@rules\nS(Y) :- R(X, Y).\n@facts\nR(a, b).\n", encoding="utf-8"
        )
        with pytest.raises(ValueError, match="only contain facts"):
            load_database([tmp_path / "facts.dlgp"])

    def test_unknown_suffix_rejected(self, tmp_path):
        (tmp_path / "facts.json").write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown data suffix"):
            load_database([tmp_path / "facts.json"])

    def test_scenario_needs_some_input(self):
        with pytest.raises(ValueError, match="at least one"):
            load_scenario()

    def test_load_queries_reads_dlgp_documents(self, tmp_path):
        path = tmp_path / "q.dlgp"
        path.write_text("@queries\n[a] ?(X) :- R(X).\n[b] ?(Y) :- S(Y).\n", encoding="utf-8")
        assert [query.name for query in load_queries(path)] == ["a", "b"]


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_builtins_present(self):
        names = set(list_workloads())
        assert {"office", "university", "lubm", "graph", "matrix"} <= names

    def test_unknown_name_lists_candidates(self):
        with pytest.raises(ValueError) as excinfo:
            get_workload("no-such-workload")
        message = str(excinfo.value)
        assert "no-such-workload" in message
        assert "university" in message and "office" in message

    def test_scenarios_scale_and_are_seeded(self):
        workload = get_workload("university")
        small = workload.scenario(size=20, seed=1)
        large = workload.scenario(size=200, seed=1)
        again = workload.scenario(size=20, seed=1)
        assert len(small.database) < len(large.database)
        assert set(small.database.facts()) == set(again.database.facts())

    def test_path_workload_from_directory_and_file(self, tmp_path):
        (tmp_path / "scenario.dlgp").write_text(
            "@rules\nOffice(Y) :- HasOffice(X, Y).\n"
            "@facts\nHasOffice(mary, room1).\n"
            "@queries\n[q] ?(X, Y) :- HasOffice(X, Y).\n",
            encoding="utf-8",
        )
        for target in (tmp_path, tmp_path / "scenario.dlgp"):
            workload = get_workload(str(target))
            assert not workload.scalable
            scenario = workload.scenario()
            assert scenario.queries[0].name == "q"
            assert len(scenario.database) == 1

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .dlgp or tabular"):
            get_workload(str(tmp_path))

    def test_demo_workload_is_registered_in_checkout(self):
        assert DATA_DIR.is_dir(), "examples/data must ship with the repo"
        workload = get_workload("demo")
        scenario = workload.scenario()
        engine = QueryEngine(scenario.ontology, scenario.database)
        answers = engine.execute(scenario.queries[0])
        assert answers and all(len(answer) == 3 for answer in answers)

    def test_register_workload_rejects_duplicates(self):
        workload = get_workload("office")
        with pytest.raises(ValueError, match="already registered"):
            register_workload(
                Workload(
                    name="office",
                    description="dup",
                    builder=workload.builder,
                )
            )

    def test_workload_omq_uses_first_query(self):
        omq = get_workload("office").omq(size=5)
        assert omq.query.arity == 3
        assert omq.is_free_connex_acyclic()


# -- round-trip acceptance ---------------------------------------------------

ROUND_TRIP_WORKLOADS = ("office", "university", "graph")


def _dump_and_reload(name: str, directory: Path, data_format: str):
    scenario = get_workload(name).scenario(size=40, seed=11)
    dump_scenario(scenario, directory, data_format=data_format)
    rules = [directory / "rules.dlgp"]
    queries = [directory / "queries.dlgp"]
    data = sorted(
        path
        for suffix in (".csv", ".tsv", ".dlgp")
        for path in directory.glob(f"*{suffix}")
        if path.name not in ("rules.dlgp", "queries.dlgp")
    )
    reloaded = load_scenario(rules=rules, data=data, queries=queries)
    return scenario, reloaded


class TestRoundTrip:
    @pytest.mark.parametrize("name", ROUND_TRIP_WORKLOADS)
    @pytest.mark.parametrize("data_format", ("csv", "dlgp"))
    def test_dump_reload_identical_answers_through_engine(self, name, data_format, tmp_path):
        scenario, reloaded = _dump_and_reload(name, tmp_path, data_format)
        assert set(reloaded.database.facts()) == set(scenario.database.facts())
        original_engine = QueryEngine(scenario.ontology, scenario.database)
        reloaded_engine = QueryEngine(reloaded.ontology, reloaded.database)
        assert len(reloaded.queries) == len(scenario.queries)
        for original, recovered in zip(scenario.queries, reloaded.queries):
            assert original.name == recovered.name
            assert original_engine.execute(original) == reloaded_engine.execute(recovered)

    @pytest.mark.parametrize("name", ROUND_TRIP_WORKLOADS)
    def test_dump_reload_identical_answers_through_cli(self, name, tmp_path, capsys):
        dump_dir = tmp_path / "dump"
        convert_args = ["convert", "--workload", name, "--size", "40", "--seed", "11"]
        assert cli_main([*convert_args, "--out", str(dump_dir)]) == 0
        capsys.readouterr()

        run_args = ["run", "--workload", name, "--size", "40", "--seed", "11"]
        assert cli_main([*run_args, "--json", "--show", "1000000"]) == 0
        direct = json.loads(capsys.readouterr().out)

        file_args = [
            "run",
            "--rules",
            str(dump_dir / "rules.dlgp"),
            "--queries",
            str(dump_dir / "queries.dlgp"),
            "--json",
            "--show",
            "1000000",
        ]
        data_files = sorted(str(path) for path in dump_dir.glob("*.csv"))
        if data_files:
            file_args.extend(["--data", *data_files])
        assert cli_main(file_args) == 0
        from_files = json.loads(capsys.readouterr().out)

        direct_answers = [
            (entry["query"].split(":")[-1], entry["answers"], entry["sample"])
            for entry in direct["results"]
        ]
        file_answers = [
            (entry["query"].split(":")[-1], entry["answers"], entry["sample"])
            for entry in from_files["results"]
        ]
        assert direct_answers == file_answers


# -- CLI ---------------------------------------------------------------------


class TestCli:
    def test_run_with_explicit_files(self, capsys):
        rules = sorted(str(path) for path in DATA_DIR.glob("*.dlgp"))
        data = sorted(str(path) for path in DATA_DIR.glob("*.csv"))
        code = cli_main(["run", "--rules", *rules, "--data", *data, "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["workload"] == "files"
        assert [entry["query"] for entry in out["results"]] == ["q", "offices"]
        assert all(entry["answers"] > 0 for entry in out["results"])

    def test_run_workload_path(self, capsys):
        code = cli_main(["run", "--workload", str(DATA_DIR), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["queries"] == 2
        assert out["size"] is None  # file-backed: no scale factor

    def test_run_reports_effective_default_size(self, capsys):
        code = cli_main(["run", "--workload", "office", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["size"] == 300

    def test_degenerate_sizes_do_not_crash(self, capsys):
        for workload in ("graph", "office", "university", "lubm", "matrix"):
            assert cli_main(["run", "--workload", workload, "--size", "1", "--json"]) == 0
            capsys.readouterr()

    def test_run_rejects_workload_plus_files(self, capsys):
        code = cli_main(["run", "--workload", "office", "--rules", "x.dlgp"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not both" in captured.err

    def test_run_unknown_workload_fails_cleanly(self, capsys):
        code = cli_main(["run", "--workload", "no-such"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown workload" in captured.err

    def test_run_scenario_without_queries_needs_flags(self, tmp_path, capsys):
        (tmp_path / "R.csv").write_text("a,b\n", encoding="utf-8")
        code = cli_main(["run", "--data", str(tmp_path / "R.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert "declares no queries" in captured.err

        code = cli_main(
            [
                "run",
                "--data",
                str(tmp_path / "R.csv"),
                "--inline",
                "q(x, y) :- R(x, y)",
                "--json",
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"][0]["answers"] == 1

    def test_convert_writes_dlgp_data(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "convert",
                "--workload",
                "office",
                "--size",
                "10",
                "--out",
                str(out_dir),
                "--data-format",
                "dlgp",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        names = {Path(line).name for line in captured.out.splitlines()}
        assert names == {"rules.dlgp", "queries.dlgp", "facts.dlgp"}
        reloaded = load_scenario(
            rules=[out_dir / "rules.dlgp"],
            data=[out_dir / "facts.dlgp"],
            queries=[out_dir / "queries.dlgp"],
        )
        assert len(reloaded.queries) == 1
        assert len(reloaded.database) > 0

    def test_queries_flag_accepts_dlgp_documents(self, tmp_path, capsys):
        queries = tmp_path / "queries.dlgp"
        queries.write_text(
            "@queries\n[a] ?(S, A) :- HasAdvisor(S, A).\n"
            "[b] ?(F) :- Faculty(F).\n",
            encoding="utf-8",
        )
        run_args = ["run", "--workload", "university", "--size", "30"]
        code = cli_main([*run_args, "--queries", str(queries), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [entry["query"] for entry in out["results"]] == [
            "queries.dlgp:a",
            "queries.dlgp:b",
        ]


# -- engine integration ------------------------------------------------------


class TestEngineFromFiles:
    def test_from_files_warms_embedded_queries(self):
        engine = QueryEngine.from_files(
            rules=sorted(DATA_DIR.glob("*.dlgp")),
            data=sorted(DATA_DIR.glob("*.csv")),
        )
        stats = engine.stats
        assert stats.plans_cached == 2
        answers = engine.execute(
            "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)"
        )
        assert answers and all(len(answer) == 3 for answer in answers)

    def test_from_scenario_unwarmed(self):
        scenario = get_workload("office").scenario(size=10)
        engine = QueryEngine.from_scenario(scenario, warm=False)
        assert engine.stats.plans_cached == 0
        assert engine.execute(scenario.queries[0])
