import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere.corpus import (
    Claim, Corpus, Document, GoldTargets, Label,
    gold_targets, load_claims, load_wiki_pages, save_wiki_pages,
    title_from_doc_id, verifiable,
)
from gere.errors import DataError

from conftest import make_doc


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


# -- wiki pages ---------------------------------------------------------------


def test_load_single_record(tmp_path):
    path = write_jsonl(tmp_path / "w.jsonl", [{"id": "A", "lines": "0\tHello world."}])
    corpus = load_wiki_pages(path)
    assert len(corpus) == 1
    assert corpus.documents["A"].sentences == ((0, "Hello world."),)


def test_load_empty_file(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text("")
    assert len(load_wiki_pages(path)) == 0


def test_escape_decoding():
    assert title_from_doc_id("Foo_-LRB-film-RRB-") == "Foo (film)"
    assert title_from_doc_id("A-COLON-_b") == "A: b"


def test_load_decodes_title_keeps_doc_id(tmp_path):
    path = write_jsonl(tmp_path / "w.jsonl",
                       [{"id": "Foo_-LRB-film-RRB-", "lines": "0\tx"}])
    corpus = load_wiki_pages(path)
    doc = corpus.documents["Foo_-LRB-film-RRB-"]
    assert doc.title == "Foo (film)"
    assert corpus.title_index["Foo (film)"] == "Foo_-LRB-film-RRB-"


def test_blank_sentence_preserved_and_extra_tabs_ignored(tmp_path):
    path = write_jsonl(tmp_path / "w.jsonl",
                       [{"id": "A", "lines": "0\t\n1\ttext here\tLinkA\tLinkB"}])
    doc = load_wiki_pages(path).documents["A"]
    assert doc.sentences == ((0, ""), (1, "text here"))


def test_malformed_line_names_file_and_line(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_text('{"id": "A", "lines": "0\\tok"}\n{"id": "B", "lines": "x\\tbad"}\n')
    with pytest.raises(DataError) as err:
        load_wiki_pages(path)
    assert str(err.value).count("w.jsonl:2") == 1


def test_duplicate_doc_id_rejected(tmp_path):
    path = write_jsonl(tmp_path / "w.jsonl",
                       [{"id": "A", "lines": ""}, {"id": "A", "lines": ""}])
    with pytest.raises(DataError):
        load_wiki_pages(path)


def test_non_increasing_indices_rejected(tmp_path):
    path = write_jsonl(tmp_path / "w.jsonl", [{"id": "A", "lines": "1\ta\n1\tb"}])
    with pytest.raises(DataError):
        load_wiki_pages(path)


# `int` takes all of these ("0_1" and "01" as 1, "\u0663" as 3); only ASCII digits
# without a leading zero are an index.
@pytest.mark.parametrize("index", ["0_1", " 3", "+4", "\u0663", "3 ", "-1", "01"])
def test_sentence_index_must_be_ascii_digits(tmp_path, index):
    path = write_jsonl(tmp_path / "w.jsonl", [{"id": "A", "lines": f"0\ta\n{index}\tb"}])
    with pytest.raises(DataError, match=r"w.jsonl:1: sentence entry .* lacks an integer index"):
        load_wiki_pages(path)


def test_directory_load_order_irrelevant(tmp_path):
    d1 = tmp_path / "d1"
    d2 = tmp_path / "d2"
    d1.mkdir(), d2.mkdir()
    write_jsonl(d1 / "a.jsonl", [{"id": "A", "lines": "0\tx"}])
    write_jsonl(d1 / "b.jsonl", [{"id": "B", "lines": "0\ty"}])
    write_jsonl(d2 / "a.jsonl", [{"id": "B", "lines": "0\ty"}])
    write_jsonl(d2 / "b.jsonl", [{"id": "A", "lines": "0\tx"}])
    assert load_wiki_pages(d1) == load_wiki_pages(d2)


def test_wiki_round_trip(tmp_path, tiny_corpus):
    path = tmp_path / "out.jsonl"
    save_wiki_pages(tiny_corpus, path)
    assert load_wiki_pages(path) == tiny_corpus


# -- claims --------------------------------------------------------------------


def claim_record(cid, label, evidence, claim="some claim text"):
    return {"id": cid, "claim": claim, "label": label, "evidence": evidence}


def test_load_minimal_claim(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl",
                       [claim_record(7, "SUPPORTS", [[[10, 20, "A", 0]]])])
    (claim,) = load_claims(path)
    assert claim.claim_id == 7
    assert claim.label is Label.SUPPORTS
    assert claim.evidence_groups == ((("A", 0),),)


def test_nei_null_evidence_drops_groups(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl",
                       [claim_record(1, "NOT ENOUGH INFO", [[[10, 20, None, None]]])])
    (claim,) = load_claims(path)
    assert claim.evidence_groups == ()


def test_two_groups_in_file_order(tmp_path):
    ev = [[[1, 2, "A", 0]], [[3, 4, "B", 2]]]
    path = write_jsonl(tmp_path / "c.jsonl", [claim_record(1, "REFUTES", ev)])
    (claim,) = load_claims(path)
    assert claim.evidence_groups == ((("A", 0),), (("B", 2),))


def test_duplicate_claim_id_names_both_lines(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [claim_record(1, "NOT ENOUGH INFO", []),
                                              claim_record(2, "NOT ENOUGH INFO", []),
                                              claim_record(1, "SUPPORTS", [[[1, 2, "A", 0]]])])
    with pytest.raises(DataError) as err:
        load_claims(path)
    assert str(err.value) == f"{path}:3: duplicate claim id 1 (first at {path}:1)"


def test_duplicate_claim_id_across_files_of_a_directory(tmp_path):
    write_jsonl(tmp_path / "a.jsonl", [claim_record(5, "NOT ENOUGH INFO", [])])
    write_jsonl(tmp_path / "b.jsonl", [claim_record(6, "NOT ENOUGH INFO", []),
                                       claim_record(5, "NOT ENOUGH INFO", [])])
    with pytest.raises(DataError) as err:
        load_claims(tmp_path)
    assert str(err.value) == (f"{tmp_path / 'b.jsonl'}:2: duplicate claim id 5 "
                              f"(first at {tmp_path / 'a.jsonl'}:1)")


def test_unknown_label_rejected(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [claim_record(1, "MAYBE", [])])
    with pytest.raises(DataError):
        load_claims(path)


@pytest.mark.parametrize("fields, error", [
    ('"id": Infinity', "id must be an integer, got inf"),
    ('"id": 1e400', "id must be an integer, got inf"),
    ('"id": 1.5', "id must be an integer, got 1.5"),
    ('"id": "7"', "id must be an integer, got '7'"),
    ('"id": true', "id must be an integer, got True"),
    ('"id": null', "id must be an integer, got None"),
    ('"claim_id": 7', "record lacks 'id'"),
    ('"id": 7, "label": ["SUPPORTS"]', "unknown label"),
])
def test_malformed_claim_fields_are_data_errors(tmp_path, fields, error):
    path = tmp_path / "c.jsonl"
    path.write_text('{"claim": "x", "label": "NOT ENOUGH INFO", ' + fields + "}\n")
    with pytest.raises(DataError, match=f"c.jsonl:1: {error}"):
        load_claims(path)


@pytest.mark.parametrize("index", [True, False, 1.0, -1, "1"])
def test_evidence_sentence_index_must_be_an_integer(tmp_path, index):
    # A bool is an int in Python; JSON's true must not load as sentence 1.
    path = write_jsonl(tmp_path / "c.jsonl",
                       [claim_record(1, "SUPPORTS", [[[1, 2, "A", index]]])])
    with pytest.raises(DataError, match="c.jsonl:1: evidence element .* malformed"):
        load_claims(path)


def test_unparsable_line_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(claim_record(1, "SUPPORTS", [])) + "\n{oops\n")
    with pytest.raises(DataError) as err:
        load_claims(path)
    assert "c.jsonl:2" in str(err.value)


def test_claims_validate_against_corpus(tmp_path, tiny_corpus):
    good = claim_record(1, "SUPPORTS", [[[1, 2, "Alpha_hill", 0]]])
    bad_doc = claim_record(2, "SUPPORTS", [[[1, 2, "Nope", 0]]])
    bad_idx = claim_record(3, "SUPPORTS", [[[1, 2, "Alpha_hill", 99]]])
    path = write_jsonl(tmp_path / "ok.jsonl", [good])
    assert len(load_claims(path, tiny_corpus)) == 1
    for i, rec in enumerate([bad_doc, bad_idx]):
        p = write_jsonl(tmp_path / f"bad{i}.jsonl", [rec])
        with pytest.raises(DataError):
            load_claims(p, tiny_corpus)


# -- gold targets ---------------------------------------------------------------


def make_claim(groups, label=Label.SUPPORTS):
    return Claim(1, "text", label, tuple(tuple(g) for g in groups))


# Docs `A`-`D`, each titled by its doc_id, with sentences 0-3.
LETTERS = Corpus()
for _doc_id in "ABCD":
    LETTERS.add(make_doc(_doc_id, [f"{_doc_id} sentence {i} ." for i in range(4)]))


def test_gold_targets_single_group():
    got = gold_targets(make_claim([[("A", 0), ("A", 1)]]), LETTERS)
    assert got == GoldTargets(("A",), (("A", 0), ("A", 1)))


def test_gold_targets_deduplicates_across_groups():
    got = gold_targets(make_claim([[("A", 0)], [("A", 0), ("B", 2)]]), LETTERS)
    assert got.title_sequence == ("A", "B")
    assert got.evidence_sequence == (("A", 0), ("B", 2))


def test_gold_targets_keeps_first_occurrence_order():
    got = gold_targets(make_claim([[("B", 3)], [("A", 1)]]), LETTERS)
    assert got.title_sequence == ("B", "A")


def test_gold_targets_maps_titles_through_corpus(tiny_corpus):
    claim = make_claim([[("Alpha_hill_-LRB-film-RRB-", 1)]])
    got = gold_targets(claim, tiny_corpus)
    assert got.title_sequence == ("Alpha hill (film)",)


def test_gold_targets_rejects_nei_and_unknown_docs(tiny_corpus):
    with pytest.raises(ValueError):
        gold_targets(make_claim([], label=Label.NOT_ENOUGH_INFO), tiny_corpus)
    with pytest.raises(DataError):
        gold_targets(make_claim([[("Missing", 0)]]), tiny_corpus)


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.sampled_from("ABCD"), st.integers(0, 3)), min_size=1, max_size=4),
    min_size=1, max_size=4))
def test_gold_targets_invariants_hold(groups):
    got = gold_targets(make_claim(groups), LETTERS)
    assert len(set(got.title_sequence)) == len(got.title_sequence)
    assert len(set(got.evidence_sequence)) == len(got.evidence_sequence)
    assert {d for d, _ in got.evidence_sequence} == set(got.title_sequence)


def test_verifiable_filters_nei(tiny_claims):
    assert [c.claim_id for c in verifiable(tiny_claims)] == [1, 2, 3]


def test_candidates_sorted_unique_and_reject_unknown_docs(tiny_corpus):
    got = tiny_corpus.candidates(["Beta_ridge", "Alpha_hill_-LRB-film-RRB-", "Beta_ridge"])
    assert [(d, i) for d, i, _ in got] == [("Alpha_hill_-LRB-film-RRB-", 0),
                                           ("Alpha_hill_-LRB-film-RRB-", 1),
                                           ("Beta_ridge", 0), ("Beta_ridge", 1)]
    assert got[0][2] == ""  # blank FEVER lines stay candidates
    with pytest.raises(DataError):
        tiny_corpus.candidates(["Alpha_hill", "Missing"])


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(0, 30), max_size=12), st.integers(-2, 33))
def test_has_sentence_agrees_with_a_scan(indices, query):
    """Index 0 and a blank sentence among them, and queries below, between
    and above the stored indices."""
    sentences = tuple((i, "" if i % 3 == 0 else f"s{i}") for i in sorted(indices))
    doc = Document("D", "D", sentences)
    for index in {query, 0, *indices}:
        assert doc.has_sentence(index) == any(i == index for i, _ in sentences), index
