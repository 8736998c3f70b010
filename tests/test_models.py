import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phpwarden import models
from phpwarden.models import (
    MODEL1_HEADER,
    ModelRow,
    NavigationModel,
    RequestModel,
    _decode_page_name,
    _encode_page_name,
    build_model,
    is_asset,
    load_model,
    persist_model,
)
from phpwarden.http1 import parse_header_block, request_key
from phpwarden.profile_store import ProfileStore


def head_text(target, cookie=None, method="GET"):
    lines = [f"{method} {target} HTTP/1.1", "Host: app.local"]
    if cookie:
        lines.append(f"Cookie: {cookie}")
    return "\r\n".join(lines) + "\r\n\r\n"


def small_store(tmp_path):
    store = ProfileStore(tmp_path / "store")
    store.begin_trail("0")
    store.record_exchange(head_text("/About.php"), "0")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/site.css", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/View.php", cookie="PHPSESSID=aa"), "manager")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/User_mgmt.php", cookie="PHPSESSID=aa"), "manager")
    return store


def test_is_asset():
    assert is_asset("site.css")
    assert is_asset("logo.PNG")
    assert not is_asset("Home.php")
    assert not is_asset("styles")


def test_build_model_rows_follow_recording_order(tmp_path):
    store = small_store(tmp_path)
    model1, _ = build_model(store)
    assert [r.sno for r in model1.rows] == [1, 2, 3, 4, 5, 6]
    assert [r.convid for r in model1.rows] == [1, 2, 3, 4, 5, 6]
    assert model1.rows[0].reqresid == "GET_About.php"
    assert model1.rows[0].session_flag == 0
    assert model1.rows[0].role == "0"
    assert model1.rows[1].reqresid == "GET_Home.php"
    assert model1.rows[1].session_flag == 1
    assert model1.rows[1].role == "manager"
    # assets are kept in the request relation (they are real requests)
    assert model1.rows[2].reqresid == "GET_site.css"


def test_triples_dedup_first_occurrence(tmp_path):
    store = small_store(tmp_path)
    model1, _ = build_model(store)
    triples = model1.triples()
    assert triples.count(("GET_Home.php", 1, "manager")) == 1
    assert len(triples) == len(set(triples))
    assert frozenset(model1.triples()) == frozenset(triples)


def test_navigation_edges_only_within_trails(tmp_path):
    _, nav = build_model(small_store(tmp_path))
    assert nav.has_edge("manager", "Home.php", "View.php")
    assert nav.has_edge("manager", "Home.php", "User_mgmt.php")
    # trail boundary: View.php ended trail 1, Home.php starts trail 2
    assert not nav.has_edge("manager", "View.php", "Home.php")
    assert nav.is_entry("manager", "Home.php")
    assert not nav.is_entry("manager", "View.php")


def test_assets_excluded_from_navigation(tmp_path):
    _, nav = build_model(small_store(tmp_path))
    for role in nav.graphs:
        for page, nexts in nav.graphs[role].items():
            assert not is_asset(page)
            for n in nexts:
                assert not is_asset(n)
    # the css fetch sat between Home and View; the edge must bridge it
    assert nav.has_edge("manager", "Home.php", "View.php")


def test_canonical_graph_has_no_empty_adjacency(tmp_path):
    _, nav = build_model(small_store(tmp_path))
    for role in nav.graphs:
        for page, nexts in nav.graphs[role].items():
            assert nexts, f"{role}: {page} has empty successor list"


def test_single_page_trails_make_entries_not_nodes(tmp_path):
    store = small_store(tmp_path)
    _, nav = build_model(store)
    assert nav.entries["0"] == ["About.php"]
    assert nav.graphs["0"] == {}
    assert "0" in nav.nodes_by_role
    assert "ghost" not in nav.nodes_by_role


def test_build_model_empty_store_is_error(tmp_path):
    store = ProfileStore(tmp_path / "empty")
    with pytest.raises(ValueError, match="no recorded exchanges"):
        build_model(store)


def test_build_model_parses_each_distinct_head_once(tmp_path, monkeypatch):
    store = small_store(tmp_path)  # Home.php is recorded twice
    for _ in range(3):
        store.begin_trail("0")
        store.record_exchange(head_text("/About.php"), "0")
    distinct = {store.read_exchange(cid)[0] for cid in store.recorded_ids()}
    calls = []
    parse = models.parse_header_block

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(models, "parse_header_block", counting_parse)
    model1, _ = build_model(store)
    assert len(model1.rows) == 9
    assert sorted(calls) == sorted(distinct)
    assert len(calls) == 5


@pytest.mark.parametrize("repeat", [1, 2])
def test_build_model_refuses_a_malformed_stored_head(tmp_path, repeat):
    store = small_store(tmp_path)
    for cid in range(2, 2 + repeat):
        (tmp_path / "store" / f"{cid}_request").write_text("GET /Home.php HTTP/1.1\nno colon here\n\n")
    with pytest.raises(ValueError, match="malformed header line"):
        build_model(store)


def test_build_model_rows_match_a_parse_per_exchange(repo_root, tmp_path, monkeypatch):
    # the benchmark's large site, two roles of it: rows as a parse of every
    # stored head, one by one, gives them
    monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
    import sites

    site = sites.large_site(1)
    store = ProfileStore(tmp_path / "store")
    for role in list(site.trails)[:2]:
        for trail in site.trails[role]:
            store.begin_trail(role)
            for page in trail:
                store.record_exchange(f"GET /{page} HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
                                      f"Cookie: PHPSESSID=trainer{role}\r\n\r\n", role)
    role_by_id = {cid: role for role, records in store.trail_records() for cid, _, _ in records}
    expected = []
    for sno, cid in enumerate(store.recorded_ids(), start=1):
        raw, flag = store.read_exchange(cid)
        head = parse_header_block(raw)
        expected.append(ModelRow(sno, cid, request_key(head).request_id, flag,
                                 role_by_id[cid]))
    model1, _ = build_model(store)
    assert len({row.reqresid for row in expected}) < len(expected)
    assert model1.rows == expected


# -- persistence --------------------------------------------------------------


def test_persist_writes_exact_csv_header(tmp_path):
    model1, nav = build_model(small_store(tmp_path))
    out = tmp_path / "models"
    persist_model(model1, nav, out)
    first_line = (out / "requests.csv").read_text().splitlines()[0]
    assert first_line == ",".join(MODEL1_HEADER)
    assert MODEL1_HEADER == ["sno", "convid", "reqresid", "sessionFlag", "role"]


def test_persisted_role_xml_shape(tmp_path):
    model1, nav = build_model(small_store(tmp_path))
    out = tmp_path / "models"
    persist_model(model1, nav, out)
    root = ET.parse(out / "manager.xml").getroot()
    assert root.tag == "Pages"
    assert root.get("entry") == "Home.php"
    by_tag = {el.tag: el.text for el in root}
    assert set(by_tag) == {"Home.php"}
    assert by_tag["Home.php"] == "View.php, User_mgmt.php"


def test_persist_load_round_trip_identity(tmp_path):
    model1, nav = build_model(small_store(tmp_path))
    out = tmp_path / "models"
    persist_model(model1, nav, out)
    loaded1, loaded2 = load_model(out)
    assert loaded1 == model1
    assert loaded2.entries == nav.entries
    assert loaded2.graphs == nav.graphs


def test_repersist_is_byte_identical(tmp_path):
    model1, nav = build_model(small_store(tmp_path))
    first = tmp_path / "m1"
    second = tmp_path / "m2"
    persist_model(model1, nav, first)
    loaded = load_model(first)
    persist_model(loaded[0], loaded[1], second)
    for name in ("requests.csv", "manager.xml", "0.xml"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_load_model_missing_table(tmp_path):
    with pytest.raises(ValueError, match="requests.csv"):
        load_model(tmp_path)


def test_load_model_bad_header_names_line(tmp_path):
    (tmp_path / "requests.csv").write_text("wrong,header\n")
    with pytest.raises(ValueError, match="line 1"):
        load_model(tmp_path)


def test_load_model_bad_row_names_line(tmp_path):
    good = ",".join(MODEL1_HEADER)
    (tmp_path / "requests.csv").write_text(f"{good}\n1,1,GET_a.php,notanint,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_model(tmp_path)


def test_load_model_malformed_xml_names_file(tmp_path):
    good = ",".join(MODEL1_HEADER)
    (tmp_path / "requests.csv").write_text(f"{good}\n")
    (tmp_path / "manager.xml").write_text("<Pages entry=''><broken</Pages>")
    with pytest.raises(ValueError, match="manager.xml"):
        load_model(tmp_path)


def test_load_model_wrong_root_tag(tmp_path):
    good = ",".join(MODEL1_HEADER)
    (tmp_path / "requests.csv").write_text(f"{good}\n")
    (tmp_path / "manager.xml").write_text("<Wrong></Wrong>\n")
    with pytest.raises(ValueError, match="expected <Pages>"):
        load_model(tmp_path)


@pytest.mark.parametrize("tag", ["esc--zz", "esc--c3"], ids=["not-hex", "not-utf-8"])
def test_load_model_undecodable_element_names_file_and_element(tmp_path, tag):
    good = ",".join(MODEL1_HEADER)
    (tmp_path / "requests.csv").write_text(f"{good}\n")
    role_file = tmp_path / "0.xml"
    role_file.write_text(f"<Pages entry='a.php'><{tag}>a.php</{tag}></Pages>\n")
    with pytest.raises(ValueError) as raised:
        load_model(tmp_path)
    assert raised.type is ValueError
    assert str(raised.value).startswith(f"{role_file}: element <{tag}>: ")


# -- page-name encoding ---------------------------------------------------------


def test_plain_names_pass_through():
    for name in ("Home.php", "Assign_works.php", "a-b.php", "_x"):
        assert _encode_page_name(name) == name
        assert _decode_page_name(name) == name


def test_awkward_names_encode_and_round_trip():
    for name in ("9starts_with_digit.php", "has space.php", "q?.php", "esc-trap", "100%.php"):
        encoded = _encode_page_name(name)
        assert _decode_page_name(encoded) == name
        # encoded form must be usable as an XML element name
        ET.fromstring(f"<{encoded}/>")


@given(st.text(min_size=1, max_size=30).filter(lambda s: ", " not in s))
def test_encode_decode_round_trip_property(name):
    assert _decode_page_name(_encode_page_name(name)) == name


def test_awkward_page_name_survives_persist_load(tmp_path):
    nav = NavigationModel()
    nav.entries["r"] = ["1 weird page.php"]
    nav.graphs["r"] = {"1 weird page.php": ["ok.php"]}
    store = small_store(tmp_path)
    model1, _ = build_model(store)
    out = tmp_path / "weird"
    persist_model(model1, nav, out)
    _, loaded = load_model(out)
    assert loaded.graphs["r"] == {"1 weird page.php": ["ok.php"]}


def test_monotonicity_more_training_never_removes(tmp_path):
    store = small_store(tmp_path)
    model1a, nav_a = build_model(store)
    store.begin_trail("employer")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=bb"), "employer")
    store.record_exchange(head_text("/Work_report.php", cookie="PHPSESSID=bb"), "employer")
    model1b, nav_b = build_model(store)
    assert frozenset(model1a.triples()) <= frozenset(model1b.triples())
    for role in nav_a.graphs:
        for page, nexts in nav_a.graphs[role].items():
            for n in nexts:
                assert nav_b.has_edge(role, page, n)


def test_loaded_model_holds_each_equal_value_once(tmp_path):
    model1, nav = build_model(small_store(tmp_path))
    persist_model(model1, nav, tmp_path / "models")
    loaded1, loaded2 = load_model(tmp_path / "models")
    homes = [row.reqresid for row in loaded1.rows if row.reqresid == "GET_Home.php"]
    managers = [row.role for row in loaded1.rows if row.role == "manager"]
    assert len(homes) == 2 and len(managers) == 5
    assert all(value is homes[0] for value in homes)
    assert all(value is managers[0] for value in managers)
    # a role's file name and its rows' role, and a page as an entry, a key
    # and a successor, are one string each
    assert next(role for role in loaded2.graphs if role == "manager") is managers[0]
    entry = loaded2.entries["manager"][0]
    assert next(page for page in loaded2.graphs["manager"] if page == "Home.php") is entry
    assert next(page for page in loaded2.nodes_by_role["manager"] if page == "Home.php") is entry


def test_request_ids_with_equal_role_sets_share_them():
    rows = [ModelRow(sno, sno, reqresid, 0, role) for sno, (reqresid, role) in enumerate([
        ("GET_a.php", "r1"), ("GET_b.php", "r1"), ("GET_a.php", "r2"), ("GET_b.php", "r2"),
        ("GET_c.php", "r1"), ("GET_a.php", "r1")], start=1)]
    index = RequestModel(rows=rows).roles_by_request
    assert index == {"GET_a.php": {0: {"r1", "r2"}}, "GET_b.php": {0: {"r1", "r2"}}, "GET_c.php": {0: {"r1"}}}
    assert index["GET_a.php"][0] is index["GET_b.php"][0]
    assert index["GET_a.php"] is index["GET_b.php"]
    assert isinstance(index["GET_c.php"][0], frozenset)


# tracemalloc bytes per row to load and index a table of many rows over few
# ids and roles: about 275 when each row holds its own strings and each id
# its own role sets, about 130 when equal values are shared
LOAD_BYTES_PER_ROW = 200


def test_loading_many_rows_over_few_values_holds_them_once(tmp_path):
    rows = 4000
    with open(tmp_path / "requests.csv", "w") as fh:
        fh.write(",".join(MODEL1_HEADER) + "\n")
        for sno in range(1, rows + 1):
            fh.write(f"{sno},{sno},GET_page{sno % 40}.php,{sno % 2},role{sno % 4 // 2}\n")
    tracemalloc.start()
    try:
        model1, _ = load_model(tmp_path)
        model1.roles_by_request
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model1.rows) == rows and len(model1.roles_by_request) == 40
    assert peak / rows < LOAD_BYTES_PER_ROW, (live / rows, peak / rows)
