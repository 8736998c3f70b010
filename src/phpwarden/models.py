"""Offline model builder and model persistence.

Two artifacts come out of a training store: the request model (every
recorded request as a (reqresid, sessionFlag, role) row, id-ordered) and
the navigation model (per role: page transition graph + entry pages,
derived from adjacent page pairs within each recorded trail).

Persisted forms: `requests.csv` with the exact header
`sno,convid,reqresid,sessionFlag,role`, and one `<role>.xml` per role
whose root is `<Pages entry="...">` with one child element per page that
has successors; the element text is the comma-separated successor list.

Both models are read-only once built or loaded.  The verifier reads them
through indexes compiled from them on first use and cached on the model
object (`RequestModel.roles_by_request`, `NavigationModel.nodes_by_role`),
so a verdict costs a few lookups whatever the model's size; a model changed
after its first read would leave those indexes stale.

Equal values are held once (hash-consing): load_model keeps one copy of
each request id, role and page name, and a convid equal to its row's sno
is that int, and roles_by_request shares one role set and one flag -> roles
mapping between every request id that has it.  On the 8k-row benchmark
model, with 1.8k distinct ids and a dozen distinct mappings, that halves
the loaded models' memory.  It also makes changing a loaded model or an
index unsupported: the change would reach every id that shares the value.
"""

from __future__ import annotations

import csv
import re
import xml.etree.ElementTree as ET
from collections import namedtuple
from functools import cached_property
from pathlib import Path

from .http1 import parse_header_block, request_key

MODEL1_HEADER = ["sno", "convid", "reqresid", "sessionFlag", "role"]

# Recorded but never treated as navigation steps: fetching these between
# page views must not break trained sequences.
ASSET_EXTENSIONS = frozenset({
    ".js", ".css", ".png", ".jpg", ".jpeg", ".gif", ".ico", ".svg",
    ".woff", ".woff2", ".ttf", ".map",
})


def is_asset(page: str) -> bool:
    dot = page.rfind(".")
    return dot >= 0 and page[dot:].lower() in ASSET_EXTENSIONS


# one line of requests.csv
ModelRow = namedtuple("ModelRow", "sno convid reqresid session_flag role")

_NO_ROLES: frozenset[str] = frozenset()


class RequestModel:
    """The trained request relation, one row per recorded request.  Read-only
    after build_model or load_model returns: roles_by_request is compiled
    from rows once and never rebuilt."""

    def __init__(self, rows: list[ModelRow] | None = None):
        self.rows = [] if rows is None else rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def triples(self) -> list[tuple[str, int, str]]:
        """Deduplicated (reqresid, sessionFlag, role) relation, first
        occurrence order.  This is the relation the verifier consumes."""
        seen: dict[tuple[str, int, str], None] = {}
        for row in self.rows:
            seen.setdefault((row.reqresid, row.session_flag, row.role), None)
        return list(seen)

    @cached_property
    def roles_by_request(self) -> dict[str, dict[int, frozenset[str]]]:
        """reqresid -> session flag -> the roles trained with that pair:
        the relation of triples() keyed for level-1 lookups.  Each distinct
        role set is one frozenset and each distinct flag -> roles mapping
        one dict, shared by every id that has it."""
        index: dict[str, dict[int, frozenset[str]]] = {}
        role_sets: dict[frozenset[str], frozenset[str]] = {}
        for _, _, reqresid, flag, role in self.rows:
            by_flag = index.get(reqresid)
            if by_flag is None:
                by_flag = index[reqresid] = {}
            roles = by_flag.get(flag, _NO_ROLES)
            if role not in roles:
                roles = roles.union((role,))
                by_flag[flag] = role_sets.setdefault(roles, roles)
        mappings: dict[frozenset, dict[int, frozenset[str]]] = {}
        for reqresid, by_flag in index.items():  # same keys: values may change
            index[reqresid] = mappings.setdefault(frozenset(by_flag.items()), by_flag)
        return index


class NavigationModel:
    """Per-role page graphs.  graphs[role] maps page -> ordered successor
    list and only contains pages with at least one successor (the canonical
    form, so persist/load round-trips exactly).  entries[role] is the
    ordered set of pages a role's walk may start at.  Read-only after
    build_model or load_model returns: nodes_by_role is compiled from the
    graphs and entries once and never rebuilt."""

    def __init__(self, graphs: dict[str, dict[str, list[str]]] | None = None,
                 entries: dict[str, list[str]] | None = None):
        self.graphs = {} if graphs is None else graphs
        self.entries = {} if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.graphs == other.graphs and self.entries == other.entries

    @cached_property
    def nodes_by_role(self) -> dict[str, frozenset[str]]:
        """role -> every page of its graph: entries, pages with successors
        and the successors themselves.  Holds every role of entries or
        graphs."""
        index: dict[str, frozenset[str]] = {}
        for role in self.entries.keys() | self.graphs.keys():
            nodes: set[str] = set(self.entries.get(role, ()))
            for page, nexts in self.graphs.get(role, {}).items():
                nodes.add(page)
                nodes.update(nexts)
            index[role] = frozenset(nodes)
        return index

    def has_edge(self, role: str, current: str, target: str) -> bool:
        return target in self.graphs.get(role, {}).get(current, ())

    def is_entry(self, role: str, page: str) -> bool:
        return page in self.entries.get(role, ())


def build_model(store: ProfileStore) -> tuple[RequestModel, NavigationModel]:
    """Deterministic given the store: rows follow the trails' id ranges,
    each id under its trail's role.  Empty store is an error; so is an id
    that no trail covers, or one whose files are missing (reported by id)."""
    rows: list[ModelRow] = []
    # a store repeats heads: each distinct one is parsed once (and a
    # malformed one raises on its first sight, as it would on every other)
    reqresid_by_head: dict[str, str] = {}
    nav = NavigationModel()
    for trail in store.trails:
        for cid in range(trail.first_id, trail.last_id + 1):
            raw, flag = store.read_exchange(cid)
            reqresid = reqresid_by_head.get(raw)
            if reqresid is None:
                reqresid = reqresid_by_head[raw] = request_key(parse_header_block(raw)).request_id
            rows.append(ModelRow(
                sno=len(rows) + 1,
                convid=cid,
                reqresid=reqresid,
                session_flag=flag,
                role=trail.role,
            ))
        entries = nav.entries.setdefault(trail.role, [])
        graph = nav.graphs.setdefault(trail.role, {})
        pages = [p for p in trail.pages if not is_asset(p)]
        if pages and pages[0] not in entries:
            entries.append(pages[0])
        for prev, nxt in zip(pages, pages[1:]):
            nexts = graph.setdefault(prev, [])
            if nxt not in nexts:
                nexts.append(nxt)
    orphans = set(store.recorded_ids()).difference(row.convid for row in rows)
    if orphans:
        raise ValueError(f"store {store.directory}: communication id {min(orphans)} not covered by any trail")
    if not rows:
        raise ValueError(f"store {store.directory}: no recorded exchanges")
    return RequestModel(rows=rows), nav


# -- XML element naming ----------------------------------------------------
# Page names become element names.  Names that are not valid XML names are
# encoded: marker prefix `esc-`, then each unsafe byte as `-XX` hex.  `-`
# itself is always encoded inside the escaped form, so decoding is
# unambiguous.  Ordinary page names (letters, digits, ., _, -) pass through
# untouched, keeping the files human-readable.

_PLAIN_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9._-]*$")


def _encode_page_name(page: str) -> str:
    if _PLAIN_NAME_RE.match(page) and not page.startswith("esc-"):
        return page
    escaped = re.sub(rb"[^A-Za-z0-9._]", lambda m: b"-%02X" % m[0][0], page.encode("utf-8"))
    return "esc-" + escaped.decode("ascii")


def _decode_page_name(name: str) -> str:
    if not name.startswith("esc-"):
        return name
    # each -XX back to its byte, each other character to the byte of its code
    raw = re.sub(r"-(.{0,2})", lambda m: chr(int(m[1], 16)), name[4:], flags=re.S)
    return raw.encode("latin-1").decode("utf-8")


def persist_model(model1: RequestModel, model2: NavigationModel, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "requests.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MODEL1_HEADER)
        for row in model1.rows:
            writer.writerow([row.sno, row.convid, row.reqresid, row.session_flag, row.role])
    roles = list(model2.entries)
    for role in model2.graphs:
        if role not in roles:
            roles.append(role)
    for role in roles:
        root = ET.Element("Pages", attrib={"entry": ", ".join(model2.entries.get(role, []))})
        for page, nexts in model2.graphs.get(role, {}).items():
            el = ET.SubElement(root, _encode_page_name(page))
            el.text = ", ".join(nexts)
        tree = ET.ElementTree(root)
        ET.indent(tree, space="  ")
        tree.write(out / f"{role}.xml", encoding="unicode")
        with open(out / f"{role}.xml", "a") as fh:
            fh.write("\n")


def load_model(model_dir: str | Path) -> tuple[RequestModel, NavigationModel]:
    """Inverse of persist_model.  Malformed files raise ValueError naming
    the file (and line where the format gives one)."""
    src = Path(model_dir)
    table = src / "requests.csv"
    if not table.exists():
        raise ValueError(f"{table}: missing model table")
    # every id, role and page name read goes through shared, so equal
    # values are one object
    shared: dict[str, str] = {}
    share = shared.setdefault
    rows: list[ModelRow] = []
    with open(table, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MODEL1_HEADER:
            raise ValueError(f"{table}: line 1: bad header {header!r}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 5:
                raise ValueError(f"{table}: line {lineno}: expected 5 columns")
            sno, convid, reqresid, flag, role = record
            try:
                sno_int = int(sno)
                rows.append(ModelRow(
                    sno=sno_int,
                    convid=sno_int if convid == sno else int(convid),
                    reqresid=share(reqresid, reqresid),
                    session_flag=int(flag),
                    role=share(role, role),
                ))
            except ValueError as exc:
                raise ValueError(f"{table}: line {lineno}: {exc}") from None
    model1 = RequestModel(rows=rows)

    nav = NavigationModel()
    for role_file in sorted(src.glob("*.xml")):
        role = share(role_file.stem, role_file.stem)
        try:
            root = ET.parse(role_file).getroot()
        except ET.ParseError as exc:
            raise ValueError(f"{role_file}: {exc}") from None
        if root.tag != "Pages":
            raise ValueError(f"{role_file}: expected <Pages> root, got <{root.tag}>")
        entry_attr = root.get("entry", "")
        nav.entries[role] = [share(p, p) for p in entry_attr.split(", ") if p]
        graph: dict[str, list[str]] = {}
        for el in root:
            page = _decode_page_name(el.tag)
            graph[share(page, page)] = [share(p, p) for p in (el.text or "").split(", ") if p]
        nav.graphs[role] = {p: n for p, n in graph.items() if n}
    return model1, nav
