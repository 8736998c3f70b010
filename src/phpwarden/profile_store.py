"""Training-phase capture store.

One directory per training corpus.  Every recorded exchange produces two
files, `<id>_request` (the raw request header block) and `<id>_Srequest`
(the session flag).  Page order is kept per role in `<role>.xml` as a list
of trails: each trail is one root-to-leaf walk of the crawl, so adjacent
pages within a trail are real observed transitions.  A `trails` index file
maps each trail to its role and communication-id range, in id order, which
is what lets the model builder attribute ids to roles and a replay harness
walk the exact training traffic again.

Communication ids are unique positive integers, strictly increasing across
the life of the store (reopening continues the counter).

A trail is made by its first exchange.  Only the newest trail ever grows:
recording under a role other than the newest trail's starts a new trail,
and so does the first recording after begin_trail or a reopen, so trail id
ranges never overlap (a reopened store refuses an index where they do).  Only
the newest trail's text in `trails` (its line) and in its role's XML (its
`<Trail>` line and `</Sequences>`) thus ever changes, and it only grows.
The store keeps the byte length of every older (sealed) trail's text, and
each exchange writes the newest trail's text at that offset, truncating
nothing, so the files are complete after every exchange.  The first write
of a file by a store writes it whole to a temporary file and renames that
over it, so a failed first write leaves the file as it was.  All text is
UTF-8, and is read back with CRLF and a lone CR as LF.

An exchange is written in a fixed order: `<id>_request`, `<id>_Srequest`,
the role's XML, then the `trails` index.  A run interrupted part-way thus
leaves at most ids that no trail covers; since a reopened store never
extends a trail it read, no later recording covers them either.  The model
builder refuses a store with such an id, or with a covered id whose files
are gone: an interrupted store fails closed.  Each exchange adds one page
to its trail, so a reopened store trims each trail's pages to its id
range: the page of an exchange whose `trails` write failed after its XML
write is dropped with it.

A recorded head is parsed, and keyed, by http1, as the enforcer keys it.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from pathlib import Path

from .http1 import SESSION_COOKIE, parse_header_block, request_key


def xml_escape(data: str, entities: dict[str, str] | None = None) -> str:
    """&, < and > as entities, then each key of entities replaced by its
    value: xml.sax.saxutils.escape, whose module imports urllib.request."""
    data = data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    if entities:
        for key, value in entities.items():
            data = data.replace(key, value)
    return data


def check_role(role: str) -> str:
    """role, unless it could not name a file in the store or a field of
    `trails`: empty, `.`, `..`, or holding `/`, `\\` or a control character."""
    if role in ("", ".", "..") or _BAD_ROLE_RE.search(role):
        raise ValueError(f"role {role!r} is empty, . or .., or holds /, \\ or a control character")
    return role


class Trail:
    """One walk recorded under role: the communication ids it covers, first
    to last, and its pages in order.  It is made by its first exchange."""

    __slots__ = ("role", "first_id", "last_id", "pages")

    def __init__(self, role: str, first_id: int, last_id: int, pages: list[str]):
        self.role = role
        self.first_id = first_id
        self.last_id = last_id
        self.pages = pages


_REQUEST_FILE_RE = re.compile(r"^(\d+)_request$")
_BAD_ROLE_RE = re.compile(r"[\x00-\x1f\x7f-\x9f/\\]")


def _write(path: str, data: bytes, offset: int = 0) -> None:
    """Write data into path at offset, looping over short writes.  Offset 0
    writes the whole file, truncating it first; a later offset truncates
    nothing, so the bytes before it stay as they were."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if offset == 0 else 0), 0o666)
    try:
        while data:
            written = os.pwrite(fd, data, offset)
            data, offset = data[written:], offset + written
    finally:
        os.close(fd)


def _read(path: str) -> str:
    """path's text as Path.read_text gives it: UTF-8, with CRLF and a lone
    CR read as LF."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks).decode().replace("\r\n", "\n").replace("\r", "\n")


class ProfileStore:
    """Single-writer capture store over one directory.  All state is
    rebuilt from the files on open, so a store can be extended across runs.
    Page names must not contain ", " (the sequence separator)."""

    def __init__(self, directory: str | Path, session_cookie_name: str = SESSION_COOKIE):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # every file path is this prefix and the file's name: no Path is
        # built per exchange
        self._prefix = os.path.join(self.directory, "")
        self.session_cookie_name = session_cookie_name
        # the longest file name the store's file system takes
        self._name_max = os.pathconf(self.directory, "PC_NAME_MAX")
        self.trails: list[Trail] = []
        # byte length of the sealed text (all but the newest trail) of each
        # growing file this store has written: the `trails` index lines, and
        # per role its XML up to the newest trail
        self._sealed: dict[str, int] = {}
        self._open_pages = ""  # the newest recorded trail's pages, joined and escaped
        self._open: Trail | None = None  # the newest trail, unless read or ended
        self._load()

    def _load(self) -> None:
        self._ids = sorted(
            int(m.group(1)) for m in map(_REQUEST_FILE_RE.match, os.listdir(self.directory)) if m
        )
        self._next_id = (self._ids[-1] if self._ids else 0) + 1
        index = self._prefix + "trails"
        if not os.path.exists(index):
            return
        import xml.etree.ElementTree as ET  # only a reopened store parses XML

        # per role, its trails' pages, each taken by the role's next index line
        sequences: dict[str, Iterator[list[str]]] = {}
        for role_file in sorted(self.directory.glob("*.xml")):
            try:
                root = ET.parse(role_file).getroot()
            except ET.ParseError as exc:
                raise ValueError(f"{role_file}: {exc}") from None
            role = root.get("role", role_file.stem)
            sequences[role] = ([p for p in (el.text or "").split(", ") if p] for el in root)
        # lines end at LF alone: splitlines would also end one at a U+2028 in a role
        for lineno, line in enumerate(_read(index).split("\n"), start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            try:
                if len(fields) != 3:
                    raise ValueError("expected role, first, last")
                role, first_id, last_id = check_role(fields[0]), int(fields[1]), int(fields[2])
                if not (self.trails[-1].last_id if self.trails else 0) < first_id <= last_id:
                    raise ValueError(f"ids {first_id}-{last_id} are empty, or overlap or precede the line before")
            except ValueError as exc:
                raise ValueError(f"{index}: line {lineno}: {exc}") from None
            # each exchange adds one page; a page past the id range is one
            # whose exchange failed before its index line was written
            pages = next(sequences.get(role, iter(())), [])[:last_id - first_id + 1]
            self.trails.append(Trail(role, first_id, last_id, pages))

    # -- recording ---------------------------------------------------------

    def check_role(self, role: str) -> str:
        """role, unless check_role refuses it or `<role>.xml.tmp`, the
        longest file name it gives, is too long for the store's file system."""
        if len(f"{check_role(role)}.xml.tmp".encode()) > self._name_max:
            raise ValueError(f"role {role[:16]!r}... is too long to name a file in {self.directory} "
                             f"({self._name_max} bytes at most)")
        return role

    def begin_trail(self, role: str) -> None:
        """End the newest trail: the next exchange makes a new one."""
        self._open = None

    def record_exchange(self, request_headers: str, role: str) -> int:
        """Persist one captured request under the next communication id and
        append its page to the newest trail.  A new trail starts after
        begin_trail or a reopen, or when the newest belongs to another role.
        Write failures propagate and abort the run."""
        key = request_key(parse_header_block(request_headers), self.session_cookie_name)
        cid = self._next_id
        trail = self._open
        if trail is None or trail.role != role:
            trail = Trail(self.check_role(role), cid, cid, [])
        self._next_id += 1
        _write(f"{self._prefix}{cid}_request", request_headers.encode())
        self._ids.append(cid)
        _write(f"{self._prefix}{cid}_Srequest", str(int(key.cookie is not None)).encode())
        if trail is not self._open:
            if self.trails:
                # seal the newest trail, adding the byte length of its text to each
                # growing file this store has written (none, if it was read on open)
                sealed = self.trails[-1]
                self._seal("trails", self._index_line(sealed))
                self._seal(f"{sealed.role}.xml", self._xml_line(self._open_pages))
            self._open = trail
            self.trails.append(trail)
        trail.last_id = cid
        escaped = xml_escape(key.page)
        self._open_pages = f"{self._open_pages}, {escaped}" if trail.pages else escaped
        trail.pages.append(key.page)
        self._write_newest(f"{role}.xml", f"{self._xml_line(self._open_pages)}</Sequences>\n",
                           lambda: self._render_xml(role))
        self._write_newest("trails", self._index_line(trail), self._render_index)
        return cid

    def _seal(self, name: str, text: str) -> None:
        """Add text, a sealed trail's text in name, to name's sealed length."""
        if name in self._sealed:
            self._sealed[name] += len(text.encode())

    def _write_newest(self, name: str, newest: str, render) -> None:
        """Write newest, the newest trail's text, after name's sealed text,
        which stays on disk as it is.  The first write of name by this store
        writes the whole file as render() gives it, so a file on disk that
        differs from the store's rendering is replaced.  It writes
        `<name>.tmp` and renames it over name, so a failed write leaves name
        as it was; the temporary name is neither a role's XML nor a
        request file."""
        path = self._prefix + name
        offset = self._sealed.get(name)
        if offset is None:
            whole = render().encode()
            _write(path + ".tmp", whole)
            os.replace(path + ".tmp", path)
            self._sealed[name] = len(whole) - len(newest.encode())
        else:
            _write(path, newest.encode(), offset)

    def _render_index(self) -> str:
        return "".join(map(self._index_line, self.trails))

    def _render_xml(self, role: str) -> str:
        lines = "".join(self._xml_line(xml_escape(", ".join(t.pages)))
                        for t in self.trails if t.role == role and t.pages)
        return f'<Sequences role="{xml_escape(role, {chr(34): "&quot;"})}">\n{lines}</Sequences>\n'

    @staticmethod
    def _index_line(trail: Trail) -> str:
        return f"{trail.role}\t{trail.first_id}\t{trail.last_id}\n"

    @staticmethod
    def _xml_line(pages: str) -> str:
        return f"  <Trail>{pages}</Trail>\n"

    # -- reading -----------------------------------------------------------

    def read_exchange(self, cid: int) -> tuple[str, int]:
        """(raw request text, session flag) for one communication id.  A
        missing request or flag file, or a flag file that holds no integer,
        is a corrupt store, reported by id."""
        try:
            request, flag = _read(f"{self._prefix}{cid}_request"), _read(f"{self._prefix}{cid}_Srequest")
        except FileNotFoundError as exc:
            missing = os.path.basename(exc.filename)
            raise ValueError(f"store {self.directory}: communication id {cid} has no {missing}") from None
        try:
            return request, int(flag.strip())
        except ValueError:
            raise ValueError(f"store {self.directory}: communication id {cid} has a {cid}_Srequest "
                             f"that holds no integer: {flag[:32]!r}") from None

    def recorded_ids(self) -> list[int]:
        """Ids with a `<id>_request` file: those listed on open, then those
        recorded since."""
        return list(self._ids)

    def trail_records(self) -> list[tuple[str, list[tuple[int, str, int]]]]:
        """Per trail, in recording order: (role, [(cid, raw request, flag)]).
        This is the replay view of the store."""
        return [(trail.role, [(cid, *self.read_exchange(cid))
                              for cid in range(trail.first_id, trail.last_id + 1)])
                for trail in self.trails]
