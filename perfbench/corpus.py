"""Seeded PHP corpora with planted findings, and the checker for scan reports.

Every vulnerable statement comes from a template that names the category it
plants, so the expected `(file, line, category)` set of each file is known
from the generator alone.  Safe templates (sanitized, constant or commented
out) plant nothing.  Every variable a template reads is assigned earlier in
the same file or is a parameter of the enclosing function, and names carry a
per-file prefix, so no template leaks taint into another.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

XSS = "CrossSiteScripting"
SQLI = "SqlInjection"
CMDI = "CommandInjection"
CODEI = "CodeInjection"
FILEI = "FileInclusion"
FILEM = "FileManipulation"

LIBRARY = "lib/shared.php"
SUPERGLOBALS = ("$_GET", "$_POST", "$_REQUEST", "$_COOKIE")


@dataclass
class Corpus:
    """Generated files (relative path -> bytes) and the planted findings of
    each file as a set of (line, category)."""

    files: dict[str, bytes] = field(default_factory=dict)
    planted: dict[str, set[tuple[int, str]]] = field(default_factory=dict)

    @property
    def distinct_bytes(self) -> int:
        return sum(len(b) for b in self.files.values())

    def lexed_bytes(self) -> int:
        """Bytes one `scan` lexes: every file once, plus the library once
        per page that includes it."""
        includers = sum(1 for b in self.files.values() if LIBRARY.encode() in b)
        return self.distinct_bytes + includers * len(self.files.get(LIBRARY, b""))

    def write(self, root: str) -> None:
        for rel, data in self.files.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)


class _File:
    """Line buffer that records which line each planted sink lands on."""

    def __init__(self, rng: random.Random, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.lines: list[str] = []
        self.planted: set[tuple[int, str]] = set()
        self.n = 0

    def name(self, stem: str) -> str:
        self.n += 1
        return f"{self.prefix}_{stem}{self.n}"

    def add(self, text: str, category: str | None = None) -> None:
        self.lines.append(text)
        if category is not None:
            self.planted.add((len(self.lines), category))

    def key(self) -> str:
        return f"'k{self.rng.randrange(1000):03d}'"

    def sg(self) -> str:
        return f"{self.rng.choice(SUPERGLOBALS)}[{self.key()}]"

    # -- vulnerable templates: each plants exactly one (line, category) -----

    def vuln_echo(self, indent: str) -> None:
        self.add(f'{indent}echo "<td>" . {self.sg()} . "</td>";', XSS)

    def vuln_sql(self, indent: str) -> None:
        v = self.name("id")
        self.add(f"{indent}${v} = {self.sg()};")
        self.add(f'{indent}mysql_query("SELECT * FROM items WHERE id = " . ${v});', SQLI)

    def vuln_cmd(self, indent: str) -> None:
        self.add(f'{indent}system("ls -l " . {self.sg()});', CMDI)

    def vuln_eval(self, indent: str) -> None:
        self.add(f"{indent}eval({self.sg()});", CODEI)

    def vuln_include(self, indent: str) -> None:
        self.add(f"{indent}include {self.sg()};", FILEI)

    def vuln_write(self, indent: str) -> None:
        v = self.name("body")
        self.add(f'{indent}${v} = "saved";')
        self.add(f"{indent}file_put_contents({self.sg()}, ${v});", FILEM)

    def vuln_read_echo(self, indent: str) -> None:
        fh, row = self.name("fh"), self.name("row")
        self.add(f"{indent}${fh} = 7;")
        self.add(f"{indent}${row} = fgets(${fh});")
        self.add(f"{indent}print ${row};", XSS)

    # -- safe templates: plant nothing ------------------------------------

    def safe_echo(self, indent: str) -> None:
        self.add(f"{indent}echo htmlspecialchars({self.sg()});")

    def safe_sql(self, indent: str) -> None:
        v = self.name("num")
        self.add(f"{indent}${v} = intval({self.sg()});")
        self.add(f'{indent}mysql_query("SELECT * FROM items WHERE id = " . ${v});')

    def safe_cmd(self, indent: str) -> None:
        self.add(f'{indent}system("ls -l " . escapeshellarg({self.sg()}));')

    def safe_const(self, indent: str) -> None:
        v = self.name("total")
        self.add(f"{indent}${v} = {self.rng.randrange(10_000):04d};")
        self.add(f'{indent}echo "Total: " . ${v};')

    def safe_comment(self, indent: str) -> None:
        self.add(f"{indent}// echo {self.sg()}; was removed in review")

    def filler(self, indent: str) -> None:
        a, b, c = self.name("a"), self.name("b"), self.name("c")
        self.add(f"{indent}${a} = array('x' => {self.rng.randrange(100):02d}, 'y' => \"{self.prefix}\");")
        self.add(f"{indent}${b} = count(${a}) * {self.rng.randrange(1, 9)} + strlen(${a}['y']);")
        self.add(f"{indent}if (${b} > {self.rng.randrange(50):02d} && ${a}['x'] !== null) {{")
        self.add(f"{indent}    ${c} = str_repeat('-', ${b}) . sprintf('%05d', ${b});")
        self.add(f"{indent}}} else {{")
        self.add(f"{indent}    ${c} = implode(',', array_keys(${a}));")
        self.add(f"{indent}}}")
        self.add(f"{indent}/* {c}: formatted cell for the summary table */")

    def function(self, vulnerable: bool) -> None:
        fn, p = self.name("render"), self.name("msg")
        self.add(f"function {fn}(${p}) {{")
        self.filler("    ")
        if vulnerable:
            self.add(f'    echo "<b>" . ${p} . "</b>";', XSS)  # parameters are unresolved
        else:
            self.add(f"    echo htmlspecialchars(${p});")
        self.add("    return true;")
        self.add("}")

    def html(self) -> None:
        self.add("?>")
        for _ in range(3):
            self.add(f'<div class="row"><span>{self.prefix}</span> <a href="#top">top</a></div>')
        self.add("<?php")


VULNERABLE = ("vuln_echo", "vuln_sql", "vuln_cmd", "vuln_eval", "vuln_include",
              "vuln_write", "vuln_read_echo")
SAFE = ("safe_echo", "safe_sql", "safe_cmd", "safe_const", "safe_comment")

# Block kinds per file.  Every seed uses the same counts (only the order and
# the template drawn for "vuln"/"safe" vary), so bytes and tokens per scan
# barely move between seeds; the library uses every template exactly once.
SHARED_PAGE = ("vuln", "safe", "filler")
FLAT_PAGE = ("vuln", "vuln", "safe", "safe", "filler", "filler", "filler", "filler",
             "function", "html")
LIBRARY_BLOCKS = VULNERABLE + SAFE + ("function", "safe_function", "filler", "filler")


def _php_file(rng: random.Random, prefix: str, blocks: tuple[str, ...], header: list[str]) -> _File:
    f = _File(rng, prefix)
    f.add("<?php")
    for line in header:
        f.add(line)
    order = list(blocks)
    rng.shuffle(order)
    for block in order:
        if block == "vuln":
            block = rng.choice(VULNERABLE)
        elif block == "safe":
            block = rng.choice(SAFE)
        if block in ("function", "safe_function"):
            f.function(vulnerable=block == "function")
        elif block == "html":
            f.html()
        elif block == "filler":
            f.filler("")
        else:
            getattr(f, block)("")
    f.add("?>")
    return f


def generate(kind: str, seed: int) -> Corpus:
    """`shared`: 200 small pages in pages/, each starting with an include of
    one library, so the library dominates the bytes lexed.  `flat`: 200
    larger pages with no includes, about the same bytes lexed per scan."""
    if kind not in ("shared", "flat"):
        raise ValueError(f"unknown corpus kind {kind!r}")
    rng = random.Random(f"corpus-{kind}-{seed}")
    corpus = Corpus()

    def add(rel: str, f: _File) -> None:
        corpus.files[rel] = ("\n".join(f.lines) + "\n").encode()
        corpus.planted[rel] = f.planted

    header: list[str] = []
    blocks = FLAT_PAGE
    if kind == "shared":
        add(LIBRARY, _php_file(rng, "lib", LIBRARY_BLOCKS, []))
        header = [f"require_once '../{LIBRARY}';"]
        blocks = SHARED_PAGE
    for i in range(200):
        add(f"pages/page{i:03d}.php", _php_file(rng, f"p{i:03d}", blocks, header))
    return corpus


def read_findings(data_path: str, root: str) -> dict[str, set[tuple[int, str]]]:
    """(line, category) sets per root-relative file from a `.data` sidecar.
    Report paths are absolute or relative to the working directory, which
    the scan process shares with the caller."""
    with open(data_path, encoding="utf-8") as fh:
        header, _, body = fh.read().partition("\n")
    if header.split()[:1] != ["phpwarden-report"]:
        raise ValueError(f"{data_path}: not a structured report: {header!r}")
    root_abs = os.path.abspath(root)
    found: dict[str, set[tuple[int, str]]] = {}
    for f in json.loads(body)["findings"]:
        rel = os.path.relpath(os.path.abspath(f["file"]), root_abs)
        found.setdefault(rel.replace(os.sep, "/"), set()).add((f["line"], f["category"]))
    return found


def check_scan(corpus: Corpus, found: dict[str, set[tuple[int, str]]]) -> tuple[int, int]:
    """(attempted, failed): one attempt per generated file, failed when its
    reported set differs from the planted one; a finding in a file the
    corpus does not have is one more failure."""
    failed = sum(1 for rel, want in corpus.planted.items() if found.get(rel, set()) != want)
    strays = sum(1 for rel in found if rel not in corpus.planted)
    return len(corpus.planted), failed + strays
