"""Reference job: a fixed amount of pure-Python lexing that uses no phpwarden
code, so no change to phpwarden can move its cost.

    python3 perfbench/refwork.py TREE

It reads every file under TREE and lexes them, file after file and round
after round, until BUDGET characters have been lexed: a character loop that
builds token objects, then a pass over the tokens that counts variables, the
same kind of interpreter work a scan does.

The shared host's speed drifts by up to 50% over tens of seconds, and each
of its CPUs drifts on its own.  So the benchmark runs this job right before
and right after every scan, in a process of its own, and reports the scan's
CPU time as a multiple of theirs.
"""

from __future__ import annotations

import os
import sys

BUDGET = 650_000
SPACE = frozenset(" \t\r\n")
WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind, self.text, self.line = kind, text, line


def lex(src: str) -> list[Token]:
    tokens, i, n, line = [], 0, len(src), 1
    while i < n:
        c, j = src[i], i + 1
        if c in SPACE:
            while j < n and src[j] in SPACE:
                j += 1
        elif c == "$" or c in WORD:
            while j < n and src[j] in WORD:
                j += 1
            tokens.append(Token("var" if c == "$" else "word", src[i:j], line))
        elif c in "'\"":
            while j < n and src[j] != c:
                j += 2 if src[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(Token("string", src[i:j], line))
        else:
            tokens.append(Token("op", c, line))
        line += src.count("\n", i, j)
        i = j
    return tokens


def count_variables(tokens: list[Token]) -> int:
    uses: dict[str, int] = {}
    for token in tokens:
        if token.kind == "var":
            uses[token.text] = uses.get(token.text, 0) + 1
    return len(uses)


def main(root: str) -> int:
    sources = []
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            with open(os.path.join(directory, name), encoding="utf-8", errors="replace") as fh:
                sources.append(fh.read())
    if not any(sources):
        print(f"no source under {root}", file=sys.stderr)
        return 1
    lexed = variables = 0
    while lexed < BUDGET:
        for source in sources:
            variables += count_variables(lex(source))
            lexed += len(source)
            if lexed >= BUDGET:
                break
    print(lexed, variables)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
