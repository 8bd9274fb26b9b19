#!/usr/bin/env python3
"""Check relative markdown links in README.md and docs/.

Walks every inline link and image ([text](target)) in the checked files,
resolves relative targets against the linking file, and fails (exit 1)
listing each target that does not exist. Absolute URLs (http/https/
mailto) and pure in-page anchors (#...) are skipped; a relative target's
anchor part is stripped before the existence check.

Also verifies the README documentation index covers docs/: every
docs/*.md must be linked from README.md (the acceptance criterion that
each doc page is reachable from the index).

Also enforces the delc flag contract at the source level: the set of
`--flag` tokens in the print_usage() body of examples/delc.cpp must
equal the set documented across README.md and docs/ (tools_test checks
the same contract against the built binary; this copy keeps the
docs_links ctest meaningful without a build).

The same contract covers environment knobs: the DELIRIUM_* names the
code reads (every string literal that is exactly a knob name, in src/
and examples/delc.cpp) must equal the names print_usage() lists and the
rows of docs/CLI.md's environment-variable table.

Usage: check_md_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
FLAG_RE = re.compile(r"--[a-z][a-z-]*")
KNOB_RE = re.compile(r"DELIRIUM_[A-Z0-9_]+")
KNOB_LITERAL_RE = re.compile(r'"(DELIRIUM_[A-Z0-9_]+)"')
KNOB_ROW_RE = re.compile(r"^\| `(DELIRIUM_[A-Z0-9_]+)` \|", re.MULTILINE)


def checked_files(root: Path):
    yield root / "README.md"
    yield from sorted((root / "docs").glob("*.md"))


def flag_contract_errors(root: Path):
    """delc flag and knob drift: print_usage() vs docs/CLI.md vs the code.

    docs/CLI.md is the canonical flag reference (other docs link to it),
    so the contract is set equality between the flags it mentions
    anywhere (tables and examples) and the flags print_usage() names.
    For environment knobs it is set equality between the knobs the code
    reads, the knobs print_usage() lists, and docs/CLI.md's knob table.
    """
    delc = root / "examples" / "delc.cpp"
    cli_md = root / "docs" / "CLI.md"
    if not delc.is_file() or not cli_md.is_file():
        return [f"flag contract: missing {delc} or {cli_md}"]
    source = delc.read_text(encoding="utf-8")
    start = source.find("void print_usage")
    end = source.find("int usage()", start)
    if start < 0 or end < 0:
        return ["flag contract: cannot locate print_usage() in examples/delc.cpp"]
    usage = source[start:end]
    cli_text = cli_md.read_text(encoding="utf-8")
    usage_flags = set(FLAG_RE.findall(usage))
    doc_flags = set(FLAG_RE.findall(cli_text))
    errors = []
    for flag in sorted(doc_flags - usage_flags):
        errors.append(f"docs/CLI.md: {flag} is documented but absent from delc print_usage()")
    for flag in sorted(usage_flags - doc_flags):
        errors.append(f"examples/delc.cpp: {flag} is in print_usage() but undocumented in docs/CLI.md")

    sources = [delc] + sorted(p for p in (root / "src").rglob("*") if p.suffix in (".h", ".cpp"))
    read_knobs = set()
    for path in sources:
        read_knobs.update(KNOB_LITERAL_RE.findall(path.read_text(encoding="utf-8")))
    views = {
        "print_usage() in examples/delc.cpp": set(KNOB_RE.findall(usage)),
        "the docs/CLI.md environment table": set(KNOB_ROW_RE.findall(cli_text)),
    }
    for view, knobs in views.items():
        for knob in sorted(read_knobs - knobs):
            errors.append(f"{knob} is read by the code but missing from {view}")
        for knob in sorted(knobs - read_knobs):
            errors.append(f"{knob} is listed in {view} but read nowhere in src/ or delc")
    return errors


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    errors = []
    for md in checked_files(root):
        if not md.is_file():
            errors.append(f"{md}: checked file is missing")
            continue
        text = md.read_text(encoding="utf-8")
        # Drop fenced code blocks: flag tables and shell examples are not links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                line = text[: match.start()].count("\n") + 1
                errors.append(f"{md.relative_to(root)}:{line}: dead link -> {target}")

    readme = (root / "README.md").read_text(encoding="utf-8")
    for doc in sorted((root / "docs").glob("*.md")):
        if f"docs/{doc.name}" not in readme:
            errors.append(f"README.md: docs/{doc.name} is not linked from the index")

    errors.extend(flag_contract_errors(root))

    if errors:
        print("\n".join(errors))
        print(f"{len(errors)} markdown link problem(s)")
        return 1
    print("all markdown links resolve; delc flag and knob contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
