"""Documentation gates: links resolve, the CLI reference is complete.

Run by the CI docs job (and tier-1). Three failure modes are caught:

* an intra-repo markdown link in ``docs/`` or ``README.md`` pointing at
  a file that does not exist (docs rot silently otherwise);
* a backticked dotted ``repro.…`` path in those files that no longer
  names an importable module or attribute (a rename left a row stale);
* a CLI subcommand that exists in the parser but is not documented in
  ``docs/cli.md`` (new subcommands must ship with reference docs).
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted(REPO_ROOT.glob("docs/*.md")) + [REPO_ROOT / "README.md"]

#: Markdown inline links: [text](target), skipping images and code spans.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _intra_repo_links(text):
    for target in _LINK.findall(text):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        yield target


def test_docs_directory_has_the_required_guides():
    names = {path.name for path in REPO_ROOT.glob("docs/*.md")}
    assert {"architecture.md", "paper-map.md", "cli.md"} <= names


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_intra_repo_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    missing = []
    for target in _intra_repo_links(text):
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            missing.append(target)
    assert not missing, (
        f"{doc.relative_to(REPO_ROOT)} links to missing files: {missing}"
    )


#: A code span holding exactly a dotted path into the package.
_CODE_PATH = re.compile(r"`(repro(?:\.\w+)+)`")


def _resolves(path):
    """Whether ``path`` names a module, or an attribute chain inside the
    longest importable module prefix. Only a missing ``repro`` module
    makes a prefix too long; any other import failure (an optional
    dependency missing, or installed but broken) skips."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError as error:
            if (error.name or "").partition(".")[0] != "repro":
                pytest.skip(f"{path} needs the missing {error.name}")
            continue
        except ImportError as error:
            pytest.skip(f"{path} cannot import: {error}")
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_code_paths_resolve(doc):
    paths = sorted(set(_CODE_PATH.findall(doc.read_text(encoding="utf-8"))))
    stale = [path for path in paths if not _resolves(path)]
    assert not stale, (
        f"{doc.relative_to(REPO_ROOT)} names paths that do not resolve: "
        f"{stale}"
    )


def test_code_path_gate_catches_a_stale_name():
    assert _resolves("repro.core.moat.MoatPartition.merge")
    assert _resolves("repro.congest")
    assert not _resolves("repro.core.distributed._MoatBookkeeping")
    assert not _resolves("repro.no_such_module")


def test_code_path_gate_skips_a_broken_optional_dependency(monkeypatch):
    """An installed but broken optional dependency raises an ImportError
    with no module name; that is not a stale path."""
    real = importlib.import_module

    def import_module(name, *args):
        if name == "repro.perf.npkernels":
            raise ImportError("numpy is installed but broken")
        return real(name, *args)

    monkeypatch.setattr(importlib, "import_module", import_module)
    assert not _resolves("repro.no_such_module")
    with pytest.raises(pytest.skip.Exception):
        _resolves("repro.perf.npkernels")


def test_cli_reference_covers_every_subcommand():
    parser = _build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    commands = set(subparsers.choices)
    assert commands, "CLI has no subcommands?"
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    undocumented = [
        command
        for command in sorted(commands)
        if not re.search(rf"(^|[`\s]){re.escape(command)}([`\s]|$)", cli_doc)
    ]
    assert not undocumented, (
        f"docs/cli.md does not mention subcommands {undocumented}; "
        "document them (the reference must stay complete)"
    )


def test_readme_links_the_docs_layer():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for guide in ("docs/architecture.md", "docs/paper-map.md", "docs/cli.md"):
        assert guide in readme, f"README does not link {guide}"
