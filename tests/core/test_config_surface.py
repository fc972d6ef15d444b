"""Knob-creep guard: every ``AskConfig`` field is set somewhere, or says why not.

A field no program, benchmark or example ever sets is a constant wearing a
config costume: it widens the space every config-product test must cover
without buying a behaviour anyone runs.  This test parses the non-test
code (``src``, ``bench``, ``examples``, ``benchmarks``) with ``ast`` and
collects the field names set by

* keyword arguments of ``AskConfig(...)``, ``AskConfig.small(...)``,
  ``dataclasses.replace(...)`` and ``drills._per_backend(...)``, and
* the string keys of the dicts fed to those calls, whether written inline
  or bound to a module-level name (``CHAOS_CONFIG``, ``dict(...)`` or
  ``{...}``, nested per backend or not).

Each field must be set there or appear in :data:`UNSET_ON_PURPOSE` with
its reason, and every allow-list entry must be a real field nobody sets,
so the list cannot go stale.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path
from typing import Dict, Iterator, Set

from repro.core.config import AskConfig

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "bench", "examples", "benchmarks")

#: Fields no non-test code sets, each kept for a stated reason.
UNSET_ON_PURPOSE: Dict[str, str] = {
    "key_bits": "tests vary the kPart width to check key packing at other widths",
    "value_bits": "tests narrow it to check wraparound at switch, receiver and reference",
    "give_up_timeout_us": "tests turn it on to check tasks fail loudly at the deadline",
    "admission_degrade": "tests turn it off to check the loud reject at the deadline",
    "cwnd_initial": "tests set it to check the [1, window_size] bound and AIMD start",
    "link_latency_ns": "tests set it to check the simulated fabric's link timing",
    "host_max_pps": "the paper's NIC pps limit; ROADMAP 2(b) decides its fate",
    "integrity_checks": "safety code: tests turn it off to model the seed stack",
}

_CALLS = {"AskConfig", "small", "replace", "_per_backend"}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr == "small":
            return "small" if _call_name(func.value) == "AskConfig" else ""
        return func.attr
    return ""


def _dict_keys(node: ast.AST, bindings: Dict[str, ast.expr], seen: Set[str]) -> Iterator[str]:
    """String keys of every dict literal or ``dict(...)`` call reachable
    from ``node``, following module-level names it mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            for key in sub.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value
        elif isinstance(sub, ast.Call) and _call_name(sub.func) == "dict":
            yield from (kw.arg for kw in sub.keywords if kw.arg is not None)
        elif isinstance(sub, ast.Name) and sub.id in bindings and sub.id not in seen:
            seen.add(sub.id)
            yield from _dict_keys(bindings[sub.id], bindings, seen)


def _module_bindings(tree: ast.Module) -> Dict[str, ast.expr]:
    bindings: Dict[str, ast.expr] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name):
            bindings[target.id] = value
    return bindings


@functools.lru_cache(maxsize=None)
def set_fields() -> frozenset[str]:
    """Every name the scanned code passes to a config-building call."""
    found: Set[str] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text(), str(path))
            bindings = _module_bindings(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or _call_name(node.func) not in _CALLS:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None:
                        found.add(kw.arg)
                    found.update(_dict_keys(kw.value, bindings, set()))
                for arg in node.args:
                    found.update(_dict_keys(arg, bindings, set()))
    return frozenset(found)


FIELDS = {f.name for f in dataclasses.fields(AskConfig)}


def test_every_field_is_set_or_allow_listed():
    unset = FIELDS - set_fields() - set(UNSET_ON_PURPOSE)
    assert not unset, (
        f"AskConfig fields nobody sets: {sorted(unset)}; make each a module "
        "constant, or list it in UNSET_ON_PURPOSE with its reason"
    )


def test_allow_list_names_real_unset_fields():
    assert set(UNSET_ON_PURPOSE) <= FIELDS, set(UNSET_ON_PURPOSE) - FIELDS
    stale = set(UNSET_ON_PURPOSE) & set_fields()
    assert not stale, f"allow-listed fields that are now set: {sorted(stale)}"


def test_collector_reads_nested_backend_dicts():
    # CHAOS_CONFIG nests its fields one level down, per backend.
    found = set_fields()
    assert {"heartbeat_interval_us", "admission_retry_us", "rto_min_us"} <= found
