"""Run manifests: make every recorded result attributable.

A manifest captures *where a number came from*: the environment
(interpreter, platform, CPU count), the exact code version (git SHA,
branch, dirty flag), a content hash of the run's configuration, and the
RNG seeds.  Benchmark documents (``BENCH_*.json``) and telemetry exports
embed one, so a regression found weeks later can be traced to the code
and configuration that produced the baseline.

Everything here degrades gracefully: no git binary, no repository, or a
detached environment just leaves the corresponding fields out — a
manifest never fails a run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Dict, Mapping, Optional

from repro import __version__

#: manifest document version (bump on breaking key changes)
MANIFEST_SCHEMA = "repro.manifest/1"


def config_hash(config: Any) -> str:
    """Short content hash of a JSON-able configuration object.

    Canonical JSON (sorted keys, no whitespace) so logically identical
    configs hash identically regardless of construction order.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _git(args, cwd: Optional[str]) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=5, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_info(cwd: Optional[str] = None) -> Dict[str, object]:
    """``{sha, branch, dirty}`` of the working tree, or ``{}``."""
    sha = _git(["rev-parse", "HEAD"], cwd)
    if not sha:
        return {}
    info: Dict[str, object] = {"sha": sha}
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd)
    if branch:
        info["branch"] = branch
    status = _git(["status", "--porcelain"], cwd)
    if status is not None:
        info["dirty"] = bool(status)
    return info


def run_manifest(*, seed: Optional[int] = None,
                 config: Optional[Mapping[str, Any]] = None,
                 argv: Optional[list] = None,
                 cwd: Optional[str] = None,
                 session: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, object]:
    """Build a manifest for the current process/run.

    Args:
        seed: the run's base RNG seed (experiments derive per-id streams
            from it, so one integer fully describes the randomness).
        config: JSON-able run configuration (suite ids, scale, target
            overrides); recorded verbatim *and* content-hashed.
        argv: command line to record (defaults to ``sys.argv``).
        cwd: directory whose git state to record.
        session: serving-session identity (``repro-serve`` session id,
            tenant, daemon instance) so served artifacts stay
            attributable to the session that produced them.
    """
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "package_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "argv": list(sys.argv if argv is None else argv),
    }
    git = git_info(cwd)
    if git:
        manifest["git"] = git
    if seed is not None:
        manifest["seed"] = seed
    if config is not None:
        manifest["config"] = dict(config)
        manifest["config_hash"] = config_hash(dict(config))
    if session is not None:
        manifest["session"] = dict(session)
    return manifest


def validate_manifest(manifest: Mapping[str, object]) -> list:
    """Structural check; returns a list of problems (empty when valid)."""
    problems = []
    if manifest.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema is {manifest.get('schema')!r}, expected "
            f"{MANIFEST_SCHEMA!r}")
    for key in ("created_utc", "package_version", "python", "platform",
                "argv"):
        if key not in manifest:
            problems.append(f"missing key {key!r}")
    if "config" in manifest and "config_hash" in manifest:
        if config_hash(manifest["config"]) != manifest["config_hash"]:
            problems.append("config_hash does not match config")
    return problems
