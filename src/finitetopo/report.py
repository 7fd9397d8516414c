"""Run reports: the JSON envelope every CLI command emits, with the command
line, content hashes of the inputs, a status, the certificates produced,
and homology payloads.  Finalizing replays every attached certificate: a
`ReplayError` is recorded under ``replay_failures`` and turns a
``Certified`` report into ``Error``; any other exception propagates.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from .certificates import ReductionCertificate, Status
from .errors import ReplayError
from .poset import Poset
from .reduction import replay_poset_certificate


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return content_hash(fh.read())


def hash_json(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return content_hash(text.encode("utf-8"))


class RunReport:
    """Mutable builder for one command run.

    Typical life cycle: create, add inputs and results while the command
    executes, then ``finalize()`` once.  Finalization replays the
    attached certificates and stamps the elapsed time; everything else
    in the JSON output is deterministic for fixed inputs.
    """

    def __init__(self, command: str) -> None:
        self.command = command
        self.status = Status.UNKNOWN
        self.inputs: Dict[str, str] = {}
        self.detail: Dict[str, Any] = {}
        self.homology: List[Dict[str, Any]] = []
        self._certificates: List[Tuple[str, ReductionCertificate, Poset]] = []
        self._started = time.monotonic()
        self._elapsed: Optional[float] = None
        self._finalized = False

    def add_input(self, name: str, *, path: Optional[str] = None,
                  payload: Any = None) -> None:
        self.inputs[name] = hash_file(path) if path is not None else hash_json(payload)

    def set_status(self, status: str) -> None:
        self.status = Status(status)

    def add_certificate(self, label: str, certificate: ReductionCertificate, target: Poset) -> None:
        """Attach a certificate, with the poset it claims to reduce."""
        self._certificates.append((label, certificate, target))

    def add_homology(self, label: str, payload: Dict[str, Any]) -> None:
        self.homology.append({"label": label, **payload})

    def finalize(self) -> "RunReport":
        """Replay every certificate to its final subspace; stamp timing.  Idempotent."""
        if self._finalized:
            return self
        failures: List[Dict[str, str]] = []
        for label, certificate, target in self._certificates:
            try:
                replay_poset_certificate(target, certificate)
            except ReplayError as exc:
                failures.append({"certificate": label, "error": str(exc)})
        if failures:
            self.detail["replay_failures"] = failures
            # A broken certificate is a soundness problem, not a mere unknown.
            if self.status is Status.CERTIFIED:
                self.status = Status.ERROR
        self._elapsed = time.monotonic() - self._started
        self._finalized = True
        return self

    @property
    def exit_code(self) -> int:
        return self.status.exit_code

    def to_json_dict(self) -> Dict[str, Any]:
        if not self._finalized:
            self.finalize()
        certs = [
            {"label": label, "certificate": certificate.to_json_dict()}
            for label, certificate, _ in self._certificates
        ]
        return {
            "command": self.command,
            "inputs": dict(sorted(self.inputs.items())),
            "status": self.status,
            "detail": self.detail,
            "certificates": certs,
            "homology": self.homology,
            "timing": {"elapsed_seconds": round(self._elapsed or 0.0, 6)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"
