"""Identity of the stage artifacts a campaign workspace persists.

Every pipeline stage's output (static report, taint report, volumes,
classification, design, plan, measurements, models, findings) is stored
as its :mod:`repro.codec` payload, keyed by a content fingerprint of
everything that produced it.  A campaign rerun whose upstream
fingerprints are unchanged loads artifacts instead of recomputing —
editing only modeling parameters re-fits models without re-measuring.

Storage is the one store (:mod:`repro.store`): a stage payload is the
entry itself, at key :func:`~repro.store.stage_key` ``<stage>-<fp>`` in
the ``stage`` namespace of the campaign's workspace.
"""

from __future__ import annotations

import hashlib
import json

#: Version of the artifact payload format; bump to invalidate workspaces
#: (3: payloads encoded by :mod:`repro.codec`).
ARTIFACT_VERSION = 3


def artifact_fingerprint(payload: object) -> str:
    """Content fingerprint of any JSON-able payload (canonical form)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
