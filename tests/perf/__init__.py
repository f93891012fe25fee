"""Performance-layer tests and their shared helper."""

import hashlib
import pickle


def payload_digest(result) -> str:
    """SHA-256 over an ``ExperimentResult``'s full payload (sections, data,
    identity).

    Two results are byte-identical -- same numbers, same seeds, same
    rendering inputs -- exactly when their digests match; the
    determinism tests use this to compare serial and parallel runs.
    """
    payload = (
        result.experiment_id,
        result.title,
        result.paper_reference,
        result.sections,
        result.data,
    )
    blob = pickle.dumps(payload, protocol=4)
    return hashlib.sha256(blob).hexdigest()
