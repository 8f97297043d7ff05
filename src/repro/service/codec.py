"""JSON wire codec for the experiment service.

Maps the frozen :mod:`repro.api` request models
(:class:`~repro.api.spec.ExperimentSpec`,
:class:`~repro.api.spec.ExecutionOptions`) and run artifacts
(:class:`~repro.api.session.RunResult`,
:class:`~repro.api.session.ProgressEvent`) to and from plain JSON
objects.  Decoding is strict -- unknown fields and malformed values
raise :class:`CodecError` (HTTP 400 at the server boundary) instead of
being silently dropped, so a client typo never turns into a subtly
different experiment.  Validation itself is delegated to the dataclass
constructors: the codec only reshapes JSON types (lists -> tuples,
objects -> sorted pairs), the frozen-spec invariants stay in one place.

Encoding of results is **canonical**: :func:`canonical_json` emits
sorted-key, minimal-separator UTF-8, and :func:`encode_run_result`
deliberately excludes wall-clock fields (``elapsed_seconds``,
``cache_hits``, ...) so two executions of the same spec -- or a live run
and a warm result-cache replay -- produce **byte-identical** response
bodies.  That is what makes the server's dedup observable and testable:
clients cannot tell whether they triggered the simulation or joined one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from ..api.session import ProgressEvent, RunResult
from ..api.spec import ExecutionOptions, ExperimentSpec
from ..cache.keys import content_key, stable_repr
from ..sampling.sampled import SamplingSpec
from ..simulator.plan import TaskFailure

#: Wire-format version; bumped only for incompatible reshapes.
CODEC_VERSION = 1

#: ``ExecutionOptions`` fields a client may set.  The rest -- ``jobs``,
#: ``cache_dir``/``cache``, ``faults`` -- are *server policy*: worker
#: counts and store location belong to the operator, and letting a client
#: inject chaos or redirect the cache would let one tenant corrupt the
#: results every other tenant dedups against.
CLIENT_OPTION_FIELDS = (
    "sampled", "sampling", "result_cache", "task_timeout", "max_retries",
)

_SPEC_FIELDS = tuple(f.name for f in fields(ExperimentSpec))
_SAMPLING_FIELDS = tuple(f.name for f in fields(SamplingSpec))


class CodecError(ValueError):
    """A request payload that cannot be decoded (-> HTTP 400)."""


def _require_object(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise CodecError(f"{what} must be a JSON object, "
                         f"got {type(payload).__name__}")
    return payload


def _reject_unknown(payload: Mapping, allowed: Tuple[str, ...],
                    what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise CodecError(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")


# ----------------------------------------------------------------------
# ExperimentSpec
# ----------------------------------------------------------------------
def decode_spec(payload: Any) -> ExperimentSpec:
    """JSON object -> validated :class:`ExperimentSpec`.

    JSON has no tuples, so list-valued fields are reshaped before the
    dataclass validates; ``config_overrides`` accepts either an object
    or a list of ``[name, value]`` pairs.
    """
    payload = dict(_require_object(payload, "spec"))
    _reject_unknown(payload, _SPEC_FIELDS, "spec")
    if "scheme" not in payload:
        raise CodecError("spec requires a 'scheme' field")
    for field_name in ("scheme", "benchmarks", "l1_sizes"):
        value = payload.get(field_name)
        if isinstance(value, list):
            payload[field_name] = tuple(value)
    overrides = payload.get("config_overrides")
    if isinstance(overrides, list):
        try:
            payload["config_overrides"] = tuple(
                (str(name), value) for name, value in overrides)
        except (TypeError, ValueError) as exc:
            raise CodecError(
                "config_overrides must be an object or a list of "
                "[name, value] pairs") from exc
    try:
        return ExperimentSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"invalid spec: {exc}") from exc


def encode_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    """:class:`ExperimentSpec` -> JSON object (inverse of decode)."""
    return {
        "scheme": list(spec.schemes),
        "benchmarks": list(spec.benchmarks),
        "max_instructions": spec.max_instructions,
        "technology": str(spec.technology),
        "l1_sizes": None if spec.l1_sizes is None else list(spec.l1_sizes),
        "l1_size_bytes": spec.l1_size_bytes,
        "config_overrides": [[name, value]
                             for name, value in spec.config_overrides],
        "name": spec.name,
    }


# ----------------------------------------------------------------------
# ExecutionOptions
# ----------------------------------------------------------------------
def decode_options(payload: Any) -> ExecutionOptions:
    """JSON object -> :class:`ExecutionOptions` (client-settable subset).

    Server-policy fields (``jobs``, ``cache_dir``, ``cache``,
    ``faults``) are rejected with an explanatory error rather than
    ignored -- see :data:`CLIENT_OPTION_FIELDS`.
    """
    if payload is None:
        return ExecutionOptions()
    payload = dict(_require_object(payload, "options"))
    refused = sorted(set(payload) & {"jobs", "cache_dir", "cache", "faults"})
    if refused:
        raise CodecError(
            f"option(s) {', '.join(map(repr, refused))} are server policy "
            "and cannot be set per-request; configure them on "
            "'repro-clgp serve' instead")
    _reject_unknown(payload, CLIENT_OPTION_FIELDS, "options")
    sampling = payload.get("sampling")
    if sampling is not None:
        sampling = dict(_require_object(sampling, "options.sampling"))
        _reject_unknown(sampling, _SAMPLING_FIELDS, "options.sampling")
        try:
            payload["sampling"] = SamplingSpec(**sampling)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"invalid sampling spec: {exc}") from exc
    try:
        return ExecutionOptions(**payload)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"invalid options: {exc}") from exc


def encode_options(options: ExecutionOptions) -> Dict[str, Any]:
    """Client-settable fields of ``options`` as a JSON object."""
    encoded: Dict[str, Any] = {}
    for name in CLIENT_OPTION_FIELDS:
        value = getattr(options, name)
        if isinstance(value, SamplingSpec):
            value = asdict(value)
        encoded[name] = value
    return encoded


# ----------------------------------------------------------------------
# dedup key
# ----------------------------------------------------------------------
def request_key(spec: ExperimentSpec,
                options: Optional[ExecutionOptions] = None) -> str:
    """Content key identical requests collapse under.

    Covers everything that determines the *result*: the full spec plus
    the sampled/sampling options.  Execution-only knobs
    (``result_cache``, ``task_timeout``, ``max_retries``) are excluded
    on purpose -- they change how a run executes, never what a correct
    run returns, so requests differing only there still dedup.
    """
    options = options or ExecutionOptions()
    return content_key(
        "service-request",
        stable_repr(spec),
        stable_repr(bool(options.sampled)),
        stable_repr(options.sampling),
    )


# ----------------------------------------------------------------------
# results and events
# ----------------------------------------------------------------------
def encode_run_result(name: str, result: RunResult) -> Dict[str, Any]:
    """:class:`RunResult` -> canonical JSON object.

    Timing/accounting fields (``elapsed_seconds``, ``cache_hits``,
    ``result_cache_hits``, ``task_retries``) are excluded so reruns and
    cache replays of the same spec serialize byte-identically; clients
    needing those watch the progress stream instead.
    """
    encoded_results = []
    for item in result.results:
        if isinstance(item, TaskFailure):
            encoded_results.append({
                "type": "failure",
                "index": item.index,
                "benchmark": item.benchmark,
                "key": list(item.key),
                "kind": item.kind,
                "message": item.message,
            })
        else:
            encoded_results.append({"type": "result", **asdict(item)})
    return {
        "codec": CODEC_VERSION,
        "name": name,
        "tasks": [{
            "benchmark": task.benchmark,
            "key": list(task.key),
            "max_instructions": task.max_instructions,
            "sampled": task.sampled,
        } for task in result.tasks],
        "results": encoded_results,
        "hmean_ipc": [[list(key), value]
                      for key, value in result.hmean_by_key().items()],
    }


def encode_event(event: ProgressEvent) -> Dict[str, Any]:
    """:class:`ProgressEvent` -> JSON object (tuples become lists)."""
    encoded = asdict(event)
    if encoded.get("key") is not None:
        encoded["key"] = list(encoded["key"])
    return encoded


def canonical_json(payload: Any) -> bytes:
    """Deterministic UTF-8 JSON: sorted keys, minimal separators."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
