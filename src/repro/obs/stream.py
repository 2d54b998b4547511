"""Persisted per-decision telemetry streams (offline replay feed).

Appends one record per QoS decision — inputs digest, execution path,
shadow error, policy reason, budget spend, breaker state — to the
repo's own ``repro.h5`` container so a serving run can be replayed
offline bit-for-bit.  This is the input the ROADMAP item-5 BO tuner
needs: a policy search can re-score recorded decisions against
candidate budgets without re-running the application.

Layout: one group per region holding two appendable datasets,

* ``codes``  — int64, inner shape ``(5,)``: inputs digest, path code,
  reason code, breaker code, precision code (codes index the JSON
  vocab attrs);
* ``values`` — float64, inner shape ``(2,)``: shadow error, budget
  spend (NaN encodes "absent" and decodes back to ``None``).

Streams written before the precision column had inner shape ``(4,)``;
the reader decodes both widths (old records replay with
``precision=None``), and appending to an old-width file keeps its
width by dropping the precision code.

No wall-clock timestamps are stored — deliberately — so a fixed-seed
run produces byte-identical records.  Writes buffer in memory
(:class:`~repro.runtime.collect.DataCollector` idiom) and each flush
lands through the crash-safe tmp+fsync+replace path.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..h5 import File

__all__ = ["DecisionStream", "read_stream", "input_digest"]

_SCHEMA = "repro-decision-stream-v1"
_NONE_CODE = -1


@lru_cache(maxsize=256)
def _digest_header(dtype, shape) -> bytes:
    """The dtype/shape bytes a digest starts each array with.  A serving
    loop hashes one geometry thousands of times, and stringifying a
    ``np.dtype`` costs more than hashing a small batch."""
    return str(dtype).encode() + str(shape).encode()


def input_digest(*arrays) -> int:
    """Stable 63-bit digest of the invocation's input tensors.

    blake2b over dtype/shape/bytes of each array, truncated to fit a
    signed int64 dataset.  The same inputs always hash the same, so a
    replayed stream can be joined back to the run that produced it.
    """
    h = hashlib.blake2b(digest_size=8)
    for arr in arrays:
        if type(arr) is not np.ndarray or not arr.ndim \
                or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        h.update(_digest_header(arr.dtype, arr.shape))
        h.update(arr)                   # its buffer: the C-order bytes
    return int.from_bytes(h.digest(), "little") & 0x7FFF_FFFF_FFFF_FFFF


class _RegionStream:
    """Buffered rows + string vocabularies for one region."""

    __slots__ = ("codes", "values", "vocab", "known")

    def __init__(self):
        self.codes: list = []
        self.values: list = []
        # One vocabulary per coded column, in column order.
        self.vocab = {"paths": [], "reasons": [], "breakers": [],
                      "precisions": []}
        #: ``(path, reason, breaker, precision)`` -> their four codes.
        self.known: dict = {}

    def code(self, column: str, token) -> int:
        if token is None:
            return _NONE_CODE
        vocab = self.vocab[column]
        try:
            return vocab.index(token)
        except ValueError:
            vocab.append(token)
            return len(vocab) - 1


class DecisionStream:
    """Appends per-decision records to an h5 stream file.

    Thread-safe: backend workers for different regions may record
    concurrently.  Records buffer in memory and persist on
    :meth:`flush` / :meth:`close` (and automatically every
    ``flush_every`` records) via the atomic write path.
    """

    def __init__(self, path, flush_every: int = 512):
        self.path = Path(path)
        self.flush_every = int(flush_every)
        self._regions: dict[str, _RegionStream] = {}
        self._pending = 0
        self._file: File | None = None
        self._lock = threading.Lock()
        self._closed = False

    def record(self, region: str, *, digest: int = 0,
               path: str = "accurate", reason: str | None = None,
               breaker: str | None = None,
               shadow_error: float | None = None,
               spend: float | None = None,
               precision: str | None = None) -> None:
        """Buffer one decision record (persisted at flush)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("stream is closed")
            try:
                rs = self._regions[region]
            except KeyError:
                rs = self._regions[region] = _RegionStream()
            tokens = (path, reason, breaker, precision)
            try:
                codes = rs.known[tokens]
            except KeyError:
                codes = rs.known[tokens] = tuple(
                    rs.code(column, token) for column, token in zip(
                        ("paths", "reasons", "breakers", "precisions"),
                        tokens))
            rs.codes.append((int(digest), *codes))
            rs.values.append((math.nan if shadow_error is None
                              else float(shadow_error),
                              math.nan if spend is None else float(spend)))
            self._pending += 1
            should_flush = self._pending >= self.flush_every
        if should_flush:
            self.flush()

    def flush(self) -> None:
        """Persist buffered records (atomic replace of the stream file)."""
        with self._lock:
            if self._pending == 0 and self._file is None:
                return
            if self._file is None:
                mode = "a" if self.path.exists() else "w"
                self._file = File(self.path, mode, atomic=True)
                self._file.attrs["schema"] = _SCHEMA
            for region, rs in self._regions.items():
                group = self._file.require_group(region)
                if rs.codes:
                    codes_ds = group.require_dataset("codes", (5,), np.int64)
                    rows = np.asarray(rs.codes,
                                      dtype=np.int64).reshape(-1, 5)
                    # Appending to a pre-precision stream keeps the
                    # file's original width (old readers stay valid).
                    width = codes_ds.shape[1]
                    codes_ds.append(rows[:, :width])
                    group.require_dataset("values", (2,), np.float64).append(
                        np.asarray(rs.values,
                                   dtype=np.float64).reshape(-1, 2))
                    rs.codes.clear()
                    rs.values.clear()
                # Vocabs rewrite every flush: they only ever grow, and
                # codes already written stay valid.
                for column, vocab in rs.vocab.items():
                    group.attrs[column] = json.dumps(vocab)
            self._pending = 0
            self._file.flush()

    def close(self) -> None:
        try:
            self.flush()
        finally:
            with self._lock:
                if self._file is not None:
                    self._file.close()
                    self._file = None
                self._closed = True

    def __enter__(self) -> "DecisionStream":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_stream(path) -> dict:
    """Decode a stream file: ``{region: [record dict, ...]}``.

    Records come back in append order with plain-Python values
    (``None`` where the writer recorded an absent reason/error), so two
    fixed-seed runs compare with ``==``.
    """
    out: dict[str, list] = {}
    with File(path, "r") as fh:
        if fh.attrs.get("schema") != _SCHEMA:
            raise ValueError(
                f"{path} is not a decision stream "
                f"(schema={fh.attrs.get('schema')!r})")
        for region, group in fh.groups().items():
            vocab = {column: json.loads(group.attrs.get(column, "[]"))
                     for column in ("paths", "reasons", "breakers",
                                    "precisions")}

            def decode(column, code):
                return None if code == _NONE_CODE else vocab[column][code]

            codes = group["codes"].read() if "codes" in group else \
                np.empty((0, 5), dtype=np.int64)
            values = group["values"].read() if "values" in group else \
                np.empty((0, 2), dtype=np.float64)
            # Pre-precision streams carry width-4 code rows.
            wide = codes.shape[1] >= 5
            records = []
            for seq in range(min(len(codes), len(values))):
                digest, path_c, reason_c, breaker_c = codes[seq][:4]
                prec_c = int(codes[seq][4]) if wide else _NONE_CODE
                err, spend = values[seq]
                records.append({
                    "seq": seq,
                    "digest": int(digest),
                    "path": decode("paths", int(path_c)),
                    "reason": decode("reasons", int(reason_c)),
                    "breaker": decode("breakers", int(breaker_c)),
                    "precision": decode("precisions", prec_c),
                    "shadow_error": None if math.isnan(err) else float(err),
                    "spend": None if math.isnan(spend) else float(spend),
                })
            out[region] = records
    return out
