(** Order-sensitive digest of a trace, for replay diffing.

    [verify-determinism] runs an experiment twice with the same seed and
    compares these digests: identical event sequences (kind, fields and
    timestamps, oldest to newest) yield identical digests.  The hash is
    64-bit FNV-1a over a canonical per-record rendering — not
    cryptographic, but incremental (no materialised copy of the ring
    buffer) and stable across runs and processes. *)

val digest : Trace.t -> int64
(** Digest of every record currently held, oldest first.  The empty
    trace has the FNV offset basis as its digest.  When the ring
    overflowed, the number of dropped events is folded in as a final
    record, so a truncated trace never digests equal to a complete
    trace retaining the same window. *)

val hex : int64 -> string
(** 16-digit lowercase hex rendering. *)
