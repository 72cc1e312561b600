(** Static cost pre-filter: analytic bank-conflict / coalescing
    prediction computed directly from a candidate layout, plus the
    symbolic operation count of its index expression.  No simulation —
    this is the cheap first stage that prunes the space before
    {!Slot.t.simulate} runs the survivors.

    Soundness of the pruning (DESIGN.md section 10): the bank and
    transaction arithmetic here is the {e same} arithmetic
    [Simt.cost_shared] / [Simt.cost_global] applies per warp round, so a
    phase list that faithfully samples the kernel's warp access patterns
    predicts the simulator's conflict degree exactly for those rounds;
    the prediction can only diverge from stage two on access patterns the
    phases do not sample. *)

type phase =
  | Shared of { elem_bytes : int; lanes : int -> int list option }
      (** One warp-wide shared access: [lanes t] is the {e logical} index
          lane [t] touches through the candidate layout ([None] =
          inactive lane). *)
  | Global of { elem_bytes : int; addrs : int -> int option }
      (** One warp-wide global access: [addrs t] is lane [t]'s physical
          element offset (already resolved — global patterns of the
          current slots do not route through the candidate). *)

type score = {
  smem_phases : int;  (** Shared phases with at least one active lane. *)
  smem_accesses : int;  (** Total active lanes across shared phases. *)
  smem_cycles : int;  (** Summed bank-conflict degree (1 = no conflict). *)
  gmem_txns : int;  (** Summed coalescing transaction count. *)
  ops : int;  (** {!Lego_symbolic.Cost.ops} of the symbolic offset. *)
}

val conflict_free : score -> bool
(** Every sampled shared phase ran at degree 1. *)

val linear_of :
  ?memoize:bool -> Lego_layout.Group_by.t -> Lego_f2.Linear.t option
(** The candidate's affine F₂ form ({!Lego_f2.Linear.of_layout}),
    fingerprint-memoized per domain — [Some] exactly when the oracle
    path of {!score} applies to it.  [~memoize:false] bypasses the
    table in both directions (no lookup, no insert): at mega-space
    scale the per-candidate memo would grow without bound while almost
    never hitting (the stream visits each fingerprint once). *)

val decomposed_ops : Lego_layout.Group_by.t -> int
(** Per-dimension decomposition of the op count: the sum, over the
    candidate's chain, of each stage's op count in isolation (memoized
    per domain by the stage's printed form); the exact whole-layout
    count when the chain is empty.  Candidates sharing a tile prefix —
    every member of a swizzle grid over one base tiling, every tiling
    sharing pieces — reuse each stage's cost from the table, so at
    mega-space scale the dominant symbolic evaluation happens once per
    {e stage} instead of once per candidate.  A ranking surrogate: it
    drops the constant cross-stage glue cost (identical across a
    family, so family-internal order is preserved) — feed it to [score
    ?ops] where throughput matters, keep the default exact count
    elsewhere. *)

val score :
  device:Lego_gpusim.Device.t ->
  ?oracle:bool ->
  ?memoize:bool ->
  ?ops:int ->
  Lego_layout.Group_by.t ->
  phase list ->
  score
(** The static score of a candidate on [device]'s warp, bank and
    transaction geometry.  Addresses are evaluated through the
    candidate's {!Compiled} closure, once per distinct logical index of
    the phase list.

    [oracle] (default false) scores F₂-linear candidates in closed form
    ({!Lego_f2.Oracle}): every full-warp affine phase costs two rank
    computations instead of 32 address evaluations plus a conflict
    count, and non-linear candidates (or phases outside the affine
    precondition) silently take the compiled path.  The scores are
    bit-identical either way — the oracle is exact, not an
    approximation (asserted against {!reference_score} and against
    measured simulator counters by the test suite).

    [memoize] (default true) controls the domain-local per-candidate
    tables ({!linear_of}, [Compiled.of_layout]); [~memoize:false]
    compiles and linearizes directly, for streaming callers that visit
    each candidate once and must keep memory bounded.  [ops], when
    given, replaces the symbolic op count (use {!decomposed_ops} for
    the shared-prefix fast path); the bank/transaction arithmetic is
    unaffected. *)

val reference_score :
  device:Lego_gpusim.Device.t -> Lego_layout.Group_by.t -> phase list -> score
(** The reference oracle {!score} is checked against: every active lane
    evaluated through the structural interpreter
    ([Group_by.apply_ints]) and counted with
    {!Lego_gpusim.Access.bank_cycles} / [txn_count], with the exact
    symbolic op count.  [score ~device g phases] (with or without
    [~oracle]) equals [reference_score ~device g phases] for every
    candidate.  Slow by design; the tuner never calls it — tests and the
    bench's before/after timings do. *)

val compare_ranked : score * string -> score * string -> int
(** Lexicographic [(smem_cycles, gmem_txns, ops, fingerprint)] — a total
    order (the fingerprint tie-break makes ranking independent of
    traversal and scheduling order). *)

val pp : Format.formatter -> score -> unit
