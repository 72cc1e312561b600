(** The layout autotuner: closes the loop between the layout algebra and
    the simulator's cost model (DESIGN.md sections 10 and 14).

    A staged funnel over the lazy {!Space.stream} of candidates for one
    {!Slot}:

    + {b static pass} — the stream (pre-deduplicated, never
      materialized) flows through the cheap {!Predict.score} pre-filter
      (compiled closures, on the slot's own device geometry) in chunks
      scored in parallel, under a candidate budget; only a
      bounded top-K heap of the best survivors plus counters are
      retained, so ranking memory is O(K) at 10⁵–10⁶ candidates;
    + {b sampled rung} (successive halving; active when the slot has a
      [simulate_sampled] and the rung is wider than [top]) — every heap
      survivor runs the cheap sampled simulation, the best [top]
      promote;
    + {b full rung} — the promoted finalists run the slot's full
      simulation and are ranked by roofline time;
    + the winner is cross-checked through the {!Lego_conform.Conform}
      four-semantics differential harness before being reported.

    Both sim rungs run the warp-vectorized {!Lego_gpusim.Fastpath}
    ([simulate ~fast:true]).  The slower paths that give the same
    results — {!Predict.reference_score} and [simulate ~fast:false] —
    are reference oracles for the tests and the bench, not options.

    Results are bit-identical at any [jobs]: parallelism only ever runs
    inside {!Lego_exec.Exec.map} (submission-order merge), all search
    decisions are sequential over totally ordered keys, the top-K
    retained set is order-independent under its total comparator, and
    the {!Cache} is read (purely) inside parallel sections but written
    only between them — a warm cache changes wall-clock, never results
    or counters. *)

type options = {
  budget : int;  (** Max candidates scored by the static pass (256). *)
  top : int;  (** Finalists fully simulated (default 8). *)
  sample : int;
      (** Width of the sampled rung; 0 (default) = automatic — [4 * top]
          in scale mode, disabled otherwise (which reproduces the
          pre-funnel two-stage search exactly). *)
  seed : int;  (** Space-enumeration seed; 0 = canonical order. *)
  jobs : int;  (** {!Lego_exec.Exec} pool size (default 1). *)
  conform : bool;  (** Four-semantics check of the winner (default on). *)
  conform_points : int;  (** Points for that check (default 2048). *)
  oracle : bool;
      (** F₂ mode (default off): the static pass scores affine-linear
          candidates in closed form ({!Predict.score}'s [~oracle], exact
          — bit-identical scores), and the swizzle family is enumerated
          by GL(n, F₂) cost-equivalence class ({!Space.swizzle_classes})
          instead of mask/shift sampling, so the {e whole} masked-swizzle
          grid is covered with a fraction of the candidates. *)
  composed : bool;
      (** Include the {!Space.composed} roots (default off): candidates
          built by the prover-discharged layout algebra — masked
          swizzles composed with logical divides of the row-major
          space. *)
  scale : bool;
      (** Mega-space mode (default off): the {!Space} crosses its scale
          product axes (three-level tilings x vectorization widths x
          the full masked-swizzle grid — ~1.8 x 10⁵ candidates on the
          matmul shape), the sampled rung turns on, per-candidate memo
          tables are bypassed ({!Predict.score}'s [~memoize:false]) and
          the symbolic op count switches to the shared-prefix
          {!Predict.decomposed_ops} surrogate.  Raise [budget]
          accordingly ([legoc tune --scale] uses 250000). *)
}

val default_options : options

type scored = {
  layout : Lego_layout.Group_by.t;
  fingerprint : string;
  static_score : Predict.score;
  sim : Slot.sim option;  (** Present for full-rung finalists. *)
}

type result = {
  slot : Slot.t;
  winner : scored;  (** Best simulated time (fingerprint tie-break). *)
  ranking : scored list;  (** All fully simulated finalists, best first. *)
  explored : int;  (** Candidates statically scored. *)
  space_size : int;
      (** Size of the full candidate space.  Free when the stream
          drained (it equals [explored]); otherwise {!Space.count},
          outside the timed sections — one traversal of the sampled dag
          plus arithmetic over the scale axes, never an enumeration of
          the scale part. *)
  exhaustive : bool;  (** The stream drained within the budget. *)
  oracle_scored : int;
      (** Candidates the static pass scored purely in closed form (0
          unless [options.oracle]). *)
  sampled_scored : int;
      (** Candidates the sampled rung simulated (0 when the rung is
          inactive). *)
  sim_scored : int;
      (** Candidates whose score involved address-level evaluation:
          static-pass non-oracle scores plus both sim rungs — the
          denominator the F₂ path shrinks.  Counts rung membership, not
          sim invocations, so it is independent of cache warmth. *)
  static_seconds : float;
  sim_seconds : float;
  candidates_per_s : float;  (** [explored / (static + sim)] wall time. *)
  conform : Lego_conform.Conform.outcome option;
  baselines : (string * Slot.sim) list;  (** The slot's references. *)
}

val search : ?options:options -> ?cache:Cache.t -> Slot.t -> result
(** Runs the funnel.  [cache], when given, persists static scores
    (non-scale spaces only), F₂-linearity verdicts and both rungs' sim
    results across searches in a run — re-tuning the same slot (wider
    budget, different [top], before/after comparisons) reuses instead
    of recomputing; see {!Cache} for the exact reuse and soundness
    rules.  Raises [Invalid_argument] when [budget] or [top] is < 1, or
    [sample] < 0. *)

val conform_ok : result -> bool option
(** [Some true] = checked clean, [Some false] = mismatch found, [None] =
    check disabled. *)

val pp_scored : Format.formatter -> scored -> unit
val pp_result : Format.formatter -> result -> unit
