(** Reusable scoring cache for incremental re-tuning.

    One {!t} passed to successive [Tune.search] calls (the CLI creates
    one per run) lets later searches reuse what earlier ones computed:
    static {!Predict.score}s, F₂-linearity verdicts, and sampled/full
    simulator results, keyed by (slot {e identity}, fingerprint digest).
    The identity string is {!Slot.identity} — name, device preset and
    shared-memory dtype — so distinct slots never collide, and neither
    does the same slot tuned under different devices or dtypes (scores
    and sims depend on both).  Cached static scores are valid across
    oracle modes (oracle and compiled scoring agree exactly) — the cache
    can change only wall-clock, never results or the reported counters,
    which the tuner derives from its own per-search tallies.

    Concurrency: {!find} is a pure read, safe from inside [Exec.map]
    tasks; everything else mutates and must be called only between
    parallel sections (the tuner's existing memo discipline).  The
    table stops growing at [max_entries] — {!ensure} then returns
    transient entries — so a mega-space stream cannot make the cache
    itself the memory hog the bounded top-K avoided. *)

type entry = {
  mutable static_ : Predict.score option;
  mutable linear : bool option;
      (** [Some l] once F₂-linearity is decided; [static_] was scored
          through the oracle iff [l].  An oracle-mode search treats a
          static score with [linear = None] as a miss (it needs the
          verdict for its oracle-scored counter), a non-oracle search
          reuses it directly. *)
  mutable sampled : Slot.sim option;
  mutable full : Slot.sim option;
}

type t

val default_max_entries : int
(** 2¹⁸ = 262144 — a few tens of MB at worst, far above the retained
    rung sizes, far below a 10⁶-candidate space. *)

val create : ?max_entries:int -> unit -> t
val find : t -> slot:string -> fp_digest:string -> entry option

val ensure : t -> slot:string -> fp_digest:string -> entry
(** The entry for the key, inserting a fresh empty one if absent — or a
    {e transient} fresh one (not inserted) once the table holds
    [max_entries].  Sequential sections only. *)

val iter :
  t -> (slot:string -> fp_digest:string -> entry -> unit) -> unit
(** Visit every entry (unspecified order) — the persistence hook the
    compile service uses to flush freshly simulated results to its
    on-disk store and to warm-start a cache from one.  Sequential
    sections only. *)

val note_hits : t -> int -> unit
val note_misses : t -> int -> unit
val hits : t -> int
val misses : t -> int
val length : t -> int
