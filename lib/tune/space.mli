(** The tuner's candidate space for a 2-D logical shape.

    Every candidate is a {!Lego_layout.Group_by.t} whose logical view is
    the plain [[rows; cols]] group, so a kernel slot can address any of
    them uniformly with [apply_ints g [i; j]].  The space is generated
    as a shallow refinement dag:

    - {b roots}: one [RegP] per sigma permutation of the two dimensions
      (row-major, column-major), plus the applicable gallery bijections
      (anti-diagonal, cyclic-diagonal, reverse, Morton, Hilbert);
    - {b tilings} (children of sigma roots): [TileOrderBy(P1, P2)] over
      every non-trivial divisor split of each extent and every sigma
      pair;
    - {b swizzles} (children of any swizzle-free candidate, when [cols]
      is a power of two): a prepended [swizzlex_m<mask>_s<shift>] GenP.
      By default these sample prefix masks (widest first) with shifts
      0..2; with [~classes:true] (and power-of-two [rows]) they instead
      enumerate one canonical representative per provable F₂
      cost-equivalence class of the {e full} mask/shift grid
      ({!swizzle_classes}), covering the whole family with far fewer
      candidates;
    - {b composed} (extra roots, only with [~composed:true]): candidates
      built by the prover-discharged layout algebra
      ({!Lego_layout.Algebra}) — masked swizzles composed at the piece
      level with logical divides of the row-major space by row and
      column tiles ({!composed}).  They carry GenP pieces, so they are
      leaves of the dag.

    With [~scale:true] the space additionally crosses product axes on
    top of the sampled dag — ordered three-level tilings
    ([TileOrderBy(P1, P2, P3)] over every 3-factorization of each
    extent and every sigma triple), vectorization-width tilings (one
    dimension split off as a contiguous innermost [1; v] / [w; 1]
    vector), and the {e full} masked-swizzle grid (every mask >= 1
    crossed with every shift) prepended to every swizzle-free base —
    which lifts the matmul shape from ~1.6 x 10³ to ~1.8 x 10⁵ distinct
    candidates.  The scale space is only ever generated {e lazily}
    through {!stream}, and {!count} sizes it without generating it.

    Determinism contract: the generated sequence is a pure function of
    [(rows, cols, seed, classes, composed, elem_bytes, scale)].  Seed 0
    is the canonical order; a non-zero seed shuffles within each family
    with a [Random.State] derived only from [(seed, family tag)]. *)

type t

val make :
  ?seed:int -> ?classes:bool -> ?composed:bool -> ?elem_bytes:int ->
  ?scale:bool -> rows:int -> cols:int -> unit -> t
(** [elem_bytes] (default 4) is the shared-memory element width the
    class key assumes — pass the {e largest} element width among the
    slot's shared phases, which yields the finest (hence sound for every
    phase) class partition.  [scale] (default false) turns on the
    product axes above.  Raises [Invalid_argument] on non-positive
    extents or [elem_bytes]. *)

type swizzle_class = {
  sw_mask : int;  (** Canonical representative: the (shift, mask)- *)
  sw_shift : int;  (** lexicographic minimum of the class. *)
  sw_members : (int * int) list;
      (** Every [(mask, shift)] in the class, shift-major ascending;
          the representative is the head. *)
}

val swizzle_family : t -> (int * int) list
(** The full [(mask, shift)] grid for this shape: masks
    [0 .. cols - 1] crossed with shifts [0 .. num_bits (rows - 1) - 1]
    (shift-major).  Empty unless [cols] is a power of two [> 1]. *)

val swizzle_classes : t -> swizzle_class list
(** {!swizzle_family} partitioned into provable F₂ cost-equivalence
    classes (DESIGN.md section 12): two members are equivalent iff their
    key maps have the same image pair — over the word-relevant mask bits
    (those at or above [log2 (4 / elem_bytes)]), the set of mask bits
    that survive the shift into any row bit, and the subset surviving
    into a warp-lane row bit.  Classes are ordered
    highest-warp-image-rank first (fewest conflicts first), then
    highest-full-rank, then canonical representative.  Empty unless
    [rows], [cols] and [elem_bytes] are all powers of two with
    [cols > 1]. *)

val composed : t -> Lego_layout.Group_by.t list
(** The algebra-built composite family: for each tile (the contiguous
    row tile [(cols):(1)], whose divide is the identity, and the column
    tiles [(2):(cols)], [(4):(cols)] where they divide [rows]), the bare
    logical divide of the row-major space plus its compositions with
    masked XOR swizzles (prefix masks, shifts 0 and 1), every side
    condition discharged by the prover.  Empty unless the space was made
    with [~composed:true] and [cols] is a power of two [> 1]; raises
    [Invalid_argument] if a discharge fails (a construction bug, since
    the family is admissible by design). *)

val roots : t -> Lego_layout.Group_by.t list
(** Generation 0: sigma roots, then gallery roots, then — with
    [~composed:true] — the {!composed} family. *)

val children : t -> Lego_layout.Group_by.t -> Lego_layout.Group_by.t list
(** Refinements of one candidate: its swizzle variants (swizzle-free
    candidates only) followed, for sigma roots, by the two-level tilings.
    May emit candidates already generated elsewhere — callers
    de-duplicate by {!Fingerprint.of_layout}. *)

val stream : t -> Lego_layout.Group_by.t Seq.t
(** Every candidate of the space, {e lazily}: the breadth-first closure
    of {!roots} under {!children} first, followed — with [~scale:true] —
    by the scale product axes (every swizzle-free base crossed with the
    full mask >= 1 swizzle grid).  No two elements of the sequence have
    equal fingerprints.  The dag part is de-duplicated by
    {!Fingerprint.digest} as the consumer pulls, so its dedup set holds
    at most the ~10³ dag candidates.  The scale part needs no dedup:
    the axes are disjoint from each other by construction, and a base
    the dag already holds (a sigma root or two-level tiling) skips
    itself and the swizzle pairs {!children} already prepends to it.
    Re-traversing the stream from the start rebuilds the dedup set, and
    every traversal yields the identical sequence (the determinism
    contract above). *)

val count : t -> int
(** [Seq.length (stream t)], without generating the scale part: one
    traversal of the dag plus arithmetic over the same base and swizzle
    lists {!stream} crosses. *)

val has_gen : Lego_layout.Group_by.t -> bool
(** Whether any piece of the chain is a [GenP] (used to keep swizzles
    from stacking on named bijections). *)
