module L = Lego_layout

type t = {
  rows : int;
  cols : int;
  seed : int;
  classes : bool;
  composed : bool;
  elem_bytes : int;
  scale : bool;
}

let make ?(seed = 0) ?(classes = false) ?(composed = false) ?(elem_bytes = 4)
    ?(scale = false) ~rows ~cols () =
  if rows <= 0 || cols <= 0 then
    invalid_arg "Space.make: extents must be positive";
  if elem_bytes <= 0 then
    invalid_arg "Space.make: elem_bytes must be positive";
  { rows; cols; seed; classes; composed; elem_bytes; scale }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let k = ref 0 in
  let v = ref n in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

(* A candidate is always the plain 2-D logical view over some reordering
   chain, so every consumer can address it as [apply_ints g [i; j]]. *)
let view2 sp chain = L.Group_by.make ~chain [ [ sp.rows; sp.cols ] ]

let of_piece sp p = view2 sp [ L.Order_by.make [ p ] ]

(* Seeded in-family shuffling.  Seed 0 is the canonical order (cheap,
   conflict-free-first families lead); any other seed permutes each
   family with a stream derived only from [(seed, tag)], so the space is
   a pure function of the seed — never of timing or of traversal
   interleaving. *)
let shuffle sp ~tag xs =
  if sp.seed = 0 then xs
  else begin
    let st = Random.State.make [| sp.seed; Hashtbl.hash tag |] in
    let arr = Array.of_list xs in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr
  end

let has_gen g =
  List.exists
    (fun o ->
      List.exists
        (function L.Piece.Gen _ -> true | L.Piece.Reg _ -> false)
        (L.Order_by.pieces o))
    (L.Group_by.chain g)

(* Sigma roots: one RegP over the full 2-D space per permutation. *)
let sigma_roots sp =
  List.map
    (fun sigma ->
      of_piece sp (L.Piece.reg ~dims:[ sp.rows; sp.cols ] ~sigma))
    (L.Sigma.all 2)

(* Gallery roots: the paper's named bijections, where the shape admits
   them. *)
let gallery_roots sp =
  let square = sp.rows = sp.cols in
  let pow2 = square && is_pow2 sp.rows && sp.rows > 1 in
  List.concat
    [
      (if square then [ of_piece sp (L.Gallery.antidiag sp.rows) ] else []);
      (if square then [ of_piece sp (L.Gallery.cyclic_diag sp.rows) ] else []);
      [ of_piece sp (L.Gallery.reverse [ sp.rows; sp.cols ]) ];
      (if pow2 then
         let bits = ref 0 and m = ref sp.rows in
         while !m > 1 do
           incr bits;
           m := !m / 2
         done;
         [
           of_piece sp (L.Gallery.morton ~d:2 ~bits:!bits);
           of_piece sp (L.Gallery.hilbert ~bits:!bits);
         ]
       else []);
    ]

(* Algebra-built composite roots: a masked XOR swizzle composed — at the
   piece level, through the prover-discharged layout algebra — with the
   logical divide of the row-major space by a column tile.  The row tile
   [(cols):(1)] divides to the identity, so its composites are the plain
   swizzles routed through the algebra; the column tiles [(ri):(cols)]
   interleave sub-columns under the swizzle.  Every candidate carries a
   GenP piece, so the family is a set of leaves in the refinement dag
   (no swizzle stacks on it). *)
let composed sp =
  if (not sp.composed) || (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else begin
    let module A = L.Algebra in
    let module D = Lego_symbolic.Discharge in
    let get what = function
      | Ok v -> v
      | Error e ->
        invalid_arg
          (Format.asprintf "Space.composed (%s): %a" what A.pp_error e)
    in
    let a = A.row [ sp.rows; sp.cols ] in
    let tile_piece tile =
      get "divide" (Result.bind (D.logical_divide a tile) D.to_piece)
    in
    let tiles =
      A.make ~shape:[ sp.cols ] ~stride:[ 1 ]
      :: List.filter_map
           (fun ri ->
             if ri > 1 && sp.rows mod ri = 0 then
               Some (A.make ~shape:[ ri ] ~stride:[ sp.cols ])
             else None)
           [ 2; 4 ]
    in
    let masks =
      List.filter
        (fun m -> m > 0)
        (List.sort_uniq compare
           [ sp.cols - 1; (sp.cols - 1) / 2; (sp.cols - 1) / 4 ])
    in
    List.concat_map
      (fun tile ->
        let tp = tile_piece tile in
        (* The bare divided layout, then its swizzled composites. *)
        of_piece sp tp
        :: List.concat_map
             (fun mask ->
               List.map
                 (fun shift ->
                   let swz =
                     L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols
                       ~mask ~shift
                   in
                   of_piece sp (get "compose" (D.compose_pieces swz tp)))
                 [ 0; 1 ])
             masks)
      tiles
  end

let roots sp =
  shuffle sp ~tag:"roots" (sigma_roots sp) @
  shuffle sp ~tag:"gallery" (gallery_roots sp) @
  shuffle sp ~tag:"composed" (composed sp)

(* Non-trivial factorizations [outer * inner = n, both > 1]. *)
let divisor_pairs n =
  let rec go d acc =
    if d > n / 2 then List.rev acc
    else go (d + 1) (if n mod d = 0 then (d, n / d) :: acc else acc)
  in
  go 2 []

(* Two-level tilings of the space: [TileOrderBy(P_outer, P_inner)] over
   every non-trivial divisor split of each extent and every sigma pair. *)
let tilings sp =
  let rows_splits = divisor_pairs sp.rows and cols_splits = divisor_pairs sp.cols in
  let sigmas = L.Sigma.all 2 in
  List.concat_map
    (fun (ro, ri) ->
      List.concat_map
        (fun (co, ci) ->
          List.concat_map
            (fun so ->
              List.map
                (fun si ->
                  view2 sp
                    (L.Sugar.tile_order_by
                       [
                         L.Piece.reg ~dims:[ ro; co ] ~sigma:so;
                         L.Piece.reg ~dims:[ ri; ci ] ~sigma:si;
                       ]))
                sigmas)
            sigmas)
        cols_splits)
    rows_splits

(* Bank geometry shared by every device preset (A100/H100): 32 banks of
   4-byte words, 32-lane warps.  The class key below only needs the word
   size and the warp width; both are fixed across the presets, so the
   space stays a pure function of [(rows, cols, seed, elem_bytes)]. *)
let bank_bytes = 4
let warp_lanes = 32

(* The number of bits indexing [0 .. n-1]. *)
let num_bits n = if n <= 1 then 0 else log2 (n - 1) + 1

type swizzle_class = {
  sw_mask : int;
  sw_shift : int;
  sw_members : (int * int) list;
}

(* The full masked-swizzle grid for this shape: every legal mask crossed
   with every shift that can still reach a row bit (larger shifts clear
   the key entirely, i.e. repeat mask = 0). *)
let swizzle_family sp =
  if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else begin
    let shifts = max 1 (num_bits sp.rows) in
    List.concat_map
      (fun shift -> List.init sp.cols (fun mask -> (mask, shift)))
      (List.init shifts Fun.id)
  end

(* Provable cost-equivalence classes of the masked-swizzle family over
   GF(2) (DESIGN.md section 12).  The swizzle xors [key(i) = (i >> shift)
   land mask] into the column bits; as an F₂ map [K] from row bits to
   column bits, only the rows of [K] that reach a distinct bank {e word}
   matter — key bits below [log2 (bank_bytes / elem_bytes)] land in
   sub-word address bits and cannot change any bank or transaction count.
   Two members with the same pair of images

     (im K̃ restricted to the warp-sweep lane bits,  im K̃)

   differ by an invertible change of row-space basis that fixes the lane
   subspace — a relabeling of which row activates which key, under which
   every warp sweep (full-row phases are key-independent; full-column
   phases see the same rank, hence the same coset multiplicity) costs
   identically.  One canonical representative per class is enough for
   the search; the collapse is exact, not heuristic (the test suite
   checks every member of every class scores identically on the slot
   phase lists). *)
let swizzle_class_key sp (mask, shift) =
  let rbits = log2 sp.rows and vbits = min (log2 sp.rows) (log2 warp_lanes) in
  let wshift = max 0 (log2 bank_bytes - log2 sp.elem_bytes) in
  let im limit =
    let acc = ref 0 in
    for b = wshift to log2 sp.cols - 1 do
      if mask land (1 lsl b) <> 0 && b + shift < limit then
        acc := !acc lor (1 lsl b)
    done;
    !acc
  in
  (im vbits, im rbits)

let popcount x =
  let c = ref 0 and v = ref x in
  while !v <> 0 do
    incr c;
    v := !v land (!v - 1)
  done;
  !c

let swizzle_classes sp =
  if
    (not (is_pow2 sp.cols))
    || sp.cols = 1
    || (not (is_pow2 sp.rows))
    || not (is_pow2 sp.elem_bytes)
  then []
  else begin
    (* Iterate shifts-then-masks ascending: the first member of each
       class is its lexicographic (shift, mask) minimum — the canonical
       representative. *)
    let order = Hashtbl.create 64 and members = Hashtbl.create 64 in
    let keys = ref [] in
    List.iter
      (fun shift ->
        List.iter
          (fun mask ->
            let key = swizzle_class_key sp (mask, shift) in
            if not (Hashtbl.mem order key) then begin
              Hashtbl.add order key (List.length !keys);
              keys := key :: !keys
            end;
            Hashtbl.add members key (mask, shift))
          (List.init sp.cols Fun.id))
      (List.init (max 1 (num_bits sp.rows)) Fun.id);
    let classes =
      List.rev_map
        (fun key ->
          let ms = List.rev (Hashtbl.find_all members key) in
          let mask, shift = List.hd ms in
          (key, { sw_mask = mask; sw_shift = shift; sw_members = ms }))
        !keys
    in
    (* Highest-rank (fewest-conflict) classes first, so a tiny budget
       still meets the conflict-free swizzle early; ties in canonical
       representative order. *)
    List.map snd
      (List.stable_sort
         (fun ((v1, f1), c1) ((v2, f2), c2) ->
           let c = compare (popcount v2) (popcount v1) in
           if c <> 0 then c
           else
             let c = compare (popcount f2) (popcount f1) in
             if c <> 0 then c
             else compare (c1.sw_shift, c1.sw_mask) (c2.sw_shift, c2.sw_mask))
         classes)
  end

(* XOR-swizzle refinements: prepend a [swizzlex] GenP as the outermost
   reordering of a swizzle-free candidate.  The default family samples
   prefix masks only, widest (the classic full-column swizzle) first, so
   a tiny budget meets the known-good layout early; [classes] mode
   instead enumerates one canonical representative per provable
   F₂ cost-equivalence class of the {e full} mask/shift grid — complete
   coverage of the family with far fewer candidates. *)
let swizzle_pairs sp =
  if (not (is_pow2 sp.cols)) || sp.cols = 1 then []
  else
    let class_reps =
      if sp.classes then
        List.filter_map
          (fun c ->
            (* The trivial class (no word-relevant key bit) is the
               parent itself, cost-wise; skip it. *)
            if swizzle_class_key sp (c.sw_mask, c.sw_shift) = (0, 0) then None
            else Some (c.sw_mask, c.sw_shift))
          (swizzle_classes sp)
      else []
    in
    if class_reps <> [] then class_reps
    else
      let masks =
        let rec go m acc =
          if m < 1 then List.rev acc else go (m / 2) (m :: acc)
        in
        go (sp.cols - 1) []
      in
      List.concat_map
        (fun mask -> List.map (fun shift -> (mask, shift)) [ 0; 1; 2 ])
        masks

let prepend_swizzle sp g (mask, shift) =
  L.Group_by.prepend
    (L.Order_by.make
       [ L.Gallery.xor_swizzle_masked ~rows:sp.rows ~cols:sp.cols ~mask ~shift ])
    g

let swizzles sp g =
  if has_gen g then [] else List.map (prepend_swizzle sp g) (swizzle_pairs sp)

(* Is [g] a bare sigma root (single chain entry, single RegP covering the
   whole space)?  Only those refine into tilings; every swizzle-free
   candidate refines into swizzles. *)
let is_sigma_root g =
  match L.Group_by.chain g with
  | [ o ] -> (
    match L.Order_by.pieces o with
    | [ L.Piece.Reg { dims; _ } ] -> List.length dims = 2
    | _ -> false)
  | _ -> false

let children sp g =
  let sw = shuffle sp ~tag:"swizzles" (swizzles sp g) in
  let tl = if is_sigma_root g then shuffle sp ~tag:"tilings" (tilings sp) else [] in
  sw @ tl

(* ---- Streaming enumeration (the mega-space path) ----------------------

   Everything below generates candidates {e lazily}: the full scale
   product space (10^5-10^6 layouts on the matmul shape) is never
   materialized — the consumer pulls candidates one at a time.  The
   sampled dag is deduplicated on the fly (its only per-space state is a
   digest set the size of the dag, ~10^3 entries); the scale axes are
   disjoint from the dag and from each other by construction, so they
   are appended without any fingerprinting.  The sequence is a pure
   function of the space record: re-traversing a stream from the start
   rebuilds a fresh dedup table inside the outer thunk, so every
   traversal yields the identical sequence. *)

(* Breadth-first levels of the refinement dag, as a lazy sequence,
   duplicates included.  Unlike the old eager closure this expands the
   children of duplicate frontier entries too — [children] is a pure
   function of the candidate, so those children are themselves
   duplicates of ones generated earlier in the level and the {e
   deduplicated} sequence is unchanged; levels still empty out because
   only swizzle-free candidates have children and no child is
   swizzle-free. *)
let rec bfs_levels sp frontier =
  fun () ->
    match frontier with
    | [] -> Seq.Nil
    | _ ->
      Seq.append
        (List.to_seq frontier)
        (fun () -> bfs_levels sp (List.concat_map (children sp) frontier) ())
        ()

(* Ordered factorizations of [n] into exactly [k] factors, all > 1
   (level-major: the head is the outermost tile extent). *)
let rec factorizations n k =
  if k <= 1 then if n > 1 then [ [ n ] ] else []
  else
    List.concat_map
      (fun (d, rest) ->
        List.map (fun f -> d :: f) (factorizations rest (k - 1)))
      (divisor_pairs n)

(* Three-level tilings: [TileOrderBy(P1, P2, P3)] over every ordered
   3-factorization of each extent and every sigma triple — the deep
   hierarchy axis of the scale space. *)
let deep_tilings sp =
  let sigmas = L.Sigma.all 2 in
  List.concat_map
    (fun rf ->
      List.concat_map
        (fun cf ->
          let levels = List.combine rf cf in
          List.concat_map
            (fun s1 ->
              List.concat_map
                (fun s2 ->
                  List.map
                    (fun s3 ->
                      view2 sp
                        (L.Sugar.tile_order_by
                           (List.map2
                              (fun (r, c) s -> L.Piece.reg ~dims:[ r; c ] ~sigma:s)
                              levels [ s1; s2; s3 ])))
                    sigmas)
                sigmas)
            sigmas)
        (factorizations sp.cols 3))
    (factorizations sp.rows 3)

(* Vectorization-width tilings: one dimension split off as a contiguous
   innermost vector ([1; v] along columns, [w; 1] along rows) under each
   outer sigma — the register/LDGSTS-width axis.  [tilings] never emits
   these (it requires both extents of a level to be non-trivial). *)
let vector_tilings sp =
  let sigmas = L.Sigma.all 2 in
  let id2 = L.Sigma.identity 2 in
  let widths n = List.map fst (divisor_pairs n) in
  List.concat_map
    (fun v ->
      List.map
        (fun so ->
          view2 sp
            (L.Sugar.tile_order_by
               [
                 L.Piece.reg ~dims:[ sp.rows; sp.cols / v ] ~sigma:so;
                 L.Piece.reg ~dims:[ 1; v ] ~sigma:id2;
               ]))
        sigmas)
    (widths sp.cols)
  @ List.concat_map
      (fun w ->
        List.map
          (fun so ->
            view2 sp
              (L.Sugar.tile_order_by
                 [
                   L.Piece.reg ~dims:[ sp.rows / w; sp.cols ] ~sigma:so;
                   L.Piece.reg ~dims:[ w; 1 ] ~sigma:id2;
                 ]))
          sigmas)
      (widths sp.rows)

(* The scale product axes: every swizzle-free base (sigma roots,
   two-level, three-level and vectorization tilings) crossed with the
   {e full} masked-swizzle grid (every mask >= 1, every shift — not the
   sample [swizzles] takes).  Mask 0 is excluded: it prepends a stage
   that is the identity map under a new name, a structural near-duplicate
   with no cost signal.

   Each axis is a [(base, fresh, pairs)] triple: emit [base] itself when
   [fresh], then [base] under every swizzle of [pairs].  The axes never
   collide with one another — the bases are pairwise distinct and differ
   in their first chain entry from every swizzled candidate — so the
   only overlap with the rest of the stream is what the sampled dag
   already holds: the sigma roots and two-level tilings (the dag's
   swizzle-free bases) and their [swizzle_pairs] children.  Those bases
   are not [fresh] and drop the dag's pairs from their grid; the
   three-level and vectorization bases keep everything.  {!stream} and
   {!count} both read this one list, so the structure of the axes lives
   here alone. *)
let scale_axes sp =
  if not sp.scale then []
  else begin
    let grid =
      shuffle sp ~tag:"scale-grid"
        (List.filter (fun (mask, _) -> mask > 0) (swizzle_family sp))
    in
    let sampled = swizzle_pairs sp in
    let unsampled = List.filter (fun p -> not (List.mem p sampled)) grid in
    shuffle sp ~tag:"scale-bases"
      (List.map (fun g -> (g, false, unsampled)) (sigma_roots sp @ tilings sp)
      @ List.map (fun g -> (g, true, grid)) (deep_tilings sp @ vector_tilings sp))
  end

(* Digest-keyed deduplication of the dag.  The table lives inside the
   outermost thunk: each traversal-from-the-start gets a fresh table (so
   streams are re-traversable), while a partially consumed tail
   continues with the table its traversal built.  Keys are
   {!Fingerprint.digest} — 16 bytes per distinct dag candidate. *)
let dedup seq =
  fun () ->
    let seen = Hashtbl.create 1024 in
    let rec go s () =
      match s () with
      | Seq.Nil -> Seq.Nil
      | Seq.Cons (g, tl) ->
        let d = Fingerprint.digest g in
        if Hashtbl.mem seen d then go tl ()
        else begin
          Hashtbl.add seen d ();
          Seq.Cons (g, go tl)
        end
    in
    go seq ()

let dag sp = dedup (bfs_levels sp (roots sp))

let stream sp =
  Seq.append (dag sp)
    (Seq.concat_map
       (fun (base, fresh, pairs) ->
         let swizzled = Seq.map (prepend_swizzle sp base) (List.to_seq pairs) in
         if fresh then Seq.cons base swizzled else swizzled)
       (fun () -> List.to_seq (scale_axes sp) ()))

let count sp =
  List.fold_left
    (fun n (_, fresh, pairs) -> n + Bool.to_int fresh + List.length pairs)
    (Seq.length (dag sp)) (scale_axes sp)
