module L = Lego_layout
module Exec = Lego_exec.Exec

type options = {
  budget : int;
  top : int;
  sample : int;
  seed : int;
  jobs : int;
  conform : bool;
  conform_points : int;
  oracle : bool;
  composed : bool;
  scale : bool;
}

let default_options =
  {
    budget = 256;
    top = 8;
    sample = 0;
    seed = 0;
    jobs = 1;
    conform = true;
    conform_points = 2048;
    oracle = false;
    composed = false;
    scale = false;
  }

type scored = {
  layout : L.Group_by.t;
  fingerprint : string;
  static_score : Predict.score;
  sim : Slot.sim option;
}

type result = {
  slot : Slot.t;
  winner : scored;
  ranking : scored list;
  explored : int;
  space_size : int;
  exhaustive : bool;
  oracle_scored : int;
  sampled_scored : int;
  sim_scored : int;
  static_seconds : float;
  sim_seconds : float;
  candidates_per_s : float;
  conform : Lego_conform.Conform.outcome option;
  baselines : (string * Slot.sim) list;
}

let rec take_prefix n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take_prefix (n - 1) xs

(* Pull up to [n] elements off a sequence; returns them in order, the
   rest of the sequence, and whether the sequence ended inside the
   pull.  Each node of {!Space.stream} is forced exactly once across
   the whole search — the dedup state threads through the returned
   tail. *)
let take_seq n seq =
  let rec go n s acc =
    if n <= 0 then (List.rev acc, s, false)
    else
      match s () with
      | Seq.Nil -> (List.rev acc, Seq.empty, true)
      | Seq.Cons (x, tl) -> go (n - 1) tl (x :: acc)
  in
  go n seq []

let cmp_static a b =
  Predict.compare_ranked (a.static_score, a.fingerprint)
    (b.static_score, b.fingerprint)

(* Simulated order: roofline time first; among roofline ties (the time
   model saturates on whichever resource bounds the kernel) prefer
   fewer simulated bank cycles, then the static order — ending, as
   always, at the fingerprint, so the order is total. *)
let cmp_sim (a, sa) (b, sb) =
  let c = compare sa.Slot.time_s sb.Slot.time_s in
  if c <> 0 then c
  else
    let c = compare sa.Slot.s_cycles sb.Slot.s_cycles in
    if c <> 0 then c else cmp_static a b

(* The search is deterministic at any [jobs] by construction:

   - candidate generation is a pure function of [(shape, seed, scale)]
     ({!Space}'s contract), and the stream arrives pre-deduplicated;
   - every parallel step is an {!Exec.map}, whose submission-order merge
     returns exactly the sequential result;
   - every {e decision} (budget truncation, top-K retention, rung
     promotion, final ranking) happens sequentially in this driver,
     over totally ordered keys ({!Predict.compare_ranked}, and
     [(time_s, s_cycles, static, fingerprint)] for the sim rungs) — the
     chunk size only groups work, never reorders it, and the top-K
     retained set is order-independent under a total comparator;
   - the {!Cache} is read inside parallel sections (pure [find]) and
     written only between them, and every reported counter tallies the
     funnel's structure (rung sizes, linearity verdicts), not cache
     traffic — so a warm cache changes wall-clock only.

   Only the [*_seconds] / [candidates_per_s] timings may vary. *)
let search ?(options = default_options) ?cache (slot : Slot.t) =
  if options.budget < 1 then invalid_arg "Tune.search: budget must be >= 1";
  if options.top < 1 then invalid_arg "Tune.search: top must be >= 1";
  if options.sample < 0 then invalid_arg "Tune.search: sample must be >= 0";
  let cache =
    match cache with Some c -> c | None -> Cache.create ~max_entries:0 ()
  in
  (* Cache keys carry the full slot identity (name, device preset, smem
     dtype): scores and sims depend on the device model and element
     width, so "matmul" tuned under a100 must never satisfy a lookup
     for the same layout under h100. *)
  let cache_slot = Slot.identity slot in
  (* Oracle mode also switches the space to F₂ class enumeration; the
     class key must use the widest shared element among the slot's
     phases (sub-word key bits for that element width are cost-inert
     for every narrower one too, so the partition stays sound). *)
  let elem_bytes =
    List.fold_left
      (fun acc phase ->
        match phase with
        | Predict.Shared { elem_bytes; _ } -> max acc elem_bytes
        | Predict.Global _ -> acc)
      1 slot.phases
  in
  let sp =
    Space.make ~seed:options.seed ~classes:options.oracle
      ~composed:options.composed ~elem_bytes ~scale:options.scale
      ~rows:slot.rows ~cols:slot.cols ()
  in
  (* Successive-halving geometry: the sampled rung is [sample] wide when
     requested, 4 x [top] by default in scale mode (so the full-sim rung
     sees a 4:1 halving), and absent otherwise — which reproduces the
     pre-funnel two-stage search exactly. *)
  let sample_eff =
    if options.sample > 0 then options.sample
    else if options.scale then 4 * options.top
    else 0
  in
  let use_sampled = slot.simulate_sampled <> None && sample_eff > options.top in
  let heap_cap = if use_sampled then max options.top sample_eff else options.top in
  (* Caching policy: static scores are cached only on non-scale spaces
     (small, revisited by re-tuning); at mega-space scale per-candidate
     static entries would blow the memory bound for near-zero hit rate.
     Sim results (both rungs) are always cached — there are at most
     [heap_cap] per search and they dominate re-tuning cost. *)
  let cache_static = not options.scale in
  Exec.with_pool ~jobs:(max 1 options.jobs) @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  (* Stage one: stream the space through the static predictor in
     chunks, retaining only the best [heap_cap] candidates (plus
     counters).  Memory is O(heap_cap) + the stream's dedup set, which
     covers only the sampled dag, whatever the space size. *)
  let chunk_len =
    max 64 (min 8192 (options.budget / (4 * max 1 options.jobs)))
  in
  let heap = Topk.create ~cap:heap_cap ~cmp:cmp_static in
  let explored = ref 0
  and oracle_scored = ref 0
  and hits = ref 0
  and drained = ref false in
  let stream = ref (Space.stream sp) in
  let score_candidate g =
    let fp = Fingerprint.of_layout g in
    let dg = Digest.string fp in
    match Cache.find cache ~slot:cache_slot ~fp_digest:dg with
    | Some ({ static_ = Some s; linear; _ } : Cache.entry)
      when (not options.oracle) || linear <> None ->
      (fp, dg, s, options.oracle && linear = Some true, true)
    | _ ->
      (* [memoize:false] at scale: the per-domain compiled/linear memo
         tables would grow with the stream while the stream never
         revisits a fingerprint.  [decomposed_ops] at scale: candidates
         share chain stages heavily, so the symbolic op count becomes a
         per-stage table hit instead of the dominant per-candidate
         cost. *)
      let memoize = not options.scale in
      let ops = if options.scale then Some (Predict.decomposed_ops g) else None
      in
      let s =
        Predict.score ~device:slot.device ~oracle:options.oracle ~memoize ?ops
          g slot.phases
      in
      let lin = options.oracle && Predict.linear_of ~memoize g <> None in
      (fp, dg, s, lin, false)
  in
  while (not !drained) && !explored < options.budget do
    let want = min chunk_len (options.budget - !explored) in
    let batch, rest, ended = take_seq want !stream in
    stream := rest;
    if ended then drained := true;
    if batch <> [] then begin
      let arr = Array.of_list batch in
      let scoresd = Exec.map ~pool arr score_candidate in
      (* Sequential merge: tallies, top-K retention, cache writes. *)
      Array.iteri
        (fun i (fp, dg, s, lin, hit) ->
          if lin then incr oracle_scored;
          if hit then incr hits
          else if cache_static then begin
            let e = Cache.ensure cache ~slot:cache_slot ~fp_digest:dg in
            e.Cache.static_ <- Some s;
            if options.oracle then e.Cache.linear <- Some lin
          end;
          Topk.add heap
            { layout = arr.(i); fingerprint = fp; static_score = s; sim = None })
        scoresd;
      explored := !explored + Array.length scoresd
    end
  done;
  Cache.note_hits cache !hits;
  Cache.note_misses cache (!explored - !hits);
  (* Peek once past the budget so [exhaustive] reflects the space, not
     the budget, when the budget lands exactly on the last candidate. *)
  if not !drained then begin
    match !stream () with
    | Seq.Nil -> drained := true
    | Seq.Cons _ -> ()
  end;
  let static_seconds = Unix.gettimeofday () -. t0 in
  let explored = !explored in
  (* Sim rung helper: look up the cached sim for [sc] under [field],
     simulate on a miss (in parallel, chunk 1 — few expensive tasks),
     write back, and pair each candidate with its sim. *)
  let run_rung ~get ~set ~simulate cands =
    let arr = Array.of_list cands in
    let digests =
      Array.map (fun sc -> Digest.string sc.fingerprint) arr
    in
    let sims =
      Exec.map ~chunk:1 ~pool
        (Array.mapi (fun i sc -> (sc, digests.(i))) arr)
        (fun (sc, dg) ->
          match Cache.find cache ~slot:cache_slot ~fp_digest:dg with
          | Some e when get e <> None -> (Option.get (get e), true)
          | _ -> (simulate ~fast:true sc.layout, false))
    in
    let hits = ref 0 in
    Array.iteri
      (fun i (sim, hit) ->
        if hit then incr hits
        else begin
          let e = Cache.ensure cache ~slot:cache_slot ~fp_digest:digests.(i) in
          set e sim
        end)
      sims;
    Cache.note_hits cache !hits;
    Cache.note_misses cache (Array.length arr - !hits);
    List.mapi (fun i sc -> (sc, fst sims.(i))) cands
  in
  let t1 = Unix.gettimeofday () in
  (* Middle rung: sampled simulation of every heap survivor, promoting
     the best [top] to full simulation. *)
  let promoted = Topk.sorted heap in
  let sampled_scored, finalists =
    match slot.simulate_sampled with
    | Some simulate when use_sampled ->
      let ranked =
        List.sort cmp_sim
          (run_rung
             ~get:(fun e -> e.Cache.sampled)
             ~set:(fun e s -> e.Cache.sampled <- Some s)
             ~simulate promoted)
      in
      (List.length ranked, take_prefix options.top (List.map fst ranked))
    | _ -> (0, take_prefix options.top promoted)
  in
  (* Final rung: full simulation, ranked by roofline time. *)
  let ranking =
    List.sort
      (fun a b -> cmp_sim (a, Option.get a.sim) (b, Option.get b.sim))
      (List.map
         (fun (sc, sim) -> { sc with sim = Some sim })
         (run_rung
            ~get:(fun e -> e.Cache.full)
            ~set:(fun e s -> e.Cache.full <- Some s)
            ~simulate:slot.simulate finalists))
  in
  let sim_seconds = Unix.gettimeofday () -. t1 in
  let winner =
    match ranking with
    | w :: _ -> w
    | [] -> invalid_arg "Tune.search: empty candidate space"
  in
  (* Outside the timed sections: sizing a drained stream is free
     ([explored] covered it); otherwise [Space.count], which walks only
     the sampled dag and sizes the scale axes arithmetically. *)
  let space_size = if !drained then explored else Space.count sp in
  let conform =
    if options.conform then
      Some
        (Lego_conform.Conform.check_layout ~max_points:options.conform_points
           winner.layout)
    else None
  in
  let baselines = List.map (fun (n, s) -> (n, Lazy.force s)) slot.baselines in
  let wall = static_seconds +. sim_seconds in
  {
    slot;
    winner;
    ranking;
    explored;
    space_size;
    exhaustive = !drained;
    oracle_scored = !oracle_scored;
    sampled_scored;
    (* Candidates whose score involved address-level simulation: stage
       one's non-oracle evaluations plus both sim rungs.  The headline
       economy of the F₂ path — [sim_scored] drops by the number of
       candidates the closed form absorbed (and the class space shrinks
       [explored] itself).  Counts rung membership, not sim calls, so a
       warm {!Cache} cannot change it. *)
    sim_scored =
      explored - !oracle_scored + sampled_scored + List.length ranking;
    static_seconds;
    sim_seconds;
    candidates_per_s = (if wall > 0.0 then float_of_int explored /. wall else 0.0);
    conform;
    baselines;
  }

let conform_ok r =
  match r.conform with
  | None -> None
  | Some o -> Some (o.Lego_conform.Conform.mismatch = None)

let pp_scored ppf sc =
  Format.fprintf ppf "@[<v 2>%s@,static: %a" sc.fingerprint Predict.pp
    sc.static_score;
  (match sc.sim with
  | Some s ->
    Format.fprintf ppf "@,simulated: %.3f us (smem %.0f cycles / %.0f accesses)"
      (s.Slot.time_s *. 1e6) s.Slot.s_cycles s.Slot.s_accesses
  | None -> ());
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>slot %s: %s@," r.slot.Slot.name r.slot.Slot.descr;
  Format.fprintf ppf
    "explored %d of %d candidates (%s), simulated %d, %.0f cand/s@," r.explored
    r.space_size
    (if r.exhaustive then "exhaustive" else "budget-truncated")
    (List.length r.ranking) r.candidates_per_s;
  if r.sampled_scored > 0 then
    Format.fprintf ppf "funnel: %d streamed -> %d sampled -> %d simulated@,"
      r.explored r.sampled_scored (List.length r.ranking);
  if r.oracle_scored > 0 then
    Format.fprintf ppf "oracle: %d closed-form, %d address-level@,"
      r.oracle_scored r.sim_scored;
  List.iter
    (fun (n, s) ->
      Format.fprintf ppf "baseline %-14s %.3f us@," n (s.Slot.time_s *. 1e6))
    r.baselines;
  Format.fprintf ppf "winner: %a@," pp_scored r.winner;
  (match r.conform with
  | Some { mismatch = None; points; c_checked; _ } ->
    Format.fprintf ppf "conformance: ok (%d points%s)@," points
      (if c_checked then "" else ", C path skipped")
  | Some { mismatch = Some m; _ } ->
    Format.fprintf ppf "conformance: MISMATCH at %s: %s@,"
      m.Lego_conform.Conform.stage m.Lego_conform.Conform.detail
  | None -> ());
  Format.fprintf ppf "@]"
