(* The [tune-scale] workload: budget-capped prefixes of the matmul
   [--scale] candidate stream — the only path through the space's
   product axes, the top-K funnel, the [decomposed_ops] surrogate and
   the sampled-sim rung.  The timed searches run on one domain: at -j2
   on a 2-vCPU host the same seed's search took anywhere from 2.8 s to
   5.3 s and was slower than -j1 on average, while -j1 stays within
   about 8%; the traced run reports the -j nproc / -j1 ratio of the
   static pass as [exec.scaling].  Each search draws its own
   space-enumeration seed from the workload seed, so it scores a
   different shuffled prefix.  Its wall time includes the post-search
   count traversal.  Process-wide memos are warm (one untimed search
   runs first). *)

open Common
module T = Lego_tune

let budget = 4000
let jobs = 1

let options ~seed =
  { T.Tune.default_options with T.Tune.scale = true; budget; seed }

let run (st : settings) (r : result) =
  let build () =
    let slot = Tune_wl.make_slot ~device:"a100" "matmul" in
    Tune_wl.force_baselines slot;
    slot
  in
  let setups = Array.init 9 (fun _ -> snd (time build)) in
  set r "setup_s" (median setups);
  set r "gpusim.baseline_s" (median setups);
  let slot = build () in
  let rng = rng st.seed "tune-scale" in
  (* Memos warm, as in the tune workload: one untimed search first. *)
  let warm_s =
    snd
      (time (fun () ->
           Tune_wl.search ~jobs
             ~options:(options ~seed:(1 + Random.State.int rng 1_000_000))
             slot))
  in
  note r "tune-scale.warmup_search_s" (Printf.sprintf "%.3f" warm_s);
  let lat = ref [] and lat_plain = ref [] and lat_traced = ref [] in
  let explored = ref 0 and measured = ref 0. and op = ref 0 in
  let traced_wall = ref 0. in
  let facts = Tune_wl.new_facts () in
  let results = ref [] in
  (* A search is about 3.5 s, most of it the count traversal; at least
     five, so the median and the tail are taken over a few samples. *)
  while !op < max 5 (work st 0.5) do
    incr op;
    let seed = 1 + Random.State.int rng 1_000_000 in
    let opts = options ~seed in
    let traced = st.trace && !op mod 2 = 1 in
    Trace.on := traced;
    let t0 = now () in
    let res, cache =
      Trace.operation !op "search" (fun () ->
          Trace.span "tune" "search" (fun () ->
              Tune_wl.search ~jobs ~options:opts slot))
    in
    let dt = now () -. t0 in
    Trace.on := false;
    r.attempted <- r.attempted + 1;
    measured := !measured +. dt;
    explored := !explored + res.T.Tune.explored;
    lat := dt :: !lat;
    if traced then begin
      traced_wall := !traced_wall +. dt;
      lat_traced := dt :: !lat_traced;
      Tune_wl.add_facts facts res cache
    end
    else lat_plain := dt :: !lat_plain;
    (* Check: the winner is conflict-free in simulation and passed the
       conformance check. *)
    let label = Printf.sprintf "tune-scale seed %d" seed in
    let cf =
      T.Slot.sim_conflict_free ~device:slot.T.Slot.device
        (Option.get res.T.Tune.winner.T.Tune.sim)
    in
    if not cf then problem r (label ^ ": winner is not conflict-free");
    Tune_wl.check_search r ~label res;
    if not (cf && T.Tune.conform_ok res = Some true) then r.failed <- r.failed + 1;
    results := (opts, res) :: !results
  done;
  let lat = Array.of_list !lat in
  set r "ops_per_s" (float !explored /. !measured);
  set r "p50_ms" (median lat *. 1e3);
  set r "tail_ms" (percentile 1.0 lat *. 1e3);
  note r "tune-scale.tail" (Printf.sprintf "max over %d searches" (Array.length lat));
  let results = List.rev !results in
  set r "quality_x"
    (geomean
       (Array.of_list
          (List.map
             (fun (_, res) -> Tune_wl.baseline_time res /. Tune_wl.winner_time res)
             results)));
  Tune_wl.winner_code r (Tune_wl.finalists results);
  set r "peak_heap_mb" (top_heap_mb ());
  if st.trace then begin
    Tune_wl.set_facts r facts;
    set r "trace.overhead_pct"
      ((median (Array.of_list !lat_traced) /. median (Array.of_list !lat_plain) -. 1.)
      *. 100.);
    Trace_report.layers st r ~wall:!traced_wall [];
    let opts, res = List.hd results in
    Tune_wl.layer_extras ~options:opts r [ (slot, res) ];
    (* -j nproc over -j1 for the static pass of the same search. *)
    let static jobs =
      let res, _ = Tune_wl.search ~jobs ~options:opts slot in
      float res.T.Tune.explored /. res.T.Tune.static_seconds
    in
    set r "exec.scaling" (static st.jobs /. static 1)
  end
