(* The [tune] workload: a default-option [Tune.search] (conformance
   check on, one domain) for each of matmul, transpose and nw on each of
   a100, h100 and rtx4090 — nine searches per sweep, in a seeded order.
   Process-wide memos (compiled closures, fast-path summaries, symbolic
   caches) are warm: one untimed sweep runs first.  Every search gets a
   fresh tune cache, as a [legoc tune] run or a serve tune miss does. *)

open Common
module T = Lego_tune

let slots = [ "matmul"; "transpose"; "nw" ]
let devices = [ "a100"; "h100"; "rtx4090" ]

let make_slot ~device name =
  match T.Slot.find ~device:(Option.get (Lego_gpusim.Device.find device)) name with
  | Some s -> s
  | None -> failwith ("unknown slot " ^ name)

let force_baselines (s : T.Slot.t) =
  List.iter (fun (_, l) -> ignore (Lazy.force l)) s.T.Slot.baselines

(* The slot's row-major reference time: the baseline a winner is
   measured against. *)
let baseline_time (r : T.Tune.result) =
  match
    List.find_opt
      (fun (n, _) -> String.length n >= 9 && String.sub n 0 9 = "row-major")
      r.T.Tune.baselines
  with
  | Some (_, sim) -> sim.T.Slot.time_s
  | None -> nan

let winner_time (r : T.Tune.result) =
  (Option.get r.T.Tune.winner.T.Tune.sim).T.Slot.time_s

let search ?(jobs = 1) ?(options = T.Tune.default_options) slot =
  let cache = T.Cache.create () in
  let r = T.Tune.search ~options:{ options with T.Tune.jobs } ~cache slot in
  (r, cache)

(* Every fully simulated finalist of the searches: the layouts whose
   code quality the tuner's choice ranges over. *)
let finalists results =
  List.concat_map
    (fun (_, (res : T.Tune.result)) ->
      List.map (fun (sc : T.Tune.scored) -> sc.T.Tune.layout) res.T.Tune.ranking)
    results

(* Code size and index-operation count of tuned layouts, compiled
   through the same pipeline as the [compile] workload. *)
let winner_code r (layouts : Lego_layout.Group_by.t list) =
  let bytes = ref [] and ops = ref [] in
  List.iter
    (fun g ->
      let notation = Format.asprintf "%a" Lego_layout.Group_by.pp g in
      match Compile_wl.compile notation with
      | o ->
        bytes := float (Compile_wl.code_bytes o) :: !bytes;
        ops := float (max 1 (Compile_wl.index_ops o.Compile_wl.front)) :: !ops
      | exception e ->
        problem r
          (Printf.sprintf "winner %s does not compile: %s" notation
             (Printexc.to_string e)))
    layouts;
  set r "code_bytes" (geomean (Array.of_list !bytes));
  set r "index_ops" (geomean (Array.of_list !ops))

(* Sweeps per second of [--seconds]; a sweep is about two seconds, and
   the extra sweeps steady the tail. *)
let sweeps_per_second = 0.8

(* The tail percentile: a 10 s run makes 72 searches, so p75 leaves 18
   beyond it (p90 would need a hundred searches). *)
let tail_p = 0.75

(* Per-search facts shared with the [tune-scale] workload. *)
type facts = {
  mutable n : int;
  mutable explored : int;
  mutable static_s : float;
  mutable sim_s : float;
  mutable sampled : int;
  mutable full : int;
  mutable hits : int;
  mutable lookups : int;
}

let new_facts () =
  { n = 0; explored = 0; static_s = 0.; sim_s = 0.; sampled = 0; full = 0;
    hits = 0; lookups = 0 }

let add_facts f (res : T.Tune.result) cache =
  f.n <- f.n + 1;
  f.explored <- f.explored + res.T.Tune.explored;
  f.static_s <- f.static_s +. res.T.Tune.static_seconds;
  f.sim_s <- f.sim_s +. res.T.Tune.sim_seconds;
  f.sampled <- f.sampled + res.T.Tune.sampled_scored;
  f.full <- f.full + List.length res.T.Tune.ranking;
  f.hits <- f.hits + T.Cache.hits cache;
  f.lookups <- f.lookups + T.Cache.hits cache + T.Cache.misses cache

let set_facts r f =
  let n = float (max 1 f.n) in
  set r "tune.explored" (float f.explored /. n);
  set r "tune.static_s" (f.static_s /. n);
  set r "tune.static_us_per_cand" (f.static_s /. float (max 1 f.explored) *. 1e6);
  set r "tune.sim_s" (f.sim_s /. n);
  set r "tune.sampled_sims" (float f.sampled /. n);
  set r "tune.full_sims" (float f.full /. n);
  set r "tune.cache_hit_ratio"
    (if f.lookups = 0 then 0. else float f.hits /. float f.lookups)

(* Median wall time of [k] calls of [f]. *)
let median_time k f = median (Array.init k (fun _ -> snd (time f)))

(* The candidate space [Tune.search] builds for [slot]. *)
let space_of ?(options = T.Tune.default_options) (slot : T.Slot.t) =
  let elem_bytes =
    List.fold_left
      (fun acc -> function
        | T.Predict.Shared { elem_bytes; _ } -> max acc elem_bytes
        | T.Predict.Global _ -> acc)
      1 slot.T.Slot.phases
  in
  T.Space.make ~seed:options.T.Tune.seed ~classes:options.T.Tune.oracle
    ~composed:options.T.Tune.composed ~elem_bytes ~scale:options.T.Tune.scale
    ~rows:slot.T.Slot.rows ~cols:slot.T.Slot.cols ()

(* Layer timings measured by calling the layers directly on the
   searches' own inputs and outputs, outside the timed region: candidate
   generation for the explored prefix, a full count traversal, one full
   and one sampled simulation of the winner, and the winner's
   conformance check. *)
let layer_extras ?options r (pairs : (T.Slot.t * T.Tune.result) list) =
  let mean_over f = mean (Array.of_list (List.map f pairs)) in
  set r "tune.space_s"
    (mean_over (fun (slot, (res : T.Tune.result)) ->
         let sp = space_of ?options slot in
         snd (time (fun () -> Seq.iter ignore (Seq.take res.T.Tune.explored (T.Space.stream sp))))));
  set r "tune.count_s"
    (mean_over (fun (slot, _) ->
         let sp = space_of ?options slot in
         snd (time (fun () -> ignore (T.Space.count sp)))));
  set r "gpusim.full_sim_us"
    (mean_over (fun ((s : T.Slot.t), (res : T.Tune.result)) ->
         median_time 3 (fun () -> ignore (s.T.Slot.simulate ~fast:true res.T.Tune.winner.T.Tune.layout)))
    *. 1e6);
  let sampled =
    List.filter_map
      (fun ((s : T.Slot.t), (res : T.Tune.result)) ->
        Option.map
          (fun sim -> median_time 3 (fun () -> ignore (sim ~fast:true res.T.Tune.winner.T.Tune.layout)))
          s.T.Slot.simulate_sampled)
      pairs
  in
  if sampled <> [] then
    set r "gpusim.sampled_sim_us" (mean (Array.of_list sampled) *. 1e6);
  set r "conform.winner_ms"
    (mean_over (fun (_, (res : T.Tune.result)) ->
         snd
           (time (fun () ->
                ignore
                  (Lego_conform.Conform.check_layout
                     ~max_points:T.Tune.default_options.T.Tune.conform_points
                     res.T.Tune.winner.T.Tune.layout))))
    *. 1e3)

let check_search r ~label (res : T.Tune.result) =
  match T.Tune.conform_ok res with
  | Some true -> ()
  | Some false -> problem r (label ^ ": winner failed the conformance check")
  | None -> problem r (label ^ ": conformance check did not run")

let run (st : settings) (r : result) =
  let pairs = List.concat_map (fun d -> List.map (fun s -> (s, d)) slots) devices in
  (* Set-up: build the nine slots and simulate their baselines. *)
  let build () =
    List.map
      (fun (s, d) ->
        let slot = make_slot ~device:d s in
        force_baselines slot;
        ((s, d), slot))
      pairs
  in
  let setups = Array.init 9 (fun _ -> snd (time build)) in
  set r "setup_s" (median setups);
  set r "gpusim.baseline_s" (median setups /. float (List.length pairs));
  let built = build () in
  let warm_s =
    snd (time (fun () -> List.iter (fun (_, slot) -> ignore (search slot)) built))
  in
  note r "tune.warmup_sweep_s" (Printf.sprintf "%.3f" warm_s);
  let rng = rng st.seed "tune-order" in
  let lat = ref [] and lat_plain = ref [] and lat_traced = ref [] in
  let measured = ref 0. and op = ref 0 and traced_wall = ref 0. in
  let facts = new_facts () in
  let last = Hashtbl.create 9 and by_pair = Hashtbl.create 9 in
  for _ = 1 to work st sweeps_per_second do
    let order = Array.of_list built in
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter
      (fun ((s, d), slot) ->
        incr op;
        let traced = st.trace && !op mod 2 = 1 in
        Trace.on := traced;
        let t0 = now () in
        let res, cache =
          Trace.operation !op "search" (fun () ->
              Trace.span "tune" "search" (fun () -> search slot))
        in
        let dt = now () -. t0 in
        Trace.on := false;
        r.attempted <- r.attempted + 1;
        measured := !measured +. dt;
        lat := dt :: !lat;
        Hashtbl.replace by_pair (s, d)
          (dt :: Option.value ~default:[] (Hashtbl.find_opt by_pair (s, d)));
        if traced then begin
          traced_wall := !traced_wall +. dt;
          lat_traced := dt :: !lat_traced;
          add_facts facts res cache
        end
        else lat_plain := dt :: !lat_plain;
        (* Checks: the winner and its simulated time equal the recorded
           expectation, and the conformance check passed. *)
        let label = Printf.sprintf "tune %s@%s" s d in
        let fp = res.T.Tune.winner.T.Tune.fingerprint and time_s = winner_time res in
        let ok_expect =
          match List.assoc_opt (s, d) Expect.tune with
          | Some (efp, et) ->
            efp = fp && Float.abs (time_s -. et) <= 1e-9 *. Float.abs et
          | None -> false
        in
        let ok_conform = T.Tune.conform_ok res = Some true in
        if not ok_expect then
          problem r (Printf.sprintf "%s: winner %s at %.17g s, expected %s" label fp time_s
                       (match List.assoc_opt (s, d) Expect.tune with
                        | Some (efp, et) -> Printf.sprintf "%s at %.17g s" efp et
                        | None -> "no record"));
        check_search r ~label res;
        if not (ok_expect && ok_conform) then r.failed <- r.failed + 1;
        Hashtbl.replace last (s, d) (slot, res))
      order
  done;
  let lat = Array.of_list !lat in
  set r "ops_per_s" (float (Array.length lat) /. !measured);
  (* The typical search: geomean over the nine pairs of each pair's
     median search time.  The median of the mixed searches falls
     between two pairs' clusters and jumped by a fifth from run to
     run. *)
  set r "p50_ms"
    (geomean
       (Array.of_seq (Seq.map (fun l -> median (Array.of_list l)) (Hashtbl.to_seq_values by_pair)))
    *. 1e3);
  set r "tail_ms" (percentile tail_p lat *. 1e3);
  note r "tune.tail" (Printf.sprintf "p%.0f over %d searches" (tail_p *. 100.) (Array.length lat));
  let results = List.map (fun (sd, _) -> Hashtbl.find last sd) built in
  set r "quality_x"
    (geomean
       (Array.of_list
          (List.map (fun (_, res) -> baseline_time res /. winner_time res) results)));
  winner_code r (finalists results);
  set r "peak_heap_mb" (top_heap_mb ());
  if st.trace then begin
    set_facts r facts;
    set r "trace.overhead_pct"
      ((median (Array.of_list !lat_traced) /. median (Array.of_list !lat_plain) -. 1.)
      *. 100.);
    Trace_report.layers st r ~wall:!traced_wall [];
    layer_extras r results;
    (* -j nproc over -j1 for the nw search (median of three each). *)
    let nw = List.assoc ("nw", "a100") built in
    let t1 = median_time 3 (fun () -> ignore (search ~jobs:1 nw)) in
    let tn = median_time 3 (fun () -> ignore (search ~jobs:st.jobs nw)) in
    set r "exec.scaling" (t1 /. tn)
  end
