(* Shared plumbing: run settings, samples and percentiles, metric
   collection and the result line. *)

type settings = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (* -j nproc, capped at 2 domains per process pair *)
}

let nproc () = max 1 (Domain.recommended_domain_count ())

(* Scratch space lives inside the checkout. *)
let work_dir = ".perfbench_out"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let fresh_dir tag =
  ensure_dir work_dir;
  Filename.temp_dir ~temp_dir:work_dir tag ""

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let now = Unix.gettimeofday

(* [--seconds] sets the amount of work of a run, not a deadline: each
   workload does [rate] units per second of [--seconds], sized so a run
   measures about that long on the reference host.  So the same seed and
   length give the same inputs on every commit, however fast it is. *)
let work (st : settings) rate = max 1 (int_of_float (Float.round (st.seconds *. rate)))

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* Samples and percentiles (nearest rank on the sorted samples). *)

let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p *. float n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile 0.5 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float n

let geomean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else exp (Array.fold_left (fun a x -> a +. log x) 0. xs /. float n)

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float st.Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6

(* Metrics in emission order: (name, value, unit). *)
type metrics = (string * float * string) list ref

let add (m : metrics) name unit value = m := (name, value, unit) :: !m

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines on stdout, then the result object as the last
   line. *)
let emit ~correct ~attempted ~failed (m : metrics) =
  let ms = List.rev !m in
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-34s %16.6g %s\n" n v u)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* The end-to-end metrics (reported with tracing off) and the per-layer
   metrics (traced run), as listed in BENCHMARK.json.  Every run reports
   every metric of its set; a per-layer metric whose layer the workload
   leaves idle reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("peak_heap_mb", "MB");
    ("code_bytes", "bytes");
    ("index_ops", "ops");
    ("quality_x", "x");
  ]

let per_layer =
  [
    ("lang.parse_us", "us");
    ("lang.elab_us", "us");
    ("symbolic.apply_us", "us");
    ("symbolic.simplify_us", "us");
    ("symbolic.inv_us", "us");
    ("symbolic.ops_raw", "ops");
    ("symbolic.ops_simplified", "ops");
    ("symbolic.rule_apps", "count");
    ("symbolic.prover_queries", "count");
    ("symbolic.prover_proved_ratio", "ratio");
    ("symbolic.range_hit_ratio", "ratio");
    ("symbolic.intern_hit_ratio", "ratio");
    ("symbolic.simplify_memo_hit_ratio", "ratio");
    ("codegen.c_us", "us");
    ("codegen.triton_us", "us");
    ("codegen.mlir_us", "us");
    ("codegen.mlir_from_expr_us", "us");
    ("codegen.c_bytes", "bytes");
    ("codegen.triton_bytes", "bytes");
    ("codegen.mlir_bytes", "bytes");
    ("codegen.over_budget", "count");
    ("tune.fingerprint_us", "us");
    ("tune.explored", "count");
    ("tune.static_s", "s");
    ("tune.static_us_per_cand", "us");
    ("tune.space_s", "s");
    ("tune.count_s", "s");
    ("tune.sampled_sims", "count");
    ("tune.full_sims", "count");
    ("tune.sim_s", "s");
    ("tune.cache_hit_ratio", "ratio");
    ("gpusim.full_sim_us", "us");
    ("gpusim.sampled_sim_us", "us");
    ("gpusim.baseline_s", "s");
    ("conform.winner_ms", "ms");
    ("conform.check_ms", "ms");
    ("exec.scaling", "x");
    ("serve.encode_us", "us");
    ("serve.decode_us", "us");
    ("serve.handle_ms", "ms");
    ("serve.wire_ms", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.store_entries", "count");
    ("serve.store_bytes", "bytes");
    ("serve.response_bytes", "bytes");
    ("serve.open_s", "s");
    ("trace.overhead_pct", "%");
    ("trace.reconcile_ratio", "ratio");
    ("trace.glue_pct", "%");
    ("trace.spans", "count");
    ("fail_rate", "ratio");
  ]

(* What a workload measured: end-to-end and per-layer values by name. *)
type result = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  values : (string, float) Hashtbl.t;
  notes : (string * string) list ref;  (* human-readable extras *)
}

let new_result () =
  {
    correct = true;
    attempted = 0;
    failed = 0;
    problems = [];
    values = Hashtbl.create 64;
    notes = ref [];
  }

let set r name v = Hashtbl.replace r.values name v
let note r k v = r.notes := (k, v) :: !(r.notes)

let problem r msg =
  r.correct <- false;
  r.problems <- msg :: r.problems

(* The metrics of the set [trace] selects, in BENCHMARK.json order;
   unmeasured per-layer values read 0, unmeasured end-to-end values are
   a harness bug. *)
let select r ~trace =
  let m = ref [] in
  let names = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, unit) ->
      let v =
        match Hashtbl.find_opt r.values name with
        | Some v when Float.is_finite v -> v
        | Some _ | None ->
          if trace then 0.
          else begin
            problem r (Printf.sprintf "end-to-end metric %s not measured" name);
            0.
          end
      in
      add m name unit v)
    names;
  m
