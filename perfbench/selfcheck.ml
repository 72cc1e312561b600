(* The harness's own checks: seeded inputs are reproducible and
   seed-dependent, deterministic metrics do not depend on the run or on
   -j, and self time is right on a synthetic span tree. *)

open Common
module J = Lego_serve.Json
module T = Lego_tune

let failures = ref 0

let expect name ok =
  Printf.printf "%s  %s\n%!" (if ok then "PASS" else "FAIL") name;
  if not ok then incr failures

let compile_inputs seed =
  List.map (fun (i : Compile_wl.input) -> i.notation)
    (Compile_wl.take (Compile_wl.generator seed) 300)

let serve_script seed =
  let rng = rng seed "serve" in
  let next = Serve_wl.chain_stream seed in
  let heavy = (Serve_wl.heavies rng).(0) in
  let script = Serve_wl.epoch_script rng next ~heavy (Hashtbl.create 16) in
  List.map (fun b -> J.to_string (J.List (List.map fst b))) script

(* Geomeans of code bytes and index ops over [inputs], compiled on a
   pool of [jobs] domains. *)
let compile_metrics ~jobs inputs =
  let arr = Array.of_list inputs in
  let outs =
    Lego_exec.Exec.with_pool ~jobs (fun pool ->
        Lego_exec.Exec.map ~pool arr (fun s ->
            match Compile_wl.compile s with
            | o -> Some (Compile_wl.code_bytes o, Compile_wl.index_ops o.Compile_wl.front)
            | exception _ -> None))
  in
  let ok = List.filter_map Fun.id (Array.to_list outs) in
  ( geomean (Array.of_list (List.map (fun (b, _) -> float b) ok)),
    geomean (Array.of_list (List.map (fun (_, o) -> float (max 1 o)) ok)) )

let synthetic_spans () =
  (* root 0..10, children 1..4 and 5..9, grandchild 2..3 *)
  let mk id parent t0 t1 =
    { Trace.id; parent; op = 1; name = "n"; layer = Printf.sprintf "l%d" id; t0; t1 }
  in
  let ss = [ mk 1 0 0. 10.; mk 2 1 1. 4.; mk 3 2 2. 3.; mk 4 1 5. 9. ] in
  let self = List.map (fun ((s : Trace.span), t) -> (s.Trace.id, t)) (Trace.self_times ss) in
  List.assoc 1 self = 3. && List.assoc 2 self = 2. && List.assoc 3 self = 1.
  && List.assoc 4 self = 4.

(* A bench root of 10 s over layer spans covering [covered] seconds of
   it: reconciles only when the glue stays within the tolerance. *)
let synthetic_reconcile covered =
  let ss =
    [ { Trace.id = 1; parent = 0; op = 1; name = "op"; layer = "bench"; t0 = 0.; t1 = 10. };
      { Trace.id = 2; parent = 1; op = 1; name = "a"; layer = "l"; t0 = 0.; t1 = covered /. 2. };
      { Trace.id = 3; parent = 1; op = 1; name = "b"; layer = "l"; t0 = 5.; t1 = 5. +. (covered /. 2.) } ]
  in
  Trace_report.reconciles (fst (Trace_report.reconcile ~wall:10. ss))

let run (st : settings) =
  expect "self time on a synthetic span tree" (synthetic_spans ());
  expect "reconcile: 2% glue passes" (synthetic_reconcile 9.8);
  expect "reconcile: 20% glue fails" (not (synthetic_reconcile 8.));
  expect "compile inputs: same seed, byte-identical"
    (compile_inputs st.seed = compile_inputs st.seed);
  expect "compile inputs: another seed, different"
    (compile_inputs st.seed <> compile_inputs (st.seed + 1));
  expect "serve script: same seed, byte-identical" (serve_script st.seed = serve_script st.seed);
  expect "serve script: another seed, different"
    (serve_script st.seed <> serve_script (st.seed + 1));
  let gallery = Serve_wl.heavies (rng st.seed "serve") in
  expect "serve heavy gallery: distinct, past the light limit"
    (Array.for_all
       (fun (li : Serve_wl.layout_info) ->
         snd (Serve_wl.info li.notation) > Serve_wl.light_max)
       gallery
    && List.length (List.sort_uniq compare (Array.to_list gallery)) = Array.length gallery);
  let inputs = List.filteri (fun i _ -> i < 120) (compile_inputs st.seed) in
  let m1 = compile_metrics ~jobs:1 inputs in
  let m1' = compile_metrics ~jobs:1 inputs in
  let mn = compile_metrics ~jobs:st.jobs inputs in
  expect "code_bytes and index_ops: identical across runs" (m1 = m1');
  expect (Printf.sprintf "code_bytes and index_ops: identical at -j1 and -j%d" st.jobs) (m1 = mn);
  (* Tune winners and winner speedup at -j1 and -j nproc. *)
  let slot = Tune_wl.make_slot ~device:"a100" "matmul" in
  let quality jobs =
    let res, _ = Tune_wl.search ~jobs slot in
    (res.T.Tune.winner.T.Tune.fingerprint, Tune_wl.baseline_time res /. Tune_wl.winner_time res)
  in
  expect (Printf.sprintf "tune winner and speedup: identical at -j1 and -j%d" st.jobs)
    (quality 1 = quality st.jobs);
  let scale jobs =
    let options = { (Scale_wl.options ~seed:7) with T.Tune.budget = 1500 } in
    let res, _ = Tune_wl.search ~jobs ~options slot in
    (res.T.Tune.winner.T.Tune.fingerprint, res.T.Tune.explored, Tune_wl.winner_time res)
  in
  expect (Printf.sprintf "tune-scale winner: identical at -j1 and -j%d" st.jobs)
    (scale 1 = scale st.jobs);
  (* Serve: the same script against fresh in-process servers at -j1 and
     -j nproc gives byte-identical replies, hence identical hit counts. *)
  let replies jobs =
    let t = Lego_serve.Server.create ~jobs () in
    let rng = rng st.seed "serve" in
    let heavy = (Serve_wl.heavies rng).(0) in
    let script =
      Serve_wl.epoch_script rng (Serve_wl.chain_stream st.seed) ~heavy (Hashtbl.create 16)
    in
    let out =
      List.map
        (fun b -> J.to_string (Lego_serve.Server.handle_batch t (J.List (List.map fst b))))
        (List.filteri (fun i _ -> i < 12) script)
    in
    Lego_serve.Server.shutdown t;
    out
  in
  expect (Printf.sprintf "serve replies and hits: identical at -j1 and -j%d" st.jobs)
    (replies 1 = replies st.jobs);
  if !failures = 0 then 0 else 1
