(* Layer-by-layer benchmark of the compile, tune and serve pipelines.

     pipebench --workload compile|tune|tune-scale|serve --seed N
               --seconds S --trace 0|1
     pipebench --all [--seed N] [--seconds S]   every workload, both runs
     pipebench --selfcheck                      the harness's own checks

   With --trace 0 the last stdout line is a JSON object holding every
   end-to-end metric; with --trace 1 it holds every per-layer metric of
   the traced run.  See NOTES.md. *)

open Common

let workloads =
  [
    ("compile", Compile_wl.run);
    ("tune", Tune_wl.run);
    ("tune-scale", Scale_wl.run);
    ("serve", Serve_wl.run);
  ]

let provenance (st : settings) =
  let commit =
    match Sys.getenv_opt "PERFBENCH_COMMIT" with
    | Some c when c <> "" -> c
    | _ -> "unknown"
  in
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%b jobs=%d nproc=%d \
     ocaml=%s commit=%s\n"
    st.workload st.seed st.seconds st.trace st.jobs (nproc ()) Sys.ocaml_version
    commit

(* Each workload's own names for its end-to-end metrics:
   (name, metric, scale, unit). *)
let aliases = function
  | "compile" ->
    [ ("compile_per_s", "ops_per_s", 1., "layouts/s");
      ("compile_p50_us", "p50_ms", 1e3, "us/layout");
      ("compile_p99_us", "tail_ms", 1e3, "us/layout");
      ("code_bytes", "code_bytes", 1., "bytes/layout (geomean)");
      ("index_ops", "index_ops", 1., "ops/layout (geomean)") ]
  | "tune" ->
    [ ("tune_p50_s", "p50_ms", 1e-3, "s/search");
      ("tune_p75_s", "tail_ms", 1e-3, "s/search");
      ("winner_speedup", "quality_x", 1., "x (geomean)") ]
  | "tune-scale" ->
    [ ("tune_cand_per_s", "ops_per_s", 1., "candidates/s");
      ("winner_speedup", "quality_x", 1., "x (geomean)") ]
  | "serve" ->
    [ ("serve_req_per_s", "ops_per_s", 1., "req/s");
      ("serve_p50_ms", "p50_ms", 1., "ms/batch");
      ("serve_p99_ms", "tail_ms", 1., "ms/batch") ]
  | _ -> []

let run_one (st : settings) =
  let f = List.assoc st.workload workloads in
  let r = new_result () in
  Trace.reset ();
  (* A harness failure (the daemon does not start, a layer raises where
     no failure is expected) leaves no valid measurement: report it and
     exit without a result line. *)
  (try f st r
   with e ->
     Printf.eprintf "perfbench: %s workload aborted: %s\n%!" st.workload
       (Printexc.to_string e);
     exit 3);
  Trace.reset ();
  set r "fail_rate"
    (if r.attempted = 0 then 0. else float r.failed /. float r.attempted);
  let m = select r ~trace:st.trace in
  List.iter (fun (k, v) -> Printf.printf "  %-34s %s\n" k v) (List.rev !(r.notes));
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) (List.rev r.problems);
  Printf.printf "  %d of %d operations failed\n" r.failed r.attempted;
  if not st.trace then
    List.iter
      (fun (name, metric, scale, unit) ->
        match Hashtbl.find_opt r.values metric with
        | Some v -> Printf.printf "  %-34s %16.6g %s\n" name (v *. scale) unit
        | None -> ())
      (aliases st.workload
      @ [ ("peak_heap_mb", "peak_heap_mb", 1., "MB"); ("setup_s", "setup_s", 1., "s");
          ("fail_rate", "fail_rate", 1., "failed/attempted") ]);
  (r, m)

let usage () =
  prerr_endline
    "usage: pipebench --workload {compile|tune|tune-scale|serve} --seed N \
     --seconds S --trace {0|1}\n\
    \       pipebench --all [--seed N] [--seconds S]\n\
    \       pipebench --selfcheck";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let all = ref false and selfcheck = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | "--all" :: rest -> all := true; parse rest
    | "--selfcheck" :: rest -> selfcheck := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let jobs = min 2 (nproc ()) in
  let settings w t =
    { workload = w; seed = !seed; seconds = !seconds; trace = t; jobs }
  in
  if !selfcheck then exit (Selfcheck.run (settings "compile" false))
  else if !all then begin
    (* One command for every workload: the end-to-end run, then the
       traced run, each in a fresh process (so no run inherits another's
       warm caches) printing its metrics by name with units. *)
    let status =
      List.concat_map
        (fun (w, _) ->
          List.map
            (fun t ->
              let pid =
                Unix.create_process Sys.executable_name
                  [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed;
                     "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; t |]
                  Unix.stdin Unix.stdout Unix.stderr
              in
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> 0
              | _ -> 1)
            [ "0"; "1" ])
        workloads
    in
    exit (List.fold_left max 0 status)
  end
  else begin
    if not (List.mem_assoc !workload workloads) then usage ();
    if !trace <> 0 && !trace <> 1 then usage ();
    if !seconds <= 0. then usage ();
    let st = settings !workload (!trace = 1) in
    provenance st;
    let r, m = run_one st in
    emit ~correct:r.correct ~attempted:(max 1 r.attempted) ~failed:r.failed m
  end
