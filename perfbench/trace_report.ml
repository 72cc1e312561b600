(* Turning the recorded spans into per-layer metrics. *)

open Common

(* The layers' self times reconcile with the traced wall time when
   their sum is within this share of it: the harness's own glue between
   layer calls (the self time of its "bench" root spans) and any time
   outside the spans make up the rest. *)
let tolerance = 0.05

(* [(ratio, glue_pct)]: the summed self time of the layer spans over
   [wall], and the harness's glue as a percentage of [wall]. *)
let reconcile ~wall ss =
  let layer, glue =
    List.fold_left
      (fun (l, g) ((s : Trace.span), t) -> if s.layer = "bench" then (l, g +. t) else (l +. t, g))
      (0., 0.) (Trace.self_times ss)
  in
  if wall > 0. then (layer /. wall, glue /. wall *. 100.) else (0., 0.)

let reconciles ratio = Float.abs (ratio -. 1.) <= tolerance

let trace_file (st : settings) =
  ensure_dir work_dir;
  Filename.concat work_dir
    (Printf.sprintf "trace-%s-seed%d.json" st.workload st.seed)

(* [specs]: (metric, layer, span name) — each metric is the mean self
   time per call of that span, in the metric's unit (us, ms or s by its
   suffix).  [wall] is the externally timed duration of the traced
   operations. *)
let layers (st : settings) r ~wall specs =
  let ss = !Trace.spans in
  let tbl = Trace.by_name ss in
  List.iter
    (fun (metric, layer, name) ->
      let n = Trace.calls_of tbl layer name in
      let per = if n = 0 then 0. else Trace.self_of tbl layer name /. float n in
      let scale =
        if Filename.check_suffix metric "_us" then 1e6
        else if Filename.check_suffix metric "_ms" then 1e3
        else 1.
      in
      set r metric (per *. scale))
    specs;
  let ratio, glue_pct = reconcile ~wall ss in
  set r "trace.reconcile_ratio" ratio;
  set r "trace.glue_pct" glue_pct;
  set r "trace.spans" (float (List.length ss));
  if not (reconciles ratio) then
    problem r
      (Printf.sprintf "layer self times sum to %.4f of the traced wall time \
                       (glue %.1f%%, tolerance %.0f%%)" ratio glue_pct (tolerance *. 100.));
  let file = trace_file st in
  Trace.write_chrome file ss;
  note r "trace.file" file
