(* The [compile] workload: distinct layouts from both Lgen streams, fed
   in as printed notation and compiled once each in-process through
   parse -> elab -> fingerprint -> apply (raw) -> simplify -> inv ->
   C / Triton / MLIR. *)

module Sym = Lego_symbolic.Sym
module Expr = Lego_symbolic.Expr

type source = Chain | Algebra

type input = { notation : string; source : source; index : int }

(* The [k]-th draw of the stream for [seed]: chains and algebra terms
   alternate; each is printed exactly as the layout printer prints it. *)
let draw ~seed k =
  let source, g =
    if k mod 2 = 0 then
      (Chain, Lego_conform.Lgen.layout_of_seed ~seed ~index:(k / 2))
    else (Algebra, Lego_conform.Lgen.algebra_layout_of_seed ~seed ~index:(k / 2))
  in
  { notation = Format.asprintf "%a" Lego_layout.Group_by.pp g; source; index = k }

(* A generator of distinct inputs: skips draws whose notation was seen. *)
type gen = { seed : int; mutable k : int; seen : (string, unit) Hashtbl.t }

let generator seed = { seed; k = 0; seen = Hashtbl.create 4096 }

let rec next gen =
  let d = draw ~seed:gen.seed gen.k in
  gen.k <- gen.k + 1;
  if Hashtbl.mem gen.seen d.notation then next gen
  else begin
    Hashtbl.add gen.seen d.notation ();
    d
  end

let take gen n = List.init n (fun _ -> next gen)

type front = {
  layout : Lego_layout.Group_by.t;
  fp : string;
  raw : Expr.t;
  offset : Expr.t;
  inverse : Expr.t list;
}

type out = {
  front : front;
  c : string;
  triton : string;
  mlir : string;
}

exception Rejected of string

(* The front half of the timed pipeline: parse, elaborate, fingerprint,
   raw apply, simplify, inverse.  Raises [Rejected] when the notation
   does not read back (parse or elaboration error). *)
let front notation =
  let ast =
    Trace.span "lang" "parse" (fun () -> Lego_lang.Parser.parse notation)
  in
  let ast = match ast with Ok a -> a | Error e -> raise (Rejected e) in
  let layout =
    Trace.span "lang" "elab" (fun () ->
        try Lego_lang.Elab.chain ast with
        | Lego_lang.Elab.Elab_error e | Invalid_argument e -> raise (Rejected e))
  in
  let fp =
    Trace.span "tune" "fingerprint" (fun () ->
        Lego_tune.Fingerprint.of_layout layout)
  in
  let raw = Trace.span "symbolic" "apply" (fun () -> Sym.apply ~simplify:false layout) in
  let offset =
    Trace.span "symbolic" "simplify" (fun () ->
        Lego_symbolic.Simplify.simplify ~env:(Sym.ranges_of layout) raw)
  in
  let inverse = Trace.span "symbolic" "inv" (fun () -> Sym.inv layout) in
  { layout; fp; raw; offset; inverse }

(* The back half: C, Triton and MLIR text of the offset. *)
let back f =
  let c = Trace.span "codegen" "c" (fun () -> Lego_codegen.C_printer.expr f.offset) in
  let triton =
    Trace.span "codegen" "triton" (fun () -> Lego_codegen.Triton_printer.expr f.offset)
  in
  let mlir =
    Trace.span "codegen" "mlir" (fun () ->
        Lego_codegen.Mlir_gen.layout_apply_func ~name:"apply" f.layout)
  in
  { front = f; c; triton; mlir }

(* The C and Triton printers print the offset's DAG as a tree, so their
   output grows with its tree size (about 2.6 bytes of C per node).  A
   layout whose simplified offset unfolds to more than this many nodes
   (about 0.26 MB of C, a few hundredths of a second to print) is
   printed in a child process under a time budget instead of
   in-process: at seed 7 one draw unfolds to 1.7e8 nodes, which takes a
   minute and 3 GB to print, and with in-process draws of up to 3e5
   nodes a run's peak heap moved by a quarter from seed to seed. *)
let max_tree_nodes = 100_000

(* Wall-time budget of one printing in the child. *)
let print_budget_s = 0.5

module Phys = Hashtbl.Make (struct
  type t = Expr.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Tree size of a hash-consed DAG, counting each shared node once per
   occurrence; stops counting past [max_tree_nodes]. *)
let tree_nodes (e : Expr.t) =
  let memo = Phys.create 256 in
  let rec go (e : Expr.t) =
    match Phys.find_opt memo e with
    | Some n -> n
    | None ->
      let sum = List.fold_left (fun a x -> min (max_tree_nodes + 1) (a + go x)) 1 in
      let n =
        match e with
        | Expr.Const _ | Expr.Var _ -> 1
        | Expr.Add xs | Expr.Mul xs -> sum xs
        | Expr.Div (a, b) | Expr.Mod (a, b) | Expr.Le (a, b) | Expr.Lt (a, b)
        | Expr.Eq (a, b) ->
          sum [ a; b ]
        | Expr.Select (a, b, c) -> sum [ a; b; c ]
        | Expr.Isqrt a -> sum [ a ]
      in
      Phys.add memo e n;
      n
  in
  go e

let printable f = tree_nodes f.offset <= max_tree_nodes

(* A draw the child could not print within [print_budget_s]: skipped,
   neither attempted nor failed, and counted in [codegen.over_budget]. *)
exception Over_budget

(* The whole pipeline, in-process, for callers that compile one layout
   at a time (winners, serve references).  Raises [Rejected]. *)
let compile notation = back (front notation)

(* Prints [f] in a forked child that the kernel stops after
   [print_budget_s], so the printing's time and memory stay out of this
   process.  Returns the C, Triton and MLIR byte counts and the time the
   child took to print, or [None] when it ran past the budget.  No other
   domain may be running. *)
let print_in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = print_budget_s });
    let t0 = Unix.gettimeofday () in
    (match back f with
    | o ->
      let dt = Unix.gettimeofday () -. t0 in
      let msg =
        Printf.sprintf "%d %d %d %.17g\n" (String.length o.c) (String.length o.triton)
          (String.length o.mlir) dt
      in
      ignore (Unix.write_substring wr msg 0 (String.length msg));
      Unix._exit 0
    | exception _ -> Unix._exit 1)
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    (match (snd (Unix.waitpid [] pid), line) with
    | Unix.WEXITED 0, Some l -> Some (Scanf.sscanf l "%d %d %d %f" (fun c t m dt -> (c, t, m, dt)))
    | Unix.WSIGNALED s, _ when s = Sys.sigalrm -> None
    | _ -> failwith "printing in the child process failed")

let code_bytes o = String.length o.c + String.length o.triton + String.length o.mlir

let index_ops f =
  List.fold_left (fun a e -> a + Lego_symbolic.Cost.ops e) (Lego_symbolic.Cost.ops f.offset)
    f.inverse

(* Operation count of the unsimplified apply + inv. *)
let raw_ops o =
  List.fold_left
    (fun a e -> a + Lego_symbolic.Cost.ops e)
    (Lego_symbolic.Cost.ops o.front.raw)
    (Sym.inv ~simplify:false o.front.layout)

(* A failed operation is the known print∘parse defect — printed
   algebra notation the parser rejects — or anything else, which makes
   the run incorrect. *)
let known_failure input = function
  | Rejected _ when input.source = Algebra -> None
  | Rejected e -> Some (Printf.sprintf "chain %S rejected: %s" input.notation e)
  | e -> Some (Printf.sprintf "%S raised %s" input.notation (Printexc.to_string e))

(* ---- the workload ----------------------------------------------------- *)

open Common

let block_size = 50

(* Layouts drawn per second of [--seconds]. *)
let per_second = 1200.

(* Points per conformance check: exhaustive up to this many elements,
   seeded samples beyond. *)
let check_points = 128

(* Traced layouts re-simplified to count rule applications. *)
let rule_sample = 200

(* Per-op facts kept for the end-of-run checks and the layer counters. *)
type done_op = {
  input : input;
  out_layout : Lego_layout.Group_by.t;
  raw_apply_ops : int;
  simpl_ops : int;
}

let counters () =
  let p = Lego_symbolic.Prover.snapshot () in
  let r = Lego_symbolic.Range.cache_stats () in
  let i = Expr.intern_stats () in
  let s = Lego_symbolic.Simplify.cache_stats () in
  ( (p.queries, p.proved),
    (r.Lego_symbolic.Range.hits, r.misses),
    (i.Expr.hits, i.misses),
    (s.Lego_symbolic.Simplify.hits, s.misses) )

let ratio a b = if a + b = 0 then 0. else float a /. float (a + b)

let run (st : settings) (r : result) =
  (* Set-up: draw and print the first inputs (Lgen + the layout printer),
     nine times from fresh generators; the median is [setup_s].  They
     run before the timed loop: Lgen's algebra terms go through the
     prover, and set-ups among the blocks would count in the symbolic
     layer counters. *)
  let setups =
    Array.init 9 (fun _ -> snd (time (fun () -> take (generator st.seed) 2000)))
  in
  set r "setup_s" (median setups);
  let gen = generator st.seed in
  let lat_all = ref [] and lat_plain = ref [] and lat_traced = ref [] in
  let block_rate = ref [] and all_bytes = ref [] and all_ops = ref [] in
  let done_ops = ref [] and rule_raws = ref [] in
  let c_bytes = ref 0 and t_bytes = ref 0 and m_bytes = ref 0 in
  let ops_raw = ref 0 and ops_simpl = ref 0 and n_ok = ref 0 in
  let mlir_expr_s = ref 0. and mlir_expr_n = ref 0 in
  let traced_wall = ref 0. and over_budget = ref 0 and child_printed = ref 0 in
  let op = ref 0 in
  Trace.reset ();
  let c0 = counters () in
  let blocks = work st (per_second /. float block_size) in
  for _ = 1 to blocks do
    let inputs = take gen block_size in
    let b_time = ref 0. and b_ok = ref 0 in
    List.iter
      (fun input ->
        incr op;
        (* In the traced run every other operation is traced, so traced
           and untraced latencies share inputs' distribution and cache
           state; their ratio is the tracing overhead. *)
        let traced = st.trace && !op mod 2 = 1 in
        Trace.on := traced;
        (* Two timed halves; the print-limit test between them is the
           harness's, untimed.  Past the limit, the second half runs in
           a child process (untraced), timed there. *)
        let t0 = now () in
        let fr =
          try Ok (Trace.operation !op "compile" (fun () -> front input.notation))
          with e -> Error e
        in
        let dt = now () -. t0 in
        let res, dt, in_process =
          match fr with
          | Ok f when printable f ->
            let t1 = now () in
            let o = Trace.operation !op "print" (fun () -> back f) in
            ( Ok (f, String.length o.c, String.length o.triton, String.length o.mlir),
              dt +. (now () -. t1),
              dt +. (now () -. t1) )
          | Ok f -> (
            Trace.on := false;
            match print_in_child f with
            | Some (c, t, m, dt') ->
              incr child_printed;
              (Ok (f, c, t, m), dt +. dt', dt)
            | None -> (Error Over_budget, dt, dt))
          | Error e -> (Error e, dt, dt)
        in
        Trace.on := false;
        if traced then traced_wall := !traced_wall +. in_process;
        match res with
        | Error Over_budget -> incr over_budget
        | Ok (f, c, t, m) ->
          r.attempted <- r.attempted + 1;
          b_time := !b_time +. dt;
          incr b_ok;
          incr n_ok;
          lat_all := dt :: !lat_all;
          if traced then lat_traced := dt :: !lat_traced
          else lat_plain := dt :: !lat_plain;
          let ops = index_ops f in
          all_bytes := float (c + t + m) :: !all_bytes;
          all_ops := float ops :: !all_ops;
          ops_simpl := !ops_simpl + ops;
          c_bytes := !c_bytes + c;
          t_bytes := !t_bytes + t;
          m_bytes := !m_bytes + m;
          if traced then begin
            (* The MLIR text from the already-simplified offset: what
               [Mlir_gen.layout_apply_func] would cost without its own
               second [Sym.apply]. *)
            let params =
              List.init (Lego_layout.Group_by.rank f.layout) (Printf.sprintf "i%d")
            in
            let _, dt =
              time (fun () ->
                  Lego_codegen.Mlir_gen.index_func ~name:"apply" ~params [ f.offset ])
            in
            mlir_expr_s := !mlir_expr_s +. dt;
            incr mlir_expr_n
          end;
          (* Only the first traced raw offsets are kept (for the rule
             count); the rest would pin heavy expressions in the heap. *)
          if traced && List.length !rule_raws < rule_sample then
            rule_raws := (f.layout, f.raw) :: !rule_raws;
          done_ops :=
            { input; out_layout = f.layout;
              raw_apply_ops = Lego_symbolic.Cost.ops f.raw; simpl_ops = ops }
            :: !done_ops
        | Error e ->
          r.attempted <- r.attempted + 1;
          b_time := !b_time +. dt;
          r.failed <- r.failed + 1;
          Option.iter (problem r) (known_failure input e))
      inputs;
    block_rate := (float !b_ok /. !b_time) :: !block_rate
  done;
  let c1 = counters () in
  set r "peak_heap_mb" (top_heap_mb ());
  let lat = Array.of_list !lat_all in
  let arr l = Array.of_list l in
  set r "ops_per_s" (median (arr !block_rate));
  set r "p50_ms" (median lat *. 1e3);
  set r "tail_ms" (percentile 0.99 lat *. 1e3);
  (* Geometric means: the arithmetic mean of these heavy-tailed sizes
     swings with the few largest layouts a seed happens to draw (it is
     in the per-layer codegen.*_bytes metrics). *)
  set r "code_bytes" (geomean (arr !all_bytes));
  set r "index_ops" (geomean (arr (List.map (Float.max 1.) !all_ops)));
  note r "compile.tail" (Printf.sprintf "p99 over %d layouts" (Array.length lat));
  note r "compile.blocks" (string_of_int (List.length !block_rate));
  set r "codegen.over_budget" (float !over_budget);
  note r "compile.printed_in_child" (string_of_int !child_printed);
  note r "compile.over_print_budget" (string_of_int !over_budget);
  (* Quality: how far simplification cuts the index arithmetic, geomean
     over layouts of raw / simplified apply+inv operation counts. *)
  let gains = ref [] in
  (* Checks outside the timed region: the four-semantics conformance
     harness on every compiled layout, fanned out over the pool. *)
  let ops = Array.of_list (List.rev !done_ops) in
  let check_one d =
    let raw =
      d.raw_apply_ops
      + List.fold_left
          (fun a e -> a + Lego_symbolic.Cost.ops e)
          0
          (Sym.inv ~simplify:false d.out_layout)
    in
    let t0 = now () in
    let o = Lego_conform.Conform.check_layout ~max_points:check_points d.out_layout in
    (o.Lego_conform.Conform.mismatch, now () -. t0, raw, d.simpl_ops)
  in
  let t_check = now () in
  let verdicts =
    Lego_exec.Exec.with_pool ~jobs:st.jobs (fun pool ->
        Lego_exec.Exec.map ~pool ops check_one)
  in
  let check_s = ref 0. in
  Array.iteri
    (fun i (mm, dt, raw, simpl) ->
      check_s := !check_s +. dt;
      ops_raw := !ops_raw + raw;
      gains := (float (max 1 raw) /. float (max 1 simpl)) :: !gains;
      match mm with
      | None -> ()
      | Some m ->
        r.failed <- r.failed + 1;
        problem r
          (Printf.sprintf "%S: conformance %s: %s" ops.(i).input.notation
             m.Lego_conform.Conform.stage m.Lego_conform.Conform.detail))
    verdicts;
  note r "phase.check_s" (Printf.sprintf "%.2f" (now () -. t_check));
  set r "quality_x" (geomean (arr !gains));
  (* Per-layer figures. *)
  let nf = float (max 1 !n_ok) in
  set r "symbolic.ops_raw" (float !ops_raw /. nf);
  set r "symbolic.ops_simplified" (float !ops_simpl /. nf);
  set r "codegen.c_bytes" (float !c_bytes /. nf);
  set r "codegen.triton_bytes" (float !t_bytes /. nf);
  set r "codegen.mlir_bytes" (float !m_bytes /. nf);
  set r "conform.check_ms" (!check_s /. float (max 1 (Array.length ops)) *. 1e3);
  let (pq0, pp0), (rh0, rm0), (ih0, im0), (sh0, sm0) = c0 in
  let (pq1, pp1), (rh1, rm1), (ih1, im1), (sh1, sm1) = c1 in
  set r "symbolic.prover_queries" (float (pq1 - pq0) /. float (max 1 r.attempted));
  set r "symbolic.prover_proved_ratio"
    (if pq1 = pq0 then 0. else float (pp1 - pp0) /. float (pq1 - pq0));
  set r "symbolic.range_hit_ratio" (ratio (rh1 - rh0) (rm1 - rm0));
  set r "symbolic.intern_hit_ratio" (ratio (ih1 - ih0) (im1 - im0));
  set r "symbolic.simplify_memo_hit_ratio" (ratio (sh1 - sh0) (sm1 - sm0));
  if st.trace then begin
    (* Rule applications, counted by re-simplifying the traced layouts'
       raw offsets with a stats record (which bypasses the memo, so the
       counts are exact) after the timed region. *)
    let t_rules = now () in
    let stats = Lego_symbolic.Simplify.stats () in
    List.iter
      (fun (layout, raw) ->
        ignore (Lego_symbolic.Simplify.simplify ~stats ~env:(Sym.ranges_of layout) raw))
      !rule_raws;
    set r "symbolic.rule_apps"
      (float (Lego_symbolic.Simplify.total stats)
      /. float (max 1 (List.length !rule_raws)));
    note r "phase.rules_s" (Printf.sprintf "%.2f" (now () -. t_rules));
    set r "codegen.mlir_from_expr_us"
      (!mlir_expr_s /. float (max 1 !mlir_expr_n) *. 1e6);
    set r "trace.overhead_pct"
      ((median (arr !lat_traced) /. median (arr !lat_plain) -. 1.) *. 100.);
    Trace_report.layers st r ~wall:!traced_wall
      [
        ("lang.parse_us", "lang", "parse");
        ("lang.elab_us", "lang", "elab");
        ("symbolic.apply_us", "symbolic", "apply");
        ("symbolic.simplify_us", "symbolic", "simplify");
        ("symbolic.inv_us", "symbolic", "inv");
        ("codegen.c_us", "codegen", "c");
        ("codegen.triton_us", "codegen", "triton");
        ("codegen.mlir_us", "codegen", "mlir");
        ("tune.fingerprint_us", "tune", "fingerprint");
      ]
  end
