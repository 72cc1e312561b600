(* Spans recorded by the benchmark around its calls into each layer's
   public functions.  Off by default: [span] then costs one branch.  On,
   spans are kept in memory (name, layer, start, end, parent, and the id
   of the operation they belong to) and written out at the end as Chrome
   trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  op : int;  (* shared by every span of one operation *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_op = ref 0

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  cur_op := 0

let now = Unix.gettimeofday

let record ~id ~parent ~name ~layer t0 =
  let t1 = now () in
  spans := { id; parent; op = !cur_op; name; layer; t0; t1 } :: !spans;
  stack := List.tl !stack

let span layer name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    match f () with
    | v ->
      record ~id ~parent ~name ~layer t0;
      v
    | exception e ->
      record ~id ~parent ~name ~layer t0;
      raise e
  end

(* A root span opening operation [op] (layer "bench": the harness's own
   glue between layer calls). *)
let operation op name f =
  cur_op := op;
  span "bench" name f

(* Self time of every span: its duration minus the durations of its
   direct children (children never overlap in this sequential code). *)
let self_times (ss : span list) =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = try Hashtbl.find child s.parent with Not_found -> 0. in
        Hashtbl.replace child s.parent (c +. (s.t1 -. s.t0)))
    ss;
  List.map
    (fun s ->
      let c = try Hashtbl.find child s.id with Not_found -> 0. in
      (s, s.t1 -. s.t0 -. c))
    ss

(* Summed self time and call count per (layer, name). *)
let by_name ss =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = (s.layer, s.name) in
      let t, n = try Hashtbl.find tbl k with Not_found -> (0., 0) in
      Hashtbl.replace tbl k (t +. self, n + 1))
    (self_times ss);
  tbl

let self_of tbl layer name =
  try fst (Hashtbl.find tbl (layer, name)) with Not_found -> 0.

let calls_of tbl layer name =
  try snd (Hashtbl.find tbl (layer, name)) with Not_found -> 0

let write_chrome path ss =
  let oc = open_out path in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity ss in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
         \"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        s.name s.layer
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.op)
    (List.rev ss);
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
