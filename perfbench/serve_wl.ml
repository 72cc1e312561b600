(* The [serve] workload: a real [legoc serve] daemon on a Unix socket,
   driven by one closed-loop client (each batch is sent when the
   previous reply arrived — compiler callers block on the reply, and the
   daemon serves one connection at a time).  Batches mix compile,
   fingerprint and malformed requests in the proportions of the serve
   experiment in bench/main.ml; layout popularity is Zipf over a pool of
   distinct layouts.  The run is a sequence of epochs, each with a fresh
   pool, so the hit/miss mix is the same whatever the run length.  The
   store is disk-backed in a fresh directory, pre-filled (untimed) from
   a fixed Lgen stream.  The daemon runs at -j (nproc - 1) so that
   client plus daemon use at most nproc domains. *)

open Common
module S = Lego_serve
module J = Lego_serve.Json

(* Request mix and batch size of bench/main.ml's serve experiment: 90%
   compile, 5% fingerprint, 3% parse errors, 2% unknown devices, 16
   requests a batch, Zipf(1) popularity.  The pool and epoch sizes are
   this workload's own, measured so that hits and misses are both a
   large share (see NOTES.md). *)
let pool_size = 400
let epoch_requests = 384
let batch_size = 16

(* Epochs per second of [--seconds]; an epoch is about a fifth of a
   second of requests. *)
let epochs_per_second = 5.
let prefill = 800

(* Daemon starts per run, spread evenly over the epochs (start [k]
   before epoch [k * epochs / setup_starts]); their median is
   [setup_s].  A start takes 15 to 40 ms; timed back to back, all of
   them fell in one burst of host load or none, and [setup_s] spread
   four times as wide as the run's request rate.  They run on a copy of
   the pre-filled store, so every start replays the same store. *)
let setup_starts = 9

(* The Lgen stream the store is pre-filled from: the same for every
   seed, so every run replays the same store at set-up. *)
let prefill_stream = 1_000_003

let device = "a100"

(* ---- script ----------------------------------------------------------- *)

(* The Zipf pool holds chains whose offset unfolds to at most
   [light_max] tree nodes (99.6% of chains).  Heavier ones are the
   printers' tree blow-up, measured here through a fixed gallery (see
   [heavy_gallery]). *)
let light_max = 20_000

(* The heavy gallery: the first 50 chains of Lgen stream [heavy_stream]
   whose offset unfolded to between [light_max] and 3e5 tree nodes
   (0.31% of chains) when the benchmark was defined, as indices into
   that stream.  Each epoch sends one of them, once (so always a miss),
   at a seeded place; the seed also sets their order.  The gallery is the same for every seed, so
   the p99 batch latency, which these misses decide, rests on the same
   work in every run; with heavy chains in the Zipf pool, where a
   popular one is requested over and over, its spread from seed to seed
   was 0.55.  Heavier chains are left out: the daemon has no request
   deadline, and their reply could exceed the 64 MiB frame limit. *)
let heavy_stream = 0

let heavy_gallery =
  [| 461; 773; 937; 983; 1038; 1956; 2579; 3276; 3281; 4087; 4941; 4979; 5515; 6037;
     6052; 6166; 6791; 7147; 7302; 7685; 7885; 8025; 8160; 8322; 9366; 9573; 10231;
     11058; 11299; 11711; 11904; 11911; 12795; 12860; 13100; 13159; 13327; 13474;
     13516; 13766; 13884; 13978; 14397; 15231; 15476; 15541; 15566; 15620; 15777;
     16129 |]

type expect =
  | Compile of { fp : string; notation : string; cached : bool }
  | Fingerprint of { fp : string; key : string }
  | Malformed

type layout_info = { notation : string; fp : string }

(* [notation] with its fingerprint, computed by the library outside any
   timed region, and the tree size of its offset. *)
let info notation =
  let f = Compile_wl.front notation in
  ({ notation; fp = f.Compile_wl.fp }, Compile_wl.tree_nodes f.Compile_wl.offset)

let chain seed index =
  Format.asprintf "%a" Lego_layout.Group_by.pp (Lego_conform.Lgen.layout_of_seed ~seed ~index)

(* Distinct light chain layouts of the stream [seed]. *)
let chain_stream seed =
  let k = ref 0 and seen = Hashtbl.create 1024 in
  let rec next () =
    let notation = chain seed !k in
    incr k;
    if Hashtbl.mem seen notation then next ()
    else begin
      Hashtbl.add seen notation ();
      match info notation with
      | li, n when n <= light_max -> li
      | _ -> next ()
    end
  in
  next

(* The heavy gallery in the seed's order. *)
let heavies rng =
  let a = Array.map (fun k -> fst (info (chain heavy_stream k))) heavy_gallery in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let zipf_cdf n =
  let w = Array.init n (fun i -> 1. /. float (i + 1)) in
  let tot = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. tot); !acc) w

let zipf_draw rng cdf =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Malformed requests, as in bench/main.ml: three in five do not parse
   (truncated notation), two in five name an unknown device. *)
let malformed rng (li : layout_info) =
  let layout, dev =
    if Random.State.int rng 5 < 3 then
      (String.sub li.notation 0 (String.length li.notation - 1), device)
    else (li.notation, "volta")
  in
  J.Obj [ ("op", J.Str "compile"); ("layout", J.Str layout); ("device", J.Str dev) ]

(* One epoch's batches with the replies the client predicts: requests
   over a fresh pool drawn from [next], and one compile of [heavy].
   [stored] holds the fingerprints the store has (prefill + earlier
   misses). *)
let epoch_script rng next ~heavy stored =
  let pool = Array.init pool_size (fun _ -> next ()) in
  let cdf = zipf_cdf pool_size in
  let compile (li : layout_info) =
    let cached = Hashtbl.mem stored li.fp in
    Hashtbl.replace stored li.fp ();
    ( S.Protocol.json_of_request
        (S.Protocol.Compile { layout = li.notation; emit = []; device }),
      Compile { fp = li.fp; notation = li.notation; cached } )
  in
  let heavy_at = Random.State.int rng epoch_requests in
  let reqs =
    List.init epoch_requests (fun i ->
        if i = heavy_at then compile heavy
        else begin
          let li = pool.(zipf_draw rng cdf) in
          let u = Random.State.int rng 100 in
          if u < 90 then compile li
          else if u < 95 then
            ( S.Protocol.json_of_request
                (S.Protocol.Fingerprint { layout = li.notation; device }),
              Fingerprint { fp = li.fp; key = S.Server.compile_key ~fp:li.fp ~device } )
          else (malformed rng li, Malformed)
        end)
  in
  let rec chunk acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: xs ->
      if n = batch_size then chunk (List.rev cur :: acc) [ x ] 1 xs
      else chunk acc (x :: cur) (n + 1) xs
  in
  chunk [] [] 0 reqs

(* ---- checks ----------------------------------------------------------- *)

(* Reference payloads: the [compile] workload's pipeline, in-process,
   once per distinct layout, with the layout's code size and index
   operation counts. *)
type reference = { c : string; triton : string; mlir : string; bytes : int; ops : int; raw : int }

let references : (string, reference) Hashtbl.t = Hashtbl.create 1024

let reference_of notation fp =
  match Hashtbl.find_opt references fp with
  | Some v -> v
  | None ->
    let o = Compile_wl.compile notation in
    let v =
      { c = o.Compile_wl.c; triton = o.Compile_wl.triton; mlir = o.Compile_wl.mlir;
        bytes = Compile_wl.code_bytes o; ops = Compile_wl.index_ops o.Compile_wl.front;
        raw = Compile_wl.raw_ops o }
    in
    Hashtbl.replace references fp v;
    v

let check_reply r (resp : J.t) (e : expect) =
  let str k = J.mem_string k resp and ok = J.mem_bool "ok" resp in
  let bad fmt = Printf.ksprintf (fun m -> problem r m; false) fmt in
  match e with
  | Malformed -> ok = Some false || bad "malformed request answered %s" (J.to_string resp)
  | Fingerprint { fp; key } ->
    (ok = Some true && str "fingerprint" = Some fp && str "key" = Some key)
    || bad "fingerprint reply %s, expected %s" (J.to_string resp) fp
  | Compile { fp; notation; cached } ->
    if ok <> Some true then bad "compile %s failed: %s" notation (J.to_string resp)
    else if J.mem_bool "cached" resp <> Some cached then
      bad "compile %s: cached=%s, predicted %b" notation
        (match J.mem_bool "cached" resp with Some b -> string_of_bool b | None -> "?")
        cached
    else begin
      let v = reference_of notation fp in
      (str "fingerprint" = Some fp && str "c" = Some v.c
       && str "triton" = Some v.triton && str "mlir" = Some v.mlir)
      || bad "compile %s: payload differs from the compile pipeline's output" notation
    end

(* ---- the daemon ------------------------------------------------------- *)

(* Built by run.sh next to the benchmark. *)
let legoc = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "legoc.exe"))

type daemon = { pid : int; socket : string; client : S.Client.t }

let start_daemon ~dir ~name ~db ~jobs =
  let socket = Filename.concat dir (name ^ ".sock") in
  let log = Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process legoc
      [| "legoc"; "serve"; "--socket"; socket; "--db"; db; "-j"; string_of_int jobs |]
      Unix.stdin log log
  in
  Unix.close log;
  (* Poll every 0.5 ms (for up to 30 s) until the daemon accepts; it
     replays the store before it listens. *)
  let rec connect n =
    match S.Client.connect ~retries:0 ~socket () with
    | Ok client -> { pid; socket; client }
    | Error _ when n > 0 ->
      Unix.sleepf 0.0005;
      connect (n - 1)
    | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith ("daemon did not come up: " ^ e)
  in
  connect 60_000

(* Peak resident set of the daemon, from /proc, in MB. *)
let peak_rss_mb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float kb /. 1024.)
      | _ -> go ()
    in
    let v = try go () with End_of_file -> nan in
    close_in ic;
    v
  with Sys_error _ -> nan

let stop_daemon d =
  (try
     ignore (S.Client.batch d.client [ S.Protocol.Shutdown ]);
     S.Client.close d.client
   with _ -> (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] d.pid)

let stats d =
  match S.Client.batch d.client [ S.Protocol.Stats ] with
  | Ok [ s ] -> s
  | _ -> failwith "stats request failed"

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then (output oc buf 0 n; go ())
  in
  go ();
  close_in ic;
  close_out oc

(* ---- the workload ----------------------------------------------------- *)

let run (st : settings) (r : result) =
  Hashtbl.reset references;
  let dir = fresh_dir "serve" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let db = Filename.concat dir "store.db" in
  let stored = Hashtbl.create 4096 in
  (* Untimed pre-fill from a fixed stream, through the library. *)
  let () =
    let next = chain_stream prefill_stream in
    let t = S.Server.create ~db ~jobs:1 () in
    let rec fill n =
      if n > 0 then begin
        let k = min 32 n in
        let batch =
          List.init k (fun _ ->
              let li = next () in
              Hashtbl.replace stored li.fp ();
              S.Protocol.json_of_request
                (S.Protocol.Compile { layout = li.notation; emit = []; device }))
        in
        ignore (S.Server.handle_batch t (J.List batch));
        fill (n - k)
      end
    in
    fill prefill;
    S.Server.shutdown t
  in
  let shadow_db = Filename.concat dir "shadow.db" in
  copy_file db shadow_db;
  let setup_db = Filename.concat dir "setup.db" in
  copy_file db setup_db;
  set r "serve.open_s"
    (median
       (Array.init 3 (fun _ ->
            snd
              (time (fun () ->
                   let s, _ = S.Store.open_ ~path:shadow_db () in
                   S.Store.close s)))));
  let jobs = max 1 (st.jobs - 1) in
  (* Set-up: start a daemon on a copy of the pre-filled store until it
     accepts a connection (it has replayed the store by then), and stop
     it; the daemon that serves the run starts on the store itself. *)
  let setup () =
    let d, dt = time (fun () -> start_daemon ~dir ~name:"setup" ~db:setup_db ~jobs) in
    stop_daemon d;
    dt
  in
  let setups = ref [] in
  let d = start_daemon ~dir ~name:"serve" ~db ~jobs in
  let shadow = if st.trace then Some (S.Server.create ~db:shadow_db ~jobs:1 ()) else None in
  Fun.protect
    ~finally:(fun () ->
      (try stop_daemon d with _ -> ());
      Option.iter S.Server.shutdown shadow)
  @@ fun () ->
  let rng = rng st.seed "serve" in
  let next = chain_stream st.seed in
  let heavies = heavies rng in
  let lat = ref [] and lat_plain = ref [] and lat_traced = ref [] in
  let requests = ref 0 and measured = ref 0. and op = ref 0 in
  let traced_wall = ref 0. and resp_bytes = ref 0 and hits = ref 0 and compiles = ref 0 in
  let handle_s = ref 0. and rpc_traced_s = ref 0. and n_traced = ref 0 in
  let epochs = work st epochs_per_second in
  for epoch = 0 to epochs - 1 do
    for k = 0 to setup_starts - 1 do
      if k * epochs / setup_starts = epoch then setups := setup () :: !setups
    done;
    List.iter
      (fun batch ->
        incr op;
        let reqs = J.List (List.map fst batch) in
        let traced = st.trace && !op mod 2 = 1 in
        Trace.on := traced;
        let t0 = now () in
        let resp, mirror =
          Trace.operation !op "batch" (fun () ->
              let resp =
                Trace.span "serve" "rpc" (fun () -> S.Client.rpc d.client reqs)
              in
              let dt = now () -. t0 in
              lat := dt :: !lat;
              measured := !measured +. dt;
              if traced then begin
                lat_traced := dt :: !lat_traced;
                rpc_traced_s := !rpc_traced_s +. dt
              end
              else lat_plain := dt :: !lat_plain;
              (* Traced run: the same batch through the layers
                 in-process — request encoding, reply encoding and
                 decoding, and the server's [handle_batch] on a shadow
                 server in the same state (every batch, so the shadow
                 keeps the daemon's state). *)
              match (resp, shadow) with
              | Ok resp, Some sh ->
                if traced then begin
                  ignore (Trace.span "serve" "encode" (fun () -> J.to_string reqs));
                  let text = Trace.span "serve" "encode_reply" (fun () -> J.to_string resp) in
                  ignore (Trace.span "serve" "decode" (fun () -> J.of_string text))
                end;
                let t1 = now () in
                let mirror =
                  Trace.span "serve" "handle" (fun () -> S.Server.handle_batch sh reqs)
                in
                if traced then begin
                  handle_s := !handle_s +. (now () -. t1);
                  incr n_traced
                end;
                (Ok resp, Some mirror)
              | resp, _ -> (resp, None))
        in
        if traced then traced_wall := !traced_wall +. (now () -. t0);
        Trace.on := false;
        let n = List.length batch in
        requests := !requests + n;
        r.attempted <- r.attempted + n;
        (* Checks, outside the timed region. *)
        match resp with
        | Error e ->
          r.failed <- r.failed + n;
          problem r ("rpc failed: " ^ e)
        | Ok (J.List replies as resp) when List.length replies = n ->
          resp_bytes := !resp_bytes + String.length (J.to_string resp);
          Option.iter
            (fun m ->
              if not (J.equal m resp) then
                problem r "daemon reply differs from in-process handle_batch")
            mirror;
          List.iter2
            (fun reply (_, e) ->
              (match e with
              | Compile { cached; _ } ->
                incr compiles;
                if cached then incr hits
              | _ -> ());
              if not (check_reply r reply e) then r.failed <- r.failed + 1)
            replies batch
        | Ok _ ->
          r.failed <- r.failed + n;
          problem r "reply is not an array of the batch's length")
      (epoch_script rng next ~heavy:heavies.(epoch mod Array.length heavies) stored)
  done;
  set r "setup_s" (median (Array.of_list !setups));
  let s = stats d in
  let lat = Array.of_list !lat in
  let tl = percentile 0.99 lat in
  set r "ops_per_s" (float !requests /. !measured);
  set r "p50_ms" (median lat *. 1e3);
  set r "tail_ms" (tl *. 1e3);
  note r "serve.tail" (Printf.sprintf "p99 over %d batches" (Array.length lat));
  set r "peak_heap_mb" (peak_rss_mb d.pid);
  (* Output quality over the distinct layouts the daemon compiled, as in
     the compile workload: geomeans of emitted bytes, of index
     operations, and of the raw / simplified operation ratio. *)
  let refs = Array.of_seq (Hashtbl.to_seq_values references) in
  set r "code_bytes" (geomean (Array.map (fun v -> float v.bytes) refs));
  set r "index_ops" (geomean (Array.map (fun v -> float (max 1 v.ops)) refs));
  set r "quality_x"
    (geomean (Array.map (fun v -> float (max 1 v.raw) /. float (max 1 v.ops)) refs));
  set r "serve.hit_ratio" (float !hits /. float (max 1 !compiles));
  set r "serve.store_entries"
    (float (Option.value ~default:0 (J.mem_int "store_entries" s)));
  set r "serve.store_bytes" (float (Unix.stat db).Unix.st_size);
  set r "serve.response_bytes" (float !resp_bytes /. float (max 1 !op));
  if st.trace then begin
    let nt = float (max 1 !n_traced) in
    set r "serve.handle_ms" (!handle_s /. nt *. 1e3);
    set r "serve.wire_ms" ((!rpc_traced_s -. !handle_s) /. nt *. 1e3);
    set r "trace.overhead_pct"
      ((median (Array.of_list !lat_traced) /. median (Array.of_list !lat_plain) -. 1.)
      *. 100.);
    Trace_report.layers st r ~wall:!traced_wall
      [ ("serve.encode_us", "serve", "encode"); ("serve.decode_us", "serve", "decode") ]
  end
