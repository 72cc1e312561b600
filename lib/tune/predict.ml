module L = Lego_layout
module G = Lego_gpusim
module F2 = Lego_f2

type phase =
  | Shared of { elem_bytes : int; lanes : int -> int list option }
  | Global of { elem_bytes : int; addrs : int -> int option }

type score = {
  smem_phases : int;
  smem_accesses : int;
  smem_cycles : int;
  gmem_txns : int;
  ops : int;
}

let conflict_free s = s.smem_phases > 0 && s.smem_cycles = s.smem_phases

(* Phase lanes are a property of the {e slot}, not the candidate: every
   candidate in a space shares the same logical dims, so each shared
   phase's active-lane logical indices flatten to the same int array
   once, and scoring a candidate is then one compiled-closure call per
   lane.  Global phases never route through the candidate at all, so
   their transaction total is a constant of the phase list.  One-entry
   cache, keyed by physical equality of the phase list (the slot record
   holds one list for the whole search), domain-local because scoring
   runs inside [Exec.map] workers. *)
type shared_phase = {
  sp_elem : int;
  sp_pos : int array;
      (** Positions into [p_uniq].  Phases overlap heavily (a store
          sweep and a load sweep cover the same tile), so each distinct
          index is evaluated through the candidate once and the phases
          gather from the shared value buffer. *)
  sp_lane : (F2.Bitmat.t * int) option;
      (** The lane-to-flat-logical-index map as an affine F₂ form, when
          the phase drives a full warp and the map is affine — the
          precondition for the closed-form oracle.  A property of the
          slot, so it is recognized here, once, not per candidate. *)
}

type precomp = {
  p_phases : phase list;
  p_dims : L.Shape.t;
  p_warp : int;
  p_uniq : int array;  (** Distinct flat logical indices, all phases. *)
  p_shared : shared_phase list;
  p_gmem_txns : int;
}

let precomp_cache : precomp option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let precompute ~(device : G.Device.t) ~dims phases =
  let lanes_of f =
    List.filter_map f (List.init device.warp_size Fun.id)
  in
  let pos_of = Hashtbl.create 256 in
  let uniq = ref [] and nuniq = ref 0 in
  let position flat =
    match Hashtbl.find_opt pos_of flat with
    | Some p -> p
    | None ->
      let p = !nuniq in
      Hashtbl.add pos_of flat p;
      uniq := flat :: !uniq;
      incr nuniq;
      p
  in
  let shared, txns =
    List.fold_left
      (fun (shared, txns) phase ->
        match phase with
        | Shared { elem_bytes; lanes } ->
          let flats =
            List.map
              (fun idx -> L.Shape.flatten_ints dims idx)
              (lanes_of lanes)
          in
          let pos = List.map position flats in
          let lane =
            if List.length flats = device.warp_size then
              F2.Oracle.of_lanes (Array.of_list flats)
            else None
          in
          ( { sp_elem = elem_bytes; sp_pos = Array.of_list pos; sp_lane = lane }
            :: shared,
            txns )
        | Global { elem_bytes; addrs } ->
          let addrs = lanes_of addrs in
          let t =
            if addrs = [] then 0
            else begin
              (* Global patterns never route through the candidate, so
                 they are counted once here — in closed form when the
                 warp pattern is affine (2^rank of the segment map,
                 exactly {!Lego_gpusim.Access.txn_count}'s distinct-
                 segment count), by enumeration otherwise. *)
              let arr = Array.of_list addrs in
              let closed =
                if Array.length arr = device.warp_size then
                  match F2.Oracle.of_lanes arr with
                  | Some (a, _) ->
                    F2.Oracle.txn_count ~txn_bytes:device.global_txn_bytes
                      ~elem_bytes a
                  | None -> None
                else None
              in
              match closed with
              | Some t -> t
              | None -> G.Access.txn_count device ~elem_bytes addrs
            end
          in
          (shared, txns + t))
      ([], 0) phases
  in
  {
    p_phases = phases;
    p_dims = dims;
    p_warp = device.warp_size;
    p_uniq = Array.of_list (List.rev !uniq);
    p_shared = List.rev shared;
    p_gmem_txns = txns;
  }

(* Scratch buffers for the scoring loop — per domain, grown to the
   largest slot ever scored, so per-candidate evaluation allocates
   nothing: [vals] holds the candidate's value at each distinct
   logical index, [batch] one phase's gathered warp addresses. *)
let scratch : (int array ref * int array ref) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref [||], ref [||]))

let scratch_get n =
  let r = fst (Domain.DLS.get scratch) in
  if Array.length !r < n then r := Array.make n 0;
  !r

let batch_get n =
  let r = snd (Domain.DLS.get scratch) in
  if Array.length !r < n then r := Array.make n 0;
  !r

let precomp_for ~(device : G.Device.t) ~dims phases =
  let cache = Domain.DLS.get precomp_cache in
  match !cache with
  | Some pc
    when pc.p_phases == phases && pc.p_warp = device.warp_size
         && pc.p_dims = dims ->
    pc
  | _ ->
    let pc = precompute ~device ~dims phases in
    cache := Some pc;
    pc

let fold_shared ~(device : G.Device.t) ~eval_vals ~cycles_of ~ops pc =
  let batch = batch_get device.warp_size in
  let vals_ready = ref false in
  let vals () =
    let v = scratch_get (Array.length pc.p_uniq) in
    if not !vals_ready then begin
      eval_vals v;
      vals_ready := true
    end;
    v
  in
  List.fold_left
    (fun acc sp ->
      let n = Array.length sp.sp_pos in
      if n = 0 then acc
      else begin
        let cycles =
          match cycles_of sp with
          | Some c -> c
          | None ->
            let v = vals () in
            for i = 0 to n - 1 do
              batch.(i) <- v.(sp.sp_pos.(i))
            done;
            G.Access.bank_cycles_arr device ~elem_bytes:sp.sp_elem batch n
        in
        {
          acc with
          smem_phases = acc.smem_phases + 1;
          smem_accesses = acc.smem_accesses + n;
          smem_cycles = acc.smem_cycles + cycles;
        }
      end)
    {
      smem_phases = 0;
      smem_accesses = 0;
      smem_cycles = 0;
      gmem_txns = pc.p_gmem_txns;
      ops;
    }
    pc.p_shared

let compiled_score ~(device : G.Device.t) c ~ops phases =
  let pc = precomp_for ~device ~dims:(Compiled.dims c) phases in
  fold_shared ~device ~ops pc
    ~eval_vals:(fun vals ->
      Array.iteri (fun i u -> vals.(i) <- Compiled.apply_flat c u) pc.p_uniq)
    ~cycles_of:(fun _ -> None)

(* Closed-form scoring of an F₂-linear candidate: each full-warp affine
   phase composes its lane map with the candidate matrix and reads the
   conflict multiplicity off two ranks — no per-lane evaluation at all.
   Phases outside the affine precondition (partial warps, non-affine
   lane maps, odd geometry) fall back to evaluating the candidate {e
   through the matrix} and counting with the simulator's own
   {!Lego_gpusim.Access} arithmetic, so the score stays exact — and
   bit-identical to {!compiled_score} — in every case. *)
let oracle_score ~(device : G.Device.t) lin ~ops ~dims phases =
  let pc = precomp_for ~device ~dims phases in
  fold_shared ~device ~ops pc
    ~eval_vals:(fun vals ->
      Array.iteri (fun i u -> vals.(i) <- F2.Linear.apply lin u) pc.p_uniq)
    ~cycles_of:(fun sp ->
      match sp.sp_lane with
      | Some lane ->
        let a, _ = F2.Oracle.compose_warp lin lane in
        F2.Oracle.bank_cycles ~nbanks:device.smem_banks
          ~bank_bytes:device.smem_bank_bytes ~elem_bytes:sp.sp_elem a
      | None -> None)

let linear_memo : (string, F2.Linear.t option) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let linear_of ?(memoize = true) g =
  if not memoize then F2.Linear.of_layout g
  else begin
    let tbl = Domain.DLS.get linear_memo in
    let fp = Fingerprint.of_layout g in
    match Hashtbl.find_opt tbl fp with
    | Some r -> r
    | None ->
      let r = F2.Linear.of_layout g in
      Hashtbl.add tbl fp r;
      r
  end

(* Per-dimension decomposition of the symbolic op count.  A chain stage
   contributes the same index arithmetic whatever the other stages are,
   so the op cost of a candidate decomposes (up to the constant glue the
   default weights assign to composition, which is identical for every
   candidate of a family) into a sum of per-stage costs.  At mega-space
   scale candidates share stages heavily — every member of a swizzle
   grid shares its base tiling, every tiling shares pieces — so
   memoizing per {e stage} instead of per candidate turns the dominant
   [Sym.apply]+[Cost.ops] cost into a table hit for all but the first
   carrier of each stage.  The decomposition is a ranking surrogate, not
   the exact whole-layout count; [score ?ops] lets the funnel choose it
   explicitly while every other caller keeps the exact count. *)
let stage_memo : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let stage_ops (o : L.Order_by.t) =
  let wrap = L.Group_by.make ~chain:[ o ] [ [ L.Order_by.numel o ] ] in
  let key = Fingerprint.of_layout wrap in
  let tbl = Domain.DLS.get stage_memo in
  match Hashtbl.find_opt tbl key with
  | Some n -> n
  | None ->
    let n = Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply wrap) in
    Hashtbl.add tbl key n;
    n

let decomposed_ops (g : L.Group_by.t) =
  match L.Group_by.chain g with
  | [] -> Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g)
  | chain -> List.fold_left (fun acc o -> acc + stage_ops o) 0 chain

let score ~device ?(oracle = false) ?(memoize = true) ?ops (g : L.Group_by.t)
    phases =
  let ops =
    match ops with
    | Some n -> n
    | None -> Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g)
  in
  match if oracle then linear_of ~memoize g else None with
  | Some lin -> oracle_score ~device lin ~ops ~dims:(L.Group_by.dims g) phases
  | None ->
    let c = if memoize then Compiled.of_layout g else Compiled.compile g in
    compiled_score ~device c ~ops phases

(* The reference oracle for {!score}: every active lane's address
   through the structural interpreter ([Group_by.apply_ints]), counted
   with the simulator's own {!Lego_gpusim.Access} arithmetic, with no
   precomputation, closed form or memo table in between.  The tuner
   never calls it. *)
let reference_score ~(device : G.Device.t) (g : L.Group_by.t) phases =
  let lanes_of f = List.filter_map f (List.init device.warp_size Fun.id) in
  List.fold_left
    (fun acc phase ->
      match phase with
      | Shared { elem_bytes; lanes } ->
        let addrs = List.map (L.Group_by.apply_ints g) (lanes_of lanes) in
        if addrs = [] then acc
        else
          {
            acc with
            smem_phases = acc.smem_phases + 1;
            smem_accesses = acc.smem_accesses + List.length addrs;
            smem_cycles =
              acc.smem_cycles + G.Access.bank_cycles device ~elem_bytes addrs;
          }
      | Global { elem_bytes; addrs } ->
        let addrs = lanes_of addrs in
        if addrs = [] then acc
        else
          {
            acc with
            gmem_txns =
              acc.gmem_txns + G.Access.txn_count device ~elem_bytes addrs;
          })
    {
      smem_phases = 0;
      smem_accesses = 0;
      smem_cycles = 0;
      gmem_txns = 0;
      ops = Lego_symbolic.Cost.ops (Lego_symbolic.Sym.apply g);
    }
    phases

(* Total order used for pruning and beam survival: fewest conflict cycles
   first, then fewest global transactions, then cheapest index
   arithmetic; the fingerprint breaks remaining ties so the order never
   depends on traversal or scheduling. *)
let compare_ranked (s1, fp1) (s2, fp2) =
  let c = compare s1.smem_cycles s2.smem_cycles in
  if c <> 0 then c
  else
    let c = compare s1.gmem_txns s2.gmem_txns in
    if c <> 0 then c
    else
      let c = compare s1.ops s2.ops in
      if c <> 0 then c else Fingerprint.compare fp1 fp2

let pp ppf s =
  Format.fprintf ppf
    "smem %d cyc / %d phases (%s), gmem %d txns, %d ops"
    s.smem_cycles s.smem_phases
    (if conflict_free s then "conflict-free" else "conflicted")
    s.gmem_txns s.ops
