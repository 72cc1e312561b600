(* Section 5 of the paper: instantiating a layout-independent Triton
   matmul template.  The kernel text is fixed; the four transpose
   variants differ only in the Row/Col pieces below.

   Run with: dune exec examples/matmul_codegen.exe *)

open Lego_layout
module E = Lego_symbolic.Expr
module R = Lego_symbolic.Range
module T = Lego_codegen.Triton_printer

let template =
  {|@triton.jit
def matmul_kernel(a_ptr, b_ptr, c_ptr, M, N, K,
                  BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr,
                  GM: tl.constexpr):
    pid = tl.program_id(axis=0)
    lpid_m = {{ lpid_m }}
    lpid_n = {{ lpid_n }}
    accumulator = tl.zeros((BM, BN), dtype=tl.float32)
    for k in range(0, tl.cdiv(K, BK)):
        a_ptrs = a_ptr + {{ la_optr }}
        b_ptrs = b_ptr + {{ lb_optr }}
        a = tl.load(a_ptrs)
        b = tl.load(b_ptrs)
        accumulator = tl.dot(a, b, accumulator)
    c = accumulator.to(tl.float16)
    c_ptrs = c_ptr + {{ lc_optr }}
    tl.store(c_ptrs, c)
|}

let () =
  (* Concrete instantiation sizes (Triton requires static arange bounds). *)
  let m = 1024 and n = 1024 and k = 512 in
  let bm = 128 and bn = 128 and bk = 32 and gm = 8 in
  let num_pid_m = m / bm and num_pid_n = n / bn in

  (* Computation layout: Triton's grouped program-id ordering. *)
  let cl =
    Sugar.tiled_view
      ~order:[ Sugar.col [ num_pid_m / gm; 1 ]; Sugar.col [ gm; num_pid_n ] ]
      ~group:[ [ num_pid_m; num_pid_n ] ] ()
  in
  let lpid_m, lpid_n =
    (* [Sym.inv] names the flat offset [p]; the kernel calls it [pid]. *)
    let pid = E.subst [ ("p", E.var "pid") ] in
    match List.map pid (Lego_symbolic.Sym.inv cl) with
    | [ a; b ] -> (T.expr a, T.expr b)
    | _ -> assert false
  in

  (* Data layouts: change `row` to `col` here to generate the transposed
     kernels — nothing else changes. *)
  let dl rows cols brows bcols order =
    Sugar.tiled_view ~order:[ order ]
      ~group:[ [ rows / brows; cols / bcols ]; [ brows; bcols ] ] ()
  in
  let dla = dl m k bm bk (Sugar.row [ m; k ]) in
  let dlb = dl k n bk bn (Sugar.row [ k; n ]) in
  let dlc = dl m n bm bn (Sugar.row [ m; n ]) in

  let env =
    R.env_of_list
      [
        ("lpid_m", R.of_extent num_pid_m);
        ("lpid_n", R.of_extent num_pid_n);
        ("k", R.of_extent (k / bk));
      ]
  in
  let tile layout indices = T.slice_offset ~env layout indices in
  let bindings =
    [
      ("lpid_m", lpid_m);
      ("lpid_n", lpid_n);
      ( "la_optr",
        tile dla [ T.Fix (E.var "lpid_m"); T.Fix (E.var "k"); T.All; T.All ] );
      ( "lb_optr",
        tile dlb [ T.Fix (E.var "k"); T.Fix (E.var "lpid_n"); T.All; T.All ] );
      ( "lc_optr",
        tile dlc
          [ T.Fix (E.var "lpid_m"); T.Fix (E.var "lpid_n"); T.All; T.All ] );
    ]
  in
  print_string (Lego_codegen.Template.render_exn ~bindings template)
