(* Recorded tune expectations: for each (slot, device), the default
   search's winner (fingerprint) and its simulated time in seconds. *)

let matmul = "OrderBy2(GenP(swizzlex_m31_s0[128, 32])).OrderBy2(RegP([128, 32], [1, 2])).GroupBy2([128, 32])"
let transpose = "OrderBy2(GenP(swizzlex_m31_s0[32, 32])).OrderBy2(RegP([32, 32], [1, 2])).GroupBy2([32, 32])"
let nw = "OrderBy2(GenP(cyclicdiag[17, 17])).GroupBy2([17, 17])"

let tune =
  [
    (("matmul", "a100"), (matmul, 3.7730496453900711e-06));
    (("matmul", "h100"), (matmul, 3.5956284153005465e-06));
    (("matmul", "rtx4090"), (matmul, 3.4325396825396827e-06));
    (("transpose", "a100"), (transpose, 7.3351979328165374e-06));
    (("transpose", "h100"), (transpose, 5.5040620895522388e-06));
    (("transpose", "rtx4090"), (transpose, 1.1322031746031747e-05));
    (("nw", "a100"), (nw, 0.0003402000000000003));
    (("nw", "h100"), (nw, 0.00030549836065573772));
    (("nw", "rtx4090"), (nw, 0.00026728723809523835));
  ]
