(** Operation-count cost model (section 4.1 of the paper).

    The paper generates both the expanded and the unexpanded variant of an
    index expression and keeps the one with the fewest operations; this
    module provides that count and the selection. *)

type weights = {
  add : int;
  mul : int;
  div : int;
  md : int;
  select : int;
  cmp : int;
  isqrt : int;
}

val default_weights : weights
(** Uniform cost 1 for cheap ALU ops; division, modulo and square root are
    costed higher (3), mirroring GPU instruction throughput. *)

val ops : ?weights:weights -> Expr.t -> int
(** Weighted operation count ([Add]/[Mul] of [n] arguments count [n-1]
    operations; leaves are free). *)

val cheapest : Expr.t list -> Expr.t
(** The lowest-cost expression of a non-empty list under
    {!default_weights} (first wins ties).  Raises [Invalid_argument] on
    an empty list. *)

val best_of_expansion : env:Range.env -> Expr.t -> Expr.t
(** Simplify both the original and the pre-expanded form and return the
    cheaper result under {!default_weights} — the paper's
    cost-model-guided choice. *)
