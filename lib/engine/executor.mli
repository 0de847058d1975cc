(** The executor (paper §5.2): a demand-driven evaluator over lazy item
    sequences — OCaml's [Seq.t] provides the open-next-close pipeline
    of the Volcano design the paper cites.  Blocking operators (DDO,
    sorting, [last()]) materialize; everything else streams.

    [Schema_path] expressions — structural paths extracted by the
    rewriter (§5.1.4) — resolve against the descriptive schema in main
    memory and become merged block-chain scans. *)

type join_memo
(** Build sides of the statement's transient hash probes
    ({!Sedna_xquery.Xq_ast.Transient_hash}), keyed by probe node. *)

type ctx = {
  st : Sedna_core.Store.t;
  vars : (string * Xdm.value) list;
  funcs : (string * Sedna_xquery.Xq_ast.fun_def) list;
  item : Xdm.item option;  (** the context item *)
  pos : int;  (** context position, for [position()] *)
  size : int Lazy.t;  (** context size, for [last()] *)
  virtual_ok : bool;
      (** inside a [Virtual_constr]: constructors may reference stored
          content instead of deep-copying it (paper §5.2.1) *)
  prof : Profiler.t option;
      (** operator-level profiling context ([Session.profile]); [None]
          keeps evaluation on the unobserved path *)
  joins : join_memo;
      (** hash tables built so far in this statement; shared by every
          context derived from the statement's initial one *)
}

val new_joins : unit -> join_memo
(** An empty memo: evaluation after a modification of the store (an
    update's per-target [with] expression) must not reuse tables built
    before it. *)

val initial_ctx :
  ?vars:(string * Xdm.value) list ->
  ?funcs:(string * Sedna_xquery.Xq_ast.fun_def) list ->
  Sedna_core.Store.t ->
  ctx
(** A fresh context for one statement, with an empty {!join_memo}. *)

val eval : ctx -> Sedna_xquery.Xq_ast.expr -> Xdm.item Seq.t
(** Evaluate an expression (after static analysis and rewriting). *)

val ddo : ctx -> Xdm.item Seq.t -> Xdm.item Seq.t
(** Distinct-document-order: sort by document order, drop duplicate
    nodes; the blocking operator the rewriter tries to remove. *)

val test_matches : ctx -> Sedna_xquery.Xq_ast.node_test -> Xdm.node -> bool

val eval_top : ctx -> Sedna_xquery.Xq_ast.expr -> Xdm.item Seq.t
