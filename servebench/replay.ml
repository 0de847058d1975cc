(* In-process replay of a statement stream, recomposed from the public
   calls [Session.execute] is made of, so each layer can be timed from
   outside: engine-lock wait, parse, static analysis, rewrite, lock
   acquisition, [Executor.eval_top] / [Update_exec.execute],
   serialization and commit.  With a tracer, every call becomes a span
   carrying the counter deltas taken at its boundaries; without one,
   the same code runs unobserved (the baseline for trace overhead).

   The recomposition mirrors lib/db/session.ml: a per-connection plan
   cache keyed by statement text and catalog epoch, read-only snapshot
   transactions for queries, S2PL document locks for updates, commits
   parked through [Governor.without_engine], and lock-timeout restarts
   of auto-commit updates.  Its results go through the same oracle as
   served results, so a drift from [Session] shows up as failures. *)

open Sedna_core
module Ast = Sedna_xquery.Xq_ast
module Rw = Sedna_xquery.Rewriter
module C = Sedna_util.Counters

(* ---- spans ---------------------------------------------------------- *)

(* counters sampled at every span boundary *)
let tracked =
  [|
    C.deref; C.vas_fast_hit; C.buffer_hit; C.page_reads; "buffer.evict";
    C.page_writes; C.index_probe; C.lock_retry; C.wal_syncs; C.fields_updated;
  |]

let cells = Array.map C.cell tracked
let sample () = Array.map (fun c -> !c) cells

type span = {
  op : int;  (** the operation (trace) this span belongs to *)
  id : int;
  parent : int;  (** 0 = the operation's root *)
  name : string;
  t0 : float;
  t1 : float;
  deltas : int array;  (** counter deltas over the span, see [tracked] *)
  note : int;  (** result items of an execute span, else 0 *)
}

(* One per thread: spans stay in memory until the run ends. *)
type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable cur : int;
  mutable op : int;
  base : int;  (** id space of this tracer, so ids are unique per run *)
}

let tracer ~conn = { spans = []; next_id = 0; cur = 0; op = 0; base = (conn + 1) lsl 40 }

let mono = Sedna_util.Metrics.mono

let span_note tr name f =
  match tr with
  | None -> fst (f ())
  | Some tr ->
    tr.next_id <- tr.next_id + 1;
    let id = tr.base + tr.next_id in
    let parent = tr.cur in
    tr.cur <- id;
    let c0 = sample () in
    let t0 = mono () in
    let close note =
      let t1 = mono () in
      let c1 = sample () in
      tr.cur <- parent;
      tr.spans <-
        {
          op = tr.op;
          id;
          parent;
          name;
          t0;
          t1;
          deltas = Array.mapi (fun i x -> x - c0.(i)) c1;
          note;
        }
        :: tr.spans
    in
    (match f () with
     | r, note ->
       close note;
       r
     | exception e ->
       close 0;
       raise e)

let span tr name f = span_note tr name (fun () -> (f (), 0))

(* the delta of one tracked counter over a span *)
let delta (s : span) name =
  let rec find i = if tracked.(i) = name then s.deltas.(i) else find (i + 1) in
  find 0

(* A span whose interval was measured by the caller (engine-lock wait:
   it starts before the lock is held and ends when the closure runs). *)
let add_span tr name ~t0 ~t1 =
  match tr with
  | None -> ()
  | Some tr ->
    tr.next_id <- tr.next_id + 1;
    tr.spans <-
      {
        op = tr.op;
        id = tr.base + tr.next_id;
        parent = tr.cur;
        name;
        t0;
        t1;
        deltas = Array.make (Array.length tracked) 0;
        note = 0;
      }
      :: tr.spans

(* ---- the recomposed statement pipeline ------------------------------ *)

type conn = {
  gov : Sedna_db.Governor.t;
  db : Database.t;
  plans : (string, int * Ast.statement) Hashtbl.t;  (** text -> (epoch, plan) *)
  tr : tracer option;
  opts : Rw.options;  (** optimizer switches; a served session runs the defaults *)
}

let conn ?tr ?(opts = Rw.default_options) gov db =
  { gov; db; plans = Hashtbl.create 64; tr; opts }

let optimize c (prolog : Ast.prolog) e =
  let e = if c.opts.Rw.inline_functions then Rw.inline_functions prolog.Ast.functions e else e in
  Rw.rewrite_with ~catalog:(Database.catalog c.db) c.opts e

let opt_vars c (prolog : Ast.prolog) =
  { prolog with Ast.variables = List.map (fun (v, e) -> (v, optimize c prolog e)) prolog.Ast.variables }

let compile c (stmt : Ast.statement) =
  match stmt with
  | Ast.Query (prolog, e) ->
    span c.tr "analyse" (fun () -> ignore (Sedna_xquery.Static.analyse prolog e));
    span c.tr "rewrite" (fun () -> Ast.Query (opt_vars c prolog, optimize c prolog e))
  | Ast.Update (prolog, u) ->
    span c.tr "rewrite" (fun () ->
        let o = optimize c prolog in
        let u =
          match u with
          | Ast.Insert_into (a, b) -> Ast.Insert_into (o a, o b)
          | Ast.Insert_preceding (a, b) -> Ast.Insert_preceding (o a, o b)
          | Ast.Insert_following (a, b) -> Ast.Insert_following (o a, o b)
          | Ast.Delete a -> Ast.Delete (o a)
          | Ast.Delete_undeep a -> Ast.Delete_undeep (o a)
          | Ast.Replace (v, a, b) -> Ast.Replace (v, o a, o b)
          | Ast.Rename (a, n) -> Ast.Rename (o a, n)
        in
        Ast.Update (opt_vars c prolog, u))
  | Ast.Ddl _ -> stmt

let plan c text =
  let epoch = Catalog.epoch (Database.catalog c.db) in
  match Hashtbl.find_opt c.plans text with
  | Some (e, p) when e = epoch -> p
  | _ ->
    let parsed = span c.tr "parse" (fun () -> Sedna_xquery.Xq_parser.parse_statement text) in
    let p = compile c parsed in
    Hashtbl.replace c.plans text (epoch, p);
    p

let build_ctx st (prolog : Ast.prolog) =
  let module X = Sedna_engine.Executor in
  let funcs = List.map (fun (f : Ast.fun_def) -> (Sedna_util.Xname.local f.Ast.fn_name, f)) prolog.Ast.functions in
  let ctx0 = X.initial_ctx ~funcs st in
  let vars =
    List.fold_left
      (fun vars (v, e) -> (v, List.of_seq (X.eval { ctx0 with X.vars } e)) :: vars)
      [] prolog.Ast.variables
  in
  { ctx0 with X.vars }

let park c wait = Sedna_db.Governor.without_engine c.gov wait

let abort_quietly db txn = if Txn.is_active txn then try Database.abort db txn with _ -> ()

let query c prolog e =
  let txn = Database.begin_txn ~read_only:true c.db in
  try
    let st = Database.txn_store c.db txn in
    let out =
      Database.run c.db txn (fun () ->
          let ctx = build_ctx st prolog in
          let items =
            span_note c.tr "execute" (fun () ->
                let l = List.of_seq (Sedna_engine.Executor.eval_top ctx e) in
                (l, List.length l))
          in
          span c.tr "serialize" (fun () -> Sedna_engine.Xdm.serialize st (List.to_seq items)))
    in
    span c.tr "commit" (fun () -> Database.commit ~park:(park c) c.db txn);
    Sedna_db.Session.Items out
  with e ->
    abort_quietly c.db txn;
    raise e

let update c stmt prolog u =
  let locks = Sedna_db.Session.statement_locks c.db stmt in
  let once () =
    let txn = Database.begin_txn ~read_only:false c.db in
    try
      span c.tr "lock" (fun () ->
          List.iter (fun (doc, mode) -> Database.lock_exn c.db txn ~doc ~mode) locks);
      let n =
        Database.run c.db txn (fun () ->
            let ctx = build_ctx (Database.txn_store c.db txn) prolog in
            Txn.log_op txn "update";
            span c.tr "update" (fun () -> Sedna_engine.Update_exec.execute ctx u))
      in
      span c.tr "commit" (fun () -> Database.commit ~park:(park c) c.db txn);
      n
    with e ->
      abort_quietly c.db txn;
      raise e
  in
  let rec attempt n =
    match once () with
    | r -> Sedna_db.Session.Updated r
    | exception Sedna_util.Error.Sedna_error (Sedna_util.Error.Lock_timeout, _) when n < 20 ->
      C.bump C.stmt_lock_restarts;
      park c (fun () -> Unix.sleepf (Float.min 0.008 (0.0005 *. float_of_int (1 lsl n))));
      attempt (n + 1)
  in
  attempt 1

(* One auto-commit statement: wait for the engine lock, then run. *)
let execute c ~op text =
  (match c.tr with Some tr -> tr.op <- op | None -> ());
  span c.tr "op" (fun () ->
      let t_call = mono () in
      Sedna_db.Governor.with_engine c.gov (fun () ->
          add_span c.tr "engine.wait" ~t0:t_call ~t1:(mono ());
          span c.tr "statement" (fun () ->
              match plan c text with
              | Ast.Query (prolog, e) -> query c prolog e
              | Ast.Update (prolog, u) as stmt -> update c stmt prolog u
              | Ast.Ddl _ ->
                Sedna_util.Error.raise_error Sedna_util.Error.Unsupported
                  "the replay runs queries and updates only")))

(* ---- trace output --------------------------------------------------- *)

let write_jsonl path (spans : span list) =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        {|{"op":%d,"id":%d,"parent":%d,"name":"%s","start_ms":%.4f,"dur_ms":%.4f,"items":%d,"counters":{%s}}|}
        s.op s.id s.parent s.name (s.t0 *. 1000.) ((s.t1 -. s.t0) *. 1000.) s.note
        (String.concat ","
           (List.filteri (fun _ x -> x <> "")
              (Array.to_list
                 (Array.mapi
                    (fun i d -> if d = 0 then "" else Printf.sprintf {|"%s":%d|} tracked.(i) d)
                    s.deltas))));
      output_char oc '\n')
    spans;
  close_out oc

(* Self time of each span = its duration minus the part of it covered
   by its children (children of one span never overlap: one thread). *)
let self_times (spans : span list) : (span * float) list =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun (s : span) -> (s, Float.max 0. (s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id))))
    spans
