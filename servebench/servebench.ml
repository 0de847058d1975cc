(* The serving benchmark.  One process starts the governor and the TCP
   server in-process; a second process, this executable run with
   --drive PORT, drives a seeded workload over loopback through
   [Server_client] with a closed loop of 2 connections.

     servebench.exe --workload point_read --seed 1 --seconds 10 --trace 0

   --trace 0 reports the end-to-end metrics of the served run.
   --trace 1 reports the per-layer metrics: a shorter served run for
   counter deltas and client round trips, then the same streams
   replayed in-process (Replay) untraced and traced, the latter with a
   span around every layer call.  The last line of output is one JSON
   object; see README.md for every metric. *)

open Sedna_core
module G = Sedna_db.Governor
module S = Sedna_db.Session
module Server = Sedna_server.Server
module Client = Sedna_server.Server_client
module C = Sedna_util.Counters
module W = Workload

let mono = Sedna_util.Metrics.mono
let pf = Printf.printf
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b

(* ---- arguments -------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let drive_port = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point_read | analytic_scan | update_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--drive", Arg.Set_int drive_port, "PORT run as the load generator of a server on PORT");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench --workload NAME --seed N --seconds S --trace 0|1"

(* every file the benchmark writes lives under here, in the checkout *)
let work_root = ".servebench"

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ---- set-up ----------------------------------------------------------- *)

type setup = {
  dir : string;
  gov : G.t;
  db : Database.t;
  srv : Server.t;
  events : Sedna_xml.Xml_event.t list;
  frames : int;
  data_pages : int;
  nodes : int;
  setup_s : float;
  load_s : float;
  index_s : float;
  ckpt_s : float;
}

let index_stmt =
  {|CREATE INDEX "current" ON doc("a")/site/open_auctions/open_auction BY current AS xs:double|}

(* Warm-up touches every data and index page without running any
   statement text of the measured streams, so the plan cache starts
   cold and the key skew alone decides its hit ratio. *)
let warmups =
  [|
    {|string-length(string(doc("a")))|};
    {|count(doc("a")/site/open_auctions/open_auction[current >= 0])|};
  |]

let generate () =
  Sedna_workloads.Generators.auction ~seed:!seed ~items:W.items ~people:W.people
    ~auctions:W.auctions ()

(* Generate, load, index, checkpoint, reopen with the workload's pool,
   start the server, connect and warm up: everything before the clock.
   The warm-up connections are closed again, so both workers are free
   for the load generator's. *)
let setup (wl : W.t) ~k =
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d-%d" wl.W.name (Unix.getpid ()) k) in
  rm_rf dir;
  let t0 = mono () in
  let events = generate () in
  let db = Database.create dir in
  let load_s, (_, nodes) =
    Sedna_util.Metrics.time (fun () ->
        Database.with_txn db (fun txn st ->
            Database.lock_exn db txn ~doc:"a" ~mode:Lock_mgr.Exclusive;
            Loader.load_events st ~doc_name:"a" events))
  in
  let index_s, _ = Sedna_util.Metrics.time (fun () -> S.execute (S.connect db) index_stmt) in
  let ckpt_s, () = Sedna_util.Metrics.time (fun () -> Database.checkpoint db) in
  let data_pages = File_store.page_count (Buffer_mgr.store (Database.buffer db)) in
  Database.close db;
  (* reopen: a pool sized now stays that size, where one sized before
     the load would have grown during the load transaction *)
  let frames = match wl.W.pool with `Frames n -> n | `Share n -> max 16 (data_pages / n) in
  let db = Database.open_existing ~buffer_frames:frames dir in
  let gov = G.create () in
  G.register_database gov ~name:"bench" db;
  let srv = Server.start ~config:{ Server.default_config with Server.pool_size = 2 } gov in
  let clients =
    Array.init 2 (fun _ ->
        let c = Client.connect ~port:(Server.port srv) () in
        ignore (Client.open_db c "bench");
        c)
  in
  Array.iteri (fun i q -> ignore (Client.execute clients.(i) q)) warmups;
  Array.iter Client.close clients;
  let setup_s = mono () -. t0 in
  { dir; gov; db; srv; events; frames; data_pages; nodes; setup_s; load_s; index_s; ckpt_s }

let stop st = Server.stop st.srv

(* ---- the closed loop -------------------------------------------------- *)

type outcome = {
  op : W.op;
  res : (S.result, string) result;
  lo : int;  (** writes acknowledged before the request was sent *)
  hi : int;  (** ... after its reply arrived, plus the one in flight *)
  ms : float;  (** client latency *)
}

type run = {
  outcomes : outcome list;
  reads : Stats.t;  (** ms *)
  writes : Stats.t;  (** ms *)
  ops : int;
  wall_s : float;
  classes : (int * W.op) list;  (** op number -> op, for span grouping *)
}

(* Each connection sends its next statement only after the previous
   reply: [exec conn op_number text] is the round trip. *)
let drive ~(u : W.umodel) ~(streams : (unit -> W.op) array) ~seconds
    (exec : int -> int -> string -> S.result) =
  let n = Array.length streams in
  let per = Array.init n (fun _ -> (Stats.create (), Stats.create (), ref [], ref [])) in
  let t_start = mono () in
  let deadline = t_start +. seconds in
  let body i () =
    let rd, wr, out, cls = per.(i) in
    let k = ref 0 in
    while mono () < deadline do
      let op = streams.(i) () in
      incr k;
      let opn = (i lsl 32) lor !k in
      let lo = Atomic.get u.W.acked in
      let t0 = mono () in
      let res =
        try Ok (exec i opn op.W.text) with
        | Client.Remote_error (code, msg) -> Error (code ^ ": " ^ msg)
        | e -> Error (Printexc.to_string e)
      in
      let t1 = mono () in
      let dt = (t1 -. t0) *. 1000. in
      (match (op.W.check, res) with
       | W.Ack (v, _), Ok _ -> Atomic.set u.W.acked v
       | W.Ack (v, a), Error _ -> W.revert u v a
       | _ -> ());
      Stats.add (if op.W.kind = W.Read then rd else wr) dt;
      out := { op; res; lo; hi = Atomic.get u.W.acked + 1; ms = dt } :: !out;
      cls := (opn, op) :: !cls
    done
  in
  let ts = List.init n (fun i -> Thread.create (body i) ()) in
  List.iter Thread.join ts;
  let wall_s = mono () -. t_start in
  let all f = List.concat_map (fun p -> !(f p)) (Array.to_list per) in
  let outcomes = all (fun (_, _, o, _) -> o) in
  {
    outcomes;
    reads = Stats.merge (Array.to_list (Array.map (fun (r, _, _, _) -> r) per));
    writes = Stats.merge (Array.to_list (Array.map (fun (_, w, _, _) -> w) per));
    ops = List.length outcomes;
    wall_s;
    classes = all (fun (_, _, _, c) -> c);
  }

(* client latency per statement class, printed for diagnosis *)
let print_classes r =
  let by = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let c = o.op.W.cls in
      Hashtbl.replace by c (o.ms :: Option.value ~default:[] (Hashtbl.find_opt by c)))
    r.outcomes;
  List.iter
    (fun (c, l) ->
      let s = Stats.of_list l in
      pf "class %-18s %6d  p50 %9.3f ms  p95 %9.3f ms\n" c (Stats.count s) (Stats.median s)
        (Stats.quantile s 0.95))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by []))

(* statements completed per second over both connections *)
let ops_per_s r = fi r.ops /. r.wall_s

(* The load generator (--drive PORT): rebuild the seeded streams from
   the seed, drive them against the server on PORT and write the run
   and the writer's model, marshalled, to stdout.  Its stdin is a pipe
   from the server process; end of file there means that process is
   gone, and the load generator exits at once. *)
let load_generator (wl : W.t) ~port =
  ignore
    (Thread.create
       (fun () ->
         (try ignore (Unix.read Unix.stdin (Bytes.create 1) 0 1) with Unix.Unix_error _ -> ());
         exit 3)
       ());
  let model = Model.of_events (generate ()) in
  let u = W.umodel model in
  let streams = wl.W.streams ~seed:!seed model u in
  let clients =
    Array.init 2 (fun _ ->
        let c = Client.connect ~port () in
        ignore (Client.open_db c "bench");
        c)
  in
  let r = drive ~u ~streams ~seconds:!seconds (fun i _ text -> Client.execute clients.(i) text) in
  Array.iter Client.close clients;
  Marshal.to_channel stdout ((r, u) : run * W.umodel) [];
  flush stdout

(* A served phase: run the load generator in a process of its own and
   wait for its result.  Client threads inside this process would share
   the OCaml runtime lock with the server's threads, and client latency
   would then time that lock's hand-offs rather than the server. *)
let served (wl : W.t) st ~seconds : run * W.umodel =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let alive_rd, alive_wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "--drive"; string_of_int (Server.port st.srv); "--workload"; wl.W.name;
      "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%.17g" seconds;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args alive_rd wr Unix.stderr in
  Unix.close wr;
  Unix.close alive_rd;
  let ic = Unix.in_channel_of_descr rd in
  let status = ref None in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      Unix.close alive_wr;
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let res =
        try Some (Marshal.from_channel ic : run * W.umodel) with End_of_file | Failure _ -> None
      in
      let _, st = Unix.waitpid [] pid in
      status := Some st;
      match (res, st) with
      | Some r, Unix.WEXITED 0 -> r
      | _ -> failwith "servebench: the load generator ended without a result")

let replayed st ~u ~streams ~seconds ~tracers =
  let conns = Array.mapi (fun i _ -> Replay.conn ?tr:tracers.(i) st.gov st.db) streams in
  drive ~u ~streams ~seconds (fun i opn text ->
      let r = Replay.execute conns.(i) ~op:opn text in
      (* a served connection gives the engine lock up for a wire round
         trip between statements; without a yield the other replay
         thread could hardly ever re-take it after a commit park *)
      Thread.yield ();
      r)

(* ---- the oracle ------------------------------------------------------- *)

type verdict = { mutable failed : int; mutable notes : string list }

let fail v fmt =
  Printf.ksprintf
    (fun s ->
      v.failed <- v.failed + 1;
      if List.length v.notes < 10 then v.notes <- s :: v.notes)
    fmt

(* served results of one static statement text *)
type seen = { cls : string; first : string; mutable n : int }

(* Judge every outcome.  Static-document texts are collected in [seen]
   for the plan-difference gate. *)
let judge v ~(u : W.umodel) (seen : (string, seen) Hashtbl.t) (outs : outcome list) =
  List.iter
    (fun o ->
      match (o.op.W.check, o.res) with
      | _, Error msg -> fail v "%s: %s" o.op.W.text msg
      | W.Expect x, Ok (S.Items s) -> (
        if x <> s then fail v "%s: got %S, model says %S" o.op.W.text s x;
        match Hashtbl.find_opt seen o.op.W.text with
        | Some r ->
          r.n <- r.n + 1;
          if r.first <> s then fail v "%s: served two different results" o.op.W.text
        | None -> Hashtbl.replace seen o.op.W.text { cls = o.op.W.cls; first = s; n = 1 })
      | W.Auction (a, p), Ok (S.Items s) ->
        if not (List.exists (fun l -> W.project p l = s) (W.window u a ~lo:o.lo ~hi:o.hi)) then
          fail v "%s: %S matches no committed state in its window" o.op.W.text s
      | W.Ack _, Ok (S.Updated 1) -> ()
      | _, Ok r -> fail v "%s: unexpected result %S" o.op.W.text (S.result_to_string r))
    outs

module Rw = Sedna_xquery.Rewriter

(* The plans a text may be re-run under, in order of preference: all
   rules off, else one cheap rule off.  The first whose compiled plan
   differs from the served one is used.  (//-combining is not among
   them: without it the value join costs seconds a statement.) *)
let replans =
  let d = Rw.default_options in
  [
    ("rewriter off", Rw.no_options);
    ("DDO removal off", { d with Rw.remove_ddo = false });
    ("path extraction off", { d with Rw.extract_structural = false });
    ("indexes off", { d with Rw.use_indexes = false });
  ]

(* classes whose rewriter-off plan takes hundreds of ms per statement *)
let raw_too_slow = [ "item_text"; "value_join" ]

(* Correctness gate, off the clock: re-run each distinct static text
   once in-process under a plan that differs from the served one and
   compare with what was served.  The rewriter off is skipped for the
   slow classes and once [budget_s] is spent.  A text that no switch
   re-plans is still re-run, under the served plan, and printed as not
   re-planned. *)
let gate v st (seen : (string, seen) Hashtbl.t) ~budget_s =
  let session opts =
    let s = S.connect st.db in
    S.set_rewriter_options s opts;
    s
  in
  let served = Replay.conn st.gov st.db in
  let alts = List.map (fun (name, opts) -> (name, Replay.conn ~opts st.gov st.db, session opts)) replans in
  let same = session Rw.default_options in
  let texts = List.sort compare (Hashtbl.fold (fun k r acc -> (k, r) :: acc) seen []) in
  let t0 = mono () in
  let used = Hashtbl.create 4 in
  List.iter
    (fun (text, r) ->
      let p = Replay.plan served text in
      let usable name =
        name <> "rewriter off" || ((not (List.mem r.cls raw_too_slow)) && mono () -. t0 < budget_s)
      in
      let name, s =
        match List.find_opt (fun (n, c, _) -> usable n && Replay.plan c text <> p) alts with
        | Some (n, _, s) -> (n, s)
        | None -> ("not re-planned", same)
      in
      Hashtbl.replace used name (1 + Option.value ~default:0 (Hashtbl.find_opt used name));
      match G.with_engine st.gov (fun () -> S.execute_string s text) with
      | x when x = r.first -> ()
      | x ->
        for _ = 2 to r.n do fail v "%s" text done;
        fail v "%s: served %S, re-planned (%s) %S" text r.first name x
      | exception e -> fail v "%s: re-planned (%s) run raised %s" text name (Printexc.to_string e))
    texts;
  pf "gate: %d distinct static texts re-run in %.1f s:%s\n%!" (List.length texts) (mono () -. t0)
    (String.concat ","
       (List.filter_map
          (fun n -> Option.map (fun c -> Printf.sprintf " %d %s" c n) (Hashtbl.find_opt used n))
          (List.map fst replans @ [ "not re-planned" ])))

(* Stop the server (checkpoint + close), reopen from disk and check the
   store: integrity, and for update_mixed every acknowledged write. *)
let reopen_check v st ~(u : W.umodel) ~durable =
  stop st;
  let data_bytes = (Unix.stat (Filename.concat st.dir "data.sdb")).Unix.st_size in
  let db = Database.open_existing st.dir in
  List.iter
    (fun (doc, errs) -> List.iter (fun e -> fail v "integrity %s: %s" doc e) errs)
    (Integrity.check_all (Database.store db));
  let s = S.connect db in
  let xml_bytes = String.length (S.execute_string s {|doc("a")|}) in
  if durable then begin
    let want =
      List.sort compare
        (List.concat_map
           (fun h -> List.map (fun (t, _) -> string_of_int t) (snd (List.hd h)).W.toks)
           (Array.to_list u.W.hist))
    in
    let got =
      List.sort compare
        (List.filter (( <> ) "")
           (String.split_on_char ' '
              (S.execute_string s {|for $b in doc("a")//bidder[@tok] return string($b/@tok)|})))
    in
    List.iter (fun t -> if not (List.mem t got) then fail v "acked bid %s missing after reopen" t) want;
    List.iter (fun t -> if not (List.mem t want) then fail v "deleted bid %s present after reopen" t) got;
    let cur =
      String.split_on_char ' '
        (S.execute_string s (Printf.sprintf {|for $a in %s return string($a/current)|} W.auc))
    in
    List.iteri
      (fun a c ->
        if a < Array.length u.W.hist && c <> (snd (List.hd u.W.hist.(a))).W.cur then
          fail v "auction%d: current %S after reopen, acked %S" a c (snd (List.hd u.W.hist.(a))).W.cur)
      cur
  end;
  Database.close db;
  rm_rf st.dir;
  (data_bytes, xml_bytes)

(* ---- measurements ------------------------------------------------------ *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let delta before after name =
  let g l = Option.value ~default:0 (List.assoc_opt name l) in
  g after - g before


let emit ~attempted ~failed metrics =
  List.iter (fun (name, value, unit) -> pf "%-40s %14.4f %s\n" name value unit) metrics;
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (failed = 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit)
          metrics))

(* ---- the two kinds of run ----------------------------------------------- *)

let end_to_end (wl : W.t) =
  (* set up several times; the median is the set-up metric, the last
     set-up is the one measured *)
  let n_setups = 9 in
  let rec setups k acc =
    let st = setup wl ~k in
    if k + 1 < n_setups then begin
      stop st;
      rm_rf st.dir;
      setups (k + 1) (st.setup_s :: acc)
    end
    else (st, st.setup_s :: acc)
  in
  let st, setup_times = setups 0 [] in
  (* start the clock on a compacted heap, whatever the set-ups left *)
  Gc.compact ();
  pf "document: %d nodes, %d data pages, pool %d frames\n%!" st.nodes st.data_pages st.frames;
  let r, u = served wl st ~seconds:!seconds in
  let v = { failed = 0; notes = [] } in
  let seen = Hashtbl.create 256 in
  judge v ~u seen r.outcomes;
  gate v st seen ~budget_s:3.;
  let data_bytes, xml_bytes = reopen_check v st ~u ~durable:(wl.W.name = "update_mixed") in
  let attempted = r.ops in
  let failed = min attempted v.failed in
  List.iter (pf "FAIL %s\n") (List.rev v.notes);
  print_classes r;
  (* Write latency exists only where the workload writes, so it is not
     one of the metrics every workload reports; the read tail is too
     sensitive to the host's CPU contention on update_mixed to bound.
     Both are printed here and reported by the traced run. *)
  pf "samples: %d reads (p95 %.3f ms), %d writes (p50 %.3f ms, p95 %.3f ms); error_rate %.6f (%d of %d)\n"
    (Stats.count r.reads) (Stats.quantile r.reads 0.95) (Stats.count r.writes)
    (Stats.quantile r.writes 0.5) (Stats.quantile r.writes 0.95) (ratio (fi failed) (fi attempted))
    failed attempted;
  emit ~attempted ~failed
    [
      ("setup_s", Stats.median (Stats.of_list setup_times), "s");
      ("ops_per_s", ops_per_s r, "1/s");
      ("read_p50_ms", Stats.quantile r.reads 0.5, "ms");
      ("peak_rss_mb", vm_hwm_mb (), "MB");
      ("store_bytes_per_xml_byte", fi data_bytes /. fi xml_bytes, "B/B");
    ]

let per_layer (wl : W.t) =
  let st = setup wl ~k:0 in
  Gc.compact ();
  let third = !seconds /. 3. in
  (* A: served, untraced — counters, round trips *)
  let c0 = C.snapshot_all () in
  let gc0 = (Gc.quick_stat ()).Gc.minor_words in
  let wal0 = Wal.size (Database.wal st.db) in
  let a, u = served wl st ~seconds:third in
  let gc1 = (Gc.quick_stat ()).Gc.minor_words in
  let wal1 = Wal.size (Database.wal st.db) in
  let c1 = C.snapshot_all () in
  (* B: in-process replay of the same seeded streams over the state A
     left, untraced; C: the same streams continued, traced *)
  let streams = wl.W.streams ~seed:!seed (Model.of_events st.events) u in
  let b = replayed st ~u ~streams ~seconds:third ~tracers:[| None; None |] in
  let trs = Array.init 2 (fun i -> Replay.tracer ~conn:i) in
  let c = replayed st ~u ~streams ~seconds:third ~tracers:(Array.map Option.some trs) in
  let v = { failed = 0; notes = [] } in
  let seen = Hashtbl.create 256 in
  List.iter (fun r -> judge v ~u seen r.outcomes) [ a; b; c ];
  gate v st seen ~budget_s:3.;
  ignore (reopen_check v st ~u ~durable:(wl.W.name = "update_mixed"));
  let attempted = a.ops + b.ops + c.ops in
  let failed = min attempted v.failed in
  List.iter (pf "FAIL %s\n") (List.rev v.notes);
  (* spans *)
  let spans = List.concat_map (fun tr -> tr.Replay.spans) (Array.to_list trs) in
  Replay.write_jsonl (Filename.concat work_root (Printf.sprintf "trace-%s.jsonl" wl.W.name)) spans;
  let op_of = Hashtbl.create 4096 in
  List.iter (fun (n, op) -> Hashtbl.replace op_of n op) c.classes;
  let is_write (s : Replay.span) =
    match Hashtbl.find_opt op_of s.Replay.op with Some op -> op.W.kind = W.Write | None -> false
  in
  let ms (s : Replay.span) = (s.Replay.t1 -. s.Replay.t0) *. 1000. in
  let durs ?(keep = fun _ -> true) name =
    Stats.of_list (List.filter_map (fun (s : Replay.span) -> if s.Replay.name = name && keep s then Some (ms s) else None) spans)
  in
  let total name = Stats.sum (durs name) in
  let stmt = durs "statement" in
  let exec_spans = List.filter (fun (s : Replay.span) -> s.Replay.name = "execute") spans in
  let exec_derefs = List.fold_left (fun n s -> n + Replay.delta s C.deref) 0 exec_spans in
  let exec_items = List.fold_left (fun n (s : Replay.span) -> n + s.Replay.note) 0 exec_spans in
  let self = Replay.self_times spans in
  let self_total = Hashtbl.create 16 in
  List.iter
    (fun ((s : Replay.span), t) ->
      Hashtbl.replace self_total s.Replay.name
        ((t *. 1000.) +. Option.value ~default:0. (Hashtbl.find_opt self_total s.Replay.name)))
    self;
  pf "self time per layer over %d traced ops (ms):\n" c.ops;
  Hashtbl.iter (fun k t -> pf "  %-14s %10.2f\n" k t) self_total;
  (* counters of the served phase *)
  let d = delta c0 c1 in
  let stmts = fi a.ops in
  let n_writes = fi (Stats.count a.writes) in
  let insert_fields =
    Stats.of_list
      (List.filter_map
         (fun (s : Replay.span) ->
           match Hashtbl.find_opt op_of s.Replay.op with
           | Some op when s.Replay.name = "update" && op.W.cls = "bid_insert" ->
             Some (fi (Replay.delta s C.fields_updated))
           | _ -> None)
         spans)
  in
  let derefs = fi (d C.deref) in
  let rtt = Stats.merge [ a.reads; a.writes ] in
  let ops_b = ops_per_s b and ops_c = ops_per_s c in
  (* index probes happen only on point_read, which BENCHMARK.json does
     not list, so they are printed rather than reported *)
  pf "engine.index_probes %.4f count/stmt\n" (ratio (fi (d C.index_probe)) stmts);
  emit ~attempted ~failed
    ([
       ("read_p95_ms", Stats.quantile a.reads 0.95, "ms");
       ("write_p50_ms", Stats.quantile a.writes 0.5, "ms");
       ("write_p95_ms", Stats.quantile a.writes 0.95, "ms");
       ("server.overhead_p50_ms", Stats.median rtt -. Stats.median stmt, "ms");
       ("db.engine_wait_p50_ms", Stats.quantile (durs "engine.wait") 0.5, "ms");
       ("db.engine_wait_p95_ms", Stats.quantile (durs "engine.wait") 0.95, "ms");
       ("db.statement_p50_ms", Stats.median stmt, "ms");
       ( "db.plan_cache_hit_ratio",
         ratio (fi (d C.plan_hit)) (fi (d C.plan_hit + d C.plan_miss)),
         "ratio" );
       ("db.stmt_lock_restarts", ratio (fi (d C.stmt_lock_restarts)) n_writes, "count/write");
       ("xquery.parse_ms", Stats.median (durs "parse"), "ms");
       ("xquery.analyze_ms", Stats.median (durs "analyse"), "ms");
       ("xquery.rewrite_ms", Stats.median (durs "rewrite"), "ms");
       ( "xquery.compile_share",
         ratio (total "parse" +. total "analyse" +. total "rewrite") (Stats.sum stmt),
         "ratio" );
     ]
    @ List.map
        (fun cls ->
          ( "engine.execute_ms." ^ cls,
            Stats.median
              (durs "execute" ~keep:(fun (s : Replay.span) ->
                   match Hashtbl.find_opt op_of s.Replay.op with
                   | Some op -> op.W.cls = cls
                   | None -> false)),
            "ms" ))
        (W.reported_classes wl)
    @ [
        ("engine.derefs_per_item", ratio (fi exec_derefs) (fi (max 1 exec_items)), "count/item");
        ("engine.update_ms", Stats.median (durs "update"), "ms");
        ("buffer.derefs", ratio derefs stmts, "count/stmt");
        ("buffer.hit_ratio", ratio (fi (d C.vas_fast_hit + d C.buffer_hit)) derefs, "ratio");
        ("buffer.vas_ratio", ratio (fi (d C.vas_fast_hit)) derefs, "ratio");
        ("buffer.disk_reads", ratio (fi (d C.page_reads)) stmts, "count/stmt");
        ("buffer.evictions", ratio (fi (d "buffer.evict")) stmts, "count/stmt");
        ("buffer.disk_writes", ratio (fi (d C.page_writes)) stmts, "count/stmt");
        ("buffer.pool_grow", fi (d "buffer.pool_grow"), "count");
        ("lock.wait_p95_ms", Stats.quantile (durs "lock") 0.95, "ms");
        ("lock.retries", fi (d C.lock_retry), "count");
        ("commit.p50_ms", Stats.quantile (durs "commit" ~keep:is_write) 0.5, "ms");
        ("commit.p95_ms", Stats.quantile (durs "commit" ~keep:is_write) 0.95, "ms");
        ("wal.syncs_per_commit", ratio (fi (d C.wal_syncs)) n_writes, "count/write");
        ("wal.group_syncs", fi (d C.wal_group_syncs), "count");
        ("wal.bytes_per_write", ratio (fi (max 0 (wal1 - wal0))) n_writes, "B/write");
        ( "store.fields_updated_per_insert",
          ratio (Stats.sum insert_fields) (fi (Stats.count insert_fields)),
          "count/insert" );
        ("nid.relabels", fi (d C.relabels), "count");
        ("setup.load_s", st.load_s, "s");
        ("setup.nodes_per_s", fi st.nodes /. st.load_s, "1/s");
        ("setup.index_build_s", st.index_s, "s");
        ("setup.checkpoint_s", st.ckpt_s, "s");
        ("runtime.alloc_words_per_op", (gc1 -. gc0) /. stmts, "words/op");
        ("trace.overhead_pct", 100. *. ratio (ops_b -. ops_c) ops_b, "%");
      ])

let () =
  match W.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some wl ->
    if !drive_port > 0 then load_generator wl ~port:!drive_port
    else begin
      (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      if !trace = 0 then end_to_end wl else per_layer wl
    end
