(* Correlated value joins through rule 7's transient hash source: the
   hash plan must serialize exactly like the nested loop
   ([use_indexes = false]) for every key kind — string, untyped,
   numeric (scan fallback), NaN, multi-valued and empty — and across a
   cached plan re-run after an update.  Plan-level cases pin down when
   the rule fires; a qcheck property compares both plans over random
   auction documents and join shapes. *)

open Sedna_xquery

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let nested_loop = { Rewriter.default_options with use_indexes = false }

let builds () = Sedna_util.Counters.get Sedna_util.Counters.hash_build

(* probe sources in the optimized plan of [q], nested probes included *)
let sources ?(opts = Rewriter.default_options) db q =
  let _prolog, e = Xq_parser.parse_query q in
  let acc = ref [] in
  let rec go e =
    (match e with Xq_ast.Index_probe p -> acc := p.Xq_ast.ip_source :: !acc | _ -> ());
    ignore
      (Rewriter.map_expr
         (fun sub ->
           go sub;
           sub)
         e)
  in
  go (Rewriter.rewrite_with ~catalog:(Sedna_core.Database.catalog db) opts e);
  !acc

let hash_probes ?opts db q =
  List.length
    (List.filter
       (function Xq_ast.Transient_hash _ -> true | Xq_ast.Btree_index _ -> false)
       (sources ?opts db q))

(* one session per plan; [agree] runs [q] through both and returns the
   common answer, asserting whether the hash plan built a table *)
let sessions db =
  let s_hash = Sedna_db.Session.connect db in
  let s_loop = Sedna_db.Session.connect db in
  Sedna_db.Session.set_rewriter_options s_loop nested_loop;
  let agree ?(expect_build = true) q =
    let before = builds () in
    let via_hash = Sedna_db.Session.execute_string s_hash q in
    let built = builds () - before in
    let via_loop = Sedna_db.Session.execute_string s_loop q in
    check_str q via_loop via_hash;
    check_bool (q ^ " built a hash table") expect_build (built > 0);
    via_hash
  in
  (s_hash, agree)

(* ---- the semantics document ---------------------------------------- *)

(* 20 inner <i> (above the rule's cardinality gate): @id repeats every
   7, the last one is empty; <num> mixes numeric spellings, non-numeric
   text and "NaN"; <ref> is absent, single, or repeated with a
   duplicate value.  The outer <o> carry matching, missing and
   non-numeric keys. *)
let join_doc =
  let nums = [| "1"; "1.0"; "01"; "abc"; "NaN"; "2" |] in
  let item n =
    let id = if n = 19 then "" else Printf.sprintf "k%d" (n mod 7) in
    let refs =
      match n mod 3 with
      | 0 -> ""
      | 1 -> "<ref>x</ref>"
      | _ -> "<ref>y</ref><ref>x</ref><ref>y</ref>"
    in
    Printf.sprintf {|<i id="%s" n="%d"><num>%s</num>%s</i>|} id n nums.(n mod 6) refs
  in
  String.concat ""
    ([ "<r><left>";
       {|<o k="k1" num="1" bad="abc"><num>1</num><ref>y</ref></o>|};
       {|<o k="k3" num="2"><num>1.0</num><ref>x</ref><ref>y</ref></o>|};
       {|<o k="zz" num="abc"><num>NaN</num></o>|};
       {|<o k="k1" num="01"><ref>z</ref></o>|};
       "</left><right>" ]
    @ List.init 20 item
    @ [ "</right></r>" ])

let with_join_doc f =
  Test_util.with_db (fun db ->
      ignore (Test_util.load db "j" join_doc);
      f db)

let join pred =
  Printf.sprintf
    {|for $o in doc("j")/r/left/o for $i in doc("j")/r/right/i[%s] return concat(string($o/@k), ":", string($i/@n))|}
    pred

let test_semantics () =
  with_join_doc (fun db ->
      let _, agree = sessions db in
      (* string key *)
      let r = agree (join {|@id = string($o/@k)|}) in
      check_str "string key" "k1:1 k1:8 k1:15 k3:3 k3:10 k3:17 k1:1 k1:8 k1:15" r;
      (* untyped on both sides: attribute and element key paths *)
      ignore (agree (join {|@id = $o/@k|}));
      let r = agree (join {|num = $o/num|}) in
      check_str "untyped = untyped compares as strings" "k1:0 k1:6 k1:12 k1:18 k3:1 k3:7 k3:13 k3:19 zz:4 zz:10 zz:16" r;
      (* a numeric key promotes untyped values to double: "1", "1.0"
         and "01" all join with 1 — the scan fallback's answer *)
      let r = agree (join {|num = number($o/@num)|}) in
      check_bool "numeric promotion" true
        (List.length (String.split_on_char ' ' r) > 6);
      (* NaN never joins, not even the text "NaN" *)
      check_str "NaN key" "" (agree (join {|num = number($o/@bad)|}));
      check_str "NaN key" "" (agree (join {|num = number($o/@num) div 0 * 0|}));
      (* multi-valued keys on both sides: existential, each item once,
         document order *)
      let r = agree (join {|ref = $o/ref|}) in
      check_str "multi-valued"
        "k1:2 k1:5 k1:8 k1:11 k1:14 k1:17 k3:1 k3:2 k3:4 k3:5 k3:7 k3:8 k3:10 k3:11 k3:13 k3:14 k3:16 k3:17 k3:19"
        r;
      ignore (agree (join {|$o/ref = ref|}));
      (* empty key sequence: nothing joins; the empty string is a key *)
      check_str "empty key" "" (agree (join {|@id = $o/@missing|}));
      check_str "empty-string key" "k1:19 k3:19 zz:19 k1:19"
        (agree (join {|@id = string($o/@missing)|}));
      (* zero outer tuples: the probe is never forced, no table built *)
      check_str "zero outer" ""
        (agree ~expect_build:false
           {|for $o in doc("j")/r/left/o[@k = "none"] for $i in doc("j")/r/right/i[@id = string($o/@k)] return $i|});
      (* node results, a suffix step and an aggregate over the join *)
      ignore (agree {|for $o in doc("j")/r/left/o return doc("j")/r/right/i[ref = $o/ref]/num|});
      ignore
        (agree
           {|count(for $o in doc("j")/r/left/o for $i in doc("j")/r/right/i[@id = $o/@k] return $i)|}))

(* A cached plan re-run after an UPDATE sees the new data: the table
   lives in the statement, not in the plan. *)
let test_cached_plan_after_update () =
  with_join_doc (fun db ->
      let s_hash, agree = sessions db in
      let q = join {|@id = string($o/@k)|} in
      let r1 = agree q in
      let hits0, _ = Sedna_db.Session.plan_cache_stats s_hash in
      check_str "cached re-run" r1 (agree q);
      ignore
        (Sedna_db.Session.execute_string s_hash
           {|UPDATE insert <i id="k1" n="99"><num>5</num></i> into doc("j")/r/right|});
      let r2 = agree q in
      check_bool "new key seen" true (r2 <> r1 && String.length r2 > String.length r1);
      ignore
        (Sedna_db.Session.execute_string s_hash
           {|UPDATE delete doc("j")/r/right/i[@id = "k3"]|});
      let r3 = agree q in
      check_str "deleted keys gone" "k1:1 k1:8 k1:15 k1:99 k1:1 k1:8 k1:15 k1:99" r3;
      let hits1, _ = Sedna_db.Session.plan_cache_stats s_hash in
      check_bool "the plan was served from the cache" true (hits1 >= hits0 + 3))

(* An update's per-target [with] expression runs after the earlier
   targets were replaced: a table built for the first target must not
   serve the next.  Run the same statement on two databases, one per
   plan, and compare the documents. *)
let test_replace_rebuilds_per_target () =
  let run opts =
    with_join_doc (fun db ->
        let s = Sedna_db.Session.connect db in
        Sedna_db.Session.set_rewriter_options s opts;
        let before = builds () in
        ignore
          (Sedna_db.Session.execute_string s
             {|UPDATE replace $x in doc("j")/r/right/i[@n < 14] with <i id="{$x/@id}x" n="{$x/@n}">{count(doc("j")/r/right/i[@id = string($x/@id)])}</i>|});
        (builds () - before, Sedna_db.Session.execute_string s {|doc("j")/r/right|}))
  in
  let hash_builds, via_hash = run Rewriter.default_options in
  let loop_builds, via_loop = run nested_loop in
  check_str "documents agree" via_loop via_hash;
  check_int "one table per target" 14 hash_builds;
  check_int "nested loop builds nothing" 0 loop_builds

(* ---- plan assertions ------------------------------------------------ *)

let with_auction f =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load_events db "a"
           (Sedna_workloads.Generators.auction ~items:60 ~people:30 ~auctions:30 ()));
      f db)

let e1_q5 =
  {|count(for $a in doc("a")/site/open_auctions/open_auction
          for $i in doc("a")//item[@id = string($a/itemref)]
          return $i)|}

let test_plan () =
  with_auction (fun db ->
      check_int "E1 Q5 shape" 1 (hash_probes db e1_q5);
      check_int "untyped key" 1
        (hash_probes db
           {|for $i in doc("a")//item for $a in doc("a")//open_auction[itemref = $i/@id] return $a|});
      check_int "literal key stays a scan" 0
        (List.length (sources db {|doc("a")//item[@id = "item3"]|}));
      check_int "position() in the key" 0
        (List.length
           (sources db
              {|for $a in doc("a")//open_auction for $i in doc("a")//item[@id = concat(string($a/itemref), string(position()))] return $i|}));
      check_int "last() in the key" 0
        (List.length
           (sources db
              {|for $a in doc("a")//open_auction for $i in doc("a")//item[@id = concat(string($a/itemref), string(last()))] return $i|}));
      check_int "value eq is not hashed" 0
        (List.length
           (sources db
              {|for $a in doc("a")//open_auction for $i in doc("a")//item[@id eq string($a/itemref)] return $i|}));
      check_int "below index_min_count" 0
        (List.length
           (sources
              ~opts:{ Rewriter.default_options with index_min_count = 1_000_000 }
              db e1_q5));
      check_int "use_indexes off" 0
        (List.length (sources ~opts:nested_loop db e1_q5));
      (* a B-tree on the key path wins over the build side *)
      ignore
        (Test_util.exec db
           {|CREATE INDEX "iid" ON doc("a")/site/regions/namerica/item BY @id AS xs:string|});
      check_bool "B-tree wins" true
        (match sources db e1_q5 with
         | [ Xq_ast.Btree_index "iid" ] -> true
         | _ -> false);
      let _, agree = sessions db in
      ignore (agree ~expect_build:false e1_q5))

(* ---- differential property ------------------------------------------ *)

(* Join shapes over Generators.auction: both key directions of
   itemref/@id and personref/@id, with single- and multi-valued keys
   and key paths.  [lo]/[len] slice the outer side. *)
let join_shapes lo len =
  let slice = Printf.sprintf "[position() >= %d and position() < %d]" lo (lo + len) in
  [
    Printf.sprintf
      {|for $a in doc("a")/site/open_auctions/open_auction%s for $i in doc("a")//item[@id = string($a/itemref)] return concat(string($a/@id), ":", string($i/@id))|}
      slice;
    Printf.sprintf
      {|for $i in doc("a")//item%s for $a in doc("a")/site/open_auctions/open_auction[itemref = $i/@id] return string($a/@id)|}
      slice;
    Printf.sprintf
      {|for $a in doc("a")/site/open_auctions/open_auction%s for $p in doc("a")/site/people/person[@id = $a/bidder/personref] return string($p/@id)|}
      slice;
    Printf.sprintf
      {|for $p in doc("a")/site/people/person%s for $a in doc("a")//open_auction[bidder/personref = $p/@id] return string($a/@id)|}
      slice;
  ]

let arb_case =
  QCheck.make
    ~print:(fun (seed, items, people, auctions, lo, len) ->
      Printf.sprintf "seed=%d items=%d people=%d auctions=%d slice=%d+%d" seed
        items people auctions lo len)
    QCheck.Gen.(
      map
        (fun ((seed, items, people), (auctions, lo, len)) ->
          (seed, items, people, auctions, lo, len))
        (pair
           (triple (int_bound 1000) (int_range 16 40) (int_range 16 30))
           (triple (int_range 16 30) (int_range 1 12) (int_range 0 8))))

let prop_hash_matches_loop (seed, items, people, auctions, lo, len) =
  Test_util.with_db (fun db ->
      ignore
        (Test_util.load_events db "a"
           (Sedna_workloads.Generators.auction ~seed ~items ~people ~auctions ()));
      let s_hash = Sedna_db.Session.connect db in
      let s_loop = Sedna_db.Session.connect db in
      Sedna_db.Session.set_rewriter_options s_loop nested_loop;
      List.for_all
        (fun q ->
          hash_probes db q = 1
          && Sedna_db.Session.execute_string s_hash q
             = Sedna_db.Session.execute_string s_loop q)
        (join_shapes lo len))

let suite =
  [
    Alcotest.test_case "join semantics match the nested loop" `Quick test_semantics;
    Alcotest.test_case "cached plan sees updates" `Quick test_cached_plan_after_update;
    Alcotest.test_case "replace rebuilds per target" `Quick
      test_replace_rebuilds_per_target;
    Alcotest.test_case "rule 7 hash source firing" `Quick test_plan;
    Test_util.qcheck_case ~count:20 "hash join = nested loop on auctions"
      arb_case prop_hash_matches_loop;
  ]
