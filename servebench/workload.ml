(* The three workloads: document shape, pool sizing and the seeded
   statement streams.  The program under test only ever sees the
   generated document and the statement texts built here. *)

let items = 1000
let people = 600
let auctions = 600

(* Zipf exponent of every key draw *)
let skew = 0.99

type kind = Read | Write

(* How a result is judged (see [Oracle]). *)
type proj = Current | Bid_count | Bid_max

type check =
  | Expect of string
      (** static document: the model's answer; every served result of
          the text must also equal the in-process re-run under another
          plan *)
  | Auction of int * proj
      (** [update_mixed] reader: must equal the model at some write
          version inside the request's window *)
  | Ack of int * int
      (** (write version, auction): must report exactly one node updated *)

type op = { cls : string; kind : kind; text : string; check : check }

(* ---- update_mixed's evolving model ----------------------------------- *)

(* One open auction as the writer has left it: its current price, the
   increases of the original bids, and the benchmark's own bids. *)
type live = { cur : string; base : float list; toks : (int * float) list }

let project p l =
  match p with
  | Current -> l.cur
  | Bid_count -> string_of_int (List.length l.base + List.length l.toks)
  | Bid_max -> Model.max_incs (l.base @ List.map snd l.toks)

(* Versioned history: write [v] installs [(v, state)] at the head of
   its auction's list before it is sent.  Only the writer thread
   mutates it while the clock runs; readers record their windows and
   are judged afterwards. *)
type umodel = {
  hist : (int * live) list array;
  acked : int Atomic.t;  (** writes acknowledged so far *)
  mutable version : int;  (** writes issued so far *)
  mutable next_tok : int;
  tokq : (int * int) Queue.t;  (** live benchmark bids, oldest first: (tok, auction) *)
}

let umodel (m : Model.t) =
  {
    hist =
      Array.map
        (fun (a : Model.auction) ->
          [ (0, { cur = a.Model.a_current; base = a.Model.a_incs; toks = [] }) ])
        m.Model.auctions;
    acked = Atomic.make 0;
    version = 0;
    next_tok = 0;
    tokq = Queue.create ();
  }

let current u a = snd (List.hd u.hist.(a))

(* A failed write is taken as not committed (auto-commit aborts it). *)
let revert u v a =
  match u.hist.(a) with
  | (v', _) :: rest when v' = v -> u.hist.(a) <- rest
  | _ -> ()

(* States of auction [a] visible to a read whose window is [lo, hi]. *)
let window u a ~lo ~hi =
  let rec go acc = function
    | [] -> acc
    | (v, st) :: rest ->
      if v > hi then go acc rest
      else if v > lo then go (st :: acc) rest
      else st :: acc
  in
  go [] u.hist.(a)

(* live benchmark bids kept before deletes start *)
let live_bids = 64

(* ---- the workloads ---------------------------------------------------- *)

type t = {
  name : string;
  pool : [ `Frames of int | `Share of int ];
      (** buffer frames after reopen: fixed, or data pages / n *)
  streams : seed:int -> Model.t -> umodel -> (unit -> op) array;
      (** one statement stream per connection *)
  classes : string list;  (** the query classes the streams draw *)
}

let auc = {|doc("a")/site/open_auctions/open_auction|}

(* Stratified choice: a connection deals its templates from a deck that
   holds each one [weight] times, reshuffled when empty.  Runs of equal
   length then run nearly the same class mix, and the seed changes only
   the keys and the order. *)
let deck rng (ts : (int * (unit -> 'a)) list) : unit -> 'a =
  let cards = Array.of_list (List.concat_map (fun (w, f) -> List.init w (fun _ -> f)) ts) in
  let pos = ref (Array.length cards) in
  fun () ->
    if !pos = Array.length cards then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- t
      done;
      pos := 0
    end;
    let f = cards.(!pos) in
    incr pos;
    f ()

let conn_rng seed c = Random.State.make [| seed; 100 + c |]
let key_rng seed salt = Random.State.make [| seed; salt |]

let read cls text check = { cls; kind = Read; text; check }

(* auction lookups shared by point_read and update_mixed's reader *)
let auction_reads rng za check =
  [
    ( 3,
      fun () ->
        let k = Model.draw za rng in
        read "auction_current"
          (Printf.sprintf {|string(%s[@id = "auction%d"]/current)|} auc k)
          (check k Current) );
    ( 2,
      fun () ->
        let k = Model.draw za rng in
        read "bid_count"
          (Printf.sprintf {|count(%s[@id = "auction%d"]/bidder)|} auc k)
          (check k Bid_count) );
    ( 1,
      fun () ->
        let k = Model.draw za rng in
        read "bid_max"
          (Printf.sprintf {|max(%s[@id = "auction%d"]/bidder/increase)|} auc k)
          (check k Bid_max) );
  ]

let point_read =
  let streams ~seed (m : Model.t) _ =
    let zp = Model.zipf ~rng:(key_rng seed 1) ~n:people ~s:skew in
    let zi = Model.zipf ~rng:(key_rng seed 2) ~n:items ~s:skew in
    let za = Model.zipf ~rng:(key_rng seed 3) ~n:auctions ~s:skew in
    let zv = Model.zipf ~rng:(key_rng seed 4) ~n:500 ~s:skew in
    let static k p =
      let a = m.Model.auctions.(k) in
      Expect
        (match p with
         | Current -> a.Model.a_current
         | Bid_count -> string_of_int (List.length a.Model.a_incs)
         | Bid_max -> Model.max_incs a.Model.a_incs)
    in
    Array.init 2 (fun c ->
        let rng = conn_rng seed c in
        let templates =
          auction_reads rng za static
          @ [
              ( 3,
                fun () ->
                  let k = Model.draw zp rng in
                  read "person_name"
                    (Printf.sprintf
                       {|string(doc("a")/site/people/person[@id = "person%d"]/name)|} k)
                    (Expect (m.Model.people.(k).Model.p_name)) );
              ( 2,
                fun () ->
                  let k = Model.draw zi rng in
                  read "item_name"
                    (Printf.sprintf
                       {|doc("a")/site/regions/namerica/item[@id = "item%d"]/name/text()|}
                       k)
                    (Expect (m.Model.items.(k).Model.i_name)) );
              ( 2,
                fun () ->
                  let v = 10 + Model.draw zv rng in
                  let n =
                    Array.fold_left
                      (fun n (a : Model.auction) ->
                        if float_of_string a.Model.a_current = float_of_int v then n + 1
                        else n)
                      0 m.Model.auctions
                  in
                  read "price_probe"
                    (Printf.sprintf {|count(%s[current = %d])|} auc v)
                    (Expect (string_of_int n)) );
              ( 2,
                fun () ->
                  let k = Model.draw zp rng in
                  read "contact"
                    (Printf.sprintf
                       {|<p id="person%d">{string(doc("a")/site/people/person[@id = "person%d"]/emailaddress)}</p>|}
                       k k)
                    (Expect
                       (Printf.sprintf {|<p id="person%d">%s</p>|} k
                          m.Model.people.(k).Model.p_email)) );
              ( 1,
                fun () ->
                  let k = Model.draw zi rng in
                  read "item_text"
                    (Printf.sprintf
                       {|doc("a")//item[@id = "item%d"]/description//text()|} k)
                    (Expect m.Model.items.(k).Model.i_text) );
            ]
        in
        deck rng templates)
  in
  {
    name = "point_read";
    pool = `Frames 1024;
    streams;
    classes =
      [
        "auction_current"; "bid_count"; "bid_max"; "person_name"; "item_name"; "price_probe";
        "contact"; "item_text";
      ];
  }

(* slice width of the correlated value join's outer side; slices start
   at multiples of it, so a run repeats join texts and the correctness
   gate re-runs tens of them rather than one per join *)
let join_width = 8
let join_slots = (auctions - 1) / join_width

let analytic_scan =
  let streams ~seed (m : Model.t) _ =
    let zs = Model.zipf ~rng:(key_rng seed 5) ~n:join_slots ~s:skew in
    Array.init 2 (fun c ->
        let rng = conn_rng seed c in
        let templates =
          [
            ( 2,
              fun () ->
                read "descendant_count" {|count(doc("a")//listitem)|}
                  (Expect
                     (string_of_int
                        (Array.fold_left
                           (fun n (i : Model.item) -> n + i.Model.i_listitems)
                           0 m.Model.items))) );
            ( 2,
              fun () ->
                let q = Random.State.int rng 5 in
                read "predicate_scan"
                  (Printf.sprintf {|count(doc("a")//item[quantity > %d])|} q)
                  (Expect
                     (string_of_int
                        (Array.fold_left
                           (fun n (i : Model.item) ->
                             if i.Model.i_quantity > q then n + 1 else n)
                           0 m.Model.items))) );
            ( 2,
              fun () ->
                read "sum_aggregate" {|sum(doc("a")//increase)|}
                  (Expect
                     (Model.num
                        (Array.fold_left
                           (fun s (a : Model.auction) ->
                             List.fold_left ( +. ) s a.Model.a_incs)
                           0. m.Model.auctions))) );
            ( 2,
              fun () ->
                let n = 1 + Random.State.int rng 4 in
                let kept =
                  List.filter
                    (fun (_, c) -> c > n)
                    (List.mapi
                       (fun i (a : Model.auction) -> (i, List.length a.Model.a_incs))
                       (Array.to_list m.Model.auctions))
                in
                (* order by is stable: equal counts stay in document order *)
                let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) kept in
                read "flwor_order_by"
                  (Printf.sprintf
                     {|for $x in %s let $n := count($x/bidder) where $n > %d order by $n descending return string($x/@id)|}
                     auc n)
                  (Expect
                     (String.concat " "
                        (List.map (fun (i, _) -> Printf.sprintf "auction%d" i) sorted))) );
            ( 2,
              fun () ->
                let c = Random.State.int rng 7 in
                let country = Printf.sprintf "Country%d" c in
                let es =
                  Array.to_list m.Model.people
                  |> List.filter_map (fun (p : Model.person) ->
                         match (p.Model.p_country, p.Model.p_city) with
                         | Some k, Some city when k = country -> Some (Printf.sprintf {|<e c="%s"/>|} city)
                         | _ -> None)
                in
                read "constructor"
                  (Printf.sprintf
                     {|<out>{for $p in doc("a")/site/people/person[address] where $p/address/country = "%s" return <e c="{string($p/address/city)}"/>}</out>|}
                     country)
                  (Expect ("<out>" ^ String.concat "" es ^ "</out>")) );
            ( 1,
              fun () ->
                let s = 1 + (join_width * Model.draw zs rng) in
                let pairs =
                  List.init join_width (fun j ->
                      let a = s - 1 + j in
                      Printf.sprintf "auction%d:%s" a
                        m.Model.auctions.(a).Model.a_itemref)
                in
                read "value_join"
                  (Printf.sprintf
                     {|for $a in %s[position() >= %d and position() < %d] for $i in doc("a")//item[@id = string($a/itemref)] return concat(string($a/@id), ":", string($i/@id))|}
                     auc s (s + join_width))
                  (Expect (String.concat " " pairs)) );
          ]
        in
        deck rng templates)
  in
  {
    name = "analytic_scan";
    pool = `Share 8;
    streams;
    classes =
      [
        "descendant_count"; "predicate_scan"; "sum_aggregate"; "flwor_order_by"; "constructor";
        "value_join";
      ];
  }

let update_mixed =
  let streams ~seed (_ : Model.t) (u : umodel) =
    let za = Model.zipf ~rng:(key_rng seed 3) ~n:auctions ~s:skew in
    let zp = Model.zipf ~rng:(key_rng seed 1) ~n:people ~s:skew in
    let writer () =
      let rng = conn_rng seed 0 in
      let issue a f =
        u.version <- u.version + 1;
        let l = current u a in
        u.hist.(a) <- (u.version, f l) :: u.hist.(a);
        u.version
      in
      let replace () =
        let a = Model.draw za rng in
        let price = 10 + Random.State.int rng 990 in
        let v = issue a (fun l -> { l with cur = Printf.sprintf "%d.00" price }) in
        {
          cls = "price_replace";
          kind = Write;
          text =
            Printf.sprintf
              {|UPDATE replace $c in %s[@id = "auction%d"]/current with <current>%d.00</current>|}
              auc a price;
          check = Ack (v, a);
        }
      in
      let bid () =
        if Queue.length u.tokq >= live_bids then begin
          let tok, a = Queue.pop u.tokq in
          let v =
            issue a (fun l -> { l with toks = List.filter (fun (t, _) -> t <> tok) l.toks })
          in
          {
            cls = "bid_delete";
            kind = Write;
            text =
              Printf.sprintf {|UPDATE delete %s[@id = "auction%d"]/bidder[@tok = "%d"]|}
                auc a tok;
            check = Ack (v, a);
          }
        end
        else begin
          let a = Model.draw za rng in
          let p = Model.draw zp rng in
          let inc = 1 + Random.State.int rng 99 in
          let tok = u.next_tok in
          u.next_tok <- tok + 1;
          Queue.push (tok, a) u.tokq;
          let v = issue a (fun l -> { l with toks = l.toks @ [ (tok, float_of_int inc) ] }) in
          {
            cls = "bid_insert";
            kind = Write;
            text =
              Printf.sprintf
                {|UPDATE insert <bidder tok="%d"><date>2026-10-17</date><personref>person%d</personref><increase>%d.00</increase></bidder> into %s[@id = "auction%d"]|}
                tok p inc auc a;
            check = Ack (v, a);
          }
        end
      in
      deck rng [ (1, replace); (3, bid) ]
    in
    let reader () =
      let rng = conn_rng seed 1 in
      let templates = auction_reads rng za (fun k p -> Auction (k, p)) in
      deck rng templates
    in
    [| writer (); reader () |]
  in
  {
    name = "update_mixed";
    pool = `Frames 2048;
    streams;
    classes = [ "auction_current"; "bid_count"; "bid_max" ];
  }

let all = [ point_read; analytic_scan; update_mixed ]
let find name = List.find_opt (fun w -> w.name = name) all

(* the workloads BENCHMARK.json lists *)
let listed = [ analytic_scan; update_mixed ]

(* Query classes whose execute time a traced run of [w] reports: those
   of the listed workloads (0 where [w] runs none), then [w]'s own. *)
let reported_classes w =
  List.fold_left
    (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
    [] (List.concat_map (fun w -> w.classes) (listed @ [ w ]))
