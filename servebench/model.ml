(* The oracle's view of the generated auction document.  Built from the
   same event list the database loads, by walking it directly — no
   engine code is involved, so a wrong answer from the engine cannot
   also be the expected one. *)

module E = Sedna_xml.Xml_event

type item = { i_name : string; i_text : string; i_quantity : int; i_listitems : int }

type person = {
  p_name : string;
  p_email : string;
  p_city : string option;
  p_country : string option;
}

type auction = { a_current : string; a_incs : float list; a_itemref : string }

(* indexed by the numeric suffix of the generated @id (item7 -> 7) *)
type t = { items : item array; people : person array; auctions : auction array }

let of_events (evs : E.t list) : t =
  let items = ref [] and people = ref [] and auctions = ref [] in
  (* text slots of the entity being walked *)
  let slots : (string, Buffer.t) Hashtbl.t = Hashtbl.create 8 in
  let incs = ref [] in
  let listitems = ref 0 in
  let slot k =
    match Hashtbl.find_opt slots k with
    | Some b -> b
    | None ->
      let b = Buffer.create 32 in
      Hashtbl.replace slots k b;
      b
  in
  let get k = match Hashtbl.find_opt slots k with Some b -> Buffer.contents b | None -> "" in
  let opt k = if Hashtbl.mem slots k then Some (get k) else None in
  let stack = ref [] in
  List.iter
    (function
      | E.Start_element (n, _) ->
        let l = Sedna_util.Xname.local n in
        if l = "item" || l = "person" || l = "open_auction" then begin
          Hashtbl.reset slots;
          incs := [];
          listitems := 0
        end;
        if l = "listitem" then incr listitems;
        stack := l :: !stack
      | E.Text s -> (
        match !stack with
        | ("name" | "emailaddress" | "city" | "country" | "current"
          | "itemref" | "quantity" | "listitem") as l :: _ ->
          Buffer.add_string (slot l) s
        | "increase" :: _ -> incs := float_of_string s :: !incs
        | _ -> ())
      | E.End_element -> (
        match !stack with
        | l :: rest ->
          stack := rest;
          if l = "item" then
            items :=
              {
                i_name = get "name";
                i_text = get "listitem";
                i_quantity = int_of_string (get "quantity");
                i_listitems = !listitems;
              }
              :: !items
          else if l = "person" then
            people :=
              {
                p_name = get "name";
                p_email = get "emailaddress";
                p_city = opt "city";
                p_country = opt "country";
              }
              :: !people
          else if l = "open_auction" then
            auctions :=
              {
                a_current = get "current";
                a_incs = List.rev !incs;
                a_itemref = get "itemref";
              }
              :: !auctions
        | [] -> ())
      | _ -> ())
    evs;
  let arr l = Array.of_list (List.rev l) in
  { items = arr !items; people = arr !people; auctions = arr !auctions }

(* An integral double serialized the way query results print it. *)
let num f = if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.12g" f

let max_incs = function
  | [] -> ""
  | x :: xs -> num (List.fold_left Float.max x xs)

(* ---- Zipf-skewed key draws ------------------------------------------ *)

(* Ranks follow a Zipf law with exponent [s]; a seeded permutation maps
   ranks to keys, so the hot keys are spread over the whole document
   instead of sitting at its start. *)
type zipf = { cdf : float array; perm : int array }

let zipf ~rng ~n ~s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  { cdf; perm }

let draw z rng =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.perm.(!lo)
