(* Raw-sample recorder with exact percentiles.  Every observation is
   kept, so a percentile is an order statistic of the samples (linear
   interpolation between the two closest ranks), not the upper bound
   of a histogram bucket.  One recorder per thread; merge after join. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let merge ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.n - 1 do add r t.a.(i) done) ts;
  r

let of_list xs =
  let r = create () in
  List.iter (add r) xs;
  r

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do s := !s +. t.a.(i) done;
  !s

(* [q] in [0, 1]; 0 when there are no samples *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    let h = q *. float_of_int (t.n - 1) in
    let lo = truncate h in
    let hi = min (lo + 1) (t.n - 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median t = quantile t 0.5
