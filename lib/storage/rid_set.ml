type t = int array

let of_unsorted arr =
  Array.sort Int.compare arr;
  let n = Array.length arr in
  if n = 0 then arr
  else begin
    (* In-place dedup over the sorted array. *)
    let w = ref 1 in
    for r = 1 to n - 1 do
      if arr.(r) <> arr.(!w - 1) then begin
        arr.(!w) <- arr.(r);
        incr w
      end
    done;
    if !w = n then arr else Array.sub arr 0 !w
  end

let empty = [||]
let cardinality = Array.length
let is_empty t = Array.length t = 0

let mem t rid =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if t.(mid) = rid then true
      else if t.(mid) < rid then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t)

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!w) <- x;
      incr w;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.sub out 0 !w

let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and w = ref 0 in
  let push x =
    if !w = 0 || out.(!w - 1) <> x then begin
      out.(!w) <- x;
      incr w
    end
  in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && a.(!i) <= b.(!j)) then begin
      push a.(!i);
      incr i
    end
    else begin
      push b.(!j);
      incr j
    end
  done;
  Array.sub out 0 !w

let to_array = Array.copy
let iter f t = Array.iter f t
let fold f init t = Array.fold_left f init t
