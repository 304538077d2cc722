(* Fixed-length bitsets packed as little-endian int64 words in Bytes.

   The evidence kernel's data plane: one bit per synopsis row.  Boolean
   predicate structure maps onto word-wise AND/OR/NOT and evidence counts
   onto popcount, so combining cached atomic bitmaps costs O(n/64) words
   instead of O(n) row evaluations. *)

type t = { len : int; words : Bytes.t }

let word_count len = (len + 63) lsr 6

let length t = t.len
let words t = word_count t.len

let[@inline] get_word t i = Bytes.get_int64_le t.words (i lsl 3)
let set_word t i v = Bytes.set_int64_le t.words (i lsl 3) v

(* Bits past [len] in the last word must stay zero: popcount and equal
   read whole words and never mask.  [lognot] is the only operation that
   can set them; it re-masks the tail. *)
let tail_mask len =
  let used = len land 63 in
  if used = 0 then -1L else Int64.sub (Int64.shift_left 1L used) 1L

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; words = Bytes.make (8 * word_count len) '\000' }

let full len =
  let t = create len in
  let w = word_count len in
  for i = 0 to w - 1 do
    set_word t i (-1L)
  done;
  if w > 0 then set_word t (w - 1) (tail_mask len);
  t

let check_index t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0, %d)" i t.len)

let set t i =
  check_index t i;
  let w = i lsr 6 and b = i land 63 in
  set_word t w (Int64.logor (get_word t w) (Int64.shift_left 1L b))

let get t i =
  check_index t i;
  let w = i lsr 6 and b = i land 63 in
  Int64.logand (Int64.shift_right_logical (get_word t w) b) 1L <> 0L

let check_same_length op a b =
  if a.len <> b.len then
    invalid_arg (Printf.sprintf "Bitset.%s: lengths differ (%d vs %d)" op a.len b.len)

let map2 op f a b =
  check_same_length op a b;
  let out = create a.len in
  for i = 0 to word_count a.len - 1 do
    set_word out i (f (get_word a i) (get_word b i))
  done;
  out

let logand a b = map2 "logand" Int64.logand a b
let logor a b = map2 "logor" Int64.logor a b

let lognot a =
  let out = create a.len in
  let w = word_count a.len in
  for i = 0 to w - 1 do
    set_word out i (Int64.lognot (get_word a i))
  done;
  if w > 0 then set_word out (w - 1) (Int64.logand (get_word out (w - 1)) (tail_mask a.len));
  out

(* SWAR popcount (Hacker's Delight fig. 5-2) on 32 bits held in a native
   int: no hardware popcnt from OCaml, and native ints are never boxed.  A
   64-bit word folds as its two halves. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

let[@inline] low_half w = Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
let[@inline] high_half w = Int64.to_int (Int64.shift_right_logical w 32)
let[@inline] popcount64 w = popcount32 (low_half w) + popcount32 (high_half w)

let popcount t =
  let acc = ref 0 in
  for i = 0 to word_count t.len - 1 do
    acc := !acc + popcount64 (get_word t i)
  done;
  !acc

let count_and a b =
  check_same_length "count_and" a b;
  let acc = ref 0 in
  for i = 0 to word_count a.len - 1 do
    acc := !acc + popcount64 (Int64.logand (get_word a i) (get_word b i))
  done;
  !acc

let equal a b = a.len = b.len && Bytes.equal a.words b.words

(* Peel off the lowest set bit each round, so iteration cost tracks the
   popcount, not the universe size; on native-int halves of the word, so
   it allocates nothing. *)
let iter_half f base x =
  let x = ref x in
  while !x <> 0 do
    let lowest = !x land - !x in
    f (base + popcount32 (lowest - 1));
    x := !x lxor lowest
  done

let iter_set f t =
  for i = 0 to word_count t.len - 1 do
    let w = get_word t i in
    if w <> 0L then begin
      iter_half f (i lsl 6) (low_half w);
      iter_half f ((i lsl 6) + 32) (high_half w)
    end
  done

let of_pred ~len pred =
  let t = create len in
  for i = 0 to len - 1 do
    if pred i then set t i
  done;
  t

(* -- Range windows (the vectorized scan's selection slices) -------------- *)

(* Mask for the bits of word [w] that fall inside [lo, hi), where the word
   covers rows [w*64, w*64+64). *)
let word_window_mask w ~lo ~hi =
  let base = w lsl 6 in
  let a = max 0 (lo - base) and b = min 64 (hi - base) in
  if a >= b then 0L
  else
    let ones_below n = if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
    Int64.logand (ones_below b) (Int64.lognot (ones_below a))

let check_range name len ~lo ~hi =
  if lo < 0 || hi > len || lo > hi then
    invalid_arg (Printf.sprintf "Bitset.%s: range [%d, %d) out of [0, %d]" name lo hi len)

let window len ~lo ~hi =
  check_range "window" len ~lo ~hi;
  let t = create len in
  if lo < hi then begin
    let w0 = lo lsr 6 and w1 = (hi - 1) lsr 6 in
    for w = w0 to w1 do
      set_word t w (word_window_mask w ~lo ~hi)
    done
  end;
  t

let inter_window b ~lo ~hi =
  check_range "inter_window" b.len ~lo ~hi;
  let out = create b.len in
  if lo < hi then begin
    let w0 = lo lsr 6 and w1 = (hi - 1) lsr 6 in
    for w = w0 to w1 do
      set_word out w (Int64.logand (get_word b w) (word_window_mask w ~lo ~hi))
    done
  end;
  out

(* Keep only the first [k] set bits (a LIMIT cutting a selection short). *)
let take b k =
  let out = create b.len in
  let remaining = ref (max 0 k) in
  let nw = word_count b.len in
  let w = ref 0 in
  while !remaining > 0 && !w < nw do
    let word = get_word b !w in
    let c = popcount64 word in
    if c <= !remaining then begin
      set_word out !w word;
      remaining := !remaining - c
    end
    else begin
      (* Peel the lowest set bit until the quota is spent. *)
      let rest = ref word and keep = ref 0L in
      for _ = 1 to !remaining do
        let lowest = Int64.logand !rest (Int64.neg !rest) in
        keep := Int64.logor !keep lowest;
        rest := Int64.logxor !rest lowest
      done;
      set_word out !w !keep;
      remaining := 0
    end;
    incr w
  done;
  out
