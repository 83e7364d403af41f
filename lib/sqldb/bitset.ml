(** Fixed-capacity bitset used for null masks and row selections. *)

type t = { bits : Bytes.t; len : int }

let create len =
  { bits = Bytes.make ((len + 7) / 8) '\000'; len }

let length t = t.len

let get t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.chr (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

let clear t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.chr (Char.code (Bytes.unsafe_get t.bits j) land lnot (1 lsl (i land 7))))

let copy t = { bits = Bytes.copy t.bits; len = t.len }

let popcount t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if get t i then incr n
  done;
  !n

(* Bits past [len] in the last byte are never set, so a byte scan with an
   early exit answers emptiness. *)
let is_empty t =
  let j = ref 0 and n = Bytes.length t.bits in
  while !j < n && Bytes.unsafe_get t.bits !j = '\000' do
    incr j
  done;
  !j = n

(* Copy [src]'s bits into [dst] from bit [at] on, where [dst] has no bit
   set yet; a byte-aligned [at] copies whole bytes. *)
let blit src dst at =
  if at land 7 = 0 then
    Bytes.blit src.bits 0 dst.bits (at lsr 3) (Bytes.length src.bits)
  else
    for i = 0 to src.len - 1 do
      if get src i then set dst (at + i)
    done

(* Bitwise union of two same-length bitsets. *)
let union a b =
  if a.len <> b.len then invalid_arg "Bitset.union: length mismatch";
  let r = create a.len in
  for j = 0 to Bytes.length a.bits - 1 do
    Bytes.unsafe_set r.bits j
      (Char.chr
         (Char.code (Bytes.unsafe_get a.bits j)
         lor Char.code (Bytes.unsafe_get b.bits j)))
  done;
  r

let iter_set f t =
  for i = 0 to t.len - 1 do
    if get t i then f i
  done

(* Indices of set bits, ascending. *)
let to_indices t =
  let n = popcount t in
  let out = Array.make n 0 in
  let k = ref 0 in
  iter_set
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out

let of_indices ~len idx =
  let t = create len in
  Array.iter (fun i -> set t i) idx;
  t
