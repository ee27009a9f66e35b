type perm = { read : bool; write : bool; execute : bool }

let r_x = { read = true; write = false; execute = true }
let r_only = { read = true; write = false; execute = false }
let r_w = { read = true; write = true; execute = false }

type body = Data of Bytes.t | Zero of int

type t = {
  name : string;
  vaddr : int;
  mutable body : body;
  perm : perm;
  loaded : bool;
}

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let all_zero b pos n =
  if pos < 0 || n < 0 || pos + n > Bytes.length b then
    invalid_arg "Section.all_zero";
  let stop = pos + n in
  let rec words i =
    if i + 8 > stop then tail i
    else if Int64.equal (get64u b i) 0L then words (i + 8)
    else false
  and tail i = i >= stop || (Bytes.get b i = '\000' && tail (i + 1)) in
  words pos

let check vaddr = if vaddr < 0 then invalid_arg "Section.make: negative vaddr"

(* Zero-fill iff the content is all zero and never fetched as code: the
   one rule every constructor applies, so equal bytes give equal values. *)
let body_of ~perm b pos n =
  if (not perm.execute) && all_zero b pos n then Zero n
  else if pos = 0 && n = Bytes.length b then Data b
  else Data (Bytes.sub b pos n)

let make ?(loaded = true) ~name ~vaddr ~perm data =
  check vaddr;
  { name; vaddr; body = body_of ~perm data 0 (Bytes.length data); perm; loaded }

let of_sub ?(loaded = true) ~name ~vaddr ~perm buf pos n =
  check vaddr;
  { name; vaddr; body = body_of ~perm buf pos n; perm; loaded }

let zeros ?(loaded = true) ~name ~vaddr ~perm n =
  check vaddr;
  let body = if perm.execute then Data (Bytes.make n '\000') else Zero n in
  { name; vaddr; body; perm; loaded }

let size s = match s.body with Data b -> Bytes.length b | Zero n -> n
let is_zero s = match s.body with Zero _ -> true | Data _ -> false

let bytes s =
  match s.body with
  | Data b -> b
  | Zero n ->
      let b = Bytes.make n '\000' in
      s.body <- Data b;
      b

let sub_string s off len =
  match s.body with
  | Data b -> Bytes.sub_string b off len
  | Zero n ->
      if off < 0 || len < 0 || off + len > n then invalid_arg "Section.sub_string";
      String.make len '\000'

let copy s =
  match s.body with
  | Data b -> { s with body = Data (Bytes.copy b) }
  | Zero _ -> { s with body = s.body }

let end_vaddr s = s.vaddr + size s
let contains s a = a >= s.vaddr && a < end_vaddr s
let rename s name = { s with name }

let pp ppf s =
  Format.fprintf ppf "%-12s 0x%08x..0x%08x %c%c%c%s" s.name s.vaddr
    (end_vaddr s)
    (if s.perm.read then 'r' else '-')
    (if s.perm.write then 'w' else '-')
    (if s.perm.execute then 'x' else '-')
    (if s.loaded then "" else " (unloaded)")
