(** Sections of the ELF-like binary container.

    A section is a named, contiguous byte range at a fixed virtual address.
    Only loaded sections count towards the binary size reported by
    {!Binary.loaded_size} (mirroring binutils [size], which the paper uses
    for its size-increase numbers in Table 3).

    {b Zero-fill sections.} A non-executable section whose bytes are all
    zero is held as a {e zero-fill} body (ELF [NOBITS]-style, like
    [.bss]): its size, and no bytes. The representation is a function of
    content — {!make}, {!zeros} and {!of_sub} all pick it for the same
    bytes — so a compiled binary and its decoded container are
    structurally equal. Reads of a zero-fill section return 0 without
    touching memory; {!bytes} (the write path) materializes it in place,
    after which it is an ordinary section. *)

type perm = { read : bool; write : bool; execute : bool }

val r_x : perm
(** read + execute (code sections) *)

val r_only : perm
(** read-only (e.g. [.rodata]) *)

val r_w : perm
(** read + write (e.g. [.data]) *)

type body =
  | Data of Bytes.t
  | Zero of int  (** zero-fill: this many zero bytes, none allocated *)

type t = {
  name : string;
  vaddr : int;
  mutable body : body;  (** only ever changes from [Zero] to [Data] *)
  perm : perm;
  loaded : bool;
}

val make : ?loaded:bool -> name:string -> vaddr:int -> perm:perm -> Bytes.t -> t
(** A section over [data] (not copied). All-zero non-executable [data]
    becomes a zero-fill section and [data] is dropped. *)

val zeros : ?loaded:bool -> name:string -> vaddr:int -> perm:perm -> int -> t
(** [n] zero bytes without allocating them: the value [make] would give
    for [Bytes.make n '\000']. *)

val of_sub :
  ?loaded:bool -> name:string -> vaddr:int -> perm:perm -> Bytes.t -> int -> int -> t
(** [of_sub ... buf pos n]: the section over bytes [pos, pos + n) of
    [buf], scanned in place — a zero body is never copied, any other is
    copied once. Equal to [make] over [Bytes.sub buf pos n]. *)

val size : t -> int
val is_zero : t -> bool
(** Is this a zero-fill section (no bytes held)? *)

val bytes : t -> Bytes.t
(** The live body, for in-place writes. Materializes a zero-fill section
    first (the section is then held as bytes). *)

val sub_string : t -> int -> int -> string
(** [len] bytes from offset [off]; does not materialize a zero-fill
    section. *)

val copy : t -> t
(** A copy sharing no mutable state: fresh bytes, O(1) when zero-fill. *)

val end_vaddr : t -> int
(** [vaddr + size]: one past the last byte. *)

val contains : t -> int -> bool
(** Whether a virtual address falls inside the section. *)

val rename : t -> string -> t

val pp : Format.formatter -> t -> unit
