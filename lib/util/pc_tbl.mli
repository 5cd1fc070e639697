(** Hash table keyed by guest pc (any [int]), for the per-instruction and
    per-exit paths of the DBT engine and code cache.

    Two things make it cheaper than a polymorphic [(int, 'a) Hashtbl.t]
    there. The key is hashed by one multiplication: guest pcs are
    multiples of 4, so the table indexes with the product's high bits,
    never with [pc land mask], which would leave three buckets of four
    empty. And no lookup raises: a miss is a [bool], a caller-supplied
    default or [None], never [Not_found], and allocates nothing.
    [replace] on a key already present updates it in place.

    Iteration order is unspecified. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table sized for about [n] keys; it grows as
    needed. *)

val length : 'a t -> int

val mem : 'a t -> int -> bool

val find_or : 'a t -> int -> default:'a -> 'a
(** The binding of the key, or [default]. Allocates nothing. *)

val find_opt : 'a t -> int -> 'a option
(** Allocates its [Some] on a hit only. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding. Allocates only when the
    key is new. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val incr : int t -> int -> unit
(** [incr t k] adds one to [k]'s count, an absent key counting 0. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
