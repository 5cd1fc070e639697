(** Binary min-heap of small ints (node ids, register numbers) ordered by
    a caller-owned key array: [a] comes before [b] when
    [key.(a) < key.(b)]. Fixed capacity, no allocation after {!create}.
    The key of an element must not change while it is in the heap. *)

type t

val create : int -> int array -> t
(** [create capacity key]. *)

val size : t -> int

val top : t -> int
(** The least element; the heap must not be empty. *)

val push : t -> int -> unit

val pop : t -> int
(** Remove and return the least element; the heap must not be empty. *)
