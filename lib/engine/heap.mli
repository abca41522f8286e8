(** Binary min-heap used as the simulator event queue.

    Entries are ordered by a [float] key with an integer sequence number as a
    tie-breaker, so that events scheduled for the same instant fire in
    insertion order (deterministic simulation).

    The heap is laid out as three parallel flat arrays (keys / seqs /
    values), so the float keys stay unboxed and the hot-path operations
    ([push], [below_top], [pop]) allocate nothing.  [top_key] returns a
    float, which is boxed wherever the call is not inlined. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)
val push : 'a t -> key:float -> seq:int -> 'a -> unit

(** [top_key h] returns the smallest key without removing it.
    @raise Invalid_argument on an empty heap *)
val top_key : 'a t -> float

(** [below_top h key] is true when [key] sorts strictly before every key
    in [h] (always when [h] is empty).  Unlike comparing against
    {!top_key}, whose float result is boxed, it allocates nothing. *)
val below_top : 'a t -> float -> bool

(** [pop h] removes the minimum entry and returns its value.
    @raise Invalid_argument on an empty heap *)
val pop : 'a t -> 'a

(** [pop_min h] removes and returns the minimum entry as
    [Some (key, seq, v)], or [None] when the heap is empty.  Allocating
    convenience wrapper around {!pop}. *)
val pop_min : 'a t -> (float * int * 'a) option

(** [peek_key h] returns the smallest key without removing it. *)
val peek_key : 'a t -> float option

val clear : 'a t -> unit
