(** Domain-safe, resettable lazy values.

    OCaml's [lazy] is not safe to force from several domains at once
    ([CamlinternalLazy.Undefined]); [Once.t] is the drop-in replacement the
    experiment layer uses for its shared memoized results so that the
    sweep can fan experiments across domains. The first caller
    computes the value under the lock; everyone else blocks and then reads
    the memoized result. *)

type 'a t

val create : (unit -> 'a) -> 'a t

val get : 'a t -> 'a
(** Forces (at most once) and returns the value. If the thunk raises, the
    exception propagates to the caller and the value stays unmemoized, so
    a later {!get} retries. *)

val reset : 'a t -> unit
(** Drops the memoized value so the next {!get} recomputes. Used by the
    benchmark harness to time cold runs. *)
