(** The connection core shared by the layout daemon ({!Daemon}) and the
    cluster router ([Vp_router.Router]). The servers on top supply only
    how a line is answered, what a connection owns, and what runs after
    the last connection is gone.

    - {b Threads.} {!serve} runs a 50 ms select/accept loop in the
      calling domain and hands each connection to a worker of a
      [jobs + 1] unclamped {!Vp_parallel.Pool} for its lifetime, so
      [jobs = 1] serves strictly sequentially.
    - {b Backpressure.} With [max_pending] connections in flight, a new
      one gets one [overloaded] frame carrying {!retry_after_ms} and is
      closed before a byte of it is read.
    - {b Framing.} Requests are read in 8 KiB chunks and split on
      ['\n']. A line over {!Protocol.max_frame_bytes} gets one [error]
      reply and the rest of it is discarded; the connection stays up.
    - {b Drain.} {!stop} only raises a flag. The loop then closes the
      listening socket, half-closes every live connection's read side,
      waits for the in-flight count to reach zero, runs the owner's
      epilogue and joins the pool. *)

type t

val retry_after_ms : int
(** The backoff hint every [overloaded] reply carries. *)

val create :
  host:string ->
  port:int ->
  jobs:int ->
  max_pending:int ->
  shed:Vp_observe.Stats.counter ->
  unit ->
  t
(** Binds and listens immediately ([port = 0] asks the kernel for an
    ephemeral port). [shed] counts connections shed on accept.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actually bound port. *)

val jobs : t -> int

val close : t -> unit
(** Closes the listening socket of a loop that will never {!serve}. *)

val stop : t -> unit
(** Requests a graceful drain. Only sets a flag — safe from a signal
    handler, a pool worker mid-request or another domain. *)

val stopping : t -> bool

val install_signal_handlers : t -> unit
(** Routes SIGTERM and SIGINT to {!stop} and ignores SIGPIPE, so a peer
    that disconnects mid-reply surfaces as [EPIPE]. *)

val serve :
  t ->
  with_connection:(((string -> string) -> unit) -> unit) ->
  epilogue:(unit -> unit) ->
  unit
(** Accepts until {!stop}, then drains, even when the loop dies by
    exception. Call at most once. [with_connection run] runs on the
    connection's worker: it sets up what the connection owns, calls
    [run reply] — which answers each frame [line] with [reply line]
    until the peer hangs up — and releases that state. [epilogue] runs
    once no connection is left, before the pool is joined. *)
