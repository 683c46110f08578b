(** The layout daemon: a concurrent TCP server for the {!Protocol}.

    One daemon owns one {!Conn_loop} (listening socket, admission with
    [overloaded] shedding, newline framing, graceful drain — see there),
    one {!Sessions.t} registry, and the per-frame dispatch. Its drain
    epilogue flushes every session ({!Sessions.drain}) once the last
    connection has finished. [jobs = 1] serves strictly sequentially,
    which is what the determinism tests exploit. The [shutdown] op is
    {!stop} over the wire.

    Instrumentation (under {!Vp_observe.Switch}): counters
    [server.requests] and [server.shed], gauge [server.active_sessions],
    one [server.request] span per decoded frame (args: the op name). *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?jobs:int ->
  ?max_pending:int ->
  ?data_dir:string ->
  ?max_resident:int ->
  ?fsync:Vp_robust.Journal.fsync ->
  unit ->
  t
(** Binds and listens immediately (so {!port} is known before {!serve}
    runs, which is how the tests use ephemeral ports). [host] defaults to
    ["127.0.0.1"], [port] to {!Protocol.default_port} ([0] asks the
    kernel for an ephemeral port), [jobs] to [4], [max_pending] to [64].
    [data_dir]/[max_resident]/[fsync] configure session durability —
    write-ahead logging, idle-session spilling and crash recovery — and
    are passed to {!Sessions.create} verbatim (no [data_dir] means the
    pre-durability in-memory registry).
    @raise Invalid_argument if [jobs < 1], [max_pending < 1] or
    [max_resident < 1].
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : t -> int
(** The actually bound port (resolves port [0]). *)

val jobs : t -> int

val serve : t -> unit
(** {!Conn_loop.serve} until {!stop}, then the graceful drain and
    {!Sessions.drain}, even when the loop dies by exception. Call at
    most once per daemon. *)

val stop : t -> unit
(** Requests a graceful drain ({!Conn_loop.stop}). *)

val install_signal_handlers : t -> unit
(** {!Conn_loop.install_signal_handlers}: SIGTERM and SIGINT to {!stop},
    SIGPIPE ignored. *)
