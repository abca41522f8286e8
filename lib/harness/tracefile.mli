(** Multi-simulation Chrome trace-event collector behind [picobench
    --trace] / [PICO_TRACE_JSON].

    While {!Pico_engine.Span.on} is set, every finished simulation's
    spans are gathered here ({!note_sim} — called from
    {!Engine_obs.note_world}, thread-safe) and rendered as one
    Perfetto-loadable JSON object: a process track per cluster label
    ([Cluster.build] labels its simulator "<kind>/<n>n"), a thread track
    per simulated process, timestamps in simulated microseconds.

    Rendering sorts spans and tracks by content, so the file is
    byte-identical across re-runs and at any [--jobs] setting. *)

(** Drain a finished simulation's spans into the collector.  No-op when
    span recording is off. *)
val note_sim : Pico_engine.Sim.t -> unit

(** Render everything collected so far. *)
val to_json : unit -> string

(** [write path] — {!to_json} to a file. *)
val write : string -> unit

val clear : unit -> unit

(** Number of collected spans. *)
val size : unit -> int
