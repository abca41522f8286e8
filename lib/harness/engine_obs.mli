(** Event-engine observability: how much simulation work a figure did and
    how fast the host chewed through it.

    Every completed world reports its {!Pico_engine.Sim} counters via
    {!note_world} (thread-safe: sweep points finish on pool worker
    domains);
    {!measure} brackets one figure, turning the accumulated window into
    [engine/*] metrics in {!Report}:

    - [engine/events]: events actually processed by the event loops
    - [engine/events_elided]: events avoided by semantics-preserving
      batching (packet trains charged in closed form)
    - [engine/cells_reused]: process resumptions served from the
      simulator's free list (closure allocations avoided)
    - [engine/inline_wakes]: [delay] wake-ups that were the next event
      anyway, so the process continued without a heap round trip (still
      counted in [engine/events])
    - [engine/spawns]: processes spawned, each on its own fiber (the
      fabric's hop walks are callback chains and spawn none)
    - [engine/peak_heap]: deepest event queue over the figure's sims
    - [engine/sims]: number of simulated worlds
    - [engine/host_seconds]: host wall-clock for the figure
    - [engine/events_per_sec]: processed events per host second
    - [engine/equiv_events_per_sec]: (processed + elided) per host second
      — the throughput in {e per-packet-equivalent} events, comparable
      across batching changes; [scripts/perf.sh] gates on this

    Figures that ran sharded experiments additionally report
    [engine/shards/*] — sharded sims, total shard count, barrier rounds,
    epochs elided by skip-ahead, cross-shard events merged at barriers,
    and the min/max per-shard event count (load balance).  These keys
    are zero-omitted: absent whenever sharding is off, so the default
    JSON stays byte-identical.  [engine/cells_reused],
    [engine/inline_wakes] and [engine/peak_heap] aggregate across shards
    inside {!Sim} (sums of per-shard counts, max of per-shard high-water
    marks).

    A world whose [Sharded] request was refused (a genuinely unshardable
    config, see {!Cluster.build}) adds to the zero-omitted
    [engine/shards/refused] key.

    {!note_world} also drains spans into {!Tracefile} and latency ledgers
    into {!Breakdown}, and counts spans begun but never ended (discarded
    at drain) — reported as the zero-omitted [trace/dropped_open] key so
    a figure whose trace silently lost spans is visible in the JSON.

    Host wall-clock is used {e only} here, and only ends up in the JSON
    report (never on stdout), so `picobench` output stays byte-identical
    across hosts and runs. *)

(** [note_world cl] adds a finished world's engine counters and its
    sharding refusal to the current window, then hands [cl] to
    {!Subsys_obs.note_cluster}. *)
val note_world : Cluster.t -> unit

(** Worlds noted in the current window whose [Sharded] request was
    refused — what {!measure} reports as [engine/shards/refused]. *)
val sharding_refusals : unit -> int

(** [measure ~figure f] runs [f] in a fresh window and records the
    [engine/*] metrics for [figure] into {!Report}. *)
val measure : figure:string -> (unit -> 'a) -> 'a

(** [host_timed ~figure ~metric f] runs [f] (inside a {!measure} window)
    and records its host wall-clock seconds as [figure/metric] — for a
    sub-sweep whose wall clock is a figure of merit of its own, like the
    scale figure's fat-tree tail ([engine/ft_host_seconds], a warn-only
    FOM in [scripts/perf.sh]).  Like [engine/host_seconds] the value is
    JSON-only and masked by check.sh's byte-diff. *)
val host_timed : figure:string -> metric:string -> (unit -> 'a) -> 'a
