open H_import

(* One process-wide accumulation window.  Figures run sequentially (the
   parallelism is per sweep point, inside a figure), so a single window
   is enough; the mutex is for the worker domains of [Pool.map], which
   report their finished simulations concurrently. *)
type window = {
  mutable events : int;
  mutable elided : int;
  mutable reused : int;
  mutable inline : int;
  mutable spawns : int;
  mutable peak : int;
  mutable sims : int;
  (* Sharded-engine counters; all stay zero when sharding is off, and
     every field is an order-independent int aggregate (sum/min/max), so
     worker-domain completion order cannot perturb them. *)
  mutable sharded_sims : int;
  mutable shards : int;
  mutable barriers : int;
  mutable epochs_elided : int;
  mutable xshard : int;
  mutable shard_ev_min : int;
  mutable shard_ev_max : int;
  (* spans begun but never ended, discarded at drain (zero-omitted) *)
  mutable dropped_spans : int;
  (* worlds whose Sharded request was refused (zero-omitted) *)
  mutable refused : int;
}

let mutex = Mutex.create ()

let win =
  { events = 0; elided = 0; reused = 0; inline = 0; spawns = 0; peak = 0;
    sims = 0;
    sharded_sims = 0; shards = 0; barriers = 0; epochs_elided = 0;
    xshard = 0; shard_ev_min = max_int; shard_ev_max = 0;
    dropped_spans = 0; refused = 0 }

let note_world (cl : Cluster.t) =
  let sim = cl.Cluster.sim in
  Tracefile.note_sim sim;
  Breakdown.note_sim sim;
  (* after Tracefile's drain, which is what counts still-open spans *)
  let dropped = Sim.take_dropped_spans sim in
  let events = Sim.events_processed sim in
  let elided = Sim.events_elided sim in
  (* Aggregated across shards by the accessors themselves: [cells_reused]
     and [inline_wakes] sum the per-shard counts, [peak_heap_depth] maxes
     the per-shard heaps — a per-shard high-water mark is meaningful, a
     sum of high-water marks is not. *)
  let reused = Sim.cells_reused sim in
  let inline = Sim.inline_wakes sim in
  let spawns = Sim.spawns sim in
  let peak = Sim.peak_heap_depth sim in
  let shard_ev = Sim.shard_events sim in
  Mutex.lock mutex;
  win.events <- win.events + events;
  win.elided <- win.elided + elided;
  win.reused <- win.reused + reused;
  win.inline <- win.inline + inline;
  win.spawns <- win.spawns + spawns;
  if peak > win.peak then win.peak <- peak;
  win.sims <- win.sims + 1;
  win.dropped_spans <- win.dropped_spans + dropped;
  if cl.Cluster.refused_sharding then win.refused <- win.refused + 1;
  if Sim.sharded sim then begin
    win.sharded_sims <- win.sharded_sims + 1;
    win.shards <- win.shards + Sim.shard_count sim;
    win.barriers <- win.barriers + Sim.barrier_rounds sim;
    win.epochs_elided <- win.epochs_elided + Sim.epochs_elided sim;
    win.xshard <- win.xshard + Sim.xshard_events sim;
    Array.iter
      (fun n ->
        if n < win.shard_ev_min then win.shard_ev_min <- n;
        if n > win.shard_ev_max then win.shard_ev_max <- n)
      shard_ev
  end;
  Mutex.unlock mutex;
  Subsys_obs.note_cluster cl

let sharding_refusals () =
  Mutex.lock mutex;
  let n = win.refused in
  Mutex.unlock mutex;
  n

let reset () =
  Mutex.lock mutex;
  win.events <- 0;
  win.elided <- 0;
  win.reused <- 0;
  win.inline <- 0;
  win.spawns <- 0;
  win.peak <- 0;
  win.sims <- 0;
  win.sharded_sims <- 0;
  win.shards <- 0;
  win.barriers <- 0;
  win.epochs_elided <- 0;
  win.xshard <- 0;
  win.shard_ev_min <- max_int;
  win.shard_ev_max <- 0;
  win.dropped_spans <- 0;
  win.refused <- 0;
  Mutex.unlock mutex

(* Sub-phase host timer for figures that want one sweep's wall clock as
   its own (JSON-only) metric — e.g. the scale figure's fat-tree tail,
   which perf.sh tracks as a warn-only FOM.  Wall-clock stays confined
   to this module; check.sh masks every engine/*host_seconds key. *)
let host_timed ~figure ~metric f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  Report.record ~figure ~metric (Unix.gettimeofday () -. t0);
  result

let measure ~figure f =
  reset ();
  Subsys_obs.reset ();
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let host = Unix.gettimeofday () -. t0 in
  Subsys_obs.flush ~figure;
  Breakdown.flush ~figure;
  Mutex.lock mutex;
  let events = win.events and elided = win.elided in
  let reused = win.reused and inline = win.inline in
  let spawns = win.spawns in
  let peak = win.peak and sims = win.sims in
  let sharded_sims = win.sharded_sims and shards = win.shards in
  let barriers = win.barriers and epochs_elided = win.epochs_elided in
  let xshard = win.xshard in
  let ev_min = win.shard_ev_min and ev_max = win.shard_ev_max in
  let dropped = win.dropped_spans and refused = win.refused in
  Mutex.unlock mutex;
  let fi = float_of_int in
  let rate n = if host > 0. then fi n /. host else 0. in
  Report.record ~figure ~metric:"engine/events" (fi events);
  Report.record ~figure ~metric:"engine/events_elided" (fi elided);
  Report.record ~figure ~metric:"engine/cells_reused" (fi reused);
  Report.record ~figure ~metric:"engine/inline_wakes" (fi inline);
  Report.record ~figure ~metric:"engine/spawns" (fi spawns);
  Report.record ~figure ~metric:"engine/peak_heap" (fi peak);
  Report.record ~figure ~metric:"engine/sims" (fi sims);
  Report.record ~figure ~metric:"engine/host_seconds" host;
  Report.record ~figure ~metric:"engine/events_per_sec" (rate events);
  Report.record ~figure ~metric:"engine/equiv_events_per_sec"
    (rate (events + elided));
  (* Zero-omitted, like the fabric/* keys: a figure that never sharded an
     experiment reports no engine/shards/* at all. *)
  if sharded_sims > 0 then begin
    Report.record ~figure ~metric:"engine/shards/sims" (fi sharded_sims);
    Report.record ~figure ~metric:"engine/shards/count" (fi shards);
    Report.record ~figure ~metric:"engine/shards/barrier_rounds"
      (fi barriers);
    Report.record ~figure ~metric:"engine/shards/epochs_elided"
      (fi epochs_elided);
    Report.record ~figure ~metric:"engine/shards/xshard_events" (fi xshard);
    Report.record ~figure ~metric:"engine/shards/events_min" (fi ev_min);
    Report.record ~figure ~metric:"engine/shards/events_max" (fi ev_max)
  end;
  (* Zero-omitted as well: only figures that actually hit an unshardable
     config report it, so every existing JSON stays byte-identical. *)
  if refused > 0 then
    Report.record ~figure ~metric:"engine/shards/refused" (fi refused);
  (* Zero-omitted: only figures whose trace left spans open (a process
     parked mid-span at the end of the run) report it. *)
  if dropped > 0 then
    Report.record ~figure ~metric:"trace/dropped_open" (fi dropped);
  result
