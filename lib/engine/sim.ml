exception Not_in_process

(* Hot-path events are resumptions of processes blocked in [delay]; those
   go through a [cell] taken from a per-shard free list, so the
   steady-state event loop allocates no closure per event.  [Call] covers
   everything else (spawn, [at]/[after] callbacks, suspend wake-ups). *)
type event =
  | Call of (unit -> unit)
  | Resume of cell

and cell = {
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable cname : string option;
  boxed : event; (* [Resume self], allocated once per cell *)
}

(* One traced interval of simulated time (see Span for the user API).
   The simulator only stores spans; it never reads them. *)
type span = {
  sp_cat : string;
  sp_name : string;
  sp_track : string;
  sp_begin : float;
  mutable sp_end : float; (* nan until ended *)
  mutable sp_args : (string * string) list;
}

(* One phase-attributed latency ledger (see Ledger for the user API).
   Phases are contiguous [(name, seg_start, seg_end)] segments sharing
   boundary timestamps, so they partition [ld_begin, ld_end] with no
   gaps or overlaps by construction; [ld_total] is the running float sum
   of segment durations folded in record order, so re-summing the stored
   segments reproduces it bit-exactly.  The simulator only stores
   ledgers; it never reads them. *)
type ledger = {
  ld_op : string;
  ld_track : string;
  ld_begin : float;
  mutable ld_cursor : float;
  mutable ld_end : float; (* nan until closed *)
  mutable ld_phases : (string * float * float) list; (* reverse order *)
  mutable ld_total : float;
}

(* Event shards.  A simulator is a set of shards, each with its own
   heap, sequence counter, clock and resume-cell pool; a fresh one has a
   single shard, which the merged loop of [run] drives exactly like a
   classic one-heap event loop.  [shard_init] partitions the population
   into per-node shards for conservative sharding: after [shard_engage]
   the shards run in epoch-barrier rounds of [lookahead] simulated
   nanoseconds, and an event scheduled into another shard is buffered on
   the source shard and merged at the next barrier in content order —
   sorted by [(key, src_shard, src_order)], which no shard execution
   schedule can perturb — so a sharded run is deterministic by
   construction and byte-identical to the same run on one shard. *)
type shard = {
  sh_id : int;
  sh_queue : event Heap.t;
  mutable sh_seq : int;
  mutable sh_now : float; (* shard clock, kept in epoch rounds only *)
  mutable sh_processed : int;
  mutable sh_peak : int;
  mutable sh_pool : cell array; (* free list of resume cells, as a stack *)
  mutable sh_pool_n : int;
  mutable sh_reused : int;
  mutable sh_inline : int; (* wake-ups continued inline, see [wake_at] *)
  (* outgoing cross-shard events of the current epoch, reverse order *)
  mutable sh_out : pending list;
  mutable sh_order : int;
}

and pending = {
  p_key : float;
  p_src : int;
  p_ord : int;
  p_dst : int;
  p_ev : event;
}

type t = {
  mutable now : float;
  mutable current : string option;
  mutable running : bool; (* a process frame is on the stack *)
  mutable elided : int;
  mutable spawned : int; (* processes spawned *)
  (* span tracing (empty unless Span.set_on true) *)
  mutable spans : span list; (* reverse begin order *)
  mutable dropped_spans : int; (* still-open spans discarded by take_spans *)
  (* latency ledgers and timeline steps (empty unless Ledger.set_on true) *)
  mutable ledgers : ledger list; (* closed ledgers, reverse close order *)
  mutable steps : (string * float * int) list; (* series, time, +/-delta *)
  mutable label : string;
  mutable shards : shard array;
  mutable cur : shard; (* shard whose event is executing, inside [run] *)
  mutable ambient : shard; (* target outside [run], see [with_shard] *)
  mutable in_run : bool;
  mutable until : float; (* the executing [run]'s limit, [infinity] if none *)
  mutable engaged : bool; (* epoch-barrier mode active *)
  mutable engage_req : bool;
  mutable lookahead : float; (* 0 until [shard_init] *)
  (* optional per-(src,dst) cross-shard latency floor, tighter than or
     equal to [lookahead]; [lookahead] still sets the epoch length *)
  mutable pair_bound : (int -> int -> float) option;
  mutable epoch_end : float;
  mutable barrier_rounds : int;
  mutable epochs_elided : int;
  mutable xshard : int;
}

type _ Effect.t +=
  | Until : t * float -> unit Effect.t
  | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let make_shard sh_id =
  { sh_id; sh_queue = Heap.create (); sh_seq = 0; sh_now = 0.;
    sh_processed = 0; sh_peak = 0; sh_pool = [||]; sh_pool_n = 0;
    sh_reused = 0; sh_inline = 0; sh_out = []; sh_order = 0 }

let create () =
  let sh = make_shard 0 in
  { now = 0.; current = None; running = false; elided = 0; spawned = 0;
    spans = []; dropped_spans = 0; ledgers = []; steps = []; label = "";
    shards = [| sh |]; cur = sh; ambient = sh; in_run = false;
    until = infinity; engaged = false; engage_req = false; lookahead = 0.;
    pair_bound = None; epoch_end = 0.; barrier_rounds = 0; epochs_elided = 0; xshard = 0 }

let now t = t.now

let sharded t = t.lookahead > 0.

let shard_init t ~shards ?pair_bound ~lookahead () =
  if sharded t then invalid_arg "Sim.shard_init: already sharded";
  let sh0 = t.shards.(0) in
  if sh0.sh_seq > 0 || not (Heap.is_empty sh0.sh_queue) then
    invalid_arg "Sim.shard_init: events already scheduled";
  if shards <= 0 then invalid_arg "Sim.shard_init: shards must be > 0";
  if not (Float.is_finite lookahead) || lookahead <= 0. then
    invalid_arg "Sim.shard_init: lookahead must be positive";
  (match pair_bound with
   | None -> ()
   | Some f ->
     (* The epoch length must be conservative: no pair may promise less
        latency than one epoch, or a barrier could miss a due event. *)
     for s = 0 to shards - 1 do
       for d = 0 to shards - 1 do
         if s <> d then begin
           let b = f s d in
           if not (Float.is_finite b) || b <= 0. then
             invalid_arg "Sim.shard_init: pair bound must be positive";
           if b < lookahead then
             invalid_arg
               "Sim.shard_init: pair bound below the epoch lookahead"
         end
       done
     done);
  t.lookahead <- lookahead;
  t.pair_bound <- pair_bound;
  t.shards <- Array.init shards make_shard;
  t.cur <- t.shards.(0);
  t.ambient <- t.shards.(0)

let shard_engage t = if sharded t then t.engage_req <- true

let with_shard t i f =
  if not (sharded t) then f ()
  else begin
    let saved = t.ambient in
    t.ambient <- t.shards.(i);
    Fun.protect ~finally:(fun () -> t.ambient <- saved) f
  end

let make_cell () =
  let rec c = { cont = None; cname = None; boxed = Resume c } in
  c

(* Resume cells come from and return to the executing shard's pool. *)
let acquire_cell t =
  let sh = t.cur in
  if sh.sh_pool_n = 0 then make_cell ()
  else begin
    sh.sh_pool_n <- sh.sh_pool_n - 1;
    sh.sh_reused <- sh.sh_reused + 1;
    sh.sh_pool.(sh.sh_pool_n)
  end

let release_cell t c =
  let sh = t.cur in
  let cap = Array.length sh.sh_pool in
  if sh.sh_pool_n = cap then begin
    let ncap = if cap = 0 then 32 else cap * 2 in
    let np = Array.make ncap c in
    Array.blit sh.sh_pool 0 np 0 cap;
    sh.sh_pool <- np
  end;
  sh.sh_pool.(sh.sh_pool_n) <- c;
  sh.sh_pool_n <- sh.sh_pool_n + 1

(* Tail-of-instant band: an event scheduled with [~tail:true] sorts
   after every normally-scheduled event at the same instant in the same
   heap, no matter when it was pushed — even after events pushed later,
   which take fresh (sub-band) sequence numbers.  Sequence counters
   never come near the band (2^40 events per heap), and tail events
   keep push order among themselves.  Every shard partitioning thus
   agrees that a tail event runs once its instant is otherwise
   exhausted, which is what makes the fabric's same-instant arrival
   batches (Fabric's content-ordered engines) independent of the heap-insertion
   schedule. *)
let tail_band = 1 lsl 40

(* Push into one shard's heap, clamping to the executing clock. *)
let push_shard t sh ~tail time ev =
  let time = if time < t.now then t.now else time in
  let seq = if tail then sh.sh_seq lor tail_band else sh.sh_seq in
  Heap.push sh.sh_queue ~key:time ~seq ev;
  sh.sh_seq <- sh.sh_seq + 1;
  let d = Heap.length sh.sh_queue in
  if d > sh.sh_peak then sh.sh_peak <- d

(* Deliver [ev] to shard [sh].  In epoch mode a cross-shard event is
   buffered on the source shard for the barrier merge; the lookahead
   contract (every cross-shard latency >= [lookahead]) guarantees it
   cannot be due before the next barrier. *)
let schedule_to t sh ~tail time ev =
  let src = t.cur in
  if t.engaged && t.in_run && src != sh then begin
    if tail then
      invalid_arg "Sim: tail event must target the executing shard";
    if time < t.epoch_end then
      invalid_arg
        (Printf.sprintf
           "Sim: cross-shard event at %.1f below the lookahead horizon %.1f"
           time t.epoch_end);
    (match t.pair_bound with
     | Some f when time < t.now +. f src.sh_id sh.sh_id ->
       invalid_arg
         (Printf.sprintf
            "Sim: cross-shard event at %.1f below the %d->%d pair bound %.1f"
            time src.sh_id sh.sh_id (f src.sh_id sh.sh_id))
     | _ -> ());
    src.sh_out <-
      { p_key = time; p_src = src.sh_id; p_ord = src.sh_order;
        p_dst = sh.sh_id; p_ev = ev }
      :: src.sh_out;
    src.sh_order <- src.sh_order + 1
  end
  else push_shard t sh ~tail time ev

(* Default target for an event with no explicit shard: the executing
   shard inside [run], else the build-time ambient binding. *)
let default_shard t = if t.in_run then t.cur else t.ambient

let target t shard =
  match shard with
  | Some i when sharded t -> t.shards.(i)
  | _ -> default_shard t

let at t ?shard ?(tail = false) time f =
  schedule_to t (target t shard) ~tail time (Call f)

let after t dt f = at t (t.now +. dt) f

let in_process t = t.running

let current_name t = t.current

(* Run [f] as a process body: install the effect handler that turns Until
   and Suspend into event-queue operations.  Process code only
   runs inside [run], so [t.cur] is the process's shard. *)
let handle_process t name f =
  let open Effect.Deep in
  let some_name = Some name in
  match_with
    (fun () ->
      t.running <- true;
      t.current <- some_name;
      f ())
    ()
    {
      retc = (fun () -> t.running <- false; t.current <- None);
      exnc = (fun e -> t.running <- false; t.current <- None; raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Until (t', time) when t' == t ->
            Some
              (fun (k : (a, _) continuation) ->
                let c = acquire_cell t in
                c.cont <- Some k;
                c.cname <- some_name;
                push_shard t t.cur ~tail:false time c.boxed;
                t.running <- false;
                t.current <- None)
          | Suspend (t', register) when t' == t ->
            Some
              (fun (k : (a, _) continuation) ->
                (* A process's continuation belongs to its home shard:
                   resume from wherever lands the wake-up event where the
                   process suspended, never where the resumer runs. *)
                let home = t.cur in
                let resumed = ref false in
                let resume () =
                  if !resumed then
                    invalid_arg "Sim.suspend: resume called twice";
                  resumed := true;
                  let wake () =
                    t.running <- true;
                    t.current <- some_name;
                    continue k ()
                  in
                  schedule_to t home ~tail:false t.now (Call wake)
                in
                register resume;
                t.running <- false;
                t.current <- None)
          | _ -> None);
    }

let spawn t ?(name = "proc") ?shard f =
  t.spawned <- t.spawned + 1;
  schedule_to t (target t shard) ~tail:false t.now
    (Call (fun () -> handle_process t name f))

(* [k] sorts strictly before every event of shards [i..]. *)
let rec before_all k shards i =
  i = Array.length shards
  || (Heap.below_top shards.(i).sh_queue k && before_all k shards (i + 1))

(* Inline continuation.  A blocked process's wake-up at [k] is pushed
   with its shard's largest sequence number, so when [k] sorts strictly
   before every key the run loop could pop first — the executing shard's
   top key and, in the merged prologue, every other shard's too (in an
   epoch round only the executing shard runs, up to [epoch_end]) — the
   loop would pop that very event next and resume the process.  Then the
   process keeps running instead, and this does the pushed-then-popped
   event's bookkeeping: the sequence number, the heap high-water mark,
   the clock and the processed count.  No [run] limit may fall in between
   ([k <= until]), and a pending [shard_engage] takes the slow path so
   the loop switches modes at the same event.  Both paths live in one
   function so the boxed [k] is allocated once, by the caller. *)
let wake_at t k =
  let sh = t.cur in
  if
    t.in_run
    && Heap.below_top sh.sh_queue k
    && k <= t.until
    && (if t.engaged then k < t.epoch_end
        else
          (not t.engage_req)
          && (Array.length t.shards = 1 || before_all k t.shards 0))
  then begin
    sh.sh_seq <- sh.sh_seq + 1;
    let d = Heap.length sh.sh_queue + 1 in
    if d > sh.sh_peak then sh.sh_peak <- d;
    t.now <- k;
    if t.engaged then sh.sh_now <- k;
    sh.sh_processed <- sh.sh_processed + 1;
    sh.sh_inline <- sh.sh_inline + 1
  end
  else Effect.perform (Until (t, k))

let delay t dt =
  if not t.running then raise Not_in_process;
  if not (Float.is_finite dt) || dt < 0. then
    invalid_arg "Sim.delay: negative or non-finite delay";
  wake_at t (t.now +. dt)

let delay_until t time =
  if not t.running then raise Not_in_process;
  if not (Float.is_finite time) then
    invalid_arg "Sim.delay_until: non-finite time";
  wake_at t (if time < t.now then t.now else time)

let suspend t register =
  if not t.running then raise Not_in_process;
  Effect.perform (Suspend (t, register))

let yield t = delay t 0.

let exec_event t ev =
  match ev with
  | Call f -> f ()
  | Resume c ->
    let k = match c.cont with Some k -> k | None -> assert false in
    let nm = c.cname in
    c.cont <- None;
    c.cname <- None;
    release_cell t c;
    t.running <- true;
    t.current <- nm;
    Effect.Deep.continue k ()

(* Lowest-keyed non-empty shard, ties to the lowest shard id: the merged
   order the prologue executes in.  [-1] when all are drained. *)
let min_shard t =
  let shards = t.shards in
  let best = ref (-1) in
  for i = 0 to Array.length shards - 1 do
    let q = shards.(i).sh_queue in
    if
      (not (Heap.is_empty q))
      && (!best < 0 || Heap.top_key q < Heap.top_key shards.(!best).sh_queue)
    then best := i
  done;
  !best

(* Barrier: merge every shard's buffered cross-shard events in content
   order — (key, source shard, per-source order) is a total order no
   execution schedule can perturb — assigning destination sequence
   numbers in that merged order. *)
let merge_pending t =
  let pend =
    Array.fold_left
      (fun acc sh ->
        let out = sh.sh_out in
        sh.sh_out <- [];
        List.rev_append out acc)
      [] t.shards
  in
  match pend with
  | [] -> ()
  | _ ->
    let sorted =
      List.sort
        (fun a b ->
          let c = Float.compare a.p_key b.p_key in
          if c <> 0 then c
          else begin
            let c = compare a.p_src b.p_src in
            if c <> 0 then c else compare a.p_ord b.p_ord
          end)
        pend
    in
    List.iter
      (fun p ->
        push_shard t t.shards.(p.p_dst) ~tail:false p.p_key p.p_ev;
        t.xshard <- t.xshard + 1)
      sorted

let run_loop t =
  let continue_ = ref true in
  (* Merged prologue: one global time-ordered loop over all shard heaps
     — the whole run on one shard.  Zero-latency cross-shard couplings
     (the init syncpoint) are legal here; [shard_engage] switches to
     epoch rounds once initialisation has completed and only
     lookahead-bounded couplings remain. *)
  while !continue_ && not (t.engaged || t.engage_req) do
    let i = min_shard t in
    if i < 0 then continue_ := false
    else begin
      let sh = t.shards.(i) in
      let key = Heap.top_key sh.sh_queue in
      if key > t.until then begin
        t.now <- t.until;
        continue_ := false
      end
      else begin
        t.now <- key;
        sh.sh_processed <- sh.sh_processed + 1;
        if t.cur != sh then t.cur <- sh;
        exec_event t (Heap.pop sh.sh_queue)
      end
    end
  done;
  if !continue_ && t.engage_req then begin
    if not t.engaged then begin
      t.engaged <- true;
      Array.iter (fun sh -> sh.sh_now <- t.now) t.shards
    end;
    let epoch_base = ref t.now in
    while !continue_ do
      let eend = !epoch_base +. t.lookahead in
      t.epoch_end <- eend;
      for s = 0 to Array.length t.shards - 1 do
        let sh = t.shards.(s) in
        t.cur <- sh;
        t.now <- sh.sh_now;
        let go = ref true in
        while !go do
          if Heap.is_empty sh.sh_queue then go := false
          else begin
            let k = Heap.top_key sh.sh_queue in
            if k >= eend || k > t.until then go := false
            else begin
              t.now <- k;
              sh.sh_now <- k;
              sh.sh_processed <- sh.sh_processed + 1;
              exec_event t (Heap.pop sh.sh_queue)
            end
          end
        done
      done;
      t.barrier_rounds <- t.barrier_rounds + 1;
      merge_pending t;
      let i = min_shard t in
      let mk =
        if i < 0 then infinity else Heap.top_key t.shards.(i).sh_queue
      in
      if mk > t.until then begin
        t.now <- t.until;
        continue_ := false
      end
      else if mk = infinity then begin
        continue_ := false;
        t.now <-
          Array.fold_left (fun a sh -> Float.max a sh.sh_now) t.now t.shards
      end
      else begin
        (* Skip empty epochs: jump the next round to the first due
           event.  Partition choice only — event times are untouched. *)
        if mk > eend then
          t.epochs_elided <-
            t.epochs_elided + int_of_float ((mk -. eend) /. t.lookahead);
        epoch_base := Float.max eend mk
      end
    done
  end

let events_processed t =
  Array.fold_left (fun a sh -> a + sh.sh_processed) 0 t.shards

(* The count covers inline wake-ups: they bump [sh_processed] too. *)
let run ?(until = infinity) t =
  let before = events_processed t in
  t.in_run <- true;
  t.until <- until;
  match run_loop t with
  | () -> t.in_run <- false; events_processed t - before
  | exception e -> t.in_run <- false; raise e

let note_elided t n = if n > 0 then t.elided <- t.elided + n

let events_elided t = t.elided

let peak_heap_depth t =
  Array.fold_left (fun a sh -> max a sh.sh_peak) 0 t.shards

let cells_reused t = Array.fold_left (fun a sh -> a + sh.sh_reused) 0 t.shards

let inline_wakes t = Array.fold_left (fun a sh -> a + sh.sh_inline) 0 t.shards

let spawns t = t.spawned

let shard_count t = if sharded t then Array.length t.shards else 0

(* Shard id an event issued right now would land on by default; 0 when
   sharding is off.  Lets per-shard caches (e.g. Route.Memo tables) pick
   their slot without threading ids through every call chain. *)
let exec_shard t = (default_shard t).sh_id

let shard_events t =
  if sharded t then Array.map (fun sh -> sh.sh_processed) t.shards else [||]

let barrier_rounds t = t.barrier_rounds

let epochs_elided t = t.epochs_elided

let xshard_events t = t.xshard

let set_label t l = t.label <- l

let label t = t.label

let span_begin t ?track ~cat ~name () =
  let sp =
    { sp_cat = cat; sp_name = name;
      sp_track =
        (match track, t.current with
         | Some n, _ | None, Some n -> n
         | None, None -> "<callback>");
      sp_begin = t.now; sp_end = Float.nan; sp_args = [] }
  in
  t.spans <- sp :: t.spans;
  sp

let span_end t ?(args = []) sp =
  if Float.is_nan sp.sp_end then begin
    sp.sp_end <- t.now;
    sp.sp_args <- args
  end

let take_spans t =
  let still_open, ended =
    List.partition (fun sp -> Float.is_nan sp.sp_end) t.spans
  in
  t.dropped_spans <- t.dropped_spans + List.length still_open;
  t.spans <- [];
  List.rev ended

let take_dropped_spans t =
  let n = t.dropped_spans in
  t.dropped_spans <- 0;
  n

let ledger_begin t ~op =
  { ld_op = op;
    ld_track = (match t.current with Some n -> n | None -> "<callback>");
    ld_begin = t.now; ld_cursor = t.now; ld_end = Float.nan;
    ld_phases = []; ld_total = 0. }

(* Attribute the segment [cursor, now] to [phase] and advance the cursor.
   Zero-length segments are skipped, so an unconditional mark on a path
   that may not have consumed time (e.g. an SDMA halt wait) records
   nothing unless it did.  Time within one process is monotone, so after
   a non-skipped mark the cursor always equals the current time. *)
let ledger_mark t ld ~phase =
  if Float.is_nan ld.ld_end && t.now > ld.ld_cursor then begin
    ld.ld_phases <- (phase, ld.ld_cursor, t.now) :: ld.ld_phases;
    ld.ld_total <- ld.ld_total +. (t.now -. ld.ld_cursor);
    ld.ld_cursor <- t.now
  end

let ledger_close t ld ~phase =
  if Float.is_nan ld.ld_end then begin
    ledger_mark t ld ~phase;
    ld.ld_end <- t.now;
    t.ledgers <- ld :: t.ledgers
  end

let take_ledgers t =
  let closed = t.ledgers in
  t.ledgers <- [];
  List.rev closed

let step_note t ~series delta =
  t.steps <- (series, t.now, delta) :: t.steps

let take_steps t =
  let steps = t.steps in
  t.steps <- [];
  List.rev steps

let ns x = x

let us x = x *. 1e3

let ms x = x *. 1e6

let s x = x *. 1e9
