open Nic_import
module Topology = Pico_fabric.Topology

type engine = Calibrated | Ordered | Sharded

type tier_stats = {
  ts_tier : string;
  ts_links : int;
  ts_packets : int;
  ts_bytes : int;
  ts_busy_ns : float;
  ts_peak_queue : int;
  ts_contended : int;
}

(* Packets bound for one node at one instant, buffered until the
   tail-of-instant flush delivers them in content order — see the note
   at [send_at].  Items are (src_node, send order, packet, sink), in
   reverse buffering order. *)
type batch = (int * int * Wire.packet * (Wire.packet -> unit)) list ref

(* Packets that reached one hop's arbitration point at one instant,
   buffered until the tail-of-instant flush queues them on the link in
   content order — the hop-level analogue of [batch].  Items are
   (src_node, send order, packet, sink, remaining hops), in reverse
   buffering order. *)
type hop_batch =
  (int * int * Wire.packet * (Wire.packet -> unit) * Route.hop list) list ref

type t = {
  sim : Sim.t;
  topo : Topology.t;
  routes : Route.Memo.t;
  sinks : (int, Wire.packet -> unit) Hashtbl.t;
  links : (Route.hop, Link.t) Hashtbl.t;
  (* Train-abort hooks, kept sorted by node id: Hashtbl iteration order
     is insertion-dependent, and abort order must not be. *)
  mutable aborts : (int * (unit -> unit)) list;
  mutable packets : int;
  mutable bytes : int;
  engine : engine;
  arrivals : (int * float, batch) Hashtbl.t; (* key: (dst, instant) *)
  mutable send_ord : int;
  (* Decomposed (per-shard-steppable) hop walk, active when arrivals are
     content-ordered on a non-flat topology — see [hop_step]. *)
  shardmap : Shardmap.t option;
  hop_batches : (Route.hop * float, hop_batch) Hashtbl.t;
  (* Nodes whose HFI currently holds a packet train (armed by Hfi); the
     decomposed walk schedules contention aborts to these only. *)
  armed : (int, unit) Hashtbl.t;
  (* last instant an abort was scheduled to a node, for dedup *)
  abort_marks : (int, float) Hashtbl.t;
  (* Fabric fault domain (DESIGN.md section 15): absent on the immortal
     fabric — every hot-path check below is a single option match then.
     Int counters are order-insensitive; the float park waits accumulate
     per source node (sender-timeline order, identical shard-on/off) and
     fold in sorted key order at stats time. *)
  mutable faults : Linkfault.t option;
  mutable fs_reroutes : int;
  mutable fs_egress_parks : int;
  mutable fs_retries : int;
  mutable fs_degraded : int;
  mutable flat_parks : int;
  mutable flat_replays : int;
  park_wait : (int, float ref) Hashtbl.t; (* by src: flat + egress holds *)
  (* Per-flow last computed flat arrival: fault inflations are variable,
     so without this clamp a replayed packet could overtake its flow's
     successor — flat arrivals must stay monotone per (src, dst). *)
  flat_last : (int * int, float) Hashtbl.t;
}

(* Shard [sim] into [nodes] shards, with the horizon the topology
   promises: on [Flat] every cross-node coupling crosses the wire, one
   full [link_latency] out, and no pair bound is needed; on a fat-tree
   the link owners in [sm] decompose the hop walk, and the tightest
   cross-shard coupling is one switch traversal plus the per-packet
   serialization floor (the hop floor), while pure-host pairs keep
   [link_latency].  Leaves [sim] alone and returns [false] when the
   cost table's lookahead is not positive and finite. *)
let shard_sim sim ~nodes sm =
  let c = Costs.current () in
  let link_latency = c.Costs.link_latency in
  let lookahead, pair_bound =
    match sm with
    | None -> (link_latency, None)
    | Some sm ->
      let hop_floor =
        c.Costs.switch_latency
        +. (float_of_int c.Costs.packet_overhead_bytes
            /. c.Costs.link_bandwidth)
      in
      ( Shardmap.lookahead sm ~link_latency ~hop_floor,
        Some (Shardmap.pair_bound sm ~link_latency ~hop_floor) )
  in
  Float.is_finite lookahead
  && lookahead > 0.
  && (Sim.shard_init sim ~shards:nodes ?pair_bound ~lookahead ();
      true)

let create ?(topology = Topology.Flat) ?(engine = Calibrated) ?(nodes = 1)
    sim =
  Topology.validate topology;
  (* Content-ordered fat-trees take the decomposed walk, whose link
     owners are one Shardmap per fabric. *)
  let shardmap shards =
    if engine = Calibrated || Topology.is_flat topology then None
    else Some (Shardmap.create topology ~shards)
  in
  let engine, shardmap =
    match engine with
    | Sharded when nodes > 1 ->
      let sm = shardmap nodes in
      if shard_sim sim ~nodes sm then (Sharded, sm) else (Ordered, shardmap 1)
    | Sharded -> (Ordered, shardmap 1)
    | (Calibrated | Ordered) as e -> (e, shardmap 1)
  in
  let shards = max 1 (Sim.shard_count sim) in
  { sim; topo = topology; engine;
    routes = Route.Memo.create ~shards topology;
    sinks = Hashtbl.create 64; links = Hashtbl.create 64; aborts = [];
    packets = 0; bytes = 0; arrivals = Hashtbl.create 64;
    send_ord = 0; shardmap;
    hop_batches = Hashtbl.create 64; armed = Hashtbl.create 16;
    abort_marks = Hashtbl.create 16;
    faults = None; fs_reroutes = 0; fs_egress_parks = 0; fs_retries = 0;
    fs_degraded = 0; flat_parks = 0; flat_replays = 0;
    park_wait = Hashtbl.create 16; flat_last = Hashtbl.create 64 }

let engine t = t.engine

(* Same-instant arrivals in content order: every engine but the
   calibrated default. *)
let ordered t =
  match t.engine with Calibrated -> false | Ordered | Sharded -> true

let topology t = t.topo

let attach t ~node_id ~rx =
  if Hashtbl.mem t.sinks node_id then
    invalid_arg (Printf.sprintf "Fabric.attach: node %d already attached" node_id);
  Hashtbl.add t.sinks node_id rx

let detach t ~node_id =
  Hashtbl.remove t.sinks node_id;
  Hashtbl.remove t.armed node_id;
  t.aborts <- List.remove_assoc node_id t.aborts

let set_train_abort t ~node_id ~abort =
  let l = (node_id, abort) :: List.remove_assoc node_id t.aborts in
  t.aborts <- List.sort (fun (a, _) (b, _) -> compare a b) l

let fire_aborts t = List.iter (fun (_, abort) -> abort ()) t.aborts

let decomposed t = Option.is_some t.shardmap

(* Armed-train registry, maintained by the HFIs ([Hfi] arms on train
   formation and disarms whenever its train clears).  Only meaningful to
   the decomposed walk — the legacy walk fires every hook synchronously
   — so the flat/unordered paths pay nothing. *)
let arm_train t ~node_id =
  if decomposed t then Hashtbl.replace t.armed node_id ()

let disarm_train t ~node_id =
  if decomposed t then Hashtbl.remove t.armed node_id

(* Decomposed contention abort: a synchronous cross-node hook call would
   mutate another shard's HFI from the link owner's shard (and its guard
   wake-ups would land cross-shard at the current instant, below any
   lookahead), so the owner instead {e schedules} the abort to each
   armed node's own shard one [link_latency] out — a legal cross-shard
   distance from every shard.  Aborting a train is always
   semantics-preserving (batched and per-packet paths are bit-exact, the
   PR 2 invariant), so the skew relative to the legacy synchronous call
   only moves which of two identical-result paths runs; only the
   train_aborts/events_elided counters can drift, and those are
   excluded from every identity gate.  One abort per (node, instant) is
   enough — the hook is idempotent — hence the mark dedup. *)
let schedule_aborts t =
  let sigma = Sim.now t.sim in
  let when_ = sigma +. (Costs.current ()).Costs.link_latency in
  List.iter
    (fun (node, abort) ->
      if
        Hashtbl.mem t.armed node
        && (match Hashtbl.find_opt t.abort_marks node with
            | Some m -> m <> sigma
            | None -> true)
      then begin
        Hashtbl.replace t.abort_marks node sigma;
        Sim.at t.sim ~shard:node when_ abort
      end)
    t.aborts

let link_of t hop =
  match Hashtbl.find_opt t.links hop with
  | Some l -> l
  | None ->
    let l =
      Link.create t.sim ~name:(Route.describe_hop hop)
        ~tier:(Route.tier_name hop.Route.tier)
    in
    Hashtbl.add t.links hop l;
    l

let wire_time len =
  let c = Costs.current () in
  float_of_int (len + c.packet_overhead_bytes) /. c.link_bandwidth

(* --- fabric fault domain (DESIGN.md section 15) --- *)

let set_link_faults t lf = t.faults <- lf

let faults_armed t = Option.is_some t.faults

let note_retry t = t.fs_retries <- t.fs_retries + 1

let note_degraded t = t.fs_degraded <- t.fs_degraded + 1

let bump_park_wait t ~src wait =
  match Hashtbl.find_opt t.park_wait src with
  | Some r -> r := !r +. wait
  | None -> Hashtbl.add t.park_wait src (ref wait)

(* Corrupt-and-replay repeats for one transit: draws the stream until a
   clean transmission.  The draw point must be result-determined —
   fat-tree links draw at the arbitration instant (batch flushes are
   content-sorted, so sharded and unsharded engines consume each link's
   stream in the same order), flat pseudo-links at egress in
   sender-timeline order. *)
let replay_count draw =
  let r = ref 0 in
  while draw () do incr r done;
  !r

(* Serialization work for one fat-tree transit arbitrated at [time]: the
   per-transit wire time — inflated by an active derate window (factor
   in (0, 1], so work only grows and no sharding pair bound tightens) —
   paid once per replay plus the original, replays holding the link so a
   flow can never overtake itself, with the same per-copy float-addition
   sequence on every walk. *)
let faulted_work lf hop ~time ~wire ~replays =
  let w =
    match Linkfault.derate_at lf hop ~time with
    | Some _ -> wire /. Linkfault.factor lf
    | None -> wire
  in
  if replays = 0 then w
  else begin
    let acc = ref w in
    for _ = 1 to replays do acc := !acc +. w done;
    !acc
  end

(* Transit work on [link] for [hop], including any corrupt/derate fault
   charge; identity to [wire_time] when no injector is installed. *)
let transit_work t link hop ~wire =
  match t.faults with
  | None -> wire
  | Some lf ->
    let replays =
      if Linkfault.corrupt_armed lf then
        replay_count (fun () -> Linkfault.corrupt lf hop)
      else 0
    in
    for _ = 1 to replays do Link.note_replay link done;
    faulted_work lf hop ~time:(Sim.now t.sim) ~wire ~replays

let deliver t rx (p : Wire.packet) =
  t.packets <- t.packets + 1;
  t.bytes <- t.bytes + p.wire_len;
  rx p

(* Store-and-forward walk of the packet's route: one end-to-end cable
   propagation, then per hop a switch traversal and FIFO serialization
   on the hop's link.  A busy link at arrival is exactly the contention
   a batched train's closed form cannot see coming, so every registered
   train-abort hook fires before this packet queues (aborting is always
   semantics-preserving; firing on behalf of every node is conservative
   but deterministic).

   The walk waits only on time and on FIFO link grants, so it runs as a
   chain of event callbacks, not as a process.  Its (key, seq) schedule
   is what every fat-tree result rests on: each wait is an [at] pushed
   when and where the wait begins, the walk starts from an [at] at now,
   and a queued grant is an event at the release instant
   ({!Link.transit}).  A callback has no process name, so the spans
   name their ["fabric"] track themselves. *)
let rec walk_hops t rx (p : Wire.packet) (c : Costs.t) = function
  | [] -> deliver t rx p
  | hop :: rest ->
    let link = link_of t hop in
    Sim.at t.sim (Sim.now t.sim +. c.Costs.switch_latency) (fun () ->
        (* Fault down window: park the packet on the link (never drop
           it) until the window ends.  A dying link is contention a
           batched train cannot see coming, so the hooks fire here
           too. *)
        match t.faults with
        | None -> cross_link t rx p c link hop rest
        | Some lf ->
          (match Linkfault.down_at lf hop ~time:(Sim.now t.sim) with
           | None -> cross_link t rx p c link hop rest
           | Some u ->
             let s = Sim.now t.sim in
             Link.note_park link ~wait:(u -. s);
             fire_aborts t;
             let sp =
               Span.begin_ ~track:"fabric" t.sim ~cat:"fabric"
                 ~name:"link_down"
             in
             Sim.at t.sim u (fun () ->
                 Span.end_with t.sim sp (fun () ->
                     [ ("link", Link.name link) ]);
                 cross_link t rx p c link hop rest)))

and cross_link t rx (p : Wire.packet) c link hop rest =
  if not (Link.idle link) then fire_aborts t;
  let sp =
    Span.begin_ ~track:"fabric" t.sim ~cat:"fabric" ~name:(Link.tier link)
  in
  let work = transit_work t link hop ~wire:(wire_time p.wire_len) in
  Link.transit link ~bytes:p.wire_len ~work (fun () ->
      Span.end_with t.sim sp (fun () ->
          [ ("link", Link.name link); ("bytes", string_of_int p.wire_len) ]);
      walk_hops t rx p c rest)

let hop_walk t rx (p : Wire.packet) hops =
  Sim.at t.sim (Sim.now t.sim) (fun () ->
      let c = Costs.current () in
      Sim.at t.sim (Sim.now t.sim +. c.Costs.link_latency) (fun () ->
          walk_hops t rx p c hops))

(* Buffer one ordered arrival into the destination's same-instant batch;
   must run at the arrival instant on the destination's shard.  The
   first packet of the (dst, instant) batch schedules the tail-of-
   instant flush, which delivers the batch sorted by (src_node, send
   order) — see the discipline note in [send_at]. *)
let buffer_arrival t rx (p : Wire.packet) ord =
  let arrive = Sim.now t.sim in
  let key = (p.dst_node, arrive) in
  match Hashtbl.find_opt t.arrivals key with
  | Some b -> b := (p.src_node, ord, p, rx) :: !b
  | None ->
    let b : batch = ref [ (p.src_node, ord, p, rx) ] in
    Hashtbl.add t.arrivals key b;
    Sim.at t.sim ~tail:true arrive (fun () ->
        Hashtbl.remove t.arrivals key;
        List.sort
          (fun (sa, oa, _, _) (sb, ob, _, _) -> compare (sa, oa) (sb, ob))
          !b
        |> List.iter (fun (_, _, p, rx) -> deliver t rx p))

(* Decomposed store-and-forward walk, the content-ordered fat-tree path: the
   same hop sequence and float arithmetic as [hop_walk], cut into
   per-shard events so a sharded engine can run congested topologies.

   Each hop becomes a {e step} event at the hop's arbitration instant
   [arrival +. switch_latency] on the link owner's shard
   ({!Shardmap.owner}).  Same-instant steps at one hop buffer into a
   batch flushed at the tail of the instant sorted by (src_node, send
   order) — the event queue's own tie-break is insertion order
   unsharded but barrier-merge order sharded, and FIFO link grants (who
   waits, and the order the busy-time floats accumulate in) must not
   depend on it.  The flush queues an arbitration event per packet, in
   batch order; FIFO then grants in that order.  At the instant the
   link is {e granted} (not when service completes) the packet's next
   step is scheduled at [(grant +. wire) +. switch_latency] — exactly
   the instant the legacy walk reaches the next hop's arbitration — so
   consecutive cross-shard hops stay at least one wire serialization
   plus switch traversal apart, the hop floor that [Shardmap] promises
   {!Sim.shard_init} as the pair bound.  The final (Host) hop's owner
   is the destination node, so its completion feeds the ordinary
   ordered-arrival batch above on the right shard. *)
let rec hop_step t (p : Wire.packet) rx ord hops =
  match hops with
  | [] -> assert false
  | (hop : Route.hop) :: rest ->
    let s = Sim.now t.sim in
    let key = (hop, s) in
    (match Hashtbl.find_opt t.hop_batches key with
     | Some b -> b := (p.src_node, ord, p, rx, rest) :: !b
     | None ->
       let b : hop_batch = ref [ (p.src_node, ord, p, rx, rest) ] in
       Hashtbl.add t.hop_batches key b;
       Sim.at t.sim ~tail:true s (fun () ->
           Hashtbl.remove t.hop_batches key;
           List.sort
             (fun (sa, oa, _, _, _) (sb, ob, _, _, _) ->
               compare (sa, oa) (sb, ob))
             !b
           |> List.iter (fun (_, ord, p, rx, rest) ->
                  arbitrate t hop p rx ord rest)))

and arbitrate t hop (p : Wire.packet) rx ord rest =
  let parked =
    match t.faults with
    | None -> None
    | Some lf -> Linkfault.down_at lf hop ~time:(Sim.now t.sim)
  in
  match parked with
  | Some u ->
    (* Fault down window: the owner shard parks the packet (never drops
       it) and re-steps it at the window's end — same shard, so always a
       legal schedule; parked packets re-batch at (hop, end) and flush
       in content order, so per-flow FIFO survives.  A dying link is
       contention an armed train cannot see: schedule the aborts. *)
    let s = Sim.now t.sim in
    let link = link_of t hop in
    Link.note_park link ~wait:(u -. s);
    schedule_aborts t;
    let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"link_down" in
    Sim.at t.sim u (fun () ->
        Span.end_with t.sim sp (fun () -> [ ("link", Link.name link) ]);
        hop_step t p rx ord (hop :: rest))
  | None ->
    (* Arbitrate from an event at now, not inline: its (key, seq) slot
       orders it against the instant's other events. *)
    Sim.at t.sim (Sim.now t.sim) (fun () ->
        let link = link_of t hop in
        if not (Link.idle link) then schedule_aborts t;
        let sp =
          Span.begin_ ~track:"fabric" t.sim ~cat:"fabric" ~name:(Link.tier link)
        in
        let wire = transit_work t link hop ~wire:(wire_time p.wire_len) in
        let end_span () =
          Span.end_with t.sim sp (fun () ->
              [ ("link", Link.name link); ("bytes", string_of_int p.wire_len) ])
        in
        match rest with
        | [] ->
          Link.transit link ~bytes:p.wire_len ~work:wire (fun () ->
              buffer_arrival t rx p ord;
              end_span ())
        | next :: _ ->
          let sm = Option.get t.shardmap in
          let sw = (Costs.current ()).Costs.switch_latency in
          Link.transit link ~bytes:p.wire_len ~work:wire
            ~on_grant:(fun () ->
              let step = (Sim.now t.sim +. wire) +. sw in
              Sim.at t.sim ~shard:(Shardmap.owner sm next) step (fun () ->
                  hop_step t p rx ord rest))
            end_span)

(* Flat worlds instantiate no links (invariant), so their faults live on
   per-node ingress pseudo-links: corrupt-and-replay adds one wire time
   per replay (per-source Bernoulli stream, drawn in sender-timeline
   order), an active derate window adds the extra serialization a
   derated ingress takes, and a down window holds the packet to the
   window's end.  Every adjustment pushes the arrival later only, so the
   sharded flat lookahead (one link_latency) stays legal; the per-flow
   clamp keeps arrivals monotone so variable inflation can never reorder
   a flow. *)
let flat_faulted_arrival t lf ~time (p : Wire.packet) =
  let c = Costs.current () in
  let wire = wire_time p.wire_len in
  let arrive = ref (time +. c.Costs.link_latency) in
  if Linkfault.corrupt_armed lf then begin
    let r = replay_count (fun () -> Linkfault.flat_corrupt lf ~src:p.src_node) in
    for _ = 1 to r do arrive := !arrive +. wire done;
    t.flat_replays <- t.flat_replays + r
  end;
  (match Linkfault.flat_derate_at lf ~dst:p.dst_node ~time:!arrive with
   | Some _ -> arrive := !arrive +. ((wire /. Linkfault.factor lf) -. wire)
   | None -> ());
  (match Linkfault.flat_down_at lf ~dst:p.dst_node ~time:!arrive with
   | Some u ->
     t.flat_parks <- t.flat_parks + 1;
     bump_park_wait t ~src:p.src_node (u -. !arrive);
     let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"link_down" in
     Span.end_with t.sim sp (fun () ->
         [ ("dst", string_of_int p.dst_node) ]);
     arrive := u
   | None -> ());
  let key = (p.src_node, p.dst_node) in
  let a =
    match Hashtbl.find_opt t.flat_last key with
    | Some prev when prev > !arrive -> prev
    | _ -> !arrive
  in
  Hashtbl.replace t.flat_last key a;
  a

let send_at t ~time (p : Wire.packet) =
  match Hashtbl.find_opt t.sinks p.dst_node with
  | None ->
    invalid_arg
      (Printf.sprintf "Fabric.send: destination node %d not attached"
         p.dst_node)
  | Some rx ->
    (* Loopback and the flat topology keep the original one-event path
       (byte-identical to the pre-topology fabric). *)
    if Topology.is_flat t.topo || p.src_node = p.dst_node then begin
      let arrive =
        if p.src_node = p.dst_node then
          time +. (Costs.current ()).loopback_latency
        else
          match t.faults with
          | None -> time +. (Costs.current ()).link_latency
          | Some lf -> flat_faulted_arrival t lf ~time p
      in
      (* Delivery belongs to the destination node's event shard (no-op
         when sharding is off).  Cross-node arrivals are one full
         [link_latency] out, which is exactly the sharded engine's
         lookahead; loopbacks stay within the sending shard. *)
      if not (ordered t) then
        Sim.at t.sim ~shard:p.dst_node arrive (fun () -> deliver t rx p)
      else begin
        (* Ordered same-instant arrival discipline.  Packets reaching
           one node at the exact same instant have no physical order,
           but the event queue imposes one — insertion order when
           unsharded, barrier merge order when sharded — and it leaks
           further: arrival events interleave differently with the
           node's own same-instant events (compute-phase resumptions,
           wake-ups) in the two engines, because a merged event's
           sequence number is assigned at the barrier while an inserted
           one keeps its send-time number.  Protocol actions at the
           destination (e.g. a send-side writev vs a receive-side TID
           ioctl) do not commute under wire contention, so the engines
           would drift apart.  The one position both agree on is the
           {e end} of the instant: each arrival only buffers its
           packet, the first one schedules a [~tail:true] flush, and
           the flush — which by the tail-band contract runs after every
           other event at that (node, instant) in either engine —
           delivers the batch sorted by (src_node, send order), a
           content order no execution schedule can perturb.  Same-src
           orders are assigned in the source node's execution order,
           which is engine-invariant. *)
        let ord = t.send_ord in
        t.send_ord <- ord + 1;
        Sim.at t.sim ~shard:p.dst_node arrive (fun () ->
            buffer_arrival t rx p ord)
      end
    end
    else begin
      (* Epoch-pure failover routing: the route is a function of
         (src, dst, dst_ctx, failure epoch at egress).  ECMP re-hashes
         around dead links; a fully partitioned pair parks the packet at
         egress until the first epoch whose links carry it — the
         post-horizon epoch has every link up, so the walk below always
         terminates and Fabric_unreachable never escapes this module
         (transport-level retry in lib/psm handles the user-visible
         waiting). *)
      let egress, hops =
        match t.faults with
        | None ->
          ( time,
            Route.Memo.route ~shard:(Sim.exec_shard t.sim) t.routes
              ~src:p.src_node ~dst:p.dst_node ~dst_ctx:p.dst_ctx )
        | Some lf ->
          let shard = Sim.exec_shard t.sim in
          let rec resolve e egress =
            let down hop = Linkfault.down_in_epoch lf ~epoch:e hop in
            match
              Route.Memo.route_epoch ~shard t.routes ~epoch:e ~down
                ~src:p.src_node ~dst:p.dst_node ~dst_ctx:p.dst_ctx
            with
            | hops, rerouted -> (egress, hops, rerouted)
            | exception Route.Fabric_unreachable _ ->
              resolve (e + 1) (Linkfault.epoch_start lf (e + 1))
          in
          let egress, hops, rerouted =
            resolve (Linkfault.epoch_at lf ~time) time
          in
          if egress > time then begin
            t.fs_egress_parks <- t.fs_egress_parks + 1;
            bump_park_wait t ~src:p.src_node (egress -. time)
          end;
          if rerouted then begin
            t.fs_reroutes <- t.fs_reroutes + 1;
            let sp = Span.begin_ t.sim ~cat:"fabric" ~name:"reroute" in
            Span.end_with t.sim sp (fun () ->
                [ ("src", string_of_int p.src_node);
                  ("dst", string_of_int p.dst_node) ])
          end;
          (egress, hops)
      in
      if not (ordered t) then
        Sim.at t.sim egress (fun () -> hop_walk t rx p hops)
      else begin
        (* Decomposed walk: schedule the first hop's arbitration step
           at [(egress +. link_latency) +. switch_latency] — the exact
           instant [hop_walk] would reach it — on the link owner's
           shard.  The gap is at least a full link latency, so this is
           a legal cross-shard distance from any (host) shard. *)
        let sm = Option.get t.shardmap in
        let first = List.hd hops in
        let ord = t.send_ord in
        t.send_ord <- ord + 1;
        let c = Costs.current () in
        let step = (egress +. c.Costs.link_latency) +. c.Costs.switch_latency in
        Sim.at t.sim ~shard:(Shardmap.owner sm first) step (fun () ->
            hop_step t p rx ord hops)
      end
    end

let send t p = send_at t ~time:(Sim.now t.sim) p

let quiet t =
  Topology.is_flat t.topo
  || Hashtbl.fold (fun _ l acc -> acc && Link.idle l) t.links true

let route_quiet t ~src ~dst ~dst_ctx =
  Topology.is_flat t.topo || src = dst
  || List.for_all
       (fun hop ->
         match Hashtbl.find_opt t.links hop with
         | None -> true (* never instantiated: nothing ever crossed it *)
         | Some l -> Link.idle l)
       (Route.Memo.route ~shard:(Sim.exec_shard t.sim) t.routes ~src ~dst
          ~dst_ctx)

let packets_delivered t = t.packets

let bytes_delivered t = t.bytes

(* Transport-level reachability probe for the PSM retry ladder: pure in
   (flow, failure epoch at now), so polling it never perturbs results. *)
let path_reachable t ~src ~dst ~dst_ctx =
  match t.faults with
  | None -> true
  | Some lf ->
    Topology.is_flat t.topo || src = dst
    ||
    (let e = Linkfault.epoch_at lf ~time:(Sim.now t.sim) in
     let down hop = Linkfault.down_in_epoch lf ~epoch:e hop in
     match
       Route.Memo.route_epoch ~shard:(Sim.exec_shard t.sim) t.routes ~epoch:e
         ~down ~src ~dst ~dst_ctx
     with
     | _ -> true
     | exception Route.Fabric_unreachable _ -> false)

type fault_stats = {
  fs_parks : int;
  fs_park_ns : float;
  fs_replays : int;
  fs_reroutes : int;
  fs_egress_parks : int;
  fs_retries : int;
  fs_degraded : int;
}

let fault_stats t =
  (* Fold link floats in name order and per-src waits in key order so
     the sums are independent of Hashtbl layout and engine schedules;
     the int counters are order-insensitive. *)
  let links =
    Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
    |> List.sort (fun a b -> compare (Link.name a) (Link.name b))
  in
  let parks, link_ns, replays =
    List.fold_left
      (fun (p, ns, r) l ->
        (p + Link.parks l, ns +. Link.park_ns l, r + Link.replays l))
      (t.flat_parks, 0., t.flat_replays)
      links
  in
  let park_ns =
    Hashtbl.fold (fun src r acc -> (src, !r) :: acc) t.park_wait []
    |> List.sort compare
    |> List.fold_left (fun acc (_, w) -> acc +. w) link_ns
  in
  { fs_parks = parks; fs_park_ns = park_ns; fs_replays = replays;
    fs_reroutes = t.fs_reroutes; fs_egress_parks = t.fs_egress_parks;
    fs_retries = t.fs_retries; fs_degraded = t.fs_degraded }

(* Scheduled per-tier downtime of the installed fault schedule, clipped
   to [0, until]; empty on the immortal fabric. *)
let downtime_by_tier t ~until =
  match t.faults with
  | None -> []
  | Some lf -> Linkfault.downtime_by_tier lf ~until

let attached t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.sinks [] |> List.sort compare

let tier_stats t =
  (* Fold each tier's links in name order so the busy_ns float sums are
     independent of Hashtbl layout and worker-domain schedules. *)
  let links =
    Hashtbl.fold (fun _ l acc -> l :: acc) t.links []
    |> List.sort (fun a b -> compare (Link.name a) (Link.name b))
  in
  List.fold_left
    (fun acc l ->
      let tier = Link.tier l in
      let cur =
        match List.assoc_opt tier acc with
        | Some s -> s
        | None ->
          { ts_tier = tier; ts_links = 0; ts_packets = 0; ts_bytes = 0;
            ts_busy_ns = 0.; ts_peak_queue = 0; ts_contended = 0 }
      in
      let s =
        { cur with
          ts_links = cur.ts_links + 1;
          ts_packets = cur.ts_packets + Link.packets l;
          ts_bytes = cur.ts_bytes + Link.bytes l;
          ts_busy_ns = cur.ts_busy_ns +. Link.busy_ns l;
          ts_peak_queue = max cur.ts_peak_queue (Link.peak_queue l);
          ts_contended = cur.ts_contended + Link.contended l }
      in
      (tier, s) :: List.remove_assoc tier acc)
    [] links
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
