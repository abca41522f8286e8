(* Tests for the engine's results: digests of the default path's results
   pinned per OS kind, byte identity of simulation results across
   shard-on/off (including with fault injection armed, mid-run SDMA
   halts, and fat-tree topologies where links have Shardmap owner
   shards), Route memoization, and the shard counter plumbing. *)

module Sim = Pico_engine.Sim
module Rng = Pico_engine.Rng
module Topology = Pico_fabric.Topology
module Route = Pico_fabric.Route
module Fabric = Pico_nic.Fabric
module Hfi = Pico_nic.Hfi
module Sdma = Pico_nic.Sdma
module Costs = Pico_costs.Costs
module Cluster = Pico_harness.Cluster
module Experiment = Pico_harness.Experiment
module Fault = Pico_harness.Fault
module Pool = Pico_harness.Pool
module Engine_obs = Pico_harness.Engine_obs
module Report = Pico_harness.Report
module Comm = Pico_mpi.Comm
module Collectives = Pico_mpi.Collectives
module Mpi = Pico_mpi.Mpi
module Workload = Pico_apps.Workload
module Imb = Pico_apps.Imb
module Serve = Pico_serve.Serve

let () = Costs.reset ()

(* --- the probe workload ----------------------------------------------------

   One steady-state iteration mixes everything sharding touches:
   rendezvous-sized ring traffic (SDMA request trains), eager collective
   traffic, and noise-metered compute (Linux ranks).  Deliberately the
   same shape as the integration fuzz app, plus compute. *)

let app comm =
  let os = Pico_psm.Endpoint.os comm.Comm.ep in
  let buf = os.Pico_psm.Endpoint.mmap_anon (256 * 1024) in
  let n = comm.Comm.size in
  Collectives.barrier comm;
  for _ = 1 to 3 do
    Mpi.sendrecv comm
      ~dst:((comm.Comm.rank + 1) mod n)
      ~src:(Some ((comm.Comm.rank - 1 + n) mod n))
      ~stag:1 ~rtag:1 ~sva:buf ~slen:(200 * 1024) ~rva:buf
      ~rlen:(200 * 1024);
    Workload.compute comm 3.3e5;
    Collectives.allreduce comm ~len:64
  done;
  os.Pico_psm.Endpoint.munmap buf;
  Collectives.barrier comm;
  1.

(* Pairwise cross-node exchange: with [rpn] ranks per node all sending
   rendezvous-sized messages to the opposite node at once, one rank's
   SDMA train is in flight while its node-mates contend for the same
   wire — the contention that forces {!Hfi.maybe_abort_train}. *)
let xchg_app comm =
  let os = Pico_psm.Endpoint.os comm.Comm.ep in
  let buf = os.Pico_psm.Endpoint.mmap_anon (512 * 1024) in
  let n = comm.Comm.size in
  let rank = comm.Comm.rank in
  let partner = (rank + (n / 2)) mod n in
  (* Node-local rank index (node-major layout): staggering the senders a
     few microseconds apart lets the first form a train that is still on
     the wire when its node-mate's transfer arrives. *)
  let local = rank mod (n / 2) in
  Collectives.barrier comm;
  for step = 1 to 4 do
    let r = Mpi.irecv comm ~src:(Some partner) ~tag:step ~va:buf
        ~len:(200 * 1024) in
    Workload.compute comm (float_of_int local *. 6.0e3);
    let s = Mpi.isend comm ~dst:partner ~tag:step ~va:buf ~len:(200 * 1024) in
    Mpi.waitall comm [ r; s ];
    Workload.compute comm 1.0e5
  done;
  os.Pico_psm.Endpoint.munmap buf;
  Collectives.barrier comm;
  1.

(* Everything simulated the run produced, as exact bit patterns: any
   float divergence anywhere upstream lands in at least one of these. *)
let fingerprint (cl : Cluster.t) (res : Experiment.result) =
  let b = Buffer.create 256 in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  let i n = Buffer.add_string b (string_of_int n ^ ";") in
  f res.Experiment.fom_ns;
  f res.Experiment.wall_ns;
  f res.Experiment.init_ns;
  f (Experiment.total_runtime_ns res);
  i (Fabric.packets_delivered cl.Cluster.fabric);
  i (Fabric.bytes_delivered cl.Cluster.fabric);
  (* Per-tier link counters: empty under Flat, and under Fat_tree the
     part of the simulation the decomposed sharded hop walk could
     plausibly skew (per-link FCFS grants, queue depths, contention). *)
  List.iter
    (fun (ts : Fabric.tier_stats) ->
      Buffer.add_string b (ts.Fabric.ts_tier ^ ";");
      i ts.Fabric.ts_links;
      i ts.Fabric.ts_packets;
      i ts.Fabric.ts_bytes;
      f ts.Fabric.ts_busy_ns;
      i ts.Fabric.ts_peak_queue;
      i ts.Fabric.ts_contended)
    (Fabric.tier_stats cl.Cluster.fabric);
  (* Fabric fault counters are simulation results (parks, replays,
     reroutes, retries land at result-determined instants), unlike
     engine elision counts — shard-on/off must reproduce them exactly. *)
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  i fs.Fabric.fs_parks;
  f fs.Fabric.fs_park_ns;
  i fs.Fabric.fs_replays;
  i fs.Fabric.fs_reroutes;
  i fs.Fabric.fs_egress_parks;
  i fs.Fabric.fs_retries;
  i fs.Fabric.fs_degraded;
  Array.iter
    (fun (env : Cluster.node_env) ->
      let hfi = env.Cluster.hfi in
      i (Hfi.pio_packets hfi);
      i (Hfi.pio_bytes hfi);
      i (Hfi.eager_packets_rx hfi);
      i (Hfi.expected_msgs_rx hfi);
      let sdma = Hfi.sdma hfi in
      i (Sdma.requests_submitted sdma);
      i (Sdma.bytes_submitted sdma);
      i (Sdma.txs_completed sdma);
      i (Sdma.halts sdma);
      f (Sdma.busy_ns sdma);
      f (Sdma.halted_ns sdma))
    cl.Cluster.nodes;
  Buffer.contents b

let with_faults ?(links = false) armed f =
  if not (armed || links) then f ()
  else
    Costs.with_patched
      (fun c ->
        c.Costs.fault_horizon <- 1.0e8;
        if armed then begin
          c.Costs.fault_sdma_halt_interval <- 3.0e6;
          c.Costs.fault_service_stall_interval <- 5.0e6
        end;
        if links then begin
          c.Costs.fault_link_down_interval <- 2.0e6;
          c.Costs.fault_link_down_duration <- 3.0e5;
          c.Costs.fault_link_derate_interval <- 3.0e6;
          c.Costs.fault_link_derate_duration <- 4.0e5;
          c.Costs.fault_link_corrupt <- 1.0e-3
        end)
      f

type probe = {
  fp : string;
  events : int;
  elided : int;
  halts : int;
  linkhits : int;  (* parks + replays + reroutes + egress parks *)
}

let run_probe ?(app = app) ?(topology = Topology.Flat) ?(linkfaults = false)
    ~kind ~n_nodes ~rpn ~seed ~faults ~shard () =
  with_faults ~links:linkfaults faults @@ fun () ->
  (* Identity across shard-on/off only holds between runs sharing the
     same same-instant arrival tie-break, so the one-shard comparator
     runs [Ordered], the content order every sharded build uses.  On a
     fat-tree that also selects the decomposed hop walk for both runs
     (same code path sharded or not — only the event partitioning
     differs). *)
  let engine = if shard then Cluster.Sharded else Cluster.Ordered in
  let cl = Cluster.build kind ~n_nodes ~topology ~engine ~seed () in
  Fault.install cl;
  let res = Experiment.run cl ~ranks_per_node:rpn app in
  let sum g =
    Array.fold_left (fun acc env -> acc + g env) 0 cl.Cluster.nodes
  in
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  { fp = fingerprint cl res;
    events = Sim.events_processed cl.Cluster.sim;
    elided = Sim.events_elided cl.Cluster.sim;
    halts = sum (fun env -> Sdma.halts (Hfi.sdma env.Cluster.hfi));
    linkhits =
      fs.Fabric.fs_parks + fs.Fabric.fs_replays + fs.Fabric.fs_reroutes
      + fs.Fabric.fs_egress_parks }

let kinds = [| Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi |]

(* --- shard-on/off identity ------------------------------------------------ *)

let prop_switch_identity =
  QCheck2.Test.make
    ~name:"shard on/off: identical simulation results"
    ~count:12
    ~print:(fun (k, n, r, s, f) ->
      Printf.sprintf "kind=%d n_nodes=%d rpn=%d seed=%d faults=%b" k n r s f)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 2 4) (int_range 1 3) (int_range 0 10_000)
        bool)
    (fun (kind_i, n_nodes, rpn, seed, faults) ->
      let kind = kinds.(kind_i) in
      let seed = Int64.of_int seed in
      let base =
        run_probe ~kind ~n_nodes ~rpn ~seed ~faults ~shard:false ()
      in
      let p = run_probe ~kind ~n_nodes ~rpn ~seed ~faults ~shard:true () in
      p.fp = base.fp
      (* Elision decisions depend only on simulated state, so they are
         identical too.  Raw event counts may drift by a handful under
         sharding (a same-instant cross-shard put/get pair commutes
         semantically but changes whether a wake event is needed), which
         is why identity is defined over simulation results, never
         engine-internal counters. *)
      && p.elided = base.elided)

(* The same law over congested fat-tree fabrics: links have Shardmap
   owner shards, the hop walk is decomposed into per-shard events, and
   cross-shard contention aborts are scheduled rather than called — all
   of which must leave every simulation result (FOMs, packet/byte
   counts, per-node HFI/SDMA counters, per-tier link counters) bit
   identical to the unsharded run. *)
let prop_ft_identity =
  QCheck2.Test.make
    ~name:"fat-tree shard on/off: identical simulation results" ~count:8
    ~print:(fun (k, n, r, s, (f, lf, radix, oversub)) ->
      Printf.sprintf
        "kind=%d n_nodes=%d rpn=%d seed=%d faults=%b linkfaults=%b radix=%d \
         oversub=%d"
        k n r s f lf radix oversub)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 2 5) (int_range 1 2) (int_range 0 10_000)
        (tup4 bool bool (int_range 2 4) (int_range 1 2)))
    (fun (kind_i, n_nodes, rpn, seed, (faults, linkfaults, radix, oversub)) ->
      let kind = kinds.(kind_i) in
      let seed = Int64.of_int seed in
      let topology = Topology.Fat_tree { radix; oversub } in
      let run ~shard =
        run_probe ~topology ~linkfaults ~kind ~n_nodes ~rpn ~seed ~faults
          ~shard ()
      in
      let base = run ~shard:false in
      (run ~shard:true).fp = base.fp)

(* The link-fault half of the law, pinned non-vacuously: a seed/rate
   point where the base run demonstrably parks packets on down links and
   re-routes around them, then shard-on must reproduce every result —
   including the fault counters — bit for bit. *)
let test_ft_linkfault_identity () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 5 and rpn = 2
  and seed = 0x5EEDL in
  let topology = Topology.Fat_tree { radix = 2; oversub = 1 } in
  let run ~shard =
    run_probe ~app:xchg_app ~topology ~linkfaults:true ~kind ~n_nodes ~rpn
      ~seed ~faults:false ~shard ()
  in
  let base = run ~shard:false in
  Alcotest.(check bool) "link faults actually bit (parks or reroutes)" true
    (base.linkhits > 0);
  Alcotest.(check string) "faulted fat-tree identity" base.fp
    (run ~shard:true).fp

(* The `picobench scale` part A probe: UMT's persistent-channel wavefront
   sweeps (6-neighbour rendezvous halos) are the densest same-instant
   traffic any figure generates. *)
let test_umt_identity () =
  Array.iter
    (fun kind ->
      let run ~shard =
        run_probe
          ~app:(fun c -> Pico_apps.Umt.run c)
          ~kind ~n_nodes:4 ~rpn:2 ~seed:0x5EEDL ~faults:false ~shard ()
      in
      let base = run ~shard:false in
      Alcotest.(check string) "umt identity" base.fp (run ~shard:true).fp)
    kinds

(* --- mid-run halts under sharding ----------------------------------------- *)

(* With halts armed and several ranks per node, engines halt mid-run
   while node-mates contend for the wire; the sharded run must reproduce
   the halt schedule and every result of the one-shard run. *)
let test_shard_halt_identity () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 2 and rpn = 2
  and seed = 42L in
  let run ~shard =
    run_probe ~app:xchg_app ~kind ~n_nodes ~rpn ~seed ~faults:true ~shard ()
  in
  let off = run ~shard:false in
  let on = run ~shard:true in
  Alcotest.(check bool) "halts actually occurred" true (off.halts > 0);
  Alcotest.(check string) "identical results" off.fp on.fp;
  Alcotest.(check int) "identical halt schedule" off.halts on.halts

(* --- route memoization ------------------------------------------------------ *)

let prop_route_memo =
  QCheck2.Test.make ~name:"memoized route = recomputed route" ~count:200
    QCheck2.Gen.(
      tup5 (int_range 1 8) (int_range 1 4) (int_range 0 63) (int_range 0 63)
        (int_range 0 7))
    (fun (radix, oversub, src, dst, dst_ctx) ->
      let topo = Topology.Fat_tree { radix; oversub } in
      let memo = Route.Memo.create topo in
      let direct = Route.route topo ~src ~dst ~dst_ctx in
      Route.Memo.route memo ~src ~dst ~dst_ctx = direct
      (* second lookup serves the cached list *)
      && Route.Memo.route memo ~src ~dst ~dst_ctx = direct)

let test_route_memo_flat () =
  let memo = Route.Memo.create Topology.Flat in
  Alcotest.(check bool) "flat routes are empty" true
    (Route.Memo.route memo ~src:0 ~dst:5 ~dst_ctx:1 = [])

(* --- shard counters --------------------------------------------------------- *)

let test_shard_counters () =
  let kind = Cluster.Mckernel_hfi and n_nodes = 3 and rpn = 2
  and seed = 7L in
  with_faults false @@ fun () ->
  let cl = Cluster.build kind ~n_nodes ~engine:Cluster.Sharded ~seed () in
  let sim = cl.Cluster.sim in
  Alcotest.(check bool) "sharded" true (Sim.sharded sim);
  Alcotest.(check int) "one shard per node" n_nodes (Sim.shard_count sim);
  ignore (Experiment.run cl ~ranks_per_node:rpn app);
  let per_shard = Sim.shard_events sim in
  Alcotest.(check int) "per-shard events sum to the total"
    (Sim.events_processed sim)
    (Array.fold_left ( + ) 0 per_shard);
  Alcotest.(check bool) "every shard did work" true
    (Array.for_all (fun n -> n > 0) per_shard);
  Alcotest.(check bool) "epoch rounds ran" true (Sim.barrier_rounds sim > 0);
  Alcotest.(check bool) "cross-shard events merged" true
    (Sim.xshard_events sim > 0);
  Alcotest.(check bool) "idle epochs skipped" true (Sim.epochs_elided sim >= 0)

let test_unsharded_counters () =
  let cl = Cluster.build Cluster.Linux ~n_nodes:2 ~seed:7L () in
  let sim = cl.Cluster.sim in
  ignore (Experiment.run cl ~ranks_per_node:1 app);
  Alcotest.(check bool) "not sharded" false (Sim.sharded sim);
  Alcotest.(check int) "no shards" 0 (Sim.shard_count sim);
  Alcotest.(check int) "no barriers" 0 (Sim.barrier_rounds sim);
  Alcotest.(check int) "no cross-shard events" 0 (Sim.xshard_events sim)

(* Fat-tree topologies shard (one shard per node; links get Shardmap
   owner shards), and the pairwise-exchange workload that forces
   mid-train link contention stays bit-identical to the unsharded
   ordered run. *)
let test_fat_tree_shards () =
  let topology = Topology.Fat_tree { radix = 2; oversub = 1 } in
  let cl =
    Cluster.build Cluster.Mckernel ~n_nodes:4 ~topology
      ~engine:Cluster.Sharded ~seed:3L ()
  in
  Alcotest.(check bool) "fat-tree cluster is sharded" true
    (Sim.sharded cl.Cluster.sim);
  Alcotest.(check int) "one shard per node" 4 (Sim.shard_count cl.Cluster.sim);
  let run ~shard =
    run_probe ~topology ~app:xchg_app ~kind:Cluster.Mckernel_hfi ~n_nodes:4
      ~rpn:2 ~seed:3L ~faults:false ~shard ()
  in
  let off = run ~shard:false in
  let on = run ~shard:true in
  Alcotest.(check string) "identical results" off.fp on.fp

(* A sharding request on a genuinely unshardable config (single node) is
   refused: the world runs [Ordered], records the refusal, and the figure
   window it ran in reports it — while a granted request reports none. *)
let test_refused_sharding () =
  let refused_key figure =
    List.assoc_opt (figure ^ "/engine/shards/refused") (Report.dump ())
  in
  let cl, res =
    Engine_obs.measure ~figure:"refused_t" @@ fun () ->
    let cl =
      Cluster.build Cluster.Linux ~n_nodes:1 ~engine:Cluster.Sharded ~seed:1L
        ()
    in
    (cl, Experiment.run cl ~ranks_per_node:2 app)
  in
  Alcotest.(check bool) "single-node cluster is unsharded" false
    (Sim.sharded cl.Cluster.sim);
  Alcotest.(check bool) "runs content-ordered" true
    (Fabric.engine cl.Cluster.fabric = Cluster.Ordered);
  Alcotest.(check bool) "refusal recorded on the world" true
    cl.Cluster.refused_sharding;
  Alcotest.(check (option (float 0.))) "figure window counts it" (Some 1.)
    (refused_key "refused_t");
  Alcotest.(check bool) "runs to completion" true
    (res.Experiment.fom_ns > 0.);
  Engine_obs.measure ~figure:"granted_t" (fun () ->
      let cl =
        Cluster.build Cluster.Linux ~n_nodes:2 ~engine:Cluster.Sharded
          ~seed:1L ()
      in
      ignore (Experiment.run cl ~ranks_per_node:1 app));
  Alcotest.(check (option (float 0.))) "granted request reports none" None
    (refused_key "granted_t")

(* The engine belongs to the world it was built for: the same 4-node UMT
   world built [Ordered], [Sharded] and [Calibrated], interleaved as jobs
   of one pool, must reproduce the sequential run of its engine — no
   job's choice leaks into a job running beside it — and the sharded
   world the ordered one. *)
let test_pool_interleaved_engines () =
  let run engine =
    let cl =
      Cluster.build Cluster.Mckernel_hfi ~n_nodes:4 ~engine ~seed:0x5EEDL ()
    in
    let res =
      Experiment.run cl ~ranks_per_node:2 (fun c -> Pico_apps.Umt.run c)
    in
    (engine, fingerprint cl res)
  in
  let engines = [ Cluster.Ordered; Cluster.Sharded; Cluster.Calibrated ] in
  let sequential = List.map run engines in
  Alcotest.(check string) "sharded = ordered"
    (List.assoc Cluster.Ordered sequential)
    (List.assoc Cluster.Sharded sequential);
  let pooled =
    Pool.with_pool ~jobs:2 (fun pool -> Pool.map pool run (engines @ engines))
  in
  List.iter
    (fun (engine, fp) ->
      Alcotest.(check string) "pooled = sequential"
        (List.assoc engine sequential) fp)
    pooled

(* --- pinned results ---------------------------------------------------------

   Bit-exact results of small worlds on the default engine path (one
   shard, unordered arrivals), per OS kind: MD5 digests of [fingerprint]
   plus each workload's own outputs, recorded from a known good tree.  A
   change meant to be results-neutral must leave every digest alone; a
   change that moves results on purpose updates them and says so in
   CHANGES.md (a mismatch prints the new digest). *)

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let pinned_digest cl res extra =
  Digest.to_hex (Digest.string (fingerprint cl res ^ extra))

(* Figure 4's path: 2-node IMB PingPong across the PIO/SDMA threshold
   up to the 4 MiB point the paper quotes. *)
let pinned_pingpong kind =
  let cl = Cluster.build kind ~n_nodes:2 () in
  let out = ref [] in
  let res =
    Experiment.run cl ~ranks_per_node:1
      (Imb.pingpong ~iters:4
         ~sizes:[ 1; 4096; 65536; 262144; 4 * 1024 * 1024 ]
         ~out)
  in
  pinned_digest cl res
    (String.concat ""
       (List.map
          (fun (p : Imb.point) ->
            Printf.sprintf "%d:%s:%s," p.Imb.size (bits p.Imb.time_ns)
              (bits p.Imb.mbps))
          (List.rev !out)))

(* Figure 6a's path: UMT2013's wavefront sweeps, 4 nodes x 2 ranks. *)
let pinned_umt kind =
  let cl = Cluster.build kind ~n_nodes:4 () in
  let res =
    Experiment.run cl ~ranks_per_node:2 (fun c -> Pico_apps.Umt.run c)
  in
  pinned_digest cl res ""

(* The service workload on the 2:1 fat-tree: one client fanning out to
   three servers, admission control and the breaker armed. *)
let pinned_serve kind =
  Costs.with_patched
    (fun c ->
      c.Costs.serve_arrival_interval <- 16_000.;
      c.Costs.serve_horizon <- 16_000. *. 2000.;
      c.Costs.serve_burst_interval <- 40. *. 16_000.;
      c.Costs.serve_burst_duration <- 8. *. 16_000.;
      c.Costs.serve_admit_cap <- 24;
      c.Costs.serve_breaker_threshold <- 8;
      c.Costs.serve_timeout <- 5.0e6)
  @@ fun () ->
  let cl =
    Cluster.build kind ~n_nodes:4
      ~topology:(Topology.Fat_tree { radix = 4; oversub = 2 })
      ()
  in
  let plans =
    Serve.plans ~split:(fun () -> Rng.split cl.Cluster.rng) ~clients:1
  in
  let out = Array.make 4 None in
  let res = Experiment.run cl ~ranks_per_node:1 (Serve.run ~plans ~out) in
  let b = Buffer.create 4096 in
  Array.iter
    (function
      | Some (Serve.Client cs) ->
        Buffer.add_string b
          (Printf.sprintf "C%d:%d:%d:%d:%d:%d:%d" cs.Serve.c_arrivals
             cs.Serve.c_issued cs.Serve.c_ok cs.Serve.c_shed cs.Serve.c_late
             cs.Serve.c_tripped cs.Serve.c_trips);
        List.iter (fun l -> Buffer.add_string b (":" ^ bits l)) cs.Serve.c_lats
      | Some (Serve.Server ss) ->
        Buffer.add_string b
          (Printf.sprintf "S%d:%d:%s" ss.Serve.s_handled ss.Serve.s_shed
             (bits ss.Serve.s_busy_ns))
      | None -> Buffer.add_string b "-")
    out;
  pinned_digest cl res (Buffer.contents b)

(* The default engine's store-and-forward walk with link faults armed
   on a 2:1 fat-tree: packets park on down links, corrupt transmissions
   replay, and failover routing re-hashes around dead spines — all three
   must actually happen, or the digest pins nothing of the fault path. *)
let pinned_ft_faults kind =
  with_faults ~links:true false @@ fun () ->
  Costs.with_patched (fun c -> c.Costs.fault_link_corrupt <- 2.0e-2)
  @@ fun () ->
  let cl =
    Cluster.build kind ~n_nodes:8
      ~topology:(Topology.Fat_tree { radix = 4; oversub = 2 })
      ()
  in
  Fault.install cl;
  let res = Experiment.run cl ~ranks_per_node:2 xchg_app in
  let fs = Fabric.fault_stats cl.Cluster.fabric in
  Alcotest.(check bool) "packets parked on down links" true
    (fs.Fabric.fs_parks > 0);
  Alcotest.(check bool) "corrupt transmissions replayed" true
    (fs.Fabric.fs_replays > 0);
  Alcotest.(check bool) "routes re-hashed around dead links" true
    (fs.Fabric.fs_reroutes > 0);
  pinned_digest cl res ""

let pinned =
  [ (("pingpong", "linux"), "4c73acd14fc9e5942bed240ca1729bb4");
    (("pingpong", "mck"), "1f9e867eed54d0d7f1a497838cde37b6");
    (("pingpong", "hfi"), "ab4c2251dc92cbc2d5e23d756586e699");
    (("umt", "linux"), "7625d0c3021541309f23f2742dc4e883");
    (("umt", "mck"), "634cef40c1d72fba62371c33c75d5d58");
    (("umt", "hfi"), "c157ce86b3dd0560e1b97f2aee123f1d");
    (("serve_ft", "linux"), "c60daa782b81841d0a796d8b9a2efd08");
    (("serve_ft", "mck"), "26cf59457f2aea5fea5b4dcc9232ab0a");
    (("serve_ft", "hfi"), "5218490838b6fa7115e903dd1610b64f");
    (("faulted_ft", "linux"), "350009b16e70516ab643f72516a1cc32");
    (("faulted_ft", "mck"), "a930b23e0f5bfd3d39412ec67fe60098");
    (("faulted_ft", "hfi"), "62f5b47295c6b5d19e01f8bce755c51b") ]

let pinned_cases =
  List.concat_map
    (fun (world, run) ->
      List.map
        (fun (tag, kind) ->
          Alcotest.test_case (world ^ " " ^ tag) `Slow (fun () ->
              Alcotest.(check string)
                "fingerprint digest" (List.assoc (world, tag) pinned)
                (run kind)))
        [ ("linux", Cluster.Linux); ("mck", Cluster.Mckernel);
          ("hfi", Cluster.Mckernel_hfi) ])
    [ ("pingpong", pinned_pingpong); ("umt", pinned_umt);
      ("serve_ft", pinned_serve); ("faulted_ft", pinned_ft_faults) ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "scale"
    [ ("pinned", pinned_cases);
      ("identity",
       [ q prop_switch_identity;
         q prop_ft_identity;
         Alcotest.test_case "umt wavefront identity" `Slow test_umt_identity;
         Alcotest.test_case "shard halt identity" `Slow
           test_shard_halt_identity;
         Alcotest.test_case "faulted fat-tree identity" `Slow
           test_ft_linkfault_identity ]);
      ("route",
       [ q prop_route_memo;
         Alcotest.test_case "flat memo" `Quick test_route_memo_flat ]);
      ("counters",
       [ Alcotest.test_case "sharded counters" `Slow test_shard_counters;
         Alcotest.test_case "unsharded counters" `Quick
           test_unsharded_counters;
         Alcotest.test_case "fat-tree shards" `Slow test_fat_tree_shards;
         Alcotest.test_case "shard refusal" `Quick test_refused_sharding;
         Alcotest.test_case "engines interleaved in one pool" `Slow
           test_pool_interleaved_engines ]) ]
