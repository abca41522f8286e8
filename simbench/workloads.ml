(* The three benchmark workloads.  Each simulated world (one OS kind) is
   one operation: [setup] builds it (the set-up time), [run] simulates it
   and reads its results out into plain values, so no cluster outlives
   its own run and peak memory is one world's. *)

module Cluster = Pico_harness.Cluster
module Experiment = Pico_harness.Experiment
module Fabric = Pico_nic.Fabric
module Topology = Pico_fabric.Topology
module Costs = Pico_costs.Costs
module Rng = Pico_engine.Rng
module Stats = Pico_engine.Stats
module Imb = Pico_apps.Imb
module Umt = Pico_apps.Umt
module Serve = Pico_serve.Serve

let kinds = [ Cluster.Linux; Cluster.Mckernel; Cluster.Mckernel_hfi ]

let tag = function
  | Cluster.Linux -> "linux"
  | Cluster.Mckernel -> "mck"
  | Cluster.Mckernel_hfi -> "hfi"

type serve_out = {
  arrivals : int;
  issued : int;
  ok : int;
  shed : int;
  late : int;
  tripped : int;
  lats : float array;  (** every ok request's latency, ns, ascending *)
}

type detail =
  | Pingpong of Imb.point list
  | Umt
  | Serve of serve_out

(* What a finished world leaves behind: scalars only. *)
type outcome = {
  kind : Cluster.os_kind;
  fom_ns : float;
  mpi_calls : int;
  fingerprint : string;  (** bit-exact rendering of every simulated result *)
  detail : detail;
}

type prepared = {
  run : unit -> outcome;
  plan_s : float;  (** host time in [Serve.plans], part of set-up *)
}

type t = {
  name : string;  (** the workload's name, or its slice's *)
  patch : Costs.t -> unit;  (** cost-table knobs applied around every world *)
  setup : seed:int64 -> Cluster.os_kind -> prepared;
  check : outcome list -> string list;
      (** shape violations over a repetition's worlds, [] when sound *)
}

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* Fabric and engine results of one world, in the exact-bits form the
   shard-identity probes of the figures use. *)
let world_fingerprint (cl : Cluster.t) (res : Experiment.result) =
  let fab = cl.Cluster.fabric in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (String.concat ";"
       [ bits res.Experiment.fom_ns; bits res.Experiment.wall_ns;
         bits res.Experiment.init_ns;
         string_of_int (Fabric.packets_delivered fab);
         string_of_int (Fabric.bytes_delivered fab) ]);
  List.iter
    (fun (ts : Fabric.tier_stats) ->
      Buffer.add_string b
        (Printf.sprintf ";%s:%d:%d:%d:%s:%d:%d" ts.Fabric.ts_tier
           ts.Fabric.ts_links ts.Fabric.ts_packets ts.Fabric.ts_bytes
           (bits ts.Fabric.ts_busy_ns) ts.Fabric.ts_peak_queue
           ts.Fabric.ts_contended))
    (Fabric.tier_stats fab);
  let fs = Fabric.fault_stats fab in
  Buffer.add_string b
    (Printf.sprintf ";F%d:%s:%d:%d:%d:%d:%d" fs.Fabric.fs_parks
       (bits fs.Fabric.fs_park_ns) fs.Fabric.fs_replays fs.Fabric.fs_reroutes
       fs.Fabric.fs_egress_parks fs.Fabric.fs_retries fs.Fabric.fs_degraded);
  Buffer.contents b

let mpi_calls res =
  Stats.Registry.entries (Experiment.merged_mpi_profile res)
  |> List.fold_left (fun acc (_, _, n) -> acc + n) 0

let finish kind (res : Experiment.result) ~extra detail =
  { kind;
    fom_ns = res.Experiment.fom_ns;
    mpi_calls = mpi_calls res;
    fingerprint = world_fingerprint res.Experiment.cluster res ^ extra;
    detail }

let find kind outs = List.find_opt (fun o -> o.kind = kind) outs

(* The Linux, McKernel and McKernel+HFI1 outcomes, when none raised. *)
let three outs =
  match (find Cluster.Linux outs, find Cluster.Mckernel outs,
         find Cluster.Mckernel_hfi outs) with
  | Some l, Some m, Some h -> Some (l, m, h)
  | _ -> None

(* --- pingpong: IMB PingPong, Figure 4 ----------------------------------- *)

(* IMB's per-size repetition counts (1 B .. 4 MiB), scaled uniformly so
   one world simulates for about a second of host time. *)
let imb_iters size =
  if size <= 4096 then 200
  else if size <= 65536 then 100
  else if size <= 1048576 then 40
  else 20

let four_mib = 4 * 1024 * 1024

let pingpong_setup ~scale ~seed kind =
  let cl = Cluster.build kind ~n_nodes:2 ~seed () in
  let run () =
    let out = ref [] in
    let res =
      Experiment.run cl ~ranks_per_node:1 (fun comm ->
          List.fold_left
            (fun acc size ->
              acc
              +. Imb.pingpong ~iters:(scale * imb_iters size)
                   ~sizes:[ size ] ~out comm)
            0. (Imb.sizes ~max_size:four_mib ()))
    in
    let pts = List.rev !out in
    let extra =
      String.concat ""
        (List.map
           (fun (p : Imb.point) ->
             Printf.sprintf ";%d:%s:%s" p.Imb.size (bits p.Imb.time_ns)
               (bits p.Imb.mbps))
           pts)
    in
    finish kind res ~extra (Pingpong pts)
  in
  { run; plan_s = 0. }

let mbps o size =
  match o.detail with
  | Pingpong pts -> (
    match List.find_opt (fun (p : Imb.point) -> p.Imb.size = size) pts with
    | Some p -> p.Imb.mbps
    | None -> nan)
  | _ -> nan

(* EXPERIMENTS.md: identical curves up to the 64 KiB SDMA threshold (PIO
   is OS-bypass), and at 4 MiB McKernel+HFI1 > Linux > McKernel. *)
let pingpong_check outs =
  match three outs with
  | Some (l, m, h) ->
    let flat =
      List.filter_map
        (fun size ->
          let dev o = Float.abs ((mbps o size /. mbps l size) -. 1.) in
          if dev m <= 0.005 && dev h <= 0.005 then None
          else Some (Printf.sprintf "pingpong: curves differ at %d B" size))
        (Imb.sizes ~max_size:65536 ())
    in
    let order =
      let bl = mbps l four_mib and bm = mbps m four_mib in
      let bh = mbps h four_mib in
      if bh > bl && bl > bm then []
      else [ "pingpong: 4 MiB order is not HFI1 > Linux > McKernel" ]
    in
    flat @ order
  | None -> []

let pingpong ~scale name =
  { name;
    patch = ignore;
    setup = pingpong_setup ~scale;
    check = pingpong_check }

(* --- umt64: UMT2013 at 64 nodes x 8 ranks/node, Figure 6a --------------- *)

(* The scale figure's halved steps and sweep phases: FOM ratios are
   steady-state per-step quantities. *)
let umt_params = { Umt.default with Umt.steps = 2; sweep_phases = 2 }

let umt_setup ~n_nodes ~seed kind =
  let cl = Cluster.build kind ~n_nodes ~seed () in
  let run () =
    let res =
      Experiment.run cl ~ranks_per_node:8 (fun c ->
          Umt.run ~params:umt_params c)
    in
    finish kind res ~extra:"" Umt
  in
  { run; plan_s = 0. }

let umt_check outs =
  match three outs with
  | Some (l, m, h) when not (m.fom_ns > l.fom_ns && m.fom_ns > h.fom_ns) ->
    [ "umt64: McKernel is not the slowest OS kind" ]
  | _ -> []

let umt ~n_nodes name =
  { name;
    patch = ignore;
    setup = umt_setup ~n_nodes;
    check = umt_check }

(* --- serve_ft: sharded RPC service on a 2:1 fat-tree -------------------- *)

let serve_interval = 16_000.

(* The serve figure's sweep knobs at its lightest load point, over a
   horizon of [requests] mean arrival intervals. *)
let serve_patch ~requests c =
  c.Costs.serve_arrival_interval <- serve_interval;
  c.Costs.serve_horizon <- serve_interval *. float_of_int requests;
  c.Costs.serve_burst_interval <- 40. *. serve_interval;
  c.Costs.serve_burst_duration <- 8. *. serve_interval;
  c.Costs.serve_admit_cap <- 24;
  c.Costs.serve_breaker_threshold <- 8;
  c.Costs.serve_timeout <- 5.0e6

let serve_nodes = 8

let serve_topology = Topology.Fat_tree { radix = 4; oversub = 2 }

let serve_setup ~seed kind =
  let cl =
    Cluster.build kind ~n_nodes:serve_nodes ~topology:serve_topology ~seed ()
  in
  let t0 = Unix.gettimeofday () in
  let plans =
    Serve.plans ~split:(fun () -> Rng.split cl.Cluster.rng) ~clients:1
  in
  let plan_s = Unix.gettimeofday () -. t0 in
  let run () =
    let out = Array.make serve_nodes None in
    let res = Experiment.run cl ~ranks_per_node:1 (Serve.run ~plans ~out) in
    let b = Buffer.create 65536 in
    let acc =
      ref { arrivals = 0; issued = 0; ok = 0; shed = 0; late = 0;
            tripped = 0; lats = [||] }
    in
    let lats = ref [] in
    Array.iter
      (function
        | Some (Serve.Client cs) ->
          let a = !acc in
          acc :=
            { a with
              arrivals = a.arrivals + cs.Serve.c_arrivals;
              issued = a.issued + cs.Serve.c_issued;
              ok = a.ok + cs.Serve.c_ok;
              shed = a.shed + cs.Serve.c_shed;
              late = a.late + cs.Serve.c_late;
              tripped = a.tripped + cs.Serve.c_tripped };
          Buffer.add_string b
            (Printf.sprintf ";C%d:%d:%d:%d:%d:%d:%d" cs.Serve.c_arrivals
               cs.Serve.c_issued cs.Serve.c_ok cs.Serve.c_shed
               cs.Serve.c_late cs.Serve.c_tripped cs.Serve.c_trips);
          List.iter
            (fun l -> Buffer.add_string b (":" ^ bits l))
            cs.Serve.c_lats;
          lats := List.rev_append cs.Serve.c_lats !lats
        | Some (Serve.Server ss) ->
          Buffer.add_string b
            (Printf.sprintf ";S%d:%d:%s" ss.Serve.s_handled ss.Serve.s_shed
               (bits ss.Serve.s_busy_ns))
        | None -> Buffer.add_string b ";-")
      out;
    let sorted = Array.of_list !lats in
    Array.sort compare sorted;
    finish kind res ~extra:(Buffer.contents b)
      (Serve { !acc with lats = sorted })
  in
  { run; plan_s }

(* Exact nearest-rank quantile of an ascending array. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let beyond sorted v =
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

(* Request conservation per world, and a p999 resolved by at least
   [min_tail] samples beyond it. *)
let serve_check ~min_tail outs =
  List.concat_map
    (fun o ->
      match o.detail with
      | Serve s ->
        let who = "serve_ft " ^ tag o.kind ^ ": " in
        (if s.arrivals = s.issued + s.tripped
            && s.issued = s.ok + s.shed + s.late
         then []
         else [ who ^ "request conservation broken" ])
        @
        let tail = beyond s.lats (nearest_rank s.lats 0.999) in
        if tail >= min_tail then []
        else [ Printf.sprintf "%s%d samples beyond p999" who tail ]
      | _ -> [])
    outs

let serve ~requests ~min_tail name =
  { name;
    patch = serve_patch ~requests;
    setup = serve_setup;
    check = serve_check ~min_tail }

(* --- paper_err_pp: Figure 4 at 4 MiB ------------------------------------ *)

(* The paper's Figure 4 at 4 MiB: McKernel ~90 % of Linux's bandwidth,
   McKernel+HFI1 ~115 %.  Every workload reports the mean absolute gap,
   in percentage points, of the simulated ratios from these, on one
   probe: IMB PingPong at 4 MiB alone, IMB's 20 iterations, 2 nodes, per
   OS kind — the calibration every figure rests on. *)
let paper_err_pp ~seed =
  let mbps kind =
    let cl = Cluster.build kind ~n_nodes:2 ~seed () in
    let out = ref [] in
    ignore
      (Experiment.run cl ~ranks_per_node:1
         (Imb.pingpong ~iters:(imb_iters four_mib) ~sizes:[ four_mib ] ~out));
    match !out with
    | [ p ] -> p.Imb.mbps
    | _ -> failwith "paper_err_pp: unexpected PingPong output"
  in
  let linux = mbps Cluster.Linux in
  let gap kind paper = Float.abs ((100. *. mbps kind /. linux) -. paper) in
  (gap Cluster.Mckernel 90. +. gap Cluster.Mckernel_hfi 115.) /. 2.

(* A workload, and its slice: a reduced instance of the same worlds for
   the ledger-armed repetition of a traced run, whose flush folds every
   closed ledger and would take minutes at full size. *)
type workload = {
  full : t;
  slice : t;
}

let all =
  [ (* Figure 4 path: one uncontended flow through native syscalls, IKC
       offload and the PicoDriver fast path; IMB's counts x30 (x1 in the
       slice, which is Figure 4 itself). *)
    { full = pingpong ~scale:30 "pingpong";
      slice = pingpong ~scale:1 "pingpong slice" };
    (* Engine-bound: 10.7 M events, none elided; 4 nodes in the slice. *)
    { full = umt ~n_nodes:64 "umt64"; slice = umt ~n_nodes:4 "umt64 slice" };
    (* Contended small PIO sends with fanout incast over multi-hop links;
       20 k mean intervals give p999 tens of samples beyond it.  The
       slice's 1 k cannot resolve p999, so it checks conservation only. *)
    { full = serve ~requests:20_000 ~min_tail:10 "serve_ft";
      slice = serve ~requests:1_000 ~min_tail:0 "serve_ft slice" } ]
