(* Layer primitives timed from outside the simulation, in host ns per
   operation: the substrate calls each layer's share of a run is made
   of, on fixed inputs. *)

module Sim = Pico_engine.Sim
module Heap = Pico_engine.Heap
module Mailbox = Pico_engine.Mailbox
module Rng = Pico_engine.Rng
module Addr = Pico_hw.Addr
module Pagetable = Pico_hw.Pagetable
module Encode = Pico_dwarf.Encode
module Extract = Pico_dwarf.Extract
module Mq = Pico_psm.Mq
module Hfi1_structs = Pico_linux.Hfi1_structs
module Route = Pico_fabric.Route
module Costs = Pico_costs.Costs
module Arrivals = Pico_serve.Arrivals

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let batch_s = 0.03

let batches = 7

(* [time ~ops f]: ns per operation of [f], which performs [ops]
   operations per call — the median of [batches] batches of calls, each
   batch sized from a warm-up to last about [batch_s]. *)
let time ~ops f =
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while Unix.gettimeofday () -. t0 < batch_s do
    f ();
    incr calls
  done;
  let n = max 1 !calls in
  median
    (List.init batches (fun _ ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to n do
           f ()
         done;
         (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (n * ops)))

let heap_pushpop () =
  let h = Heap.create () in
  for i = 0 to 63 do
    Heap.push h ~key:(float_of_int (i * 37 mod 64)) ~seq:i i
  done;
  while not (Heap.is_empty h) do
    ignore (Heap.pop h)
  done

(* Ten mailbox hand-offs between two simulated processes: 20 switches. *)
let process_switch () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        Mailbox.put mb 1;
        Sim.delay sim 1.
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        ignore (Mailbox.get mb)
      done);
  ignore (Sim.run sim)

let four_mib = Addr.mib 4

(* The PicoDriver walk: 4 MiB of pinned, contiguous 2 MiB pages. *)
let pt_2m =
  lazy
    (let pt = Pagetable.create () in
     Pagetable.map_range pt ~va:0 ~pa:(Addr.gib 1) ~len:four_mib
       ~page_size:Addr.large_page_size
       ~flags:Pagetable.Flags.(present + writable + pinned);
     pt)

(* Linux anonymous memory: 4 MiB of scattered 4 KiB pages. *)
let pt_4k =
  lazy
    (let pt = Pagetable.create () in
     for i = 0 to 1023 do
       Pagetable.map pt ~va:(i * 4096)
         ~pa:(Addr.gib 1 + (i * 2 * 4096))
         ~page_size:Addr.page_size
         ~flags:Pagetable.Flags.(present + writable)
     done;
     pt)

let phys_segments pt () =
  ignore (Pagetable.phys_segments (Lazy.force pt) ~va:0 ~len:four_mib)

let dwarf_extract () =
  let parsed = Encode.parse (Hfi1_structs.module_binary ()) in
  match
    Extract.extract parsed ~struct_name:"sdma_state"
      ~fields:[ "current_state"; "go_s99_running"; "previous_state" ]
  with
  | Ok _ -> ()
  | Error e -> failwith e

(* 64 posted receives, then 64 arrivals matching them in reverse order. *)
let mq_match () =
  let mq : (int, int) Mq.t = Mq.create () in
  for i = 0 to 63 do
    Mq.post mq ~src:(Some (i mod 8)) ~tag:(Int64.of_int i) ~mask:(-1L) i
  done;
  for i = 63 downto 0 do
    ignore (Mq.match_posted mq ~src:(i mod 8) ~tag:(Int64.of_int i))
  done

(* Every ordered pair of the serve workload's 8-node 2:1 fat-tree. *)
let route () =
  for src = 0 to 7 do
    for dst = 0 to 7 do
      ignore (Route.route Workloads.serve_topology ~src ~dst ~dst_ctx:1)
    done
  done

(* One client plan of about 1,000 requests under the serve workload's
   knobs. *)
let plan_requests = 1_000

let arrivals_plan () =
  Costs.with_patched (Workloads.serve_patch ~requests:plan_requests)
    (fun () ->
      let rng = Rng.create ~seed:1L in
      ignore (Arrivals.plan ~split:(fun () -> Rng.split rng) ()))

(* [time], at nominal host speed (see Speed). *)
let normalised ~ops f =
  let t = Speed.timed ~throughout:false (fun () -> time ~ops f) in
  t.Speed.value *. t.Speed.host_s /. t.Speed.wall_s

(* Per-layer metric name, and the primitive's ns per operation. *)
let all () =
  List.map
    (fun (name, ops, f) -> (name, normalised ~ops f))
    [ ("engine.heap_pushpop_ns", 64, heap_pushpop);
      ("engine.switch_ns", 20, process_switch);
      ("hw.phys_segments_2m_ns", 1, phys_segments pt_2m);
      ("hw.phys_segments_4k_ns", 1, phys_segments pt_4k);
      ("dwarf.extract_ns", 1, dwarf_extract);
      ("psm.mq_match_ns", 64, mq_match);
      ("fabric.route_ns", 64, route);
      ("serve.arrivals_plan_ns", 1, arrivals_plan) ]
