open H_import

type os_kind = Linux | Mckernel | Mckernel_hfi

type engine = Fabric.engine = Calibrated | Ordered | Sharded

type node_env = {
  node : Node.t;
  hfi : Hfi.t;
  linux : Lkernel.t;
  driver : Hfi1_driver.t;
  mlx : Pico_linux.Mlx_driver.t;
  mck : Mck.t option;
  pico : Hfi1_pico.t option;
  mlx_pico : Pico_driver.Mlx_pico.t option;
}

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  kind : os_kind;
  nodes : node_env array;
  carry_payload : bool;
  rng : Rng.t;
  uid : int;
  refused_sharding : bool;
}

let kind_to_string = function
  | Linux -> "Linux"
  | Mckernel -> "McKernel"
  | Mckernel_hfi -> "McKernel+HFI1"

(* Host-side identity for the observability collectors (never part of
   any simulated or reported value: allocation order varies with the
   worker-domain schedule). *)
let next_uid = Atomic.make 0

let build kind ~n_nodes ?topology ?(engine = Calibrated)
    ?(carry_payload = false) ?(service_cores = 4) ?(lwk_cores = 64)
    ?(seed = 0x5EEDL) ?rcv_entries () =
  if n_nodes <= 0 then invalid_arg "Cluster.build: n_nodes must be > 0";
  let sim = Sim.create () in
  Sim.set_label sim (Printf.sprintf "%s/%dn" (kind_to_string kind) n_nodes);
  let fabric = Fabric.create ?topology ~engine ~nodes:n_nodes sim in
  let rng = Rng.create ~seed in
  let make_node id = Sim.with_shard sim id @@ fun () ->
    let node = Node.create_knl sim ~id () in
    let hfi = Hfi.create sim ~node ~fabric ~carry_payload ?rcv_entries () in
    let linux =
      Lkernel.boot sim ~node ~service_cores
        ~nohz_full:true (* Fujitsu's HPC-optimised production setting *)
        ~rng:(Rng.split rng)
    in
    let driver = Lkernel.attach_hfi1 linux hfi in
    let mlx =
      Pico_linux.Mlx_driver.probe sim ~node ~slab:linux.Lkernel.slab
        ~gup:linux.Lkernel.gup ~vfs:linux.Lkernel.vfs
    in
    let mck, pico, mlx_pico =
      match kind with
      | Linux -> (None, None, None)
      | Mckernel | Mckernel_hfi ->
        let partition =
          Partition.reserve node ~lwk_cores
            ~lwk_mem_bytes:(Node.memory_bytes node / 2)
        in
        let vspace_kind =
          match kind with
          | Mckernel -> Vspace.Original
          | Mckernel_hfi | Linux -> Vspace.Unified
        in
        let mck = Mck.boot sim ~node ~linux ~partition ~vspace_kind in
        let pico, mlx_pico =
          match kind with
          | Mckernel_hfi ->
            let p =
              match
                Hfi1_pico.attach mck ~linux_driver:driver
                  ~module_sections:(Hfi1_structs.module_binary ())
              with
              | Ok p -> p
              | Error e -> invalid_arg ("Cluster.build: " ^ e)
            in
            let mp =
              match Pico_driver.Mlx_pico.attach mck ~linux_driver:mlx with
              | Ok mp -> mp
              | Error e -> invalid_arg ("Cluster.build: " ^ e)
            in
            (Some p, Some mp)
          | Mckernel | Linux -> (None, None)
        in
        (Some mck, pico, mlx_pico)
    in
    { node; hfi; linux; driver; mlx; mck; pico; mlx_pico }
  in
  { sim; fabric; kind; nodes = Array.init n_nodes make_node;
    carry_payload; rng; uid = Atomic.fetch_and_add next_uid 1;
    refused_sharding = engine = Sharded && Fabric.engine fabric <> Sharded }

let node_env t i = t.nodes.(i)

let kernel_profiles t =
  Array.to_list t.nodes
  |> List.filter_map (fun ne ->
         match ne.mck with Some m -> Some (Mck.kprofile m) | None -> None)
