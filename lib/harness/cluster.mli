(** Build a simulated cluster under one of the paper's three OS
    configurations:

    - [Linux]: Fujitsu's HPC-optimised production Linux (nohz_full on
      application cores, native syscalls into the HFI1 driver);
    - [Mckernel]: IHK/McKernel with {e all} driver calls offloaded to
      Linux (the "original McKernel" columns);
    - [Mckernel_hfi]: McKernel plus the HFI1 PicoDriver (unified address
      space, local fast paths). *)

open H_import

type os_kind = Linux | Mckernel | Mckernel_hfi

(** How the world's engine runs, fixed when it is built (see
    {!Fabric.engine}): [Calibrated], the default every paper figure is
    measured on; [Ordered], one shard with content-ordered same-instant
    arrivals, the comparator of shard-identity checks; [Sharded], one
    shard per node with the same content order, so a [Sharded] world's
    results are byte-identical to its [Ordered] twin. *)
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
      (** host-side identity used by the observability collectors to
          count a re-measured cluster once; allocation-order-dependent,
          so it must never feed a simulated or reported value *)
  refused_sharding : bool;
      (** a [Sharded] request this world could not honour; summed per
          figure by {!Engine_obs} *)
}

(** [build kind ~n_nodes] assembles the cluster.  [topology] shapes the
    interconnect (default {!Topology.Flat}, the calibrated model every
    paper figure uses).  [engine] (default [Calibrated]) picks the
    engine; a [Sharded] request is refused on genuinely unshardable
    configs (a single node, a degenerate cost table) — the world then
    runs [Ordered] and records [refused_sharding].  [carry_payload]
    turns on end-to-end data fidelity (tests/examples; off for large
    sweeps).  [service_cores] is the per-node CPU count reserved for OS
    activity (default 4, as on Oakforest-PACS). *)
val build :
  os_kind ->
  n_nodes:int ->
  ?topology:Topology.t ->
  ?engine:engine ->
  ?carry_payload:bool ->
  ?service_cores:int ->
  ?lwk_cores:int ->
  ?seed:int64 ->
  ?rcv_entries:int ->
  unit ->
  t

val kind_to_string : os_kind -> string

val node_env : t -> int -> node_env

(** Aggregated McKernel kernel-profiler registries (empty for Linux). *)
val kernel_profiles : t -> Stats.Registry.t list
