(* Host-time attribution by sampling: a SIGPROF timer interrupts the
   process every millisecond of CPU time, and each handled tick credits
   the innermost call-stack frame that lies in a library directory
   [lib/<layer>/].  The handler runs at the runtime's next poll point,
   so ticks that arrive while one is pending merge into one sample; the
   shares are over handled samples.  Sampling reads the host stack only
   and never touches simulated state. *)

let layers =
  [ "apps"; "costs"; "dwarf"; "engine"; "fabric"; "harness"; "hw"; "ihk";
    "linux"; "mckernel"; "mpi"; "nic"; "picodriver"; "psm"; "serve" ]

let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let samples = ref 0

let period_s = 0.001

let max_frames = 64

(* "lib/engine/sim.ml" -> Some "engine" *)
let layer_of_file f =
  let n = String.length f in
  if n > 4 && String.sub f 0 4 = "lib/" then
    match String.index_from_opt f 4 '/' with
    | Some j -> Some (String.sub f 4 (j - 4))
    | None -> None
  else None

let innermost_layer () =
  match Printexc.backtrace_slots (Printexc.get_callstack max_frames) with
  | None -> None
  | Some slots ->
    Array.fold_left
      (fun found slot ->
        match found with
        | Some _ -> found
        | None -> (
          match Printexc.Slot.location slot with
          | Some loc -> layer_of_file loc.Printexc.filename
          | None -> None))
      None slots

let tick _ =
  incr samples;
  let key = Option.value (innermost_layer ()) ~default:"unattributed" in
  Hashtbl.replace counts key
    (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = s; Unix.it_value = s })

let reset () =
  Hashtbl.reset counts;
  samples := 0

(* [sampling f] runs [f] with the sampler armed.  The timer is disarmed
   before the handler goes: SIGPROF's default action would end the
   process. *)
let sampling f =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle tick);
  set_timer period_s;
  Fun.protect
    ~finally:(fun () ->
      set_timer 0.;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore)
    f

(* Share of handled samples per layer (every layer listed, zeros
   included), the unattributed share, and the sample count. *)
let shares () =
  let total = float_of_int (max 1 !samples) in
  let share k =
    float_of_int (Option.value (Hashtbl.find_opt counts k) ~default:0)
    /. total
  in
  List.map (fun l -> ("host_share." ^ l, share l)) layers
  @ [ ("host_share.unattributed", share "unattributed");
      ("host_share.samples", float_of_int !samples) ]
