open Hw_import

type t = {
  sim : Sim.t;
  (* vector -> (handler process name, handler) *)
  handlers : (int, string * (unit -> unit)) Hashtbl.t;
  mutable service : Resource.t option;
  mutable dispatch_latency : float;
  mutable delivered : int;
}

let create sim =
  { sim; handlers = Hashtbl.create 16; service = None;
    dispatch_latency = 500.; delivered = 0 }

let set_service t r = t.service <- r

let register t ~vector ~name handler =
  if Hashtbl.mem t.handlers vector then
    invalid_arg (Printf.sprintf "Irq.register: vector %d already taken" vector);
  (* The handler process's name, built once here, not per interrupt. *)
  Hashtbl.add t.handlers vector ("irq:" ^ name, handler)

let unregister t ~vector = Hashtbl.remove t.handlers vector

let raise_irq t ~vector =
  match Hashtbl.find_opt t.handlers vector with
  | None ->
    (* Spurious interrupt: counted but otherwise ignored, as a kernel
       would log-and-drop. *)
    t.delivered <- t.delivered + 1
  | Some (pname, handler) ->
    t.delivered <- t.delivered + 1;
    Sim.spawn t.sim ~name:pname (fun () ->
        Sim.delay t.sim t.dispatch_latency;
        match t.service with
        | None -> handler ()
        | Some r ->
          let _waited = Resource.acquire r in
          (match handler () with
           | () -> Resource.release r
           | exception e -> Resource.release r; raise e))

let set_dispatch_latency t l = t.dispatch_latency <- l

let delivered t = t.delivered

let registered_vectors t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.handlers [] |> List.sort compare
