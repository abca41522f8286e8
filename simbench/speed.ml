(* Host-speed reference.  On a shared machine the CPU's speed drifts by
   up to 1.5x within seconds as neighbours load it, and a simulator
   timing drifts with it.  A fixed piece of work that no library code
   takes part in is timed before and after a timed span, and for
   end-to-end timings every [period_s] during it too; dividing the span
   by the reference's mean time cancels much of the drift.  Normalised
   times are host seconds at [nominal_s] per reference: the reference's
   usual time on the host the baselines were measured on (2-vCPU Intel
   Xeon VM), so they read close to that host's wall-clock. *)

let nominal_s = 0.010

(* Small-record allocation, hashtable probes and float arithmetic, with
   nothing kept alive past the call.  Of the references tried beside
   the pingpong and umt64 worlds (this loop, a miniature effect-handler
   event loop, a random walk over 8 MiB), this one tracked their speed
   best. *)
let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 100_000 do
    let k = (i * 7919) land 4095 in
    let v = match Hashtbl.find_opt h k with Some v -> v | None -> 0. in
    Hashtbl.replace h k (v +. float_of_int i);
    acc := !acc +. sqrt (float_of_int i);
    if i land 15 = 0 then
      ignore (Sys.opaque_identity (List.init 8 (fun j -> j + i)))
  done;
  ignore (Sys.opaque_identity !acc)

(* Host seconds of one reference. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0

(* --- timed spans -------------------------------------------------------- *)

let period_s = 0.2

(* References taken inside the current span: times, total, words. *)
let inside = ref []

let inside_s = ref 0.

let inside_words = ref 0.

let tick _ =
  let w0 = Gc.minor_words () in
  let t = measure () in
  inside := t :: !inside;
  inside_s := !inside_s +. t;
  inside_words := !inside_words +. (Gc.minor_words () -. w0)

let set_timer s =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = s; Unix.it_value = s })

type 'a timed = {
  value : 'a;
  host_s : float;  (** the span's own host seconds at nominal speed *)
  wall_s : float;  (** the span's own host seconds as the clock read them *)
  words : float;  (** minor-heap words the span itself allocated *)
  majors : int;  (** major collections during the span *)
}

(* [timed ~throughout f] runs [f] between two references, which leave
   the span's own counters exact.  With [throughout] it also takes one
   every [period_s] inside the span, at the simulator's poll points, and
   takes their time out: the steadiest time, though the words they
   allocate are taken out only approximately. *)
let timed ~throughout f =
  inside := [ measure () ];
  inside_s := 0.;
  inside_words := 0.;
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  if throughout then begin
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
    set_timer period_s
  end;
  (* SIGALRM's default action would end the process: disarm first. *)
  let value =
    Fun.protect
      ~finally:(fun () ->
        if throughout then begin
          set_timer 0.;
          Sys.set_signal Sys.sigalrm Sys.Signal_ignore
        end)
      f
  in
  let wall_s = Unix.gettimeofday () -. t0 -. !inside_s in
  let g1 = Gc.quick_stat () in
  let refs = measure () :: !inside in
  let mean = List.fold_left ( +. ) 0. refs /. float_of_int (List.length refs) in
  { value;
    host_s = wall_s *. nominal_s /. mean;
    wall_s;
    words = g1.Gc.minor_words -. g0.Gc.minor_words -. !inside_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections }
