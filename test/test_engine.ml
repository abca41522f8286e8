(* Unit and property tests for the discrete-event engine. *)

open Pico_engine

let check_float = Alcotest.(check (float 1e-9))

(* --- Heap ---------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iteri
    (fun i k -> Heap.push h ~key:k ~seq:i i)
    [ 5.; 1.; 3.; 2.; 4. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _, _) -> order := k :: !order; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.)))
    "sorted" [ 1.; 2.; 3.; 4.; 5. ] (List.rev !order)

let test_heap_ties_fifo () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~key:1.0 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) -> out := v :: !out; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo on equal keys"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (float 0.))) "peek none" None (Heap.peek_key h);
  Alcotest.(check bool) "pop none" true (Heap.pop_min h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~key:2. ~seq:0 "b";
  Heap.push h ~key:1. ~seq:1 "a";
  (match Heap.pop_min h with
   | Some (_, _, v) -> Alcotest.(check string) "first" "a" v
   | None -> Alcotest.fail "empty");
  Heap.push h ~key:0.5 ~seq:2 "c";
  (match Heap.pop_min h with
   | Some (_, _, v) -> Alcotest.(check string) "second" "c" v
   | None -> Alcotest.fail "empty");
  Alcotest.(check int) "length" 1 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~key:1. ~seq:0 0;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap returns keys in sorted order" ~count:200
    QCheck2.Gen.(list (float_bound_inclusive 1000.))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop_min h with
        | Some (k, _, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* Pit the parallel-array heap against a trivial reference model (a list
   drained in (key, seq) order) under arbitrary push/pop interleavings:
   [Some key] pushes, [None] pops from both and compares. *)
let prop_heap_model =
  QCheck2.Test.make
    ~name:"heap matches reference model under push/pop interleavings"
    ~count:300
    QCheck2.Gen.(list (option (float_bound_inclusive 1000.)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let model_pop () =
        match !model with
        | [] -> None
        | hd :: tl ->
          let mn = List.fold_left min hd tl in
          model := List.filter (fun e -> e <> mn) !model;
          Some mn
      in
      let pop_both () =
        match (Heap.pop_min h, model_pop ()) with
        | None, None -> ()
        | Some got, Some want -> if got <> want then ok := false
        | _ -> ok := false
      in
      List.iter
        (function
          | Some key ->
            Heap.push h ~key ~seq:!seq !seq;
            model := (key, !seq, !seq) :: !model;
            incr seq
          | None -> pop_both ())
        ops;
      while !ok && not (Heap.is_empty h && !model = []) do
        pop_both ()
      done;
      !ok)

let test_heap_grow () =
  let h = Heap.create () in
  for i = 0 to 9999 do
    Heap.push h ~key:(float_of_int (9999 - i)) ~seq:i i
  done;
  Alcotest.(check int) "length" 10000 (Heap.length h);
  let prev = ref neg_infinity in
  for _ = 1 to 10000 do
    let k = Heap.top_key h in
    Alcotest.(check bool) "ascending" true (k >= !prev);
    prev := k;
    ignore (Heap.pop h)
  done;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_raises_empty () =
  let h : int Heap.t = Heap.create () in
  (try
     ignore (Heap.top_key h);
     Alcotest.fail "top_key on empty must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Heap.pop h);
    Alcotest.fail "pop on empty must raise"
  with Invalid_argument _ -> ()

(* --- Sim ----------------------------------------------------------------- *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10.;
      log := "a" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 5.;
      log := "b" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "order" [ "b"; "a" ] (List.rev !log);
  check_float "final time" 10. (Sim.now sim)

let test_sim_after_at () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.at sim 7. (fun () -> fired := 7 :: !fired);
  Sim.after sim 3. (fun () -> fired := 3 :: !fired);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "callback order" [ 3; 7 ] (List.rev !fired)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        Sim.delay sim 10.;
        incr count
      done);
  ignore (Sim.run ~until:35. sim);
  Alcotest.(check int) "events until 35" 3 !count;
  check_float "time clamped" 35. (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "resumes" 10 !count

let test_sim_not_in_process () =
  let sim = Sim.create () in
  Alcotest.check_raises "delay outside" Sim.Not_in_process (fun () ->
      Sim.delay sim 1.)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      try Sim.delay sim (-1.) with Invalid_argument _ -> raised := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "negative delay rejected" true !raised

let test_sim_nested_spawn () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.;
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.;
          log := 2 :: !log);
      log := 1 :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "nested" [ 1; 2 ] (List.rev !log);
  check_float "time" 2. (Sim.now sim)

let test_sim_yield () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := "a1" :: !log;
      Sim.yield sim;
      log := "a2" :: !log);
  Sim.spawn sim (fun () -> log := "b" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_sim_suspend_resume () =
  let sim = Sim.create () in
  let wake = ref (fun () -> ()) in
  let done_ = ref false in
  Sim.spawn sim (fun () ->
      Sim.suspend sim (fun resume -> wake := resume);
      done_ := true);
  ignore (Sim.run sim);
  Alcotest.(check bool) "still suspended" false !done_;
  Sim.after sim 5. (fun () -> !wake ());
  ignore (Sim.run sim);
  Alcotest.(check bool) "resumed" true !done_;
  check_float "woke at 5" 5. (Sim.now sim)

let test_sim_double_resume_rejected () =
  let sim = Sim.create () in
  let wake = ref (fun () -> ()) in
  Sim.spawn sim (fun () -> Sim.suspend sim (fun resume -> wake := resume));
  ignore (Sim.run sim);
  !wake ();
  Alcotest.check_raises "double resume"
    (Invalid_argument "Sim.suspend: resume called twice") (fun () -> !wake ());
  ignore (Sim.run sim)

let test_sim_determinism () =
  let trace () =
    let sim = Sim.create () in
    let log = ref [] in
    for i = 0 to 9 do
      Sim.spawn sim (fun () ->
          Sim.delay sim (float_of_int (i mod 3));
          log := (i, Sim.now sim) :: !log)
    done;
    ignore (Sim.run sim);
    !log
  in
  Alcotest.(check bool) "same trace" true (trace () = trace ())

let test_sim_units () =
  check_float "us" 1e3 (Sim.us 1.);
  check_float "ms" 1e6 (Sim.ms 1.);
  check_float "s" 1e9 (Sim.s 1.)

let test_sim_delay_until () =
  let sim = Sim.create () in
  let t = ref 0. in
  Sim.spawn sim (fun () ->
      Sim.delay sim 3.;
      Sim.delay_until sim 10.;
      (* A target already in the past clamps to the current time. *)
      Sim.delay_until sim 5.;
      t := Sim.now sim);
  ignore (Sim.run sim);
  check_float "landed at target" 10. !t

let test_sim_obs_counters () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        Sim.delay sim 1.
      done);
  let n = Sim.run sim in
  (* A lone process's wake-up is always the next event: all 100 delays
     continue inline and take no resume cell, yet each still counts as
     one processed event and one heap push. *)
  Alcotest.(check int) "inline wakes" 100 (Sim.inline_wakes sim);
  Alcotest.(check int) "lone: no cell taken" 0 (Sim.cells_reused sim);
  Alcotest.(check int) "events counted" 101 (Sim.events_processed sim);
  Alcotest.(check int) "run counts inline wakes" 101 n;
  Alcotest.(check int) "peak depth" 1 (Sim.peak_heap_depth sim);
  (* Two processes in lockstep: every wake-up ties the other's queued
     one, so each goes through the heap.  The first two delays allocate
     a cell; the remaining 198 reuse one from the pool. *)
  let sim = Sim.create () in
  for _ = 1 to 2 do
    Sim.spawn sim (fun () ->
        for _ = 1 to 100 do
          Sim.delay sim 1.
        done)
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "interleaved: no inline wake" 0 (Sim.inline_wakes sim);
  Alcotest.(check int) "interleaved: cells reused" 198 (Sim.cells_reused sim);
  Alcotest.(check int) "interleaved: events" 202 (Sim.events_processed sim);
  Alcotest.(check int) "interleaved: peak depth" 2 (Sim.peak_heap_depth sim);
  Sim.note_elided sim 5;
  Sim.note_elided sim (-3);
  Sim.note_elided sim 0;
  Alcotest.(check int) "elided (negatives ignored)" 5 (Sim.events_elided sim)

let test_sim_wake_at_until () =
  let sim = Sim.create () in
  let woke = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 10.;
      woke := Sim.now sim :: !woke;
      Sim.delay_until sim 20.;
      woke := Sim.now sim :: !woke);
  let n = Sim.run ~until:10. sim in
  Alcotest.(check (list (float 0.))) "wake at until ran" [ 10. ] !woke;
  Alcotest.(check int) "spawn + wake" 2 n;
  check_float "now" 10. (Sim.now sim);
  Alcotest.(check int) "continued inline" 1 (Sim.inline_wakes sim);
  (* The second wake-up lay past the first run's limit, so it was queued
     and now comes off the heap, exactly at the new limit. *)
  ignore (Sim.run ~until:20. sim);
  Alcotest.(check (list (float 0.))) "queued wake at until ran" [ 20.; 10. ]
    !woke;
  Alcotest.(check int) "queued, not inline" 1 (Sim.inline_wakes sim)

let test_sim_wake_past_until () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 5.;
      log := Sim.now sim :: !log;
      Sim.delay sim 10.;
      log := Sim.now sim :: !log);
  ignore (Sim.run ~until:12. sim);
  Alcotest.(check (list (float 0.))) "stopped before the late wake" [ 5. ]
    !log;
  check_float "now = until" 12. (Sim.now sim);
  Alcotest.(check int) "only the first wake inline" 1 (Sim.inline_wakes sim);
  let n = Sim.run sim in
  Alcotest.(check (list (float 0.))) "resumed" [ 15.; 5. ] !log;
  Alcotest.(check int) "one more event" 1 n;
  check_float "final time" 15. (Sim.now sim)

let test_sim_equal_key_via_heap () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.at sim 5. (fun () -> log := "callback" :: !log);
      (* Same key as the queued callback, larger sequence number: the
         callback runs first, so this wake-up must not continue inline. *)
      Sim.delay sim 5.;
      log := "process" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "queued event first"
    [ "callback"; "process" ] (List.rev !log);
  Alcotest.(check int) "no inline wake" 0 (Sim.inline_wakes sim)

let test_sim_yield_same_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.at sim (Sim.now sim) (fun () -> log := "callback" :: !log);
      Sim.yield sim;
      log := "after yield" :: !log;
      (* Nothing else is due now: this yield continues inline. *)
      Sim.yield sim;
      log := "after lone yield" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "yield lets the callback run"
    [ "callback"; "after yield"; "after lone yield" ] (List.rev !log);
  Alcotest.(check int) "only the lone yield inline" 1 (Sim.inline_wakes sim)

(* On several shards a wake-up must also sort before every other
   shard's top key in the merged prologue, and stay below the epoch
   horizon in epoch rounds, where another shard may still deliver an
   earlier event at the barrier. *)
let test_sim_sharded_inline () =
  let log = ref [] in
  let note sim what = log := (what, Sim.now sim) :: !log in
  let sim = Sim.create () in
  Sim.shard_init sim ~shards:2 ~lookahead:100. ();
  Sim.at sim ~shard:1 5. (fun () -> note sim "shard 1");
  Sim.spawn sim ~shard:0 (fun () ->
      Sim.delay sim 10.;
      note sim "shard 0";
      Sim.delay sim 10.;
      note sim "shard 0 again");
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string (float 0.))))
    "prologue order"
    [ ("shard 1", 5.); ("shard 0", 10.); ("shard 0 again", 20.) ]
    (List.rev !log);
  Alcotest.(check int) "prologue: last wake inline" 1 (Sim.inline_wakes sim);
  log := [];
  let sim = Sim.create () in
  Sim.shard_init sim ~shards:2 ~lookahead:10. ();
  Sim.spawn sim ~shard:0 (fun () ->
      Sim.delay sim 3.;
      note sim "p0";
      Sim.delay sim 1.;
      note sim "p0";
      (* Past the epoch horizon: must wait for the barrier merge. *)
      Sim.delay sim 13.;
      note sim "p0");
  Sim.spawn sim ~shard:1 (fun () ->
      Sim.shard_engage sim;
      Sim.delay sim 5.;
      Sim.at sim ~shard:0 15. (fun () -> note sim "arrival"));
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string (float 0.))))
    "epoch order"
    [ ("p0", 3.); ("p0", 4.); ("arrival", 15.); ("p0", 17.) ]
    (List.rev !log);
  Alcotest.(check int) "epoch: one wake inline" 1 (Sim.inline_wakes sim);
  Alcotest.(check int) "events" 7 (Sim.events_processed sim)

(* Ordering law: random multi-process programs observe the same
   [(time, process, step)] trace as a list-based reference scheduler
   that pops events in [(key, seq)] order with one sequence number per
   scheduled event — whether a wake-up goes through the heap or
   continues inline.  The run is cut into [run ~until] slices, and no
   step may be observed past its slice's limit. *)
type op =
  | Delay of int
  | Until of int
  | Yield
  | After of int (* schedule a logging callback *)
  | Suspend (* park until some Wake *)
  | Wake (* resume the longest-parked process, if any *)

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (3, map (fun d -> Delay d) (int_range 0 3));
        (2, map (fun a -> Until a) (int_range 0 12));
        (1, pure Yield);
        (2, map (fun d -> After d) (int_range 0 3));
        (1, pure Suspend);
        (1, pure Wake) ])

let gen_world =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 4) (list_size (int_range 0 8) gen_op))
      (list_size (int_range 0 3) (int_range 0 15)))

let print_world =
  let op = function
    | Delay d -> Printf.sprintf "Delay %d" d
    | Until a -> Printf.sprintf "Until %d" a
    | Yield -> "Yield"
    | After d -> Printf.sprintf "After %d" d
    | Suspend -> "Suspend"
    | Wake -> "Wake"
  in
  QCheck2.Print.(pair (list (list op)) (list int))

(* Steps at or above this id are callbacks scheduled by step [id - cb]. *)
let cb = 1000

let sim_trace progs untils =
  let sim = Sim.create () in
  let log = ref [] in
  let note pid step = log := (Sim.now sim, pid, step) :: !log in
  let parked = Queue.create () in
  List.iteri
    (fun pid ops ->
      Sim.spawn sim (fun () ->
          List.iteri
            (fun i op ->
              note pid i;
              match op with
              | Delay d -> Sim.delay sim (float_of_int d)
              | Until a -> Sim.delay_until sim (float_of_int a)
              | Yield -> Sim.yield sim
              | After d ->
                Sim.after sim (float_of_int d) (fun () -> note pid (cb + i))
              | Suspend -> Sim.suspend sim (fun r -> Queue.push r parked)
              | Wake -> (
                match Queue.take_opt parked with Some r -> r () | None -> ()))
            ops;
          note pid (List.length ops)))
    progs;
  let within = ref true in
  let events = ref 0 in
  List.iter
    (fun u ->
      let u = float_of_int u in
      events := !events + Sim.run ~until:u sim;
      List.iter (fun (time, _, _) -> if time > u then within := false) !log)
    (List.sort compare untils);
  events := !events + Sim.run sim;
  (List.rev !log, !events, !within)

type mevent = Resume of int * int (* process, next step *) | Callback of int * int

let model_trace progs =
  let progs = Array.of_list (List.map Array.of_list progs) in
  let queue = ref [] and seq = ref 0 and now = ref 0. in
  let log = ref [] and events = ref 0 in
  let parked = Queue.create () in
  let push key ev =
    queue := (Float.max key !now, !seq, ev) :: !queue;
    incr seq
  in
  let rec step pid i =
    log := (!now, pid, i) :: !log;
    if i < Array.length progs.(pid) then
      match progs.(pid).(i) with
      | Delay d -> push (!now +. float_of_int d) (Resume (pid, i + 1))
      | Until a -> push (float_of_int a) (Resume (pid, i + 1))
      | Yield -> push !now (Resume (pid, i + 1))
      | After d ->
        push (!now +. float_of_int d) (Callback (pid, cb + i));
        step pid (i + 1)
      | Suspend -> Queue.push (pid, i + 1) parked
      | Wake ->
        (match Queue.take_opt parked with
         | Some (p, j) -> push !now (Resume (p, j))
         | None -> ());
        step pid (i + 1)
  in
  Array.iteri (fun pid _ -> push 0. (Resume (pid, 0))) progs;
  let rec loop () =
    match List.sort compare (List.map (fun (k, s, _) -> (k, s)) !queue) with
    | [] -> ()
    | (k, s) :: _ ->
      let _, _, ev = List.find (fun (_, s', _) -> s' = s) !queue in
      queue := List.filter (fun (_, s', _) -> s' <> s) !queue;
      now := k;
      incr events;
      (match ev with
       | Resume (pid, i) -> step pid i
       | Callback (pid, id) -> log := (k, pid, id) :: !log);
      loop ()
  in
  loop ();
  (List.rev !log, !events)

let prop_sim_ordering_law =
  QCheck2.Test.make ~name:"ordering law: (key, seq) reference model"
    ~count:500 ~print:print_world gen_world (fun (progs, untils) ->
      let trace, events, within = sim_trace progs untils in
      let mtrace, mevents = model_trace progs in
      within && trace = mtrace && events = mevents)

(* --- Mailbox ------------------------------------------------------------- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.get mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_wakeup () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got_at = ref 0. in
  Sim.spawn sim (fun () ->
      ignore (Mailbox.get mb);
      got_at := Sim.now sim);
  Sim.after sim 42. (fun () -> Mailbox.put mb ());
  ignore (Sim.run sim);
  check_float "woken when put" 42. !got_at

let test_mailbox_multiple_waiters_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let winners = ref [] in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i) (* stagger arrival *);
        let v = Mailbox.get mb in
        winners := (i, v) :: !winners)
  done;
  Sim.after sim 10. (fun () ->
      Mailbox.put mb "x";
      Mailbox.put mb "y";
      Mailbox.put mb "z");
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int string)))
    "waiters served in arrival order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (List.rev !winners)

let test_mailbox_get_opt () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  Alcotest.(check (option int)) "empty" None (Mailbox.get_opt mb);
  Mailbox.put mb 5;
  Alcotest.(check int) "length" 1 (Mailbox.length mb);
  Alcotest.(check (option int)) "some" (Some 5) (Mailbox.get_opt mb);
  Alcotest.(check int) "drained" 0 (Mailbox.length mb)

(* --- Semaphore ------------------------------------------------------------ *)

let test_semaphore_counting () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 2 in
  Alcotest.(check bool) "t1" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "t2" true (Semaphore.try_acquire s);
  Alcotest.(check bool) "t3 fails" false (Semaphore.try_acquire s);
  Semaphore.release s;
  Alcotest.(check bool) "after release" true (Semaphore.try_acquire s)

let test_semaphore_blocking () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 1 in
  let t = ref 0. in
  Sim.spawn sim (fun () ->
      Semaphore.acquire s;
      Sim.delay sim 10.;
      Semaphore.release s);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.;
      Semaphore.acquire s;
      t := Sim.now sim);
  ignore (Sim.run sim);
  check_float "blocked until release" 10. !t

let test_semaphore_with_sem_exception () =
  let sim = Sim.create () in
  let s = Semaphore.create sim 1 in
  Sim.spawn sim (fun () ->
      (try Semaphore.with_sem s (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "released after exception" 1 (Semaphore.count s));
  ignore (Sim.run sim)

let test_semaphore_negative () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Semaphore.create: negative count") (fun () ->
      ignore (Semaphore.create sim (-1)))

(* --- Resource -------------------------------------------------------------- *)

let test_resource_fcfs_wait () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" ~capacity:1 in
  let waits = ref [] in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i);
        let w = Resource.acquire r in
        waits := (i, w) :: !waits;
        Sim.delay sim 10.;
        Resource.release r)
  done;
  ignore (Sim.run sim);
  let w i = List.assoc i !waits in
  check_float "first no wait" 0. (w 0);
  check_float "second waits" 9. (w 1);
  check_float "third waits" 18. (w 2)

let test_resource_capacity () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:2 in
  let finished = ref [] in
  for i = 0 to 3 do
    Sim.spawn sim (fun () ->
        Resource.use r ~work:10. (fun () -> ());
        finished := (i, Sim.now sim) :: !finished)
  done;
  ignore (Sim.run sim);
  let at i = List.assoc i !finished in
  check_float "first pair" 10. (at 0);
  check_float "second pair" 20. (at 3);
  Alcotest.(check int) "served" 4 (Resource.total_served r)

let test_resource_stats () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  Sim.spawn sim (fun () -> Resource.use r ~work:50. (fun () -> ()));
  Sim.spawn sim (fun () -> Resource.use r ~work:50. (fun () -> ()));
  ignore (Sim.run sim);
  check_float "busy" 100. (Resource.total_busy_ns r);
  check_float "mean wait" 25. (Resource.mean_wait_ns r);
  check_float "utilisation" 1.0 (Resource.utilisation r);
  Resource.reset_stats r;
  Alcotest.(check int) "reset" 0 (Resource.total_served r)

let test_resource_exception_releases () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  Sim.spawn sim (fun () ->
      (try Resource.use r ~work:1. (fun () -> failwith "x")
       with Failure _ -> ());
      Alcotest.(check int) "released" 0 (Resource.in_use r));
  ignore (Sim.run sim)

(* --- Resource: continuation form --------------------------------------- *)

(* Process [use] callers and callback [use_k] callers queue in one FIFO:
   whatever form a user takes, the grant order is arrival order. *)
let test_resource_mixed_fifo () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  let done_ = ref [] in
  let finish who = done_ := (who, Sim.now sim) :: !done_ in
  Sim.spawn sim (fun () ->
      Resource.use r ~work:10. (fun () -> ());
      finish "p0");
  Sim.at sim 1. (fun () -> Resource.use_k r ~work:10. (fun () -> finish "k1"));
  Sim.spawn sim (fun () ->
      Sim.delay sim 2.;
      Resource.use r ~work:10. (fun () -> ());
      finish "p2");
  Sim.at sim 3. (fun () -> Resource.use_k r ~work:10. (fun () -> finish "k3"));
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string (float 0.))))
    "arrival order"
    [ ("p0", 10.); ("k1", 20.); ("p2", 30.); ("k3", 40.) ]
    (List.rev !done_);
  Alcotest.(check int) "served" 4 (Resource.total_served r);
  check_float "waits" (9. +. 18. +. 27.) (Resource.total_wait_ns r);
  check_float "busy" 40. (Resource.total_busy_ns r);
  Alcotest.(check bool) "idle" true (Resource.idle r);
  Alcotest.(check int) "callback users spawn nothing" 2 (Sim.spawns sim)

(* A release and a new arrival at the same instant: the server passes
   straight to the queued waiter, so the newcomer queues behind it
   whichever of the two same-instant events runs first. *)
let test_resource_release_meets_arrival () =
  List.iter
    (fun arrival_first ->
      let sim = Sim.create () in
      let r = Resource.create sim ~name:"r" ~capacity:1 in
      let granted = ref [] in
      let use who =
        Resource.use_k r ~work:10.
          ~on_grant:(fun () -> granted := (who, Sim.now sim) :: !granted)
          (fun () -> ())
      in
      (* At instant 10 an arrival pushed before the holder's release
         event (both at set-up) runs first; one pushed at 5 runs after
         it. *)
      if arrival_first then Sim.at sim 10. (fun () -> use "new");
      use "holder";
      Sim.at sim 1. (fun () -> use "waiter");
      if not arrival_first then
        Sim.at sim 5. (fun () -> Sim.at sim 10. (fun () -> use "new"));
      ignore (Sim.run sim);
      Alcotest.(check (list (pair string (float 0.))))
        "grants" [ ("holder", 0.); ("waiter", 10.); ("new", 20.) ]
        (List.rev !granted);
      check_float "waits" (9. +. 10.) (Resource.total_wait_ns r);
      Alcotest.(check int) "served" 3 (Resource.total_served r))
    [ true; false ]

(* [on_grant] runs at the grant instant — immediately when the server is
   free, at the release instant when queued — and before the hold.  A
   queued grant is an event, so it follows the releaser's own
   continuation, as a resumed process would. *)
let test_resource_on_grant_instant () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  let log = ref [] in
  let note what = log := (what, Sim.now sim) :: !log in
  let use who work =
    Resource.use_k r ~work
      ~on_grant:(fun () -> note (who ^ " granted"))
      (fun () -> note (who ^ " done"))
  in
  Sim.at sim 2. (fun () -> use "a" 5.);
  Sim.at sim 3. (fun () -> use "b" 4.);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string (float 0.))))
    "log"
    [ ("a granted", 2.); ("a done", 7.); ("b granted", 7.);
      ("b done", 11.) ]
    (List.rev !log)

(* Under sharding a queued waiter is granted on the shard it queued
   from, whichever shard releases — for callback users as for the
   processes whose resume lands on their home shard. *)
let test_resource_home_shard () =
  let sim = Sim.create () in
  Sim.shard_init sim ~shards:2 ~lookahead:100. ();
  let r = Resource.create sim ~name:"r" ~capacity:1 in
  let seen = ref [] in
  let note what = seen := (what, Sim.exec_shard sim, Sim.now sim) :: !seen in
  Sim.at sim ~shard:0 0. (fun () ->
      Resource.use_k r ~work:10. (fun () -> note "holder done"));
  Sim.at sim ~shard:1 1. (fun () ->
      Resource.use_k r ~work:10.
        ~on_grant:(fun () -> note "callback granted")
        (fun () -> note "callback done"));
  Sim.spawn sim ~shard:1 (fun () ->
      Sim.delay sim 2.;
      Resource.use r ~work:10. (fun () -> ());
      note "process done");
  ignore (Sim.run sim);
  Alcotest.(check (list (triple string int (float 0.))))
    "home shards"
    [ ("holder done", 0, 10.); ("callback granted", 1, 10.);
      ("callback done", 1, 20.); ("process done", 1, 30.) ]
    (List.rev !seen)

(* The continuation law: a random arrival schedule, each user taking the
   process or the callback form at random, yields the same (grant,
   finish) trace and bit-identical wait/busy/served statistics as the
   all-process and all-callback runs.  Every user starts from an event
   at 0 that schedules its arrival, so both forms enter the queue in the
   same same-instant order; integer-valued times keep [finish -. work]
   exact, which is how a process user's grant is read. *)
let resource_trace ~capacity users form =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"r" ~capacity in
  let trace = ref [] in
  List.iteri
    (fun i (arrival, work) ->
      let arrival = float_of_int arrival and work = float_of_int work in
      if form i then
        Sim.spawn sim (fun () ->
            Sim.delay_until sim arrival;
            Resource.use r ~work (fun () -> ());
            trace := (i, Sim.now sim -. work, Sim.now sim) :: !trace)
      else
        Sim.at sim 0. (fun () ->
            Sim.at sim arrival (fun () ->
                let grant = ref nan in
                Resource.use_k r ~work
                  ~on_grant:(fun () -> grant := Sim.now sim)
                  (fun () -> trace := (i, !grant, Sim.now sim) :: !trace))))
    users;
  ignore (Sim.run sim);
  ( List.sort compare !trace,
    Int64.bits_of_float (Resource.total_wait_ns r),
    Int64.bits_of_float (Resource.total_busy_ns r),
    Resource.total_served r )

let prop_resource_forms_agree =
  QCheck2.Test.make ~name:"use = use_k: same grants, finishes and stats"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 1 3)
        (list_size (int_range 1 12) (pair (int_range 0 40) (int_range 1 15)))
        (list_size (return 12) bool))
    (fun (capacity, users, mix) ->
      let procs = resource_trace ~capacity users (fun _ -> true) in
      procs = resource_trace ~capacity users (fun _ -> false)
      && procs = resource_trace ~capacity users (List.nth mix))

let test_resource_bad_capacity () =
  let sim = Sim.create () in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Resource.create: capacity must be > 0") (fun () ->
      ignore (Resource.create sim ~name:"r" ~capacity:0))

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let prop_rng_float_range =
  QCheck2.Test.make ~name:"rng float in [0,1)" ~count:100
    QCheck2.Gen.(int_range 1 10000)
    (fun seed ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.float r in
      x >= 0. && x < 1.)

let prop_rng_int_range =
  QCheck2.Test.make ~name:"rng int in [0,bound)" ~count:100
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:7L in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (abs_float (mean -. 100.) < 5.)

let test_rng_normal_mean () =
  let r = Rng.create ~seed:7L in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.normal r ~mean:50. ~stddev:10.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 1" true (abs_float (mean -. 50.) < 1.)

(* --- Stats ------------------------------------------------------------------- *)

let test_summary_known () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.Summary.mean s);
  check_float "total" 40. (Stats.Summary.total s);
  check_float "min" 2. (Stats.Summary.min s);
  check_float "max" 9. (Stats.Summary.max s);
  Alcotest.(check (float 1e-6)) "variance (sample)" 4.571428571
    (Stats.Summary.variance s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) [ 1.; 2.; 3. ];
  List.iter (Stats.Summary.add b) [ 4.; 5. ];
  let m = Stats.Summary.merge a b in
  check_float "merged mean" 3. (Stats.Summary.mean m);
  Alcotest.(check int) "merged n" 5 (Stats.Summary.n m)

let test_histogram () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.; 2.; 4.; 1000.; 1000. ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check bool) "p50 small" true (Stats.Histogram.percentile h 50. <= 4.);
  Alcotest.(check bool) "p99 big" true (Stats.Histogram.percentile h 99. >= 512.)

let test_registry () =
  let r = Stats.Registry.create () in
  Stats.Registry.add r "writev" 10.;
  Stats.Registry.add r "writev" 20.;
  Stats.Registry.add r "ioctl" 5.;
  check_float "time" 30. (Stats.Registry.time_of r "writev");
  Alcotest.(check int) "count" 2 (Stats.Registry.count_of r "writev");
  check_float "grand" 35. (Stats.Registry.grand_total r);
  (match Stats.Registry.top 1 r with
   | [ (name, _, _) ] -> Alcotest.(check string) "top" "writev" name
   | _ -> Alcotest.fail "expected one");
  let dst = Stats.Registry.create () in
  Stats.Registry.merge_into ~dst ~src:r;
  Stats.Registry.merge_into ~dst ~src:r;
  check_float "merged" 60. (Stats.Registry.time_of dst "writev")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [ ("heap",
       [ Alcotest.test_case "ordering" `Quick test_heap_order;
         Alcotest.test_case "ties fifo" `Quick test_heap_ties_fifo;
         Alcotest.test_case "empty" `Quick test_heap_empty;
         Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
         Alcotest.test_case "clear" `Quick test_heap_clear;
         Alcotest.test_case "grow" `Quick test_heap_grow;
         Alcotest.test_case "raises on empty" `Quick test_heap_raises_empty;
         qc prop_heap_sorts;
         qc prop_heap_model ]);
      ("sim",
       [ Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
         Alcotest.test_case "after/at" `Quick test_sim_after_at;
         Alcotest.test_case "until" `Quick test_sim_until;
         Alcotest.test_case "not in process" `Quick test_sim_not_in_process;
         Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
         Alcotest.test_case "nested spawn" `Quick test_sim_nested_spawn;
         Alcotest.test_case "yield" `Quick test_sim_yield;
         Alcotest.test_case "suspend/resume" `Quick test_sim_suspend_resume;
         Alcotest.test_case "double resume" `Quick test_sim_double_resume_rejected;
         Alcotest.test_case "determinism" `Quick test_sim_determinism;
         Alcotest.test_case "units" `Quick test_sim_units;
         Alcotest.test_case "delay_until" `Quick test_sim_delay_until;
         Alcotest.test_case "obs counters" `Quick test_sim_obs_counters;
         Alcotest.test_case "wake at until" `Quick test_sim_wake_at_until;
         Alcotest.test_case "wake past until" `Quick test_sim_wake_past_until;
         Alcotest.test_case "equal-key wake via heap" `Quick
           test_sim_equal_key_via_heap;
         Alcotest.test_case "yield with same-instant event" `Quick
           test_sim_yield_same_instant;
         Alcotest.test_case "sharded inline wakes" `Quick
           test_sim_sharded_inline;
         qc prop_sim_ordering_law ]);
      ("mailbox",
       [ Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
         Alcotest.test_case "blocking wakeup" `Quick test_mailbox_blocking_wakeup;
         Alcotest.test_case "waiters fifo" `Quick test_mailbox_multiple_waiters_fifo;
         Alcotest.test_case "get_opt" `Quick test_mailbox_get_opt ]);
      ("semaphore",
       [ Alcotest.test_case "counting" `Quick test_semaphore_counting;
         Alcotest.test_case "blocking" `Quick test_semaphore_blocking;
         Alcotest.test_case "exception safety" `Quick test_semaphore_with_sem_exception;
         Alcotest.test_case "negative" `Quick test_semaphore_negative ]);
      ("resource",
       [ Alcotest.test_case "fcfs waits" `Quick test_resource_fcfs_wait;
         Alcotest.test_case "capacity" `Quick test_resource_capacity;
         Alcotest.test_case "stats" `Quick test_resource_stats;
         Alcotest.test_case "exception releases" `Quick test_resource_exception_releases;
         Alcotest.test_case "bad capacity" `Quick test_resource_bad_capacity;
         Alcotest.test_case "use/use_k share one fifo" `Quick
           test_resource_mixed_fifo;
         Alcotest.test_case "release meets arrival" `Quick
           test_resource_release_meets_arrival;
         Alcotest.test_case "on_grant at the grant instant" `Quick
           test_resource_on_grant_instant;
         Alcotest.test_case "waiters granted on home shard" `Quick
           test_resource_home_shard;
         qc prop_resource_forms_agree ]);
      ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         qc prop_rng_float_range;
         qc prop_rng_int_range;
         Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
         Alcotest.test_case "normal mean" `Quick test_rng_normal_mean ]);
      ("stats",
       [ Alcotest.test_case "summary" `Quick test_summary_known;
         Alcotest.test_case "merge" `Quick test_summary_merge;
         Alcotest.test_case "histogram" `Quick test_histogram;
         Alcotest.test_case "registry" `Quick test_registry ]) ]
