(* The simulator's benchmark.

     main.exe --workload <pingpong|umt64|serve_ft> --seed N --seconds S
              --trace <0|1>

   One repetition simulates every world of the workload (one per OS
   kind) one after another, on this domain.  With --trace 0 the run
   repeats until about S seconds have gone and reports the end-to-end
   metrics (medians over repetitions).  With --trace 1 it times the
   layer primitives, then runs the workload plain and under the SIGPROF
   sampler, and the workload's slice plain and with latency ledgers and
   spans armed, and reports the per-layer metrics.  Either way it checks
   every world's outputs, prints the sim_digest, and ends with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  simbench/README.md
   defines every metric. *)

module W = Workloads
module Cluster = Pico_harness.Cluster
module Report = Pico_harness.Report
module Engine_obs = Pico_harness.Engine_obs
module Breakdown = Pico_harness.Breakdown
module Tracefile = Pico_harness.Tracefile
module Costs = Pico_costs.Costs
module Ledger = Pico_engine.Ledger
module Span = Pico_engine.Span

let now = Unix.gettimeofday

let ratio = Pico_harness.Subsys_obs.ratio

let median = Probes.median

(* --- one repetition ----------------------------------------------------- *)

type rep = {
  outs : (Cluster.os_kind * (W.outcome, string) result) list;
  setup_s : float;  (** Cluster.build + Serve.plans, all worlds *)
  plan_s : float;  (** the Serve.plans part of [setup_s] *)
  host_s : float;  (** simulation, read-out and observability flush *)
  wall_s : float;  (** [host_s] as the host clock read it *)
  flush_s : float;  (** Engine_obs/Subsys_obs flush at the end *)
  minor_words : float;  (** allocated while simulating *)
  major_gcs : int;
  report : (string * float) list;  (** Report keys of the repetition *)
}

let figure = "bench"

(* Running totals of a repetition. *)
type totals = {
  mutable setup : float;
  mutable plan : float;
  mutable sim : float;
  mutable wall : float;
  mutable words : float;
  mutable majors : int;
}

(* Each world starts after a full collection, so its timings and the
   peak RSS do not depend on the garbage of the world before. *)
let run_world (w : W.t) ~seed kind t ~throughout ~around_run ~after_world =
  Gc.compact ();
  let s =
    Speed.timed ~throughout (fun () ->
        try Ok (w.W.setup ~seed kind) with e -> Error (Printexc.to_string e))
  in
  let r =
    Speed.timed ~throughout (fun () ->
        let r =
          match s.Speed.value with
          | Error e -> Error e
          | Ok p -> (
            try Ok (around_run p.W.run)
            with e -> Error (Printexc.to_string e))
        in
        after_world ();
        r)
  in
  (* Serve.plans runs inside set-up; its share takes set-up's speed. *)
  (match s.Speed.value with
   | Ok p when p.W.plan_s > 0. ->
     t.plan <- t.plan +. (p.W.plan_s *. s.Speed.host_s /. s.Speed.wall_s)
   | _ -> ());
  t.setup <- t.setup +. s.Speed.host_s;
  t.sim <- t.sim +. r.Speed.host_s;
  t.wall <- t.wall +. r.Speed.wall_s;
  t.words <- t.words +. r.Speed.words;
  t.majors <- t.majors + r.Speed.majors;
  r.Speed.value

(* [throughout]: see Speed.timed.  [around_run] wraps each world's
   simulation, [after_world] runs after it inside its timed span. *)
let rep ?(throughout = true) ?(around_run = fun run -> run ())
    ?(after_world = ignore) (w : W.t) ~seed =
  Report.clear ();
  let t =
    { setup = 0.; plan = 0.; sim = 0.; wall = 0.; words = 0.; majors = 0 }
  in
  let inner = ref 0. in
  let t0 = now () in
  let outs =
    Costs.with_patched w.W.patch (fun () ->
        Engine_obs.measure ~figure (fun () ->
            let ti = now () in
            let outs =
              List.map
                (fun kind ->
                  ( kind,
                    run_world w ~seed kind t ~throughout ~around_run
                      ~after_world ))
                W.kinds
            in
            inner := now () -. ti;
            outs))
  in
  (* The flush is too short to reference; it counts at clock speed. *)
  let flush_s = now () -. t0 -. !inner in
  { outs;
    setup_s = t.setup;
    plan_s = t.plan;
    host_s = t.sim +. flush_s;
    wall_s = t.wall +. flush_s;
    flush_s;
    minor_words = t.words;
    major_gcs = t.majors;
    report = Report.dump () }

let ok_outcomes r =
  List.filter_map (function _, Ok o -> Some o | _, Error _ -> None) r.outs

(* Failure messages of a repetition, and how many of its worlds failed:
   a world that raised fails alone; a broken workload-level shape fails
   every world that ran. *)
let failures (w : W.t) r =
  let raised =
    List.filter_map
      (function
        | k, Error e ->
          Some (Printf.sprintf "%s %s raised: %s" w.W.name (W.tag k) e)
        | _, Ok _ -> None)
      r.outs
  in
  let oks = ok_outcomes r in
  let broken = w.W.check oks in
  let n_failed =
    List.length raised + if broken = [] then 0 else List.length oks
  in
  (raised @ broken, n_failed)

(* Fingerprint of every simulated result of the repetition. *)
let digest r =
  List.map
    (function
      | k, Ok o -> W.tag k ^ "=" ^ o.W.fingerprint
      | k, Error _ -> W.tag k ^ "=raised")
    r.outs
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* --- reporting ---------------------------------------------------------- *)

let key r k =
  Option.value (List.assoc_opt (figure ^ "/" ^ k) r.report) ~default:0.

(* Sum of the report keys [prefix ^ ... ^ suffix]. *)
let key_sum r ~prefix ~suffix =
  let p = figure ^ "/" ^ prefix in
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix:p k && String.ends_with ~suffix k then
        acc +. v
      else acc)
    0. r.report

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let finite v = if Float.is_finite v then v else 0.

let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %18.6f %s\n" n v u) metrics;
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n (finite v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " body)

(* --- --trace 0: end-to-end metrics -------------------------------------- *)

let min_reps = 2

(* Set-up is short next to simulation, so the repetitions' own set-ups
   are topped up with set-up-only rounds for a steadier median. *)
let min_setups = 5

let setup_round (w : W.t) ~seed =
  Gc.compact ();
  Costs.with_patched w.W.patch (fun () ->
      List.fold_left
        (fun acc kind ->
          let s =
            Speed.timed ~throughout:false (fun () -> w.W.setup ~seed kind)
          in
          acc +. s.Speed.host_s)
        0. W.kinds)

let untraced (w : W.t) ~seed ~seconds =
  let t0 = now () in
  (* The first repetition takes references around its spans only, so
     its garbage collections, and the high-water mark read after it,
     depend on the seed alone (the runtime keeps freed heap, so later
     repetitions could only raise the mark).  It is set-up and checked
     like the others, but not timed: the timed repetitions follow. *)
  let first = rep ~throughout:false w ~seed in
  let peak_rss = peak_rss_mb () in
  let rec loop acc =
    let n = List.length acc in
    let elapsed = now () -. t0 in
    let per_rep = elapsed /. float_of_int (n + 1) in
    if n >= min_reps && elapsed +. per_rep > seconds then List.rev acc
    else loop (rep w ~seed :: acc)
  in
  let timed = loop [] in
  let reps = first :: timed in
  let setups =
    List.map (fun r -> r.setup_s) reps
    @ List.init (max 0 (min_setups - List.length reps)) (fun _ ->
          setup_round w ~seed)
  in
  (* The probe's three worlds are operations too. *)
  let paper_err, probe_failure =
    match W.paper_err_pp ~seed with
    | v -> (v, [])
    | exception e ->
      (nan, [ "paper_err_pp probe raised: " ^ Printexc.to_string e ])
  in
  let digests = List.sort_uniq compare (List.map digest reps) in
  let msgs, failed =
    List.fold_left
      (fun (ms, nf) r ->
        let m, f = failures w r in
        (ms @ m, nf + f))
      (probe_failure, List.length probe_failure * List.length W.kinds)
      reps
  in
  Printf.printf "workload %s seed %Ld reps 1+%d host_s/wall_s %s\n" w.W.name
    seed (List.length timed)
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%.3f/%.3f" r.host_s r.wall_s)
          timed));
  List.iter print_endline (List.sort_uniq compare msgs);
  List.iter (fun d -> Printf.printf "sim_digest %s %s\n" w.W.name d) digests;
  let deterministic = List.length digests = 1 in
  if not deterministic then
    print_endline "repetitions of one seed simulated different results";
  emit
    ~correct:(failed = 0 && deterministic)
    ~attempted:(List.length W.kinds * (List.length reps + 1))
    ~failed
    [ ("host_s", median (List.map (fun r -> r.host_s) timed), "s");
      ("setup_s", median setups, "s");
      ("peak_rss_mb", peak_rss, "MiB");
      ("paper_err_pp", paper_err, "pp") ]

(* --- --trace 1: per-layer metrics --------------------------------------- *)

(* Latency-ledger phases reported as shares of their op's simulated
   end-to-end time, pooled over the workload's worlds. *)
let lat_phases =
  [ ("offload/writev", "ikc_request"); ("offload/writev", "linux_dispatch");
    ("offload/writev", "linux_service"); ("offload/ioctl", "linux_service");
    ("sdma/tx", "ring_wait"); ("sdma/tx", "engine_service");
    ("psm/send", "cts_wait"); ("psm/send", "window_submit");
    ("psm/recv", "data_wait"); ("psm/recv", "window_grant");
    ("psm/recv", "copy");
    ("serve", "queue"); ("serve", "net"); ("serve", "service");
    ("serve", "reply") ]

let lat_metrics () =
  let b = Breakdown.dump () in
  (* summed over the per-world figures *)
  let total suffix =
    List.fold_left
      (fun acc (k, v) -> if String.ends_with ~suffix k then acc +. v else acc)
      0. b
  in
  let shares =
    List.map
      (fun (op, phase) ->
        let name =
          Printf.sprintf "lat.%s.%s.share"
            (String.map (function '/' -> '_' | c -> c) op)
            phase
        in
        ( name,
          ratio
            (total (Printf.sprintf "/lat/%s/%s/total_ns" op phase))
            (total (Printf.sprintf "/lat/%s/end_to_end/total_ns" op)),
          "ratio" ))
      lat_phases
  in
  (shares, total "/end_to_end/count")

let serve_metrics r =
  let lats =
    List.concat_map
      (fun o ->
        match o.W.detail with W.Serve s -> Array.to_list s.W.lats | _ -> [])
      (ok_outcomes r)
    |> Array.of_list
  in
  Array.sort compare lats;
  let sum f =
    List.fold_left
      (fun acc o -> match o.W.detail with W.Serve s -> acc + f s | _ -> acc)
      0 (ok_outcomes r)
  in
  let q p = finite (W.nearest_rank lats p) /. 1e3 in
  [ ("serve.plan_s", r.plan_s, "s");
    ("serve.p50_us", q 0.5, "us");
    ("serve.p99_us", q 0.99, "us");
    ("serve.p999_us", q 0.999, "us");
    ("serve.samples", float_of_int (Array.length lats), "count");
    ( "serve.goodput_ratio",
      ratio
        (float_of_int (sum (fun s -> s.W.ok)))
        (float_of_int (sum (fun s -> s.W.arrivals))),
      "ratio" );
    ("serve.shed", float_of_int (sum (fun s -> s.W.shed)), "count") ]

(* Ledger-armed worlds are folded one by one (figure "w<i>"), so the
   collector never holds more than one world's ledgers. *)
let flush_ledgers =
  let n = ref 0 in
  fun () ->
    incr n;
    Breakdown.flush ~figure:(Printf.sprintf "w%d" !n)

let traced (wl : W.workload) ~seed =
  let w = wl.W.full in
  let probes = Probes.all () in
  let plain = rep ~throughout:false w ~seed in
  Sampler.reset ();
  let sampled =
    rep ~throughout:false ~around_run:Sampler.sampling w ~seed
  in
  let slice = rep ~throughout:false wl.W.slice ~seed in
  Ledger.set_on true;
  Span.set_on true;
  let spans = ref 0 in
  let after_world () =
    spans := !spans + Tracefile.size ();
    Tracefile.clear ();
    flush_ledgers ()
  in
  let armed =
    Fun.protect
      ~finally:(fun () ->
        Ledger.set_on false;
        Span.set_on false)
      (fun () -> rep ~throughout:false ~after_world wl.W.slice ~seed)
  in
  let lat_shares, ledgers = lat_metrics () in
  Breakdown.clear ();
  Printf.printf "workload %s seed %Ld traced\n" w.W.name seed;
  (* Sampling and ledgers are host-side: each pair must simulate the
     same results. *)
  let pairs =
    [ (w, plain, sampled, "sampling");
      (wl.W.slice, slice, armed, "ledgers and spans") ]
  in
  let msgs, failed, same =
    List.fold_left
      (fun (ms, nf, ok) ((wk : W.t), a, b, what) ->
        let ma, fa = failures wk a and mb, fb = failures wk b in
        let da = digest a and db = digest b in
        Printf.printf "sim_digest %s %s\n" wk.W.name da;
        if da <> db then
          Printf.printf "%s changed the simulated results of %s: %s\n" what
            wk.W.name db;
        (ms @ ma @ mb, nf + fa + fb, ok && da = db))
      ([], 0, true) pairs
  in
  List.iter print_endline (List.sort_uniq compare msgs);
  let events = key plain "engine/events" in
  let equiv = events +. key plain "engine/events_elided" in
  let per_equiv v = ratio v equiv in
  let slice_equiv =
    key slice "engine/events" +. key slice "engine/events_elided"
  in
  let tier t m =
    ( Printf.sprintf "fabric.%s.%s" t m,
      key plain (Printf.sprintf "fabric/%s/%s" t m),
      "count" )
  in
  let engine =
    [ ("engine.events", events, "count");
      ("engine.equiv_events", equiv, "count");
      ("engine.ns_per_equiv_event", per_equiv (plain.host_s *. 1e9), "ns");
      ("engine.alloc_words_per_event", per_equiv plain.minor_words, "words");
      ("engine.major_gcs", float_of_int plain.major_gcs, "count");
      ("engine.peak_heap", key plain "engine/peak_heap", "count");
      ( "engine.barrier_rounds",
        key plain "engine/shards/barrier_rounds",
        "count" );
      ("engine.xshard_events", key plain "engine/shards/xshard_events", "count")
    ]
  in
  let nic =
    [ ( "nic.elided_share",
        per_equiv (key plain "engine/events_elided"),
        "ratio" );
      ("nic.sdma_requests", key plain "sdma/requests", "count");
      ("nic.sdma_occupancy", key plain "sdma/occupancy", "ratio");
      ("nic.pio_byte_share", key plain "hfi/pio_byte_share", "ratio") ]
  in
  let fabric =
    List.concat_map
      (fun t -> [ tier t "packets"; tier t "contended"; tier t "peak_queue" ])
      [ "up"; "down"; "host" ]
  in
  let kernels =
    [ ("ihk.offload_calls", key plain "offload/calls", "count");
      ("ihk.offload_queueing_ns", key plain "offload/queueing_ns", "ns");
      ( "linux.lock_contended",
        key_sum plain ~prefix:"lock/" ~suffix:"/contended",
        "count" );
      ("linux.gup_pages", key plain "gup/pages_pinned", "count");
      ("picodriver.pt_segments", key plain "pico/pt_segments", "count");
      ( "mpi.calls",
        float_of_int
          (List.fold_left
             (fun acc o -> acc + o.W.mpi_calls)
             0 (ok_outcomes plain)),
        "count" ) ]
  in
  let obs =
    [ ("harness.flush_s", plain.flush_s, "s");
      ( "obs.trace_overhead_x",
        ratio armed.host_s slice.host_s,
        "x" );
      ( "obs.trace_words_per_event",
        ratio
          (armed.minor_words -. slice.minor_words)
          slice_equiv,
        "words" );
      ("obs.ledgers", ledgers, "count");
      ("obs.spans", float_of_int !spans, "count") ]
  in
  let micro = List.map (fun (n, v) -> (n, v, "ns")) probes in
  let host_shares =
    List.map
      (fun (n, v) ->
        (n, v, if n = "host_share.samples" then "count" else "ratio"))
      (Sampler.shares ())
  in
  emit ~correct:(failed = 0 && same)
    ~attempted:(4 * List.length W.kinds)
    ~failed
    (engine @ nic @ fabric @ kernels @ serve_metrics plain @ obs @ micro
   @ lat_shares @ host_shares)

(* --- command line ------------------------------------------------------- *)

let usage =
  "main.exe --workload <pingpong|umt64|serve_ft> --seed N --seconds S \
   --trace <0|1>"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun wl -> wl.W.full.W.name = !workload) W.all with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some wl ->
    let seed = Int64.of_int !seed in
    if !trace = 1 then traced wl ~seed
    else untraced wl.W.full ~seed ~seconds:!seconds
