(* The closed loop: one client runs a workload's sessions back to back.

   Set-up (executor creation plus input generation) is repeated
   [setups] times and reported as a median; the last set-up is kept.
   [warmups] untimed sessions follow, so the major heap has grown to its
   steady size before timing starts.  The loop then makes whole passes
   over the seed list until [seconds] have passed.  Each session
   is timed from [Net.create] to the protocol's return and checked after
   the timer stops; a seed's rerun must reproduce its first run's
   accounting exactly.

   The untraced loop yields the end-to-end metrics.  The traced loop
   runs, per step, one untraced session (GC deltas), one traced session
   (layer probe) and, where the workload has one, one session on the
   alternative executor; it yields the per-layer metrics. *)

module W = Workloads

type metric = {
  name : string;
  unit_ : string;
  value : float;
  q1 : float;
  q3 : float;
  samples : int;
}

type traced_session = {
  index : int;
  seed_index : int;
  start_ns : int;
  stop_ns : int;
  probe : Probe.t;
}

type result = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failure reasons *)
  metrics : metric list;
  sessions : traced_session list;  (** traced runs only, in run order *)
}

let correct r = r.failed = 0 && r.attempted > 0

(* Metric names and units; BENCHMARK.json lists the same. *)
let end_to_end =
  [ ("session_p50_s", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("bits_per_session", "bits"); ("success_ratio", "ratio") ]

let per_layer =
  [ ("transport.submit_calls", "count"); ("transport.submit_bytes", "bytes");
    ("transport.submit_s", "s"); ("transport.advance_self_s", "s");
    ("transport.in_flight_peak", "count"); ("net.create_s", "s"); ("net.deliver_s", "s");
    ("net.messages", "count"); ("net.rounds", "count"); ("net.max_locality", "count");
    ("net.bytes_per_message", "bytes"); ("protocol.compute_s", "s");
    ("protocol.compute_share", "ratio"); ("protocol.slowest_round", "round");
    ("protocol.slowest_round_s", "s"); ("gc.minor_words", "words");
    ("gc.promoted_words", "words"); ("gc.major_words", "words");
    ("gc.minor_collections", "count"); ("gc.major_collections", "count");
    ("pool.speedup", "ratio"); ("pool.balance", "ratio"); ("trace.overhead", "ratio") ]

(* ---- order statistics ---- *)

(* NaN for no samples (every session of the loop failed). *)
let median = function [] -> nan | xs -> Util.Stats.median xs

let summarize name xs =
  let unit_ =
    match List.assoc_opt name (end_to_end @ per_layer) with
    | Some u -> u
    | None -> invalid_arg ("Measure.summarize: unknown metric " ^ name)
  in
  let q p = match xs with [] -> nan | _ -> Util.Stats.percentile xs p in
  { name; unit_; value = median xs; q1 = q 25.0; q3 = q 75.0; samples = List.length xs }

let single name v = summarize name [ v ]
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- one checked session ---- *)

type acct = { bits : int; messages : int; rounds : int; locality : int }

let acct_of net =
  Netsim.Net.
    {
      bits = total_bits net;
      messages = messages_sent net;
      rounds = rounds net;
      locality = max_locality net;
    }

(* A passed session: its timer readings (ns) and accounting. *)
type sample = { t0 : int; t1 : int; acct : acct }

let wall_ns s = s.t1 - s.t0
let wall s = Probe.seconds (wall_ns s)

type state = {
  sessions : W.session array;
  first : acct option array;  (** each seed's accounting on its first run *)
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
}

let fail st i msg =
  st.failures <- Printf.sprintf "seed %d: %s" i msg :: st.failures;
  None

(* Run session [i], timed; check it after the timer stops. *)
let attempt st ?probe exec i =
  st.attempted <- st.attempted + 1;
  let t0 = Probe.now_ns () in
  match st.sessions.(i).W.run probe exec with
  | exception e -> fail st i (Printexc.to_string e)
  | fin -> (
    let t1 = Probe.now_ns () in
    Option.iter (fun p -> Probe.finish p ~stop_ns:t1) probe;
    match fin.W.check () with
    | exception e -> fail st i ("check raised " ^ Printexc.to_string e)
    | Error msg -> fail st i msg
    | Ok () -> (
      let acct = acct_of fin.W.net in
      match st.first.(i) with
      | Some a0 when a0 <> acct -> fail st i "accounting differs from the seed's first run"
      | _ ->
        st.first.(i) <- Some acct;
        Some { t0; t1; acct }))

(* Whole passes over the seed list until [seconds] have passed, so
   every seed weighs the same in every run. *)
let closed_loop ~seconds ~k step =
  let t_start = Probe.now_ns () in
  let index = ref 0 in
  let go = ref true in
  while !go do
    for i = 0 to k - 1 do
      step ~index:!index i;
      incr index
    done;
    go := Probe.seconds (Probe.now_ns () - t_start) < seconds
  done

(* ---- end-to-end (untraced) ---- *)

let untraced_loop st exec ~seconds ~setup_times ~rss =
  let samples = ref [] in
  closed_loop ~seconds ~k:(Array.length st.sessions) (fun ~index:_ i ->
      Option.iter (fun s -> samples := s :: !samples) (attempt st exec i));
  let seed_bits =
    List.filter_map (Option.map (fun a -> float_of_int a.bits)) (Array.to_list st.first)
  in
  let ok = st.attempted - List.length st.failures in
  [ summarize "session_p50_s" (List.map wall !samples); summarize "setup_s" setup_times;
    single "peak_rss_mb" rss;
    single "bits_per_session"
      (List.fold_left ( +. ) 0.0 seed_bits /. float_of_int (max 1 (List.length seed_bits)));
    single "success_ratio" (ratio (float_of_int ok) (float_of_int st.attempted)) ]

(* ---- per-layer (traced) ---- *)

type gc_delta = { minor : float; promoted : float; major : float; minor_n : float; major_n : float }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor = b.minor_words -. a.minor_words;
    promoted = b.promoted_words -. a.promoted_words;
    major = b.major_words -. a.major_words;
    minor_n = float_of_int (b.minor_collections - a.minor_collections);
    major_n = float_of_int (b.major_collections - a.major_collections);
  }

(* Index (1-based) and protocol time of a traced session's costliest
   compute span. *)
let slowest_round p =
  fst
    (List.fold_left
       (fun ((best_i, best_s), i) r ->
         let s = Probe.round_compute_s r in
         ((if s > best_s then (i, s) else (best_i, best_s)), i + 1))
       ((0, 0.0), 1) (Probe.rounds p))

let layer_metrics ~untraced ~traced ~alt ~gcs ~alt_exec =
  let fi = float_of_int in
  let per f = List.map (fun (s, (p : Probe.t)) -> f s p) traced in
  let compute s p = Probe.compute_s p ~wall_ns:(wall_ns s) in
  let gc f = List.map f gcs in
  let untraced_p50 = median (List.map wall untraced) in
  let alt_p50 = median (List.map wall alt) in
  let pool_speedup, pool_balance =
    match alt_exec with
    | Some (W.Pool pool) ->
      let balance =
        match Util.Pool.last_job_counts pool with
        | Some counts when Array.length counts > 0 ->
          let counts = Array.map fi counts in
          let mean = Array.fold_left ( +. ) 0.0 counts /. fi (Array.length counts) in
          ratio (Array.fold_left max 0.0 counts) mean
        | _ -> 1.0
      in
      (ratio untraced_p50 alt_p50, balance)
    | _ -> (1.0, 1.0)
  in
  [ summarize "transport.submit_calls" (per (fun _ p -> fi p.submit_calls));
    summarize "transport.submit_bytes" (per (fun _ p -> fi p.submit_bytes));
    summarize "transport.submit_s" (per (fun _ p -> Probe.submit_s p));
    summarize "transport.advance_self_s" (per (fun _ p -> Probe.advance_self_s p));
    summarize "transport.in_flight_peak" (per (fun _ p -> fi p.in_flight_peak));
    summarize "net.create_s" (per (fun _ p -> Probe.create_s p));
    summarize "net.deliver_s" (per (fun _ p -> Probe.deliver_s p));
    summarize "net.messages" (per (fun s _ -> fi s.acct.messages));
    summarize "net.rounds" (per (fun s _ -> fi s.acct.rounds));
    summarize "net.max_locality" (per (fun s _ -> fi s.acct.locality));
    summarize "net.bytes_per_message"
      (per (fun _ p -> ratio (fi p.submit_bytes) (fi p.submit_calls)));
    summarize "protocol.compute_s" (per compute);
    summarize "protocol.compute_share"
      (per (fun s p -> ratio (compute s p) (Probe.untraced_estimate_s p ~wall_ns:(wall_ns s))));
    summarize "protocol.slowest_round" (per (fun _ p -> fi (fst (slowest_round p))));
    summarize "protocol.slowest_round_s" (per (fun _ p -> snd (slowest_round p)));
    summarize "gc.minor_words" (gc (fun g -> g.minor));
    summarize "gc.promoted_words" (gc (fun g -> g.promoted));
    summarize "gc.major_words" (gc (fun g -> g.major));
    summarize "gc.minor_collections" (gc (fun g -> g.minor_n));
    summarize "gc.major_collections" (gc (fun g -> g.major_n));
    single "pool.speedup" pool_speedup;
    single "pool.balance" pool_balance;
    single "trace.overhead"
      (ratio (median (List.map (fun (s, _) -> wall s) traced)) untraced_p50 -. 1.0) ]

let traced_loop st exec (w : W.t) ~seconds =
  let alt_exec = Option.map (fun start -> start ()) w.W.alt in
  Fun.protect
    ~finally:(fun () -> Option.iter W.stop alt_exec)
    (fun () ->
      let untraced = ref [] and traced = ref [] and alt = ref [] and gcs = ref [] in
      let spans = ref [] in
      closed_loop ~seconds ~k:(Array.length st.sessions) (fun ~index i ->
          let g0 = Gc.quick_stat () in
          (match attempt st exec i with
          | Some s ->
            let g1 = Gc.quick_stat () in
            untraced := s :: !untraced;
            gcs := gc_delta g0 g1 :: !gcs
          | None -> ());
          let probe = Probe.create () in
          (match attempt st ~probe exec i with
          | Some s ->
            traced := (s, probe) :: !traced;
            spans := { index; seed_index = i; start_ns = s.t0; stop_ns = s.t1; probe } :: !spans
          | None -> ());
          Option.iter
            (fun ae -> Option.iter (fun s -> alt := s :: !alt) (attempt st ae i))
            alt_exec);
      ( layer_metrics ~untraced:!untraced ~traced:!traced ~alt:!alt ~gcs:!gcs ~alt_exec,
        List.rev !spans ))

(* ---- the run ---- *)

(* Set-up takes milliseconds, so one reading is at the mercy of a single
   scheduler tick: take the median of many.  Four warm-up sessions are
   what [sparse]'s heap needed to stop growing: its second to fourth
   sessions ran 20–35% slower than the rest. *)
let setups = 15
let warmups = 4

let run ?(size = W.Full) (w : W.t) ~seed ~seconds ~traced =
  let setup () =
    let t0 = Probe.now_ns () in
    let exec = w.W.main () in
    let sessions = w.W.prepare size (W.seed_list w size ~seed) in
    (Probe.seconds (Probe.now_ns () - t0), exec, sessions)
  in
  let rec setup_n r acc =
    let dt, exec, sessions = setup () in
    if r <= 1 then (dt :: acc, exec, sessions)
    else begin
      W.stop exec;
      setup_n (r - 1) (dt :: acc)
    end
  in
  let setup_times, exec, sessions = setup_n setups [] in
  let st =
    { sessions; first = Array.make (Array.length sessions) None; attempted = 0; failures = [] }
  in
  let metrics, spans =
    Fun.protect
      ~finally:(fun () -> W.stop exec)
      (fun () ->
        (* Warm-up: untimed, but checked and counted.  Peak RSS is read
           after its first session, set-up plus one session from a fresh
           heap.  The high-water mark keeps creeping for several more
           sessions as the GC paces heap growth (sparse: 220 MB after one
           session, 308–366 MB after ten, by seed), so a later reading
           would follow GC pacing rather than the session's footprint. *)
        ignore (attempt st exec 0);
        let rss = Option.value (Analysis.Bench_io.peak_rss_mb ()) ~default:0.0 in
        for j = 1 to warmups - 1 do
          ignore (attempt st exec (j mod Array.length sessions))
        done;
        if traced then traced_loop st exec w ~seconds
        else (untraced_loop st exec ~seconds ~setup_times ~rss, []))
  in
  let failures = List.rev st.failures in
  {
    workload = w.W.name;
    traced;
    attempted = st.attempted;
    failed = List.length failures;
    failures = List.filteri (fun i _ -> i < 5) failures;
    metrics;
    sessions = spans;
  }
