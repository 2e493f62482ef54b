(* Outside-in layer probe for one traced session.

   The probe sits on the one public seam between [Netsim.Net] and its
   delivery schedule: the session's network is created with a
   [Transport.t] that forwards to the real synchronous transport and
   times [submit], [advance] and the [deliver] callback Net passes in.
   Nothing in the library is instrumented, so an untraced session runs
   exactly the library code and a traced one differs only by the
   forwarding record and its clock reads.

   Rounds are cut at [advance] calls: round r's compute span runs from
   the end of advance r-1 (or of [Net.create]) to the start of advance
   r, and covers the protocol's own work plus the [submit]s it makes.
   The span after the last advance, up to the protocol's return, is a
   compute span with no advance.

   Times are integer nanoseconds, so recording allocates nothing.  A
   per-message span is as short as one clock read, so every derived
   time subtracts [span_cost_ns] per timed call: the cost of an empty
   span, calibrated once per process. *)

module Net = Netsim.Net
module Transport = Netsim.Transport

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* Least mean cost of an empty [now_ns]-to-[now_ns] span over a few
   batches. *)
let span_cost_ns =
  lazy
    (let batch = 100_000 in
     let best = ref max_int in
     for _ = 1 to 5 do
       let acc = ref 0 in
       for _ = 1 to batch do
         let t0 = now_ns () in
         acc := !acc + (now_ns () - t0)
       done;
       best := min !best !acc
     done;
     float_of_int !best /. float_of_int batch)

type round = {
  compute : int * int;  (** ns, start and stop *)
  advance : (int * int) option;
  messages : int;  (** submitted during the compute span *)
  bytes : int;
  submit_ns : int;
  deliver_ns : int;  (** inside the advance span *)
}

type t = {
  mutable create_ns : int;
  mutable submit_calls : int;
  mutable submit_bytes : int;
  mutable submit_ns : int;
  mutable advance_ns : int;
  mutable deliver_calls : int;
  mutable deliver_ns : int;
  mutable in_flight_peak : int;
  mutable rounds : round list;  (** newest first *)
  (* the round being accumulated *)
  mutable mark : int;
  mutable round_messages : int;
  mutable round_bytes : int;
  mutable round_submit_ns : int;
}

let create () =
  ignore (Lazy.force span_cost_ns);
  {
    create_ns = 0;
    submit_calls = 0;
    submit_bytes = 0;
    submit_ns = 0;
    advance_ns = 0;
    deliver_calls = 0;
    deliver_ns = 0;
    in_flight_peak = 0;
    rounds = [];
    mark = 0;
    round_messages = 0;
    round_bytes = 0;
    round_submit_ns = 0;
  }

let close_round p ~compute_stop ~advance ~deliver_ns =
  p.rounds <-
    {
      compute = (p.mark, compute_stop);
      advance;
      messages = p.round_messages;
      bytes = p.round_bytes;
      submit_ns = p.round_submit_ns;
      deliver_ns;
    }
    :: p.rounds;
  p.round_messages <- 0;
  p.round_bytes <- 0;
  p.round_submit_ns <- 0

let wrap p (tr : Transport.t) =
  (* One deliver wrapper per probe; [advance] resets the per-round sum. *)
  let round_deliver_ns = ref 0 in
  let deliver_to = ref (fun ~src:_ ~dst:_ _ -> ()) in
  let timed_deliver ~src ~dst payload =
    let t0 = now_ns () in
    !deliver_to ~src ~dst payload;
    round_deliver_ns := !round_deliver_ns + (now_ns () - t0);
    p.deliver_calls <- p.deliver_calls + 1
  in
  {
    tr with
    Transport.submit =
      (fun ~src ~dst payload ->
        let t0 = now_ns () in
        tr.Transport.submit ~src ~dst payload;
        let dt = now_ns () - t0 in
        let len = Bytes.length payload in
        p.submit_ns <- p.submit_ns + dt;
        p.submit_calls <- p.submit_calls + 1;
        p.submit_bytes <- p.submit_bytes + len;
        p.round_submit_ns <- p.round_submit_ns + dt;
        p.round_messages <- p.round_messages + 1;
        p.round_bytes <- p.round_bytes + len);
    advance =
      (fun ~deliver ->
        p.in_flight_peak <- max p.in_flight_peak (tr.Transport.in_flight ());
        deliver_to := deliver;
        round_deliver_ns := 0;
        let t0 = now_ns () in
        tr.Transport.advance ~deliver:timed_deliver;
        let t1 = now_ns () in
        p.advance_ns <- p.advance_ns + (t1 - t0);
        p.deliver_ns <- p.deliver_ns + !round_deliver_ns;
        close_round p ~compute_stop:t0 ~advance:(Some (t0, t1)) ~deliver_ns:!round_deliver_ns;
        p.mark <- t1);
  }

(* [create_net probe ?backend n] — the session's network: the library
   default when untraced, and the same synchronous transport behind the
   probe's forwarding record when traced. *)
let create_net probe ?(backend = Net.Dense) n =
  match probe with
  | None -> Net.create ~backend n
  | Some p ->
    let t0 = now_ns () in
    let tr =
      match backend with
      | Net.Dense -> Transport.sync_dense ~n
      | Net.Sparse -> Transport.sync_sparse ()
    in
    let net = Net.create ~backend ~transport:(wrap p tr) n in
    let t1 = now_ns () in
    p.create_ns <- t1 - t0;
    p.mark <- t1;
    net

(* Close the tail compute span when the protocol has returned. *)
let finish p ~stop_ns = close_round p ~compute_stop:stop_ns ~advance:None ~deliver_ns:0

let rounds p = List.rev p.rounds

(* ---- overhead-corrected layer times, in seconds ---- *)

let corrected ns calls =
  seconds (max 0 (ns - int_of_float (float_of_int calls *. Lazy.force span_cost_ns)))

let submit_s p = corrected p.submit_ns p.submit_calls
let deliver_s p = corrected p.deliver_ns p.deliver_calls
let advance_self_s p = corrected (p.advance_ns - p.deliver_ns) p.deliver_calls
let create_s p = seconds p.create_ns

(* Protocol work in a session of [wall_ns]: everything outside Net.create,
   the advance spans and the submit spans, less the clock read each
   submit leaves outside its own span. *)
let compute_s p ~wall_ns =
  corrected (wall_ns - p.create_ns - p.advance_ns - p.submit_ns) p.submit_calls

(* Protocol work within one round's compute span. *)
let round_compute_s (r : round) =
  corrected (snd r.compute - fst r.compute - r.submit_ns) r.messages

(* The session's time with every probe read taken out. *)
let untraced_estimate_s p ~wall_ns =
  create_s p +. submit_s p +. deliver_s p +. advance_self_s p +. compute_s p ~wall_ns
