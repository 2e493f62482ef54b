(* Differential conformance suite for the parallel round driver
   ([Netsim.Net.run_round]): the committed state after a round — inbox
   contents, per-party bit counters, locality sets, message and round
   totals — must be byte-identical whether the compute phase ran
   sequentially or sharded over 2 or 8 executors, and identical to a
   plain replay of the same sends through [Net.send].  The second half drives
   every [Mpc.Attacks] adversary through the parallel protocol ports and
   checks the abort/outcome verdicts match the sequential runs exactly. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Shared pools: jobs = 2 (1 worker + caller) and jobs = 8 (7 workers +
   caller).  Created once; the process exit reaps the domains.  On a
   single-core machine these are oversubscribed, which only makes the
   interleavings more adversarial — determinism must hold regardless. *)
let pool1 = lazy (Util.Pool.create ~num_domains:1 ())
let pool7 = lazy (Util.Pool.create ~num_domains:7 ())
let all_pools () = [ None; Some (Lazy.force pool1); Some (Lazy.force pool7) ]

(* Everything observable about a network's accounting, as one comparable
   value. *)
type obs = {
  bits_sent : int list;
  bits_received : int list;
  peers : int list list;
  total_bits : int;
  messages : int;
  net_rounds : int;
  max_locality : int;
}

let observe net =
  let n = Netsim.Net.n net in
  {
    bits_sent = List.init n (Netsim.Net.bits_sent net);
    bits_received = List.init n (Netsim.Net.bits_received net);
    peers = List.init n (fun i -> Util.Iset.to_sorted_list (Netsim.Net.peers net i));
    total_bits = Netsim.Net.total_bits net;
    messages = Netsim.Net.messages_sent net;
    net_rounds = Netsim.Net.rounds net;
    max_locality = Netsim.Net.max_locality net;
  }

(* ---- The differential property ----------------------------------- *)

(* A schedule is, per round and per party, a list of (dst, extra length)
   sends.  The step function drains its inbox and emits the round's
   sends; payloads encode (round, src, dst) so any misrouted or reordered
   delivery shows up as a byte difference. *)

let payload ~round ~src ~dst ~len =
  Bytes.of_string (Printf.sprintf "r%d.s%d.d%d.%s" round src dst (String.make len 'x'))

let execute ?pool n plan =
  let net = Netsim.Net.create n in
  let all = List.init n (fun i -> i) in
  let trace =
    List.mapi
      (fun r per_party ->
        let inboxes =
          Netsim.Net.run_round ?pool net ~parties:all (fun p ->
              let me = Netsim.Net.Party.id p in
              let inbox = Netsim.Net.Party.recv p in
              List.iter
                (fun (dst, len) -> Netsim.Net.Party.send p ~dst (payload ~round:r ~src:me ~dst ~len))
                per_party.(me);
              inbox)
        in
        Netsim.Net.step net;
        inboxes)
      plan
  in
  (* The last round's deliveries are still queued; they are state too. *)
  let leftovers = List.map (fun dst -> Netsim.Net.recv net ~dst) all in
  (trace, leftovers, observe net)

(* The oracle: the same plan with no [run_round] at all — each round,
   every party in ascending id drains its inbox and sends through the
   flat [Net.send], in plan order.  Sends reach inboxes only at [step],
   so a party's drain never sees a message sent earlier in its round. *)
let replay n plan =
  let net = Netsim.Net.create n in
  let all = List.init n (fun i -> i) in
  let trace =
    List.mapi
      (fun r per_party ->
        let inboxes =
          List.map
            (fun me ->
              let inbox = Netsim.Net.recv net ~dst:me in
              List.iter
                (fun (dst, len) ->
                  Netsim.Net.send net ~src:me ~dst (payload ~round:r ~src:me ~dst ~len))
                per_party.(me);
              inbox)
            all
        in
        Netsim.Net.step net;
        inboxes)
      plan
  in
  let leftovers = List.map (fun dst -> Netsim.Net.recv net ~dst) all in
  (trace, leftovers, observe net)

(* Normalize a generated round (list of (src, dst, len)) into per-party
   send lists, redirecting self-sends. *)
let to_per_party n rounds =
  List.map
    (fun sends ->
      let per = Array.make n [] in
      List.iter
        (fun (src, dst0, len) ->
          let dst = if dst0 = src then (src + 1) mod n else dst0 in
          per.(src) <- (dst, len) :: per.(src))
        sends;
      Array.map List.rev per)
    rounds

let prop_parallel_matches_sequential =
  let n = 9 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 5)
        (list_size (int_bound 30)
           (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 12))))
  in
  QCheck.Test.make ~count:60 ~name:"run_round: jobs 1/2/8 byte-identical"
    (QCheck.make gen)
    (fun rounds ->
      let plan = to_per_party n rounds in
      let reference = execute n plan in
      List.for_all (fun pool -> execute ?pool n plan = reference) (all_pools ()))

(* [run_round] at 1, 2 and 8 executors against [replay].  Each round
   has one hot party sending well past an outbox's initial capacity (8)
   and, in most rounds, parties that send nothing. *)
let prop_run_round_matches_replay =
  let n = 9 in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4)
        ( int_bound (n - 1) >>= fun hot ->
          int_range 9 60 >>= fun burst ->
          list_size (int_bound 12)
            (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_bound 12))
          >>= fun sends ->
          list_repeat burst (pair (int_bound (n - 1)) (int_bound 12)) >|= fun hot_sends ->
          List.map (fun (dst, len) -> (hot, dst, len)) hot_sends @ sends ))
  in
  QCheck.Test.make ~count:60 ~name:"run_round = Net.send replay (jobs 1/2/8)"
    (QCheck.make gen)
    (fun rounds ->
      let plan = to_per_party n rounds in
      let oracle = replay n plan in
      List.for_all (fun pool -> execute ?pool n plan = oracle) (all_pools ()))

(* One party produces 100x the traffic of the others, so with contiguous
   shards one worker owns nearly all the work — scheduling skew must not
   leak into delivery or accounting. *)
let skewed_plan n =
  List.init 3 (fun _ ->
      Array.init n (fun me ->
          if me = 3 then List.init 100 (fun k -> ((me + 1 + (k mod (n - 1))) mod n, k mod 9))
          else [ ((me + 1) mod n, 2) ]))

let test_skewed_shard () =
  let n = 12 in
  let plan = skewed_plan n in
  let reference = execute n plan in
  List.iter
    (fun pool -> checkb "skewed schedule identical" true (execute ?pool n plan = reference))
    (all_pools ());
  checkb "skewed schedule = Net.send replay" true (reference = replay n plan)

let test_skewed_shard_balanced_plan () =
  (* The packing run_round derives from the skewed schedule's weight
     profile (1 + inbox size): the hot party must sit alone in its bin,
     and capped-weight profiles must stay within 2x of the mean bin
     load.  Asserted on the plan, not on runtime scheduling, so the check
     is deterministic on any machine. *)
  let hot = Array.init 12 (fun me -> if me = 3 then 101 else 2) in
  let plan = Util.Pool.pack_bins ~weights:hot ~bins:8 in
  Array.iter
    (fun bin ->
      if Array.exists (( = ) 3) bin then checki "hot party isolated" 1 (Array.length bin))
    plan;
  let capped = Array.init 64 (fun i -> 1 + (i mod 3)) in
  let bins = 8 in
  let mean = float_of_int (Array.fold_left ( + ) 0 capped) /. float_of_int bins in
  Array.iter
    (fun bin ->
      let load = Array.fold_left (fun a j -> a + capped.(j)) 0 bin in
      checkb "no bin above 2x mean load" true (float_of_int load <= 2.0 *. mean))
    (Util.Pool.pack_bins ~weights:capped ~bins)

let test_job_counts_cover_all_shards () =
  (* The pool's per-executor instrumentation after a size-aware round:
     every shard was drained exactly once, by somebody. *)
  let pool = Lazy.force pool7 in
  let net = Netsim.Net.create 12 in
  ignore
    (Netsim.Net.run_round ~pool net
       ~parties:(List.init 12 Fun.id)
       (fun p ->
         Netsim.Net.Party.send p ~dst:((Netsim.Net.Party.id p + 1) mod 12) (Bytes.make 3 'm');
         Netsim.Net.Party.id p));
  Netsim.Net.step net;
  match Util.Pool.last_job_counts pool with
  | None -> Alcotest.fail "no job counts recorded after a pooled round"
  | Some c ->
    checki "slots = workers + caller" 8 (Array.length c);
    checki "every shard drained exactly once" 8 (Array.fold_left ( + ) 0 c);
    checkb "no negative counts" true (Array.for_all (fun x -> x >= 0) c)

let test_empty_and_singleton_parties () =
  (* Degenerate shard shapes: fewer parties than executors, and none. *)
  let n = 4 in
  List.iter
    (fun pool ->
      let net = Netsim.Net.create n in
      checkb "empty party list" true
        (Netsim.Net.run_round ?pool net ~parties:[] (fun _ -> assert false) = []);
      let r =
        Netsim.Net.run_round ?pool net ~parties:[ 2 ] (fun p ->
            Netsim.Net.Party.send p ~dst:0 (Bytes.of_string "one");
            Netsim.Net.Party.id p)
      in
      checkb "singleton result" true (r = [ 2 ]);
      Netsim.Net.step net;
      checki "singleton send delivered" 1 (List.length (Netsim.Net.recv net ~dst:0)))
    (all_pools ())

(* ---- Party handle contract --------------------------------------- *)

let test_party_self_send_rejected () =
  List.iter
    (fun pool ->
      let net = Netsim.Net.create 4 in
      let before = Netsim.Net.snapshot net in
      (try
         ignore
           (Netsim.Net.run_round ?pool net
              ~parties:[ 0; 1; 2; 3 ]
              (fun p ->
                Netsim.Net.Party.send p ~dst:((Netsim.Net.Party.id p + 2) mod 4)
                  (Bytes.of_string "fine");
                if Netsim.Net.Party.id p = 1 then
                  Netsim.Net.Party.send p ~dst:1 (Bytes.of_string "self")));
         Alcotest.fail "self-send through Party.send must raise"
       with Invalid_argument _ -> ());
      (* The failed round commits nothing — not even the valid sends of
         other parties. *)
      let d = Netsim.Net.diff_snapshot ~before ~after:(Netsim.Net.snapshot net) in
      checki "no bits committed" 0 d.Netsim.Net.snap_bits;
      checki "no messages committed" 0 d.Netsim.Net.snap_msgs)
    (all_pools ())

let test_party_out_of_range_send_rejected () =
  List.iter
    (fun pool ->
      let net = Netsim.Net.create 3 in
      checkb "out-of-range dst raises" true
        (try
           ignore
             (Netsim.Net.run_round ?pool net ~parties:[ 0 ] (fun p ->
                  Netsim.Net.Party.send p ~dst:7 (Bytes.of_string "x")));
           false
         with Invalid_argument _ -> true))
    (all_pools ())

let test_run_round_bad_parties_rejected () =
  let net = Netsim.Net.create 3 in
  checkb "duplicate party raises" true
    (try
       ignore (Netsim.Net.run_round net ~parties:[ 0; 1; 0 ] (fun _ -> ()));
       false
     with Invalid_argument _ -> true);
  checkb "out-of-range party raises" true
    (try
       ignore (Netsim.Net.run_round net ~parties:[ 0; 5 ] (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_recv_from_inside_round () =
  (* Party handles expose the same drain semantics as the flat API:
     recv_from picks one sender's bucket, recv drains everything. *)
  let n = 5 in
  List.iter
    (fun pool ->
      let net = Netsim.Net.create n in
      for src = 1 to n - 1 do
        Netsim.Net.send net ~src ~dst:0 (Bytes.of_string (Printf.sprintf "from%d" src))
      done;
      Netsim.Net.step net;
      let r =
        Netsim.Net.run_round ?pool net ~parties:[ 0 ] (fun p ->
            let two = Netsim.Net.Party.recv_from p ~src:2 in
            let rest = Netsim.Net.Party.recv p in
            (two, List.map fst rest))
      in
      checkb "recv_from then recv partitions the inbox" true
        (r = [ ([ Bytes.of_string "from2" ], [ 1; 3; 4 ]) ]))
    (all_pools ())

(* ---- Adversarial regression: every attack, sequential vs parallel --- *)

(* Runs one protocol twice from identical seeds — sequentially and through
   the jobs = 8 pool — and insists on identical outcome arrays and
   identical accounting.  [f] builds fresh state and returns
   (anything comparable, net). *)
let differential name (f : ?pool:Util.Pool.t -> unit -> 'a * Netsim.Net.t) =
  let seq, seq_net = f () in
  let par, par_net = f ~pool:(Lazy.force pool7) () in
  checkb (name ^ ": outcomes identical") true (seq = par);
  checkb (name ^ ": accounting identical") true (observe seq_net = observe par_net)

let corrupt n ids = Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list ids)
let params n h = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 ()

(* Like [differential], but sweeps jobs ∈ {1, 2, 8}: the sequential run is
   the jobs = 1 reference, then both pools must reproduce it. *)
let differential_jobs name (f : ?pool:Util.Pool.t -> unit -> 'a * Netsim.Net.t) =
  let seq, seq_net = f () in
  let seq_obs = observe seq_net in
  List.iter
    (fun (jobs, pool) ->
      let par, par_net = f ~pool () in
      checkb (Printf.sprintf "%s: outcomes identical at jobs=%d" name jobs) true (seq = par);
      checkb
        (Printf.sprintf "%s: accounting identical at jobs=%d" name jobs)
        true
        (seq_obs = observe par_net))
    [ (2, Lazy.force pool1); (8, Lazy.force pool7) ]

let test_attacks_broadcast () =
  let n = 12 in
  let cases =
    [
      ("equivocating_sender",
       Mpc.Attacks.equivocating_sender ~v1:(Bytes.of_string "aaaa") ~v2:(Bytes.of_string "bbbb"),
       corrupt n [ 0 ]);
      ("lying_echo", Mpc.Attacks.lying_echo ~fake:(Bytes.of_string "zzzz"), corrupt n [ 3 ]);
      ("partial_sender",
       Mpc.Attacks.partial_sender ~recipients:(Util.Iset.of_list [ 1; 2; 3 ]),
       corrupt n [ 0 ]);
    ]
  in
  List.iter
    (fun (name, adv, corruption) ->
      List.iter
        (fun (vname, variant) ->
          differential
            (Printf.sprintf "broadcast/%s/%s" name vname)
            (fun ?pool () ->
              let net = Netsim.Net.create n in
              let rng = Util.Prng.create 42 in
              let outs =
                Mpc.Broadcast.run ?pool net rng (params n 6) ~variant ~sender:0
                  ~value:(Bytes.of_string "value") ~corruption ~adv
              in
              (outs, net)))
        [ ("naive", Mpc.Broadcast.Naive); ("fingerprinted", Mpc.Broadcast.Fingerprinted) ])
    cases

let test_attacks_all_to_all () =
  let n = 10 in
  let corruption = corrupt n [ 2 ] in
  let adv = Mpc.Attacks.split_input ~v1:(Bytes.of_string "left") ~v2:(Bytes.of_string "right") in
  List.iter
    (fun (vname, variant) ->
      differential
        (Printf.sprintf "all_to_all/split_input/%s" vname)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 7 in
          let outs =
            Mpc.All_to_all.run ?pool net rng (params n 5) ~variant
              ~participants:(List.init n (fun i -> i))
              ~input:(fun i -> Bytes.of_string (Printf.sprintf "input-%d" i))
              ~corruption ~adv
          in
          (outs, net)))
    [ ("naive", Mpc.All_to_all.Naive); ("fingerprinted", Mpc.All_to_all.Fingerprinted) ]

let test_attacks_committee () =
  let n = 24 in
  let rng0 = Util.Prng.create 11 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h:12 in
  List.iter
    (fun (name, adv) ->
      differential
        (Printf.sprintf "committee/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 13 in
          let outs = Mpc.Committee.run ?pool net rng (params n 12) ~corruption ~adv in
          (outs, net)))
    [
      ("selective_claim", Mpc.Attacks.selective_claim ~cutoff:8);
      ("claim_all", Mpc.Attacks.claim_all);
      ("lying_view_check", Mpc.Attacks.lying_view_check);
    ]

let test_attacks_mpc_abort () =
  let n = 12 in
  let rng0 = Util.Prng.create 17 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h:6 in
  let config =
    {
      Mpc.Mpc_abort.params = params n 6;
      pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
      circuit = Circuit.parity ~n;
      input_width = 1;
    }
  in
  let inputs = Array.init n (fun i -> i land 1) in
  List.iter
    (fun (name, adv) ->
      differential
        (Printf.sprintf "mpc_abort/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 19 in
          let outs, costs = Mpc.Mpc_abort.run_metered ?pool net rng config ~corruption ~inputs ~adv in
          ((outs, costs), net)))
    [
      ("honest", Mpc.Mpc_abort.honest_adv);
      ("pk_equivocation", Mpc.Attacks.pk_equivocation);
      ("ct_equivocation", Mpc.Attacks.ct_equivocation);
      ("bad_partial_decryptions", Mpc.Attacks.bad_partial_decryptions);
      ("output_tamper", Mpc.Attacks.output_tamper);
    ]

let test_attacks_gossip () =
  let n = 20 and h = 10 in
  (* A fixed sparse graph from an honest SparseNetwork run, as in
     test_sparse_gossip. *)
  let graph =
    let corruption = Netsim.Corruption.none ~n in
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 9 in
    let outs =
      Mpc.Sparse_network.run net rng
        (Mpc.Params.make ~n ~h ~lambda:8 ~alpha:3 ())
        ~corruption ~adv:Mpc.Sparse_network.honest_adv
    in
    Array.map
      (function Mpc.Outcome.Output s -> s | Mpc.Outcome.Abort _ -> Util.Iset.empty)
      outs
  in
  let rng0 = Util.Prng.create 23 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "rumor-%d" i))) in
  List.iter
    (fun (name, adv) ->
      differential
        (Printf.sprintf "gossip/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 29 in
          let outs =
            Mpc.Gossip.run ?pool net rng (params n h) ~graph ~sources ~corruption ~adv
          in
          (outs, net)))
    [
      ("honest", Mpc.Gossip.honest_adv);
      ("gossip_equivocate", Mpc.Attacks.gossip_equivocate);
      ("gossip_forge", Mpc.Attacks.gossip_forge ~origin:0 ~value:(Bytes.of_string "forged"));
      ("gossip_suppress_warnings", Mpc.Attacks.gossip_suppress_warnings);
    ]

let test_attacks_equality_pairwise () =
  (* The keyed-substream parallel pairwise: per-pair prime selections come
     from [Prng.derive], so verdicts and every wire byte must match the
     sequential run at any jobs count — including under fingerprint
     tampering and verdict lies. *)
  let n = 10 in
  let members = [ 0; 1; 2; 3; 4; 5 ] in
  let tamper =
    {
      Mpc.Equality.tamper_fp =
        Some
          (fun ~me:_ ~dst:_ fp ->
            {
              fp with
              Crypto.Fingerprint.residues =
                Array.map succ fp.Crypto.Fingerprint.residues;
            });
      lie_verdict = None;
    }
  in
  let lie =
    { Mpc.Equality.tamper_fp = None; lie_verdict = Some (fun ~me:_ ~dst:_ _ -> true) }
  in
  List.iter
    (fun (name, adv, corrupted, value) ->
      differential_jobs
        (Printf.sprintf "equality_pairwise/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 31 in
          let verdicts =
            Mpc.Equality.pairwise ?pool net rng (params n 5) ~members ~value
              ~corruption:(corrupt n corrupted) ~adv
          in
          (verdicts, net)))
    [
      ("honest-equal", Mpc.Equality.honest_adv, [], fun _ -> Bytes.make 500 'v');
      ( "outlier",
        Mpc.Equality.honest_adv,
        [],
        fun i -> Bytes.of_string (if i = 2 then "odd one out" else "same") );
      ("tampered-fp", tamper, [ 0 ], fun _ -> Bytes.of_string "same everywhere");
      ( "lying-verdict",
        lie,
        [ 3 ],
        fun i -> Bytes.of_string (if i = 1 then "divergent" else "base") );
    ]

let test_attacks_enc_func () =
  let n = 8 in
  let participants = [ 0; 1; 2; 3 ] in
  let xor_eval inputs =
    let acc = Bytes.make 1 '\000' in
    List.iter
      (fun (_, b) ->
        Bytes.iter
          (fun c -> Bytes.set acc 0 (Char.chr (Char.code (Bytes.get acc 0) lxor Char.code c)))
          b)
      inputs;
    {
      Mpc.Enc_func.public_output = Bytes.of_string "pub";
      private_outputs = List.map (fun (i, _) -> (i, Bytes.copy acc)) inputs;
    }
  in
  let tamper =
    { Mpc.Enc_func.honest_adv with Mpc.Enc_func.tamper_partial = Some (fun ~me:_ ~dst:_ -> true) }
  in
  let drop =
    { Mpc.Enc_func.honest_adv with Mpc.Enc_func.drop_partial = Some (fun ~me:_ ~dst:_ -> true) }
  in
  List.iter
    (fun (name, adv, corrupted) ->
      differential_jobs
        (Printf.sprintf "enc_func/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 37 in
          let outs =
            Mpc.Enc_func.run ?pool net rng (params n 4) ~participants
              ~private_input:(fun i -> Bytes.make 4 (Char.chr (i + 65)))
              ~depth:3 ~eval:xor_eval ~corruption:(corrupt n corrupted) ~adv
          in
          (outs, net)))
    [
      ("honest", Mpc.Enc_func.honest_adv, []);
      ("tamper_partial", tamper, [ 1 ]);
      ("drop_partial", drop, [ 2 ]);
    ]

let test_attacks_theorem2 () =
  let n = 20 and h = 10 in
  let config =
    {
      Mpc.Local_mpc.params = params n h;
      pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
      circuit = Circuit.majority ~n;
      input_width = 1;
    }
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let rng0 = Util.Prng.create 41 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (name, adv) ->
      differential_jobs
        (Printf.sprintf "theorem2/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 43 in
          let outs = Mpc.Local_mpc.run_theorem2 ?pool net rng config ~corruption ~inputs ~adv in
          (outs, net)))
    [
      ("honest", Mpc.Local_mpc.honest_theorem2_adv);
      ( "gossip_equivocate",
        { Mpc.Local_mpc.honest_theorem2_adv with
          Mpc.Local_mpc.gossip_r1 = Mpc.Attacks.gossip_equivocate } );
      ( "tamper_pdec",
        { Mpc.Local_mpc.honest_theorem2_adv with
          Mpc.Local_mpc.tamper_pdec = Some (fun ~me:_ -> true) } );
    ]

let test_attacks_theorem4 () =
  let n = 25 and h = 12 in
  let config =
    {
      Mpc.Local_mpc.params = params n h;
      pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
      circuit = Circuit.majority ~n;
      input_width = 1;
    }
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let rng0 = Util.Prng.create 47 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (name, adv) ->
      differential_jobs
        (Printf.sprintf "theorem4/%s" name)
        (fun ?pool () ->
          let net = Netsim.Net.create n in
          let rng = Util.Prng.create 53 in
          let outs, costs =
            Mpc.Local_mpc.run_theorem4_metered ?pool net rng config ~corruption ~inputs ~adv
          in
          ((outs, costs), net)))
    [
      ("honest", Mpc.Local_mpc.honest_theorem4_adv);
      ("exchange_tamper", Mpc.Attacks.exchange_tamper);
      ("output_tamper", Mpc.Attacks.t4_output_tamper);
    ]

let () =
  Alcotest.run "net_parallel"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
          QCheck_alcotest.to_alcotest prop_run_round_matches_replay;
          Alcotest.test_case "skewed shard" `Quick test_skewed_shard;
          Alcotest.test_case "skewed shard: balanced plan" `Quick test_skewed_shard_balanced_plan;
          Alcotest.test_case "job counts cover all shards" `Quick test_job_counts_cover_all_shards;
          Alcotest.test_case "empty and singleton parties" `Quick test_empty_and_singleton_parties;
        ] );
      ( "party handle",
        [
          Alcotest.test_case "self-send rejected, round uncommitted" `Quick
            test_party_self_send_rejected;
          Alcotest.test_case "out-of-range send rejected" `Quick
            test_party_out_of_range_send_rejected;
          Alcotest.test_case "bad party lists rejected" `Quick test_run_round_bad_parties_rejected;
          Alcotest.test_case "recv_from inside round" `Quick test_recv_from_inside_round;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "broadcast adversaries" `Quick test_attacks_broadcast;
          Alcotest.test_case "all-to-all adversaries" `Quick test_attacks_all_to_all;
          Alcotest.test_case "committee adversaries" `Quick test_attacks_committee;
          Alcotest.test_case "mpc_abort adversaries" `Quick test_attacks_mpc_abort;
          Alcotest.test_case "gossip adversaries" `Quick test_attacks_gossip;
          Alcotest.test_case "equality pairwise adversaries, jobs 1/2/8" `Quick
            test_attacks_equality_pairwise;
          Alcotest.test_case "enc_func adversaries, jobs 1/2/8" `Quick test_attacks_enc_func;
          Alcotest.test_case "theorem2 adversaries, jobs 1/2/8" `Quick test_attacks_theorem2;
          Alcotest.test_case "theorem4 adversaries, jobs 1/2/8" `Quick test_attacks_theorem4;
        ] );
    ]
