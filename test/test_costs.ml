(* Machine-checked cost specs: every protocol's closed-form
   bit/message/round formula (Analysis.Costs) asserted against the
   network simulator's measured accounting — pinned at n ∈ {4, 6, 8},
   then fuzzed over random sizes. *)

let ns = [ 4; 6; 8 ]
let params ?(alpha = 2) n = Mpc.Params.make ~n ~h:(n / 2) ~lambda:8 ~alpha ()

let assert_spec name net (spec : Analysis.Costs.spec) env =
  let v =
    Analysis.Costs.check env spec ~bits:(Netsim.Net.total_bits net)
      ~messages:(Netsim.Net.messages_sent net)
      ~rounds:(Netsim.Net.rounds net)
  in
  if not v.Analysis.Costs.ok then
    Alcotest.failf "%s: %s" name (String.concat "; " v.Analysis.Costs.detail)

(* Same checks, boolean — for QCheck properties. *)
let spec_holds net (spec : Analysis.Costs.spec) env =
  (Analysis.Costs.check env spec ~bits:(Netsim.Net.total_bits net)
     ~messages:(Netsim.Net.messages_sent net)
     ~rounds:(Netsim.Net.rounds net))
    .Analysis.Costs.ok

let sim_pke seed =
  Crypto.Pke.make_simulated ~lwe_params:Crypto.Pke.bench_lwe_params ~seed ()

let build_graph ~seed ~n =
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create seed in
  let outs =
    Mpc.Sparse_network.run net rng (params n) ~corruption
      ~adv:Mpc.Sparse_network.honest_adv
  in
  Array.map
    (function Mpc.Outcome.Output s -> s | Mpc.Outcome.Abort _ -> Util.Iset.empty)
    outs

(* ---- pins: one honest execution per spec at n in {4, 6, 8} ---- *)

let test_pin_equality_run () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create 2 in
      let rng = Util.Prng.create n in
      let m = Util.Prng.bytes rng 128 in
      ignore (Mpc.Equality.run net rng (params n) ~p1:0 ~p2:1 ~m1:m ~m2:(Bytes.copy m));
      let open Analysis.Costs in
      assert_spec "equality.run" net
        (Mpc.Equality.cost_spec_run ~n:(Const n) ~lambda:(Const 8) ~len:(Const 128))
        (env []))
    ns

let test_pin_equality_pairwise () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (10 + n) in
      ignore
        (Mpc.Equality.pairwise net rng (params n)
           ~members:(List.init n (fun i -> i))
           ~value:(fun _ -> Bytes.make 64 'v')
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Equality.honest_adv);
      let open Analysis.Costs in
      assert_spec "equality.pairwise" net
        {
          name = "equality.pairwise";
          phases =
            Mpc.Equality.cost_phases_pairwise ~pre:"" ~k:(Const n) ~maxlen:(Const 64)
              ~n:(Const n) ~lambda:(Const 8);
          max_locality = None;
        }
        (env []))
    ns

let test_pin_broadcast variant () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (20 + n) in
      ignore
        (Mpc.Broadcast.run net rng (params n) ~variant ~sender:0
           ~value:(Bytes.make 48 'b')
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Broadcast.honest_adv);
      let open Analysis.Costs in
      assert_spec "broadcast" net
        (Mpc.Broadcast.cost_spec ~variant ~n:(Const n) ~lambda:(Const 8) ~len:(Const 48))
        (env []))
    ns

let a2a_spec ~variant ~n ~len =
  let open Analysis.Costs in
  Mpc.All_to_all.cost_spec ~variant ~k:(Const n)
    ~idsum:(Const (varint_sum_ids (List.init n (fun i -> i))))
    ~len:(Const len) ~n:(Const n) ~lambda:(Const 8)

let run_a2a ~variant ~n ~len ~seed () =
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create seed in
  ignore
    (Mpc.All_to_all.run net rng (params n) ~variant
       ~participants:(List.init n (fun i -> i))
       ~input:(fun i -> Bytes.make len (Char.chr (97 + (i mod 26))))
       ~corruption:(Netsim.Corruption.none ~n)
       ~adv:Mpc.All_to_all.honest_adv);
  net

let test_pin_all_to_all variant () =
  List.iter
    (fun n ->
      let net = run_a2a ~variant ~n ~len:32 ~seed:(30 + n) () in
      assert_spec "all_to_all" net (a2a_spec ~variant ~n ~len:32) (Analysis.Costs.env []))
    ns

let test_pin_committee () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (40 + n) in
      let obs = Analysis.Costs.Obs.create () in
      ignore
        (Mpc.Committee.run ~obs net rng (params n)
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Committee.honest_adv);
      let open Analysis.Costs in
      assert_spec "committee.run" net
        (Mpc.Committee.cost_spec ~n:(Const n) ~lambda:(Const 8))
        (env ~obs []))
    ns

let test_pin_sparse_network () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (50 + n) in
      ignore
        (Mpc.Sparse_network.run net rng (params n)
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Sparse_network.honest_adv);
      let open Analysis.Costs in
      assert_spec "sparse_network.run" net
        (Mpc.Sparse_network.cost_spec ~n:(Const n) ~h:(Const (n / 2)) ~lambda:(Const 8)
           ~alpha:(Const 2))
        (env []))
    ns

let run_gossip ~n ~len ~seed () =
  let graph = build_graph ~seed ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create (seed + 1) in
  let obs = Analysis.Costs.Obs.create () in
  let sources = List.init n (fun i -> (i, Bytes.make len (Char.chr (97 + (i mod 26))))) in
  let outs =
    Mpc.Gossip.run ~obs net rng (params n) ~graph ~sources
      ~corruption:(Netsim.Corruption.none ~n)
      ~adv:Mpc.Gossip.honest_adv
  in
  Array.iter
    (function
      | Mpc.Outcome.Output _ -> ()
      | Mpc.Outcome.Abort r -> Alcotest.failf "honest gossip aborted: %s" (Mpc.Outcome.reason_to_string r))
    outs;
  (net, obs)

let test_pin_gossip () =
  List.iter
    (fun n ->
      let net, obs = run_gossip ~n ~len:24 ~seed:(60 + n) () in
      let open Analysis.Costs in
      assert_spec "gossip.run" net (Mpc.Gossip.cost_spec ~len:(Const 24)) (env ~obs []))
    ns

let test_pin_local_committee () =
  List.iter
    (fun n ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (70 + n) in
      let obs = Analysis.Costs.Obs.create () in
      ignore
        (Mpc.Local_committee.run ~obs net rng (params n)
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Local_committee.honest_adv);
      let open Analysis.Costs in
      assert_spec "local_committee.run" net
        (Mpc.Local_committee.cost_spec ~n:(Const n) ~h:(Const (n / 2)) ~lambda:(Const 8)
           ~alpha:(Const 2))
        (env ~obs []))
    ns

let test_pin_mpc_abort () =
  List.iter
    (fun n ->
      let circuit = Circuit.parity ~n in
      let config =
        { Mpc.Mpc_abort.params = params n; pke = sim_pke (80 + n); circuit; input_width = 1 }
      in
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (80 + n) in
      let obs = Analysis.Costs.Obs.create () in
      ignore
        (Mpc.Mpc_abort.run ~obs net rng config
           ~corruption:(Netsim.Corruption.none ~n)
           ~inputs:(Array.init n (fun i -> i land 1))
           ~adv:Mpc.Mpc_abort.honest_adv);
      let open Analysis.Costs in
      assert_spec "mpc_abort.run" net
        (Mpc.Mpc_abort.cost_spec ~pke:config.pke
           ~depth:(Const (Circuit.depth circuit))
           ~input_width:(Const 1)
           ~out_bits:(Const (Circuit.num_outputs circuit))
           ~n:(Const n) ~lambda:(Const 8))
        (env ~obs []))
    ns

let test_pin_theorem2 () =
  List.iter
    (fun n ->
      let circuit = Circuit.parity ~n in
      let config =
        { Mpc.Local_mpc.params = params n; pke = sim_pke (90 + n); circuit; input_width = 1 }
      in
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (90 + n) in
      let obs = Analysis.Costs.Obs.create () in
      ignore
        (Mpc.Local_mpc.run_theorem2 ~obs net rng config
           ~corruption:(Netsim.Corruption.none ~n)
           ~inputs:(Array.init n (fun i -> i land 1))
           ~adv:Mpc.Local_mpc.honest_theorem2_adv);
      let open Analysis.Costs in
      assert_spec "local_mpc.theorem2" net
        (Mpc.Local_mpc.cost_spec_theorem2 ~n:(Const n) ~h:(Const (n / 2)) ~lambda:(Const 8)
           ~alpha:(Const 2)
           ~depth:(Const (Circuit.depth circuit))
           ~input_width:(Const 1)
           ~out_bits:(Const (Circuit.num_outputs circuit)))
        (env ~obs []))
    ns

let test_pin_theorem4 () =
  List.iter
    (fun n ->
      let circuit = Circuit.parity ~n in
      let pke = sim_pke (100 + n) in
      let config = { Mpc.Local_mpc.params = params n; pke; circuit; input_width = 1 } in
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (100 + n) in
      let obs = Analysis.Costs.Obs.create () in
      ignore
        (Mpc.Local_mpc.run_theorem4 ~obs net rng config
           ~corruption:(Netsim.Corruption.none ~n)
           ~inputs:(Array.init n (fun i -> i land 1))
           ~adv:Mpc.Local_mpc.honest_theorem4_adv);
      let open Analysis.Costs in
      assert_spec "local_mpc.theorem4" net
        (Mpc.Local_mpc.cost_spec_theorem4 ~pke
           ~depth:(Const (Circuit.depth circuit))
           ~input_width:(Const 1)
           ~out_bits:(Const (Circuit.num_outputs circuit))
           ~n:(Const n) ~h:(Const (n / 2)) ~lambda:(Const 8) ~alpha:(Const 2))
        (env ~obs []))
    ns

let test_pin_gmw () =
  List.iter
    (fun n ->
      let circuit = Circuit.majority ~n in
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (110 + n) in
      ignore
        (Mpc.Gmw.run net rng ~circuit ~input_width:1
           ~inputs:(Array.init n (fun i -> i land 1))
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Gmw.honest_adv);
      let open Analysis.Costs in
      assert_spec "gmw.run" net
        (Mpc.Gmw.cost_spec ~circuit ~input_width:1 ~n:(Const n))
        (env []))
    ns

let test_pin_two_party () =
  (* n here is the per-party input width — the protocol is fixed at two
     parties. *)
  List.iter
    (fun width ->
      let circuit = Circuit.sum ~n:2 ~width in
      let net = Netsim.Net.create 2 in
      let rng = Util.Prng.create (120 + width) in
      (match Mpc.Two_party.run net rng ~circuit ~input_width:width ~x0:3 ~x1:5 with
      | Mpc.Outcome.Output _ -> ()
      | Mpc.Outcome.Abort r -> Alcotest.failf "yao aborted: %s" (Mpc.Outcome.reason_to_string r));
      assert_spec "two_party.yao" net
        (Mpc.Two_party.cost_spec ~circuit ~input_width:width)
        (Analysis.Costs.env []))
    ns

(* ---- QCheck: eval = measured over random sizes ---- *)

let prop_equality =
  QCheck.Test.make ~count:60 ~name:"cost spec: equality.run over random n/len/content"
    QCheck.(triple (int_range 2 64) (int_bound 2048) bool)
    (fun (n, len, equal) ->
      let net = Netsim.Net.create 2 in
      let rng = Util.Prng.create (n + len) in
      let m1 = Util.Prng.bytes rng len in
      let m2 = if equal then Bytes.copy m1 else Util.Prng.bytes rng len in
      ignore (Mpc.Equality.run net rng (params n) ~p1:0 ~p2:1 ~m1 ~m2);
      let open Analysis.Costs in
      spec_holds net
        (Mpc.Equality.cost_spec_run ~n:(Const n) ~lambda:(Const 8) ~len:(Const len))
        (env []))

let prop_broadcast =
  QCheck.Test.make ~count:60 ~name:"cost spec: broadcast over random n/len/variant"
    QCheck.(triple (int_range 3 24) (int_bound 512) bool)
    (fun (n, len, naive) ->
      let variant = if naive then Mpc.Broadcast.Naive else Mpc.Broadcast.Fingerprinted in
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create (n + len) in
      ignore
        (Mpc.Broadcast.run net rng (params n) ~variant ~sender:(n / 2)
           ~value:(Util.Prng.bytes rng len)
           ~corruption:(Netsim.Corruption.none ~n)
           ~adv:Mpc.Broadcast.honest_adv);
      let open Analysis.Costs in
      spec_holds net
        (Mpc.Broadcast.cost_spec ~variant ~n:(Const n) ~lambda:(Const 8) ~len:(Const len))
        (env []))

(* "jobs=1" in the names: each property runs its protocol sequentially,
   on the calling domain. *)
let prop_all_to_all =
  QCheck.Test.make ~count:40 ~name:"cost spec: all_to_all at jobs=1"
    QCheck.(triple (int_range 3 16) (int_bound 128) bool)
    (fun (n, len, naive) ->
      let variant = if naive then Mpc.All_to_all.Naive else Mpc.All_to_all.Fingerprinted in
      let net = run_a2a ~variant ~n ~len ~seed:(n + len) () in
      spec_holds net (a2a_spec ~variant ~n ~len) (Analysis.Costs.env []))

let prop_gossip =
  QCheck.Test.make ~count:25 ~name:"cost spec: gossip at jobs=1"
    QCheck.(pair (int_range 6 24) (int_bound 96))
    (fun (n, len) ->
      let net, obs = run_gossip ~n ~len ~seed:(n + len) () in
      let open Analysis.Costs in
      spec_holds net (Mpc.Gossip.cost_spec ~len:(Const len)) (env ~obs []))

let () =
  Alcotest.run "costs-vs-measured"
    [
      ( "pins n=4,6,8",
        [
          Alcotest.test_case "equality.run" `Quick test_pin_equality_run;
          Alcotest.test_case "equality.pairwise" `Quick test_pin_equality_pairwise;
          Alcotest.test_case "broadcast naive" `Quick (test_pin_broadcast Mpc.Broadcast.Naive);
          Alcotest.test_case "broadcast fingerprinted" `Quick
            (test_pin_broadcast Mpc.Broadcast.Fingerprinted);
          Alcotest.test_case "all_to_all naive" `Quick
            (test_pin_all_to_all Mpc.All_to_all.Naive);
          Alcotest.test_case "all_to_all fingerprinted" `Quick
            (test_pin_all_to_all Mpc.All_to_all.Fingerprinted);
          Alcotest.test_case "committee" `Quick test_pin_committee;
          Alcotest.test_case "sparse_network" `Quick test_pin_sparse_network;
          Alcotest.test_case "gossip" `Quick test_pin_gossip;
          Alcotest.test_case "local_committee" `Quick test_pin_local_committee;
          Alcotest.test_case "mpc_abort (Alg 3)" `Quick test_pin_mpc_abort;
          Alcotest.test_case "theorem 2" `Quick test_pin_theorem2;
          Alcotest.test_case "theorem 4 (Alg 8)" `Quick test_pin_theorem4;
          Alcotest.test_case "gmw" `Quick test_pin_gmw;
          Alcotest.test_case "two_party yao" `Quick test_pin_two_party;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_equality;
          QCheck_alcotest.to_alcotest prop_broadcast;
          QCheck_alcotest.to_alcotest prop_all_to_all;
          QCheck_alcotest.to_alcotest prop_gossip;
        ] );
    ]
