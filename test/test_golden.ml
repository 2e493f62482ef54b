(* Golden transcripts: every protocol entry point that steps parties
   round by round, and every [Mpc.Attacks] case run against them, on the
   synchronous transport and on a seeded adversarial event transport.

   Each run's network sits behind a forwarding transport that appends
   every delivered (src, dst, payload) to a log, in delivery order, with
   a marker per clock tick.  A run is pinned by the MD5 of that log, the
   MD5 of its rendered outcomes, its totals (bits, messages, rounds, max
   locality) and the MD5 of its per-party bits and localities.  The
   constants were recorded with parties stepped through a two-phase
   round driver that committed sends in ascending sender order, so they
   also pin the order in which the per-party loops submit their sends:
   a change in what a party sends, when, or in what order moves the
   transcript digest on at least one transport (the event transport's
   schedule is keyed by submission number). *)

let params n h = Mpc.Params.make ~n ~h ~lambda:8 ~alpha:2 ()
let corrupt n ids = Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list ids)

(* The [--async] bench tier's schedule: latency 1-3 ticks, one tick of
   horizon, an adversary holding a quarter of the deliverable messages. *)
let async_cfg =
  {
    Netsim.Event_net.latency = Netsim.Event_net.Uniform (1, 3);
    horizon = 1;
    scheduler = Netsim.Event_net.Adversarial { hold = 0.25 };
  }

type transport = Sync | Async

let transports = [ ("sync", Sync); ("async", Async) ]

(* The deadline a phase waits on its transport: one step in lockstep,
   the fairness span under the event schedule. *)
let deadline = function Sync -> 1 | Async -> Netsim.Event_net.span async_cfg

(* A network of [n] parties whose deliveries append to [log]. *)
let recording_net kind log n =
  let tr =
    match kind with
    | Sync -> Netsim.Transport.sync ()
    | Async -> Netsim.Event_net.transport ~rng:(Util.Prng.create 0xA5ED) async_cfg
  in
  let advance ~deliver =
    Buffer.add_char log '|';
    tr.Netsim.Transport.advance ~deliver:(fun ~src ~dst payload ->
        Buffer.add_string log (Printf.sprintf "%d>%d:%d:" src dst (Bytes.length payload));
        Buffer.add_bytes log payload;
        deliver ~src ~dst payload)
  in
  Netsim.Net.create ~transport:{ tr with Netsim.Transport.advance } n

let md5 s = Digest.to_hex (Digest.string s)

(* ---- Rendering outcomes ---------------------------------------------- *)

let list f l = "[" ^ String.concat ";" (List.map f l) ^ "]"
let array f a = list f (Array.to_list a)
let bytes b = Printf.sprintf "%S" (Bytes.to_string b)
let ints = list string_of_int
let iset s = ints (Util.Iset.to_sorted_list s)

let outcome f = function
  | Mpc.Outcome.Output v -> "O " ^ f v
  | Mpc.Outcome.Abort r -> "A " ^ Mpc.Outcome.reason_to_string r

let pair f g (a, b) = "(" ^ f a ^ "," ^ g b ^ ")"
let committee_view (v : Mpc.Committee.view) = ints v.committee ^ if v.elected then "*" else ""

(* Plain records of ints: their marshalled bytes are canonical. *)
let record r = md5 (Marshal.to_string r [])

(* ---- One pinned run ---------------------------------------------------- *)

(* [run kind] builds its network with the given maker, runs a protocol
   and renders what it returned.  An exception is part of the result. *)
let observe (run : transport -> (int -> Netsim.Net.t) -> Netsim.Net.t * string) kind =
  let log = Buffer.create 4096 in
  let made = ref None in
  let mk n =
    let net = recording_net kind log n in
    made := Some net;
    net
  in
  let rendered =
    match run kind mk with
    | _, s -> s
    | exception e -> "raised " ^ Printexc.to_string e
  in
  let net = Option.get !made in
  let n = Netsim.Net.n net in
  let per_party =
    String.concat ","
      (List.init n (fun i ->
           Printf.sprintf "%d/%d/%d" (Netsim.Net.bits_sent net i)
             (Netsim.Net.bits_received net i) (Netsim.Net.locality net i)))
  in
  Printf.sprintf "transcript=%s outcomes=%s bits=%d messages=%d rounds=%d locality=%d parties=%s"
    (md5 (Buffer.contents log)) (md5 rendered) (Netsim.Net.total_bits net)
    (Netsim.Net.messages_sent net) (Netsim.Net.rounds net) (Netsim.Net.max_locality net)
    (md5 per_party)

(* Every run of every case is observed before the verdict, so one
   failure lists all the runs that moved. *)
let check_cases expected cases () =
  let moved =
    List.concat_map
      (fun (name, run) ->
        List.filter_map
          (fun (tname, kind) ->
            let key = name ^ "/" ^ tname in
            let got = observe run kind in
            match List.assoc_opt key expected with
            | Some want when want = got -> None
            | Some want -> Some (Printf.sprintf "%s\n  want %s\n  got  %s" key want got)
            | None -> Some (Printf.sprintf "(%S,\n %S);" key got))
          transports)
      cases
  in
  if moved <> [] then Alcotest.failf "%d run(s) moved:\n%s" (List.length moved) (String.concat "\n" moved)

(* ---- The protocols ------------------------------------------------------ *)

let broadcast ~adv ~corruption ~variant kind mk =
  let n = 12 in
  let net = mk n in
  let outs =
    Mpc.Broadcast.run ~deadline:(deadline kind) net (Util.Prng.create 42) (params n 6) ~variant
      ~sender:0 ~value:(Bytes.of_string "value") ~corruption ~adv
  in
  (net, array (outcome bytes) outs)

let all_to_all ~adv ~corruption ~variant kind mk =
  let n = 10 in
  let net = mk n in
  let outs =
    Mpc.All_to_all.run ~deadline:(deadline kind) net (Util.Prng.create 7) (params n 5) ~variant
      ~participants:(List.init n Fun.id)
      ~input:(fun i -> Bytes.of_string (Printf.sprintf "input-%d" i))
      ~corruption ~adv
  in
  (net, list (pair string_of_int (outcome (list (pair string_of_int bytes)))) outs)

let committee_corruption = Netsim.Corruption.random (Util.Prng.create 11) ~n:24 ~h:12

let committee ~adv kind mk =
  let n = 24 in
  let net = mk n in
  let outs =
    Mpc.Committee.run ~deadline:(deadline kind) net (Util.Prng.create 13) (params n 12)
      ~corruption:committee_corruption ~adv
  in
  (net, array (outcome committee_view) outs)

let mpc_config n circuit =
  {
    Mpc.Mpc_abort.params = params n (n / 2);
    pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
    circuit;
    input_width = 1;
  }

let mpc_corruption = Netsim.Corruption.random (Util.Prng.create 17) ~n:12 ~h:6

let mpc_abort ~adv kind mk =
  let n = 12 in
  let net = mk n in
  let outs, costs =
    Mpc.Mpc_abort.run_metered ~deadline:(deadline kind) net (Util.Prng.create 19)
      (mpc_config n (Circuit.parity ~n))
      ~corruption:mpc_corruption
      ~inputs:(Array.init n (fun i -> i land 1))
      ~adv
  in
  (net, array (outcome bytes) outs ^ record costs)

let mpc_abort_run kind mk =
  let n = 12 in
  let net = mk n in
  let outs =
    Mpc.Mpc_abort.run ~deadline:(deadline kind) net (Util.Prng.create 19)
      (mpc_config n (Circuit.parity ~n))
      ~corruption:mpc_corruption
      ~inputs:(Array.init n (fun i -> i land 1))
      ~adv:Mpc.Mpc_abort.honest_adv
  in
  (net, array (outcome bytes) outs)

(* A fixed sparse graph from an honest SparseNetwork run. *)
let gossip_graph =
  lazy
    (let n = 20 in
     let outs =
       Mpc.Sparse_network.run (Netsim.Net.create n) (Util.Prng.create 9)
         (Mpc.Params.make ~n ~h:10 ~lambda:8 ~alpha:3 ())
         ~corruption:(Netsim.Corruption.none ~n) ~adv:Mpc.Sparse_network.honest_adv
     in
     Array.map
       (function Mpc.Outcome.Output s -> s | Mpc.Outcome.Abort _ -> Util.Iset.empty)
       outs)

let gossip ~adv kind mk =
  let n = 20 in
  let net = mk n in
  let outs =
    Mpc.Gossip.run ~deadline:(deadline kind) net (Util.Prng.create 29) (params n 10)
      ~graph:(Lazy.force gossip_graph)
      ~sources:(List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "rumor-%d" i))))
      ~corruption:(Netsim.Corruption.random (Util.Prng.create 23) ~n ~h:10)
      ~adv
  in
  (net, array (outcome (list (pair string_of_int bytes))) outs)

let equality ~adv ~corrupted ~value kind mk =
  let n = 10 in
  let net = mk n in
  let verdicts =
    Mpc.Equality.pairwise ~deadline:(deadline kind) net (Util.Prng.create 31) (params n 5)
      ~members:[ 0; 1; 2; 3; 4; 5 ] ~value ~corruption:(corrupt n corrupted) ~adv
  in
  (net, list (pair string_of_int string_of_bool) verdicts)

let enc_func ~adv ~corrupted kind mk =
  let n = 8 in
  let net = mk n in
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
  let outs =
    Mpc.Enc_func.run ~deadline:(deadline kind) net (Util.Prng.create 37) (params n 4)
      ~participants:[ 0; 1; 2; 3 ]
      ~private_input:(fun i -> Bytes.make 4 (Char.chr (i + 65)))
      ~depth:3 ~eval:xor_eval ~corruption:(corrupt n corrupted) ~adv
  in
  (net, list (pair string_of_int (outcome (pair bytes bytes))) outs)

let local_config n h =
  {
    Mpc.Local_mpc.params = params n h;
    pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
    circuit = Circuit.majority ~n;
    input_width = 1;
  }

let theorem2 ~adv _kind mk =
  let n = 20 and h = 10 in
  let net = mk n in
  let outs =
    Mpc.Local_mpc.run_theorem2 net (Util.Prng.create 43) (local_config n h)
      ~corruption:(Netsim.Corruption.random (Util.Prng.create 41) ~n ~h)
      ~inputs:(Array.init n (fun i -> i mod 2))
      ~adv
  in
  (net, array (outcome bytes) outs)

let theorem4_corruption = Netsim.Corruption.random (Util.Prng.create 47) ~n:25 ~h:12

let theorem4 ~adv _kind mk =
  let n = 25 in
  let net = mk n in
  let outs, costs =
    Mpc.Local_mpc.run_theorem4_metered net (Util.Prng.create 53) (local_config n 12)
      ~corruption:theorem4_corruption
      ~inputs:(Array.init n (fun i -> i mod 2))
      ~adv
  in
  (net, array (outcome bytes) outs ^ record costs)

let theorem4_run _kind mk =
  let n = 25 in
  let net = mk n in
  let outs =
    Mpc.Local_mpc.run_theorem4 net (Util.Prng.create 53) (local_config n 12)
      ~corruption:theorem4_corruption
      ~inputs:(Array.init n (fun i -> i mod 2))
      ~adv:Mpc.Local_mpc.honest_theorem4_adv
  in
  (net, array (outcome bytes) outs)

let local_committee _kind mk =
  let n = 32 and h = 16 in
  let net = mk n in
  let r =
    Mpc.Local_committee.run net (Util.Prng.create 59) (params n h)
      ~corruption:(Netsim.Corruption.random (Util.Prng.create 61) ~n ~h)
      ~adv:Mpc.Local_committee.honest_adv
  in
  (net, array (outcome committee_view) r.Mpc.Local_committee.views ^ array iset r.graph)

let sparse_params n = Mpc.Params.make ~n ~h:(n / 2) ~lambda:8 ~alpha:3 ()

let sparse_network ~adv ~corrupted _kind mk =
  let n = 20 in
  let net = mk n in
  let outs =
    Mpc.Sparse_network.run net (Util.Prng.create 67) (sparse_params n)
      ~corruption:(corrupt n corrupted) ~adv
  in
  (net, array (outcome iset) outs)

let sparse_network_iter _kind mk =
  let n = 20 in
  let net = mk n in
  let seen = ref [] in
  Mpc.Sparse_network.run_iter net (Util.Prng.create 67) (sparse_params n)
    ~corruption:(Netsim.Corruption.none ~n) ~adv:Mpc.Sparse_network.honest_adv
    ~f:(fun i o -> seen := (string_of_int i ^ ":" ^ outcome iset o) :: !seen);
  (net, String.concat ";" (List.rev !seen))

(* ---- Cases ------------------------------------------------------------- *)

let broadcast_cases =
  List.concat_map
    (fun (name, adv, corrupted) ->
      List.map
        (fun (vname, variant) ->
          ( Printf.sprintf "broadcast/%s/%s" name vname,
            broadcast ~adv ~corruption:(corrupt 12 corrupted) ~variant ))
        [ ("naive", Mpc.Broadcast.Naive); ("fingerprinted", Mpc.Broadcast.Fingerprinted) ])
    [
      ( "equivocating_sender",
        Mpc.Attacks.equivocating_sender ~v1:(Bytes.of_string "aaaa") ~v2:(Bytes.of_string "bbbb"),
        [ 0 ] );
      ("lying_echo", Mpc.Attacks.lying_echo ~fake:(Bytes.of_string "zzzz"), [ 3 ]);
      ("partial_sender", Mpc.Attacks.partial_sender ~recipients:(Util.Iset.of_list [ 1; 2; 3 ]), [ 0 ]);
    ]

let all_to_all_cases =
  List.map
    (fun (vname, variant) ->
      ( "all_to_all/split_input/" ^ vname,
        all_to_all
          ~adv:(Mpc.Attacks.split_input ~v1:(Bytes.of_string "left") ~v2:(Bytes.of_string "right"))
          ~corruption:(corrupt 10 [ 2 ]) ~variant ))
    [ ("naive", Mpc.All_to_all.Naive); ("fingerprinted", Mpc.All_to_all.Fingerprinted) ]

let committee_cases =
  List.map
    (fun (name, adv) -> ("committee/" ^ name, committee ~adv))
    [
      ("selective_claim", Mpc.Attacks.selective_claim ~cutoff:8);
      ("claim_all", Mpc.Attacks.claim_all);
      ("lying_view_check", Mpc.Attacks.lying_view_check);
    ]

let mpc_abort_cases =
  List.map
    (fun (name, adv) -> ("mpc_abort/" ^ name, mpc_abort ~adv))
    [
      ("honest", Mpc.Mpc_abort.honest_adv);
      ("pk_equivocation", Mpc.Attacks.pk_equivocation);
      ("ct_equivocation", Mpc.Attacks.ct_equivocation);
      ("bad_partial_decryptions", Mpc.Attacks.bad_partial_decryptions);
      ("output_tamper", Mpc.Attacks.output_tamper);
    ]

let gossip_cases =
  List.map
    (fun (name, adv) -> ("gossip/" ^ name, gossip ~adv))
    [
      ("honest", Mpc.Gossip.honest_adv);
      ("gossip_equivocate", Mpc.Attacks.gossip_equivocate);
      ("gossip_forge", Mpc.Attacks.gossip_forge ~origin:0 ~value:(Bytes.of_string "forged"));
      ("gossip_suppress_warnings", Mpc.Attacks.gossip_suppress_warnings);
    ]

let equality_cases =
  let tamper =
    {
      Mpc.Equality.tamper_fp =
        Some
          (fun ~me:_ ~dst:_ fp ->
            { fp with Crypto.Fingerprint.residues = Array.map succ fp.Crypto.Fingerprint.residues });
      lie_verdict = None;
    }
  in
  let lie = { Mpc.Equality.tamper_fp = None; lie_verdict = Some (fun ~me:_ ~dst:_ _ -> true) } in
  List.map
    (fun (name, adv, corrupted, value) -> ("equality/" ^ name, equality ~adv ~corrupted ~value))
    [
      ("honest-equal", Mpc.Equality.honest_adv, [], fun _ -> Bytes.make 500 'v');
      ( "outlier",
        Mpc.Equality.honest_adv,
        [],
        fun i -> Bytes.of_string (if i = 2 then "odd one out" else "same") );
      ("tampered-fp", tamper, [ 0 ], fun _ -> Bytes.of_string "same everywhere");
      ("lying-verdict", lie, [ 3 ], fun i -> Bytes.of_string (if i = 1 then "divergent" else "base"));
    ]

let enc_func_cases =
  List.map
    (fun (name, adv, corrupted) -> ("enc_func/" ^ name, enc_func ~adv ~corrupted))
    [
      ("honest", Mpc.Enc_func.honest_adv, []);
      ( "tamper_partial",
        { Mpc.Enc_func.honest_adv with Mpc.Enc_func.tamper_partial = Some (fun ~me:_ ~dst:_ -> true) },
        [ 1 ] );
      ( "drop_partial",
        { Mpc.Enc_func.honest_adv with Mpc.Enc_func.drop_partial = Some (fun ~me:_ ~dst:_ -> true) },
        [ 2 ] );
    ]

let theorem2_cases =
  List.map
    (fun (name, adv) -> ("theorem2/" ^ name, theorem2 ~adv))
    [
      ("honest", Mpc.Local_mpc.honest_theorem2_adv);
      ( "gossip_equivocate",
        { Mpc.Local_mpc.honest_theorem2_adv with
          Mpc.Local_mpc.gossip_r1 = Mpc.Attacks.gossip_equivocate } );
      ( "tamper_pdec",
        { Mpc.Local_mpc.honest_theorem2_adv with
          Mpc.Local_mpc.tamper_pdec = Some (fun ~me:_ -> true) } );
    ]

let theorem4_cases =
  List.map
    (fun (name, adv) -> ("theorem4/" ^ name, theorem4 ~adv))
    [
      ("honest", Mpc.Local_mpc.honest_theorem4_adv);
      ("exchange_tamper", Mpc.Attacks.exchange_tamper);
      ("output_tamper", Mpc.Attacks.t4_output_tamper);
    ]

(* Honest runs of the entry points the attack cases leave out. *)
let entry_cases =
  [
    ( "broadcast/honest/naive",
      broadcast ~adv:Mpc.Broadcast.honest_adv ~corruption:(corrupt 12 []) ~variant:Mpc.Broadcast.Naive );
    ( "broadcast/honest/fingerprinted",
      broadcast ~adv:Mpc.Broadcast.honest_adv ~corruption:(corrupt 12 [])
        ~variant:Mpc.Broadcast.Fingerprinted );
    ( "all_to_all/honest/naive",
      all_to_all ~adv:Mpc.All_to_all.honest_adv ~corruption:(corrupt 10 [])
        ~variant:Mpc.All_to_all.Naive );
    ( "all_to_all/honest/fingerprinted",
      all_to_all ~adv:Mpc.All_to_all.honest_adv ~corruption:(corrupt 10 [])
        ~variant:Mpc.All_to_all.Fingerprinted );
    ("committee/honest", committee ~adv:Mpc.Committee.honest_adv);
    ("mpc_abort.run/honest", mpc_abort_run);
    ("theorem4.run/honest", theorem4_run);
    ("local_committee/honest", local_committee);
    ( "sparse_network/honest",
      sparse_network ~adv:Mpc.Sparse_network.honest_adv ~corrupted:[] );
    ( "sparse_network/flood_victim",
      sparse_network ~adv:(Mpc.Attacks.flood_victim ~victim:3) ~corrupted:[ 0; 1; 2; 4; 5 ] );
    ("sparse_network.run_iter/honest", sparse_network_iter);
  ]

(* ---- Constants --------------------------------------------------------- *)

let expected =
  [
    ( "broadcast/equivocating_sender/naive/sync",
      "transcript=569f8a157d63511ecd190b4762a37343 outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=6776 messages=143 rounds=2 locality=11 parties=ec1e0c40dd40bcadd69a0078facd8c0f" );
    ( "broadcast/equivocating_sender/naive/async",
      "transcript=1a13ba3df3690810efcacc4471394b05 outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=6776 messages=143 rounds=8 locality=11 parties=ec1e0c40dd40bcadd69a0078facd8c0f" );
    ( "broadcast/equivocating_sender/fingerprinted/sync",
      "transcript=4cf3dcdbc79a88fea382e148291daccb outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=22880 messages=143 rounds=2 locality=11 parties=d4b9c141f920a8e9c851d49f58185f3a" );
    ( "broadcast/equivocating_sender/fingerprinted/async",
      "transcript=5bad2ebf233e267722645f2e4a29712d outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=22880 messages=143 rounds=8 locality=11 parties=d4b9c141f920a8e9c851d49f58185f3a" );
    ( "broadcast/lying_echo/naive/sync",
      "transcript=ea4e465bd84d826a36841823e67952cd outcomes=2cad2e869c00a1858fc17178631eae87 bits=7744 messages=143 rounds=2 locality=11 parties=f0582c46da2af5e9d7687a124bd88a7d" );
    ( "broadcast/lying_echo/naive/async",
      "transcript=d1b2fc58bed0c195f2b21e2c4cf97c39 outcomes=2cad2e869c00a1858fc17178631eae87 bits=7744 messages=143 rounds=8 locality=11 parties=f0582c46da2af5e9d7687a124bd88a7d" );
    ( "broadcast/lying_echo/fingerprinted/sync",
      "transcript=4bf6f81ea52f0d0b4b6f6af19fe2fae6 outcomes=2cad2e869c00a1858fc17178631eae87 bits=23288 messages=143 rounds=2 locality=11 parties=0f757a070603f0a7e187de714d0d3554" );
    ( "broadcast/lying_echo/fingerprinted/async",
      "transcript=673dd08b3ff22c45e4039552778dad62 outcomes=2cad2e869c00a1858fc17178631eae87 bits=23288 messages=143 rounds=8 locality=11 parties=0f757a070603f0a7e187de714d0d3554" );
    ( "broadcast/partial_sender/naive/sync",
      "transcript=3b7504c96139d2db9b63c6d1d8705c09 outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=2840 messages=127 rounds=2 locality=11 parties=1a5295c849efaaa6cbaaa14d10a1c184" );
    ( "broadcast/partial_sender/naive/async",
      "transcript=9d820d13154049d55573db65c209753e outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=2840 messages=127 rounds=8 locality=11 parties=1a5295c849efaaa6cbaaa14d10a1c184" );
    ( "broadcast/partial_sender/fingerprinted/sync",
      "transcript=dc1aa5eb8f1749984e3cbe26c7030594 outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=7048 messages=127 rounds=2 locality=11 parties=20734a24047d34a992b5ecd7417891d8" );
    ( "broadcast/partial_sender/fingerprinted/async",
      "transcript=eba0005aeca02576bb4f336eb2d6fcd1 outcomes=3255965d5b6f10c2dd4e283ccc0f340d bits=7048 messages=127 rounds=8 locality=11 parties=20734a24047d34a992b5ecd7417891d8" );
    ( "all_to_all/split_input/naive/sync",
      "transcript=be343b356dd55e6dace722c2791889bb outcomes=c79d5f6e1ec53698cff3742f21a2fa2f bits=62480 messages=180 rounds=2 locality=9 parties=dad560bb4da600cb816feeea5a77099a" );
    ( "all_to_all/split_input/naive/async",
      "transcript=e4a2eb8d30d1b55171b9ac9128fd5164 outcomes=c79d5f6e1ec53698cff3742f21a2fa2f bits=62480 messages=180 rounds=8 locality=9 parties=dad560bb4da600cb816feeea5a77099a" );
    ( "all_to_all/split_input/fingerprinted/sync",
      "transcript=2c0354d95f75f754eb4c84a5d8696380 outcomes=9f071efa775cd8222c160f2e07ee8ecc bits=12600 messages=180 rounds=3 locality=9 parties=6aef6acc724a00796d028fca48a1145a" );
    ( "all_to_all/split_input/fingerprinted/async",
      "transcript=d77db5ab3d9275ce985d4dea34d438b3 outcomes=9f071efa775cd8222c160f2e07ee8ecc bits=12600 messages=180 rounds=12 locality=9 parties=6aef6acc724a00796d028fca48a1145a" );
    ( "committee/selective_claim/sync",
      "transcript=c6b94b5d999ae7bb97aa1ab409a540d0 outcomes=cc22bce96c92d1786e5cbd8e761bdfcb bits=8560 messages=287 rounds=3 locality=23 parties=96362c37735d100f3efd9beadd5c9627" );
    ( "committee/selective_claim/async",
      "transcript=5e5f44b72ad3a2e286cb3cfdaa6626ff outcomes=cc22bce96c92d1786e5cbd8e761bdfcb bits=8560 messages=287 rounds=12 locality=23 parties=96362c37735d100f3efd9beadd5c9627" );
    ( "committee/claim_all/sync",
      "transcript=1dea27b1fcca2a8bb515912e50f3c074 outcomes=c186e648a3ff09bebf259770e1641be5 bits=26232 messages=663 rounds=3 locality=23 parties=e932f7d59f4e54d10e7fee6b663d2f40" );
    ( "committee/claim_all/async",
      "transcript=19a3e658f9a63bf9d3578c84cb0125f8 outcomes=c186e648a3ff09bebf259770e1641be5 bits=26232 messages=663 rounds=12 locality=23 parties=e932f7d59f4e54d10e7fee6b663d2f40" );
    ( "committee/lying_view_check/sync",
      "transcript=3e26cd0a7b0982d855f9ef67ee219419 outcomes=c6e8a0f384be61ac5f59dcdcae89da02 bits=9488 messages=320 rounds=3 locality=23 parties=ffb338fdd96b9349bcc1ddb53fd7b574" );
    ( "committee/lying_view_check/async",
      "transcript=1cd3a593c843607c495f1d63e1266f4c outcomes=c6e8a0f384be61ac5f59dcdcae89da02 bits=9488 messages=320 rounds=12 locality=23 parties=ffb338fdd96b9349bcc1ddb53fd7b574" );
    ( "mpc_abort/honest/sync",
      "transcript=8aae217114660f87f4749a6f9c94229f outcomes=54acd1e4ffa786f7e26b6812386333c4 bits=27945920 messages=1452 rounds=16 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "mpc_abort/honest/async",
      "transcript=ecaf7d27beaee28c42473942bbddb294 outcomes=54acd1e4ffa786f7e26b6812386333c4 bits=27945920 messages=1452 rounds=61 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "mpc_abort/pk_equivocation/sync",
      "transcript=8686fc98c90fed0be67c98d4f59ae6aa outcomes=6c15d8af38bfd73648c177a76b2c6e3f bits=27240080 messages=912 rounds=16 locality=11 parties=1fa550949c32d707ef8e14b3078998dd" );
    ( "mpc_abort/pk_equivocation/async",
      "transcript=430c66bc24e022ae164f3fcca35b7110 outcomes=6c15d8af38bfd73648c177a76b2c6e3f bits=27240080 messages=912 rounds=60 locality=11 parties=1fa550949c32d707ef8e14b3078998dd" );
    ( "mpc_abort/ct_equivocation/sync",
      "transcript=d9819031257c0f4ea2b0d38577f497ef outcomes=190e0a2a10a0121abc655e87d8531b6d bits=27666704 messages=1080 rounds=16 locality=11 parties=a11beb52d9eaebdeaa0eb2307e1dff71" );
    ( "mpc_abort/ct_equivocation/async",
      "transcript=4a1e1b98d80787c91fd779cca55aca61 outcomes=190e0a2a10a0121abc655e87d8531b6d bits=27666704 messages=1080 rounds=61 locality=11 parties=a11beb52d9eaebdeaa0eb2307e1dff71" );
    ( "mpc_abort/bad_partial_decryptions/sync",
      "transcript=41d5365ff11aaf058d5c22ec3574d1d6 outcomes=693615600ce3e9e4f4835db4a200fdca bits=27944864 messages=1320 rounds=16 locality=11 parties=61533a74970c55fe58cb7090e2afdc1f" );
    ( "mpc_abort/bad_partial_decryptions/async",
      "transcript=874b270f156ecbef0a19a71a7bd3d995 outcomes=693615600ce3e9e4f4835db4a200fdca bits=27944864 messages=1320 rounds=58 locality=11 parties=61533a74970c55fe58cb7090e2afdc1f" );
    ( "mpc_abort/output_tamper/sync",
      "transcript=a6426ed2006bdf1d97bf8c18e30a6681 outcomes=ae395d0383561e545220ba1ecd24183d bits=27945920 messages=1452 rounds=16 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "mpc_abort/output_tamper/async",
      "transcript=b4872dae4d722aaaa8b7da1e0566a593 outcomes=ae395d0383561e545220ba1ecd24183d bits=27945920 messages=1452 rounds=61 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "gossip/honest/sync",
      "transcript=58516f486ec228a4f66ad059490e9556 outcomes=dafd77b6d5484a06c1e35315e3a126ee bits=595840 messages=760 rounds=2 locality=19 parties=bb3a3665e72f02aa4b17518900ab4f19" );
    ( "gossip/honest/async",
      "transcript=0678cd92016806ad3be487e16736ed86 outcomes=dafd77b6d5484a06c1e35315e3a126ee bits=603896 messages=1463 rounds=7 locality=19 parties=e9ba3bb3e4d3cfb553a0dc63a3ff31cc" );
    ( "gossip/gossip_equivocate/sync",
      "transcript=33be3d90552a9833c1b859d4cfa752f3 outcomes=6a19a2bbd89ad5f09b81fb114af12479 bits=601920 messages=1140 rounds=3 locality=19 parties=931afa55840fc4f479d57025aa5c27e3" );
    ( "gossip/gossip_equivocate/async",
      "transcript=3b0ba233223269b6190d793b8e1714eb outcomes=6a19a2bbd89ad5f09b81fb114af12479 bits=374528 messages=1159 rounds=7 locality=19 parties=3cc826d903a6534d9eddaff19e11b4ff" );
    ( "gossip/gossip_forge/sync",
      "transcript=5f46340fd1b03e02ceee57395be4e437 outcomes=6a19a2bbd89ad5f09b81fb114af12479 bits=106552 messages=760 rounds=2 locality=19 parties=36050432d06e4367ffeae6a45c5854ff" );
    ( "gossip/gossip_forge/async",
      "transcript=905c683e64f382d450660564a9455cad outcomes=6a19a2bbd89ad5f09b81fb114af12479 bits=375592 messages=1140 rounds=7 locality=19 parties=8f5259c2a9a954b1ced6168da4299dcd" );
    ( "gossip/gossip_suppress_warnings/sync",
      "transcript=58516f486ec228a4f66ad059490e9556 outcomes=dafd77b6d5484a06c1e35315e3a126ee bits=595840 messages=760 rounds=2 locality=19 parties=bb3a3665e72f02aa4b17518900ab4f19" );
    ( "gossip/gossip_suppress_warnings/async",
      "transcript=0678cd92016806ad3be487e16736ed86 outcomes=dafd77b6d5484a06c1e35315e3a126ee bits=603896 messages=1463 rounds=7 locality=19 parties=e9ba3bb3e4d3cfb553a0dc63a3ff31cc" );
    ( "equality/honest-equal/sync",
      "transcript=9b3c9297df0be2fc07d329cbfab8fd66 outcomes=8a0652e75603e0a13850cc1e52f53cef bits=2576 messages=30 rounds=2 locality=5 parties=83f138950713da7b13d00e2b682d7ebb" );
    ( "equality/honest-equal/async",
      "transcript=d856af7acbf489da2e99f4d2342553c0 outcomes=8a0652e75603e0a13850cc1e52f53cef bits=2576 messages=30 rounds=8 locality=5 parties=83f138950713da7b13d00e2b682d7ebb" );
    ( "equality/outlier/sync",
      "transcript=202b36e87e500e505e2c7a974ab774ed outcomes=306fde93180e91e250a003988a63e092 bits=2640 messages=30 rounds=2 locality=5 parties=0740e904e4200df330cbe570b1482397" );
    ( "equality/outlier/async",
      "transcript=2c0307a149d7118d89b39f6c984b85b1 outcomes=306fde93180e91e250a003988a63e092 bits=2640 messages=30 rounds=8 locality=5 parties=0740e904e4200df330cbe570b1482397" );
    ( "equality/tampered-fp/sync",
      "transcript=49c34216945e0bee2b9b1740e49eed4c outcomes=306fde93180e91e250a003988a63e092 bits=2520 messages=30 rounds=2 locality=5 parties=84f6d2819962cd3ff6771e6c1df1b0fe" );
    ( "equality/tampered-fp/async",
      "transcript=6d082efeff0079006e9fef8b9b6243e9 outcomes=306fde93180e91e250a003988a63e092 bits=2520 messages=30 rounds=8 locality=5 parties=84f6d2819962cd3ff6771e6c1df1b0fe" );
    ( "equality/lying-verdict/sync",
      "transcript=79b76b8d3ae44ec42b1114d641dddd8d outcomes=306fde93180e91e250a003988a63e092 bits=2528 messages=30 rounds=2 locality=5 parties=1108bb678415813501bb0d01f0bfb067" );
    ( "equality/lying-verdict/async",
      "transcript=f9dde084920bf8ecc6a76e25b7bc6b07 outcomes=306fde93180e91e250a003988a63e092 bits=2528 messages=30 rounds=8 locality=5 parties=1108bb678415813501bb0d01f0bfb067" );
    ( "enc_func/honest/sync",
      "transcript=effc592795ff4676f1552f40bf666ba9 outcomes=1b5d0a294a239837209feaece20d22d7 bits=30728 messages=36 rounds=4 locality=3 parties=bbe3d53cd55aa9afe4266151b88b1dac" );
    ( "enc_func/honest/async",
      "transcript=740ca7b4aa0180b7174ff3619ec864b4 outcomes=1b5d0a294a239837209feaece20d22d7 bits=30728 messages=36 rounds=15 locality=3 parties=bbe3d53cd55aa9afe4266151b88b1dac" );
    ( "enc_func/tamper_partial/sync",
      "transcript=769e9f67c2f4d03ae9e8d5dd7817f176 outcomes=ca4be061b04a6495c3879d225548dca7 bits=30728 messages=36 rounds=4 locality=3 parties=bbe3d53cd55aa9afe4266151b88b1dac" );
    ( "enc_func/tamper_partial/async",
      "transcript=2bbb084d9dd65f3c02f017d2be6f491e outcomes=ca4be061b04a6495c3879d225548dca7 bits=30728 messages=36 rounds=15 locality=3 parties=bbe3d53cd55aa9afe4266151b88b1dac" );
    ( "enc_func/drop_partial/sync",
      "transcript=d87d4ba3eeaa3e1bc8e1a05f87d52a5c outcomes=4e4740062c0fc5c5562bea37db9c05d1 bits=28832 messages=33 rounds=4 locality=3 parties=7e6de3a934e81fd5d1129cc6ac73084a" );
    ( "enc_func/drop_partial/async",
      "transcript=89408ed29382a9ded142a06ca4e9e147 outcomes=4e4740062c0fc5c5562bea37db9c05d1 bits=28832 messages=33 rounds=15 locality=3 parties=7e6de3a934e81fd5d1129cc6ac73084a" );
    ( "theorem2/honest/sync",
      "transcript=932041d19c9ab987839f46e0b8a95475 outcomes=185df90c1b62837be126aad40a2fbe0c bits=32959360 messages=2184 rounds=7 locality=18 parties=cdddd4a82fd705ae1c183654ca63688f" );
    ( "theorem2/honest/async",
      "transcript=92ed35482ef8c7377f363e9f5e3d7c26 outcomes=8cbec67bedffb36e2dc2e217bffa3e0a bits=1584288 messages=754 rounds=6 locality=18 parties=4cb946eb44c13b18e7c9aa32bc592b74" );
    ( "theorem2/gossip_equivocate/sync",
      "transcript=96b5a0bcd1d4128e5c75d899328bab73 outcomes=8cbec67bedffb36e2dc2e217bffa3e0a bits=22203248 messages=1212 rounds=4 locality=18 parties=7fbc1c3d5e226ac23759494a659d9a6f" );
    ( "theorem2/gossip_equivocate/async",
      "transcript=a5bc3897ae4054474fb600dc6f682e72 outcomes=8cbec67bedffb36e2dc2e217bffa3e0a bits=1584288 messages=754 rounds=6 locality=18 parties=4cb946eb44c13b18e7c9aa32bc592b74" );
    ( "theorem2/tamper_pdec/sync",
      "transcript=28322489c819f4e5ba40793d010c6f54 outcomes=0ed0670be9b20a53468052a39b1a0c0d bits=32959360 messages=2184 rounds=7 locality=18 parties=cdddd4a82fd705ae1c183654ca63688f" );
    ( "theorem2/tamper_pdec/async",
      "transcript=92ed35482ef8c7377f363e9f5e3d7c26 outcomes=8cbec67bedffb36e2dc2e217bffa3e0a bits=1584288 messages=754 rounds=6 locality=18 parties=4cb946eb44c13b18e7c9aa32bc592b74" );
    ( "theorem4/honest/sync",
      "transcript=0c180a7e909655b28dee756d25da0499 outcomes=0062c000e85bf8b9fbe6b1036e516e97 bits=74678888 messages=7226 rounds=20 locality=24 parties=d54666f53977644552f93dd0bf522eb2" );
    ( "theorem4/honest/async",
      "transcript=2b64b1d86a66b83492ad4beca00c4ea1 outcomes=9252d1c16676b29787afe6b597315507 bits=38664 messages=1135 rounds=13 locality=23 parties=df79d6ec3f431721137b036d5d680556" );
    ( "theorem4/exchange_tamper/sync",
      "transcript=ab70cdea733ee64042cf10213d43ffdb outcomes=8df27bc7155c56c4a87bc4ce5234d481 bits=72167472 messages=5254 rounds=20 locality=24 parties=9dc593441663c45c76c579156e16394e" );
    ( "theorem4/exchange_tamper/async",
      "transcript=2b64b1d86a66b83492ad4beca00c4ea1 outcomes=9252d1c16676b29787afe6b597315507 bits=38664 messages=1135 rounds=13 locality=23 parties=df79d6ec3f431721137b036d5d680556" );
    ( "theorem4/output_tamper/sync",
      "transcript=3da3e3b89c1ec1bd498f8e40ab287213 outcomes=7ea75881251f15a7f35b184b7957a05a bits=74678888 messages=7226 rounds=20 locality=24 parties=d54666f53977644552f93dd0bf522eb2" );
    ( "theorem4/output_tamper/async",
      "transcript=2b64b1d86a66b83492ad4beca00c4ea1 outcomes=9252d1c16676b29787afe6b597315507 bits=38664 messages=1135 rounds=13 locality=23 parties=df79d6ec3f431721137b036d5d680556" );
    ( "broadcast/honest/naive/sync",
      "transcript=65f9c37179d08959e40eb1355e329711 outcomes=be1ee260b1348ee20b4d385f05218fe0 bits=7832 messages=143 rounds=2 locality=11 parties=3c88526a229e7c48e710eecbaf5ba570" );
    ( "broadcast/honest/naive/async",
      "transcript=a538ff342024379d919f370aeeb10d8f outcomes=be1ee260b1348ee20b4d385f05218fe0 bits=7832 messages=143 rounds=8 locality=11 parties=3c88526a229e7c48e710eecbaf5ba570" );
    ( "broadcast/honest/fingerprinted/sync",
      "transcript=6bccf7716fc8feda306acfa205798637 outcomes=be1ee260b1348ee20b4d385f05218fe0 bits=22880 messages=143 rounds=2 locality=11 parties=e652b2611c65557894171599dfb256ce" );
    ( "broadcast/honest/fingerprinted/async",
      "transcript=097e3b790de20d08eb2c3534a7c367e6 outcomes=be1ee260b1348ee20b4d385f05218fe0 bits=22880 messages=143 rounds=8 locality=11 parties=e652b2611c65557894171599dfb256ce" );
    ( "all_to_all/honest/naive/sync",
      "transcript=e41810ada98edf0105f16a2b73f9acab outcomes=0fedd2caf6898a4c191d9707dad1a813 bits=64080 messages=180 rounds=2 locality=9 parties=81127dd3102696ed0426d2bdfd560d82" );
    ( "all_to_all/honest/naive/async",
      "transcript=8f20bf0d4187eee9f5f8b6d5c3a1affc outcomes=0fedd2caf6898a4c191d9707dad1a813 bits=64080 messages=180 rounds=8 locality=9 parties=81127dd3102696ed0426d2bdfd560d82" );
    ( "all_to_all/honest/fingerprinted/sync",
      "transcript=05f866894930cb01dc853cdc40d570e1 outcomes=0fedd2caf6898a4c191d9707dad1a813 bits=12424 messages=180 rounds=3 locality=9 parties=00a1dfe3bcf26f4d395e516288aa3dfe" );
    ( "all_to_all/honest/fingerprinted/async",
      "transcript=8bc56dd9b8f6ee29fae63f66c8a21b2f outcomes=0fedd2caf6898a4c191d9707dad1a813 bits=12424 messages=180 rounds=12 locality=9 parties=00a1dfe3bcf26f4d395e516288aa3dfe" );
    ( "committee/honest/sync",
      "transcript=3e26cd0a7b0982d855f9ef67ee219419 outcomes=c6e8a0f384be61ac5f59dcdcae89da02 bits=9488 messages=320 rounds=3 locality=23 parties=ffb338fdd96b9349bcc1ddb53fd7b574" );
    ( "committee/honest/async",
      "transcript=1cd3a593c843607c495f1d63e1266f4c outcomes=c6e8a0f384be61ac5f59dcdcae89da02 bits=9488 messages=320 rounds=12 locality=23 parties=ffb338fdd96b9349bcc1ddb53fd7b574" );
    ( "mpc_abort.run/honest/sync",
      "transcript=8aae217114660f87f4749a6f9c94229f outcomes=ed084c6515ec75a9713a4720044c2aee bits=27945920 messages=1452 rounds=16 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "mpc_abort.run/honest/async",
      "transcript=ecaf7d27beaee28c42473942bbddb294 outcomes=ed084c6515ec75a9713a4720044c2aee bits=27945920 messages=1452 rounds=61 locality=11 parties=63d50ebdc1e3c34bd49d241d126e2edb" );
    ( "theorem4.run/honest/sync",
      "transcript=0c180a7e909655b28dee756d25da0499 outcomes=bdcbe6810fa9e90ddbbceab8a15ef7d0 bits=74678888 messages=7226 rounds=20 locality=24 parties=d54666f53977644552f93dd0bf522eb2" );
    ( "theorem4.run/honest/async",
      "transcript=2b64b1d86a66b83492ad4beca00c4ea1 outcomes=8f7a1b04c367c5ff70e22d8faf9b678a bits=38664 messages=1135 rounds=13 locality=23 parties=df79d6ec3f431721137b036d5d680556" );
    ( "local_committee/honest/sync",
      "transcript=badd1d1be37e1c50a82498e42a55eba3 outcomes=f3789ab626e0534a331bf90536e060d0 bits=674104 messages=3534 rounds=6 locality=31 parties=b53569d09fe82d475a5820143b812689" );
    ( "local_committee/honest/async",
      "transcript=5ac627ef439fc702da7e2641154abc86 outcomes=0655363ac7e1256ed990e90bebeb53e7 bits=49792 messages=1482 rounds=8 locality=26 parties=e12a998a455d730362cbe118e4e11309" );
    ( "sparse_network/honest/sync",
      "transcript=91aa352f64cd993ef719164a038df3d1 outcomes=cac84923f419f5fbf6a7cc7ed6fa7be6 bits=2880 messages=360 rounds=1 locality=19 parties=c95be1aa27e65481c5c9b7161ce2ca64" );
    ( "sparse_network/honest/async",
      "transcript=caa3c55fb5943180579148a0c087d507 outcomes=8bb879fcddc7e1ba2306fc2330928018 bits=2880 messages=360 rounds=1 locality=19 parties=c95be1aa27e65481c5c9b7161ce2ca64" );
    ( "sparse_network/flood_victim/sync",
      "transcript=3c83d2739741313810411cd38a6b1ac1 outcomes=cac84923f419f5fbf6a7cc7ed6fa7be6 bits=2888 messages=361 rounds=1 locality=19 parties=b994fc2d9d6ed7c7fe67696d1934da13" );
    ( "sparse_network/flood_victim/async",
      "transcript=d3cc8f58fad39ec7c9762e00359af8d5 outcomes=7b80bc1139945b555f8143be9f5d9430 bits=2888 messages=361 rounds=1 locality=19 parties=b994fc2d9d6ed7c7fe67696d1934da13" );
    ( "sparse_network.run_iter/honest/sync",
      "transcript=91aa352f64cd993ef719164a038df3d1 outcomes=9b27523798ccce27864eb75e0fe082dd bits=2880 messages=360 rounds=1 locality=19 parties=c95be1aa27e65481c5c9b7161ce2ca64" );
    ( "sparse_network.run_iter/honest/async",
      "transcript=caa3c55fb5943180579148a0c087d507 outcomes=2782a6ff04d4526c8f905d8a5a3f7451 bits=2880 messages=360 rounds=1 locality=19 parties=c95be1aa27e65481c5c9b7161ce2ca64" );
  ]

let () =
  let case name cases = Alcotest.test_case name `Quick (check_cases expected cases) in
  Alcotest.run "golden"
    [
      ( "attacks",
        [
          case "broadcast adversaries" broadcast_cases;
          case "all-to-all adversaries" all_to_all_cases;
          case "committee adversaries" committee_cases;
          case "mpc_abort adversaries" mpc_abort_cases;
          case "gossip adversaries" gossip_cases;
          case "equality pairwise adversaries" equality_cases;
          case "enc_func adversaries" enc_func_cases;
          case "theorem2 adversaries" theorem2_cases;
          case "theorem4 adversaries" theorem4_cases;
        ] );
      ("entry points", [ case "honest runs" entry_cases ]);
    ]
