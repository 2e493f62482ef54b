(* Tests for Algorithm 5 (SparseNetwork, Claim 20) and Algorithm 6
   (Gossip / responsible gossip, Claim 21), the replay determinism of the
   sparse protocol family, and the giant tier's streaming union-find and
   [run_iter] against their materialized references. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params ?(alpha = 3) n h = Mpc.Params.make ~n ~h ~lambda:8 ~alpha ()

(* ---- SparseNetwork ---- *)

let test_sparse_honest_no_abort () =
  let n = 40 and h = 20 in
  let corruption = Netsim.Corruption.none ~n in
  for seed = 1 to 10 do
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    Array.iteri
      (fun i o ->
        match o with
        | Mpc.Outcome.Output _ -> ()
        | Mpc.Outcome.Abort r ->
          Alcotest.failf "party %d aborted honestly: %s" i (Mpc.Outcome.reason_to_string r))
      outs
  done

let test_sparse_degree_bound () =
  (* Claim 20: max degree O(α n log n / h). *)
  let n = 60 and h = 30 in
  let corruption = Netsim.Corruption.none ~n in
  let p = params n h in
  for seed = 1 to 10 do
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng p ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    let bound = Mpc.Params.sparse_degree p * 4 in
    checkb "degree bounded" true (Mpc.Sparse_network.max_degree outs <= bound)
  done

let test_sparse_honest_connectivity () =
  (* Claim 20: the honest subgraph is connected w.h.p. *)
  let n = 50 and h = 25 in
  let rng0 = Util.Prng.create 77 in
  let failures = ref 0 in
  for seed = 1 to 20 do
    let corruption = Netsim.Corruption.random rng0 ~n ~h in
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create seed in
    let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
    if not (Mpc.Sparse_network.honest_subgraph_connected outs corruption) then incr failures
  done;
  checki "always connected at alpha=3" 0 !failures

let test_sparse_flood_attack_detected () =
  (* All corrupted parties target one victim: its inbox exceeds 2d and it
     aborts (the DDoS detection of §2.3). *)
  let n = 40 and h = 8 in
  let victim = 5 in
  let rng0 = Util.Prng.create 88 in
  let corruption = Netsim.Corruption.targeting rng0 ~n ~h ~victim in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 1 in
  (* Use alpha=1 so 32 floods clearly exceed 2d. *)
  let p = params ~alpha:1 n n in
  (* h=n in params makes d tiny: d = ln n ≈ 4, bound 8 < 32 corrupted. *)
  let outs = Mpc.Sparse_network.run net rng p ~corruption ~adv:(Mpc.Attacks.flood_victim ~victim) in
  checkb "victim aborts" true (Mpc.Outcome.is_abort outs.(victim))

let test_sparse_locality () =
  (* Each party talks to O(d) peers only. *)
  let n = 60 and h = 30 in
  let corruption = Netsim.Corruption.none ~n in
  let p = params n h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 4 in
  ignore (Mpc.Sparse_network.run net rng p ~corruption ~adv:Mpc.Sparse_network.honest_adv);
  checkb "locality O(d)" true (Netsim.Net.max_locality net <= 4 * Mpc.Params.sparse_degree p)

(* ---- Gossip ---- *)

let build_graph ?(seed = 9) ~n ~h () =
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create seed in
  let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv:Mpc.Sparse_network.honest_adv in
  Array.map
    (function Mpc.Outcome.Output s -> s | Mpc.Outcome.Abort _ -> Util.Iset.empty)
    outs

let test_gossip_honest_delivery () =
  let n = 30 and h = 15 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 2 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "rumor-%d" i))) in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv in
  Array.iteri
    (fun i o ->
      match o with
      | Mpc.Outcome.Output rumors ->
        checki (Printf.sprintf "party %d heard all" i) n (List.length rumors);
        List.iter
          (fun (origin, v) ->
            checkb "correct rumor" true
              (Bytes.equal v (Bytes.of_string (Printf.sprintf "rumor-%d" origin))))
          rumors
      | Mpc.Outcome.Abort r -> Alcotest.failf "party %d: %s" i (Mpc.Outcome.reason_to_string r))
    outs

let test_gossip_subset_sources () =
  let n = 20 and h = 10 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 3 in
  let sources = [ (3, Bytes.of_string "a"); (7, Bytes.of_string "b") ] in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv in
  Array.iter
    (fun o ->
      match o with
      | Mpc.Outcome.Output rumors -> checki "exactly two rumors" 2 (List.length rumors)
      | Mpc.Outcome.Abort _ -> Alcotest.fail "abort in honest gossip")
    outs

let test_gossip_forward_once_cost () =
  (* Claim 21: total bits O(k · d · n · ℓ) — forwarding once per origin. *)
  let n = 24 and h = 12 in
  let graph = build_graph ~n ~h () in
  let corruption = Netsim.Corruption.none ~n in
  let cost k =
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 4 in
    let sources = List.init k (fun i -> (i, Bytes.make 50 'r')) in
    ignore (Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Gossip.honest_adv);
    Netsim.Net.total_bits net
  in
  let c1 = cost 4 and c2 = cost 8 in
  (* Linear in the number of sources. *)
  let ratio = float_of_int c2 /. float_of_int c1 in
  checkb "linear in sources" true (ratio > 1.5 && ratio < 2.6)

let test_gossip_equivocation_aborts () =
  let n = 24 and h = 12 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 5 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 6 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (string_of_int i))) in
  let outs =
    Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv:Mpc.Attacks.gossip_equivocate
  in
  (* Safety: honest parties that produced output agree on every origin. *)
  let honest_outputs =
    List.filter_map
      (fun i ->
        match outs.(i) with Mpc.Outcome.Output r -> Some r | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (match honest_outputs with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun other ->
        List.iter
          (fun (origin, v) ->
            match List.assoc_opt origin first with
            | Some v' -> checkb "consistent value" true (Bytes.equal v v')
            | None -> ())
          other)
      rest);
  checkb "ran" true (Array.length outs = n)

let test_gossip_forged_conflict_detected () =
  (* A corrupted party forges a rumor for an honest origin whose true rumor
     also circulates: honest parties seeing both must abort, and no honest
     party may end holding ONLY the forged value while another outputs the
     true one. *)
  let n = 24 and h = 20 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 7 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let honest0 = List.hd (Netsim.Corruption.honest_list corruption) in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 8 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (Printf.sprintf "true-%d" i))) in
  let outs =
    Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption
      ~adv:(Mpc.Attacks.gossip_forge ~origin:honest0 ~value:(Bytes.of_string "forged"))
  in
  let honest_values =
    List.filter_map
      (fun i ->
        match outs.(i) with
        | Mpc.Outcome.Output r -> List.assoc_opt honest0 r
        | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (* All surviving honest parties agree on origin honest0's value. *)
  (match honest_values with
  | [] -> ()
  | first :: rest -> List.iter (fun v -> checkb "no split" true (Bytes.equal v first)) rest);
  checkb "ran" true (Array.length outs = n)

let test_gossip_warning_suppression_still_safe () =
  (* Corrupted parties refuse to forward warnings; the honest subgraph
     still floods them. *)
  let n = 24 and h = 16 in
  let graph = build_graph ~n ~h () in
  let rng0 = Util.Prng.create 9 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 10 in
  let sources = List.init n (fun i -> (i, Bytes.of_string (string_of_int i))) in
  let adv =
    {
      Mpc.Attacks.gossip_equivocate with
      Mpc.Gossip.spread_warning = false;
    }
  in
  let outs = Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv in
  let honest_outputs =
    List.filter_map
      (fun i ->
        match outs.(i) with Mpc.Outcome.Output r -> Some r | Mpc.Outcome.Abort _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  (match honest_outputs with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun other ->
        List.iter
          (fun (origin, v) ->
            match List.assoc_opt origin first with
            | Some v' -> checkb "no divergent outputs" true (Bytes.equal v v')
            | None -> ())
          other)
      rest);
  checkb "ran" true (Array.length outs = n)

(* ---- Replay determinism of the sparse family ---- *)

(* Algorithm 5, gossip, committee election, LocalCommitteeElect and
   Theorem 2 run twice on fresh networks from the same seed: the two
   (result, observables) pairs must be equal, which is what lets a seed
   replay a run and a report diff detect accounting drift. *)

(* Everything observable about a network's accounting, as one comparable
   value.  Peer sets are compared element-wise (sorted lists), never as
   raw [Iset.t]: AVL shape is not an observable. *)
type obs = {
  bits_sent : int list;
  bits_received : int list;
  peers : int list list;
  total_bits : int;
  messages : int;
  net_rounds : int;
  max_locality : int;
  active : int list;
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
    active = Netsim.Net.active_parties net;
  }

let replays ~name ~n (f : Netsim.Net.t -> Util.Prng.t -> 'a) =
  let run () =
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 42 in
    let r = f net rng in
    (r, observe net)
  in
  checkb name true (run () = run ())

(* Iset-valued outcomes are normalized to sorted lists before comparison
   (outcome {e contents} are the contract, AVL shape is not). *)
let norm_iset_outs outs =
  Array.to_list outs
  |> List.map (function
       | Mpc.Outcome.Output s -> Ok (Util.Iset.to_sorted_list s)
       | Mpc.Outcome.Abort r -> Error r)

let test_sparse_network_replays () =
  let n = 48 and h = 16 in
  let rng0 = Util.Prng.create 9 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  replays ~name:"sparse_network honest" ~n (fun net rng ->
      norm_iset_outs
        (Mpc.Sparse_network.run net rng (params n h) ~corruption
           ~adv:Mpc.Sparse_network.honest_adv))

let test_sparse_network_flood_replays () =
  (* The flooding adversary trips the 2d inbox bound, so abort paths and
     the Flooded reason string must replay too. *)
  let n = 40 and h = 8 in
  let victim = 5 in
  let rng0 = Util.Prng.create 88 in
  let corruption = Netsim.Corruption.targeting rng0 ~n ~h ~victim in
  replays ~name:"sparse_network flood" ~n (fun net rng ->
      norm_iset_outs
        (Mpc.Sparse_network.run net rng (params n h) ~corruption
           ~adv:(Mpc.Attacks.flood_victim ~victim)))

let ring_graph n degree =
  Array.init n (fun i -> Util.Iset.of_list (List.init degree (fun k -> (i + k + 1) mod n)))

let test_gossip_replays () =
  let n = 32 and h = 16 in
  let graph = ring_graph n 4 in
  let sources = [ (0, Bytes.of_string "alpha"); (7, Bytes.of_string "beta") ] in
  let corruption = Netsim.Corruption.none ~n in
  replays ~name:"gossip honest" ~n (fun net rng ->
      Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption
        ~adv:Mpc.Gossip.honest_adv)

let test_gossip_adversarial_replays () =
  let n = 32 and h = 8 in
  let graph = ring_graph n 4 in
  let sources = [ (0, Bytes.of_string "alpha"); (3, Bytes.of_string "beta") ] in
  let rng0 = Util.Prng.create 17 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (label, adv) ->
      replays ~name:("gossip " ^ label) ~n (fun net rng ->
          Mpc.Gossip.run net rng (params n h) ~graph ~sources ~corruption ~adv))
    [
      ("equivocate", Mpc.Attacks.gossip_equivocate);
      ("forge", Mpc.Attacks.gossip_forge ~origin:0 ~value:(Bytes.of_string "forged"));
    ]

let test_committee_replays () =
  let n = 64 and h = 32 in
  let rng0 = Util.Prng.create 5 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  List.iter
    (fun (label, adv) ->
      replays ~name:("committee " ^ label) ~n (fun net rng ->
          Mpc.Committee.run net rng (params ~alpha:2 n h) ~corruption ~adv))
    [ ("honest", Mpc.Committee.honest_adv); ("claim-all", Mpc.Attacks.claim_all) ]

let test_local_committee_replays () =
  let n = 36 and h = 18 in
  let rng0 = Util.Prng.create 11 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  replays ~name:"local_committee" ~n (fun net rng ->
      let r =
        Mpc.Local_committee.run net rng (params ~alpha:2 n h) ~corruption
          ~adv:Mpc.Local_committee.honest_adv
      in
      (Array.to_list r.Mpc.Local_committee.views,
       List.map Util.Iset.to_sorted_list (Array.to_list r.Mpc.Local_committee.graph)))

let test_theorem2_replays () =
  (* The deepest stack over the network: routing + two gossip phases +
     threshold decryption, end to end. *)
  let n = 24 and h = 12 in
  let config =
    {
      Mpc.Local_mpc.params = params ~alpha:2 n h;
      pke = (module Crypto.Pke.Regev : Crypto.Pke.S);
      circuit = Circuit.parity ~n;
      input_width = 1;
    }
  in
  let inputs = Array.init n (fun i -> i land 1) in
  let rng0 = Util.Prng.create 23 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  replays ~name:"theorem2" ~n (fun net rng ->
      Mpc.Local_mpc.run_theorem2 net rng config ~corruption ~inputs
        ~adv:Mpc.Local_mpc.honest_theorem2_adv)

(* ---- Streaming connectivity vs the BFS reference ------------------ *)

(* The giant tier replaces [honest_subgraph_connected]'s BFS (which needs
   all n outcomes live) with a streaming union-find that unions each
   undirected edge at its higher-id endpoint.  Correctness leans on hop
   symmetry for honest non-aborted pairs; this pins the two procedures
   against each other across random corruptions and a flooding adversary
   (whose aborts are exactly the case where naive edge-unioning would
   bridge dead components). *)
let uf_connected outs corruption =
  let n = Array.length outs in
  let parent = Array.init n (fun i -> i) in
  let find i =
    let r = ref i in
    while parent.(!r) <> !r do
      r := parent.(!r)
    done;
    let j = ref i in
    while parent.(!j) <> !r do
      let next = parent.(!j) in
      parent.(!j) <- !r;
      j := next
    done;
    !r
  in
  let aborted = Array.map (fun o -> Mpc.Outcome.is_abort o) outs in
  let honest i = Netsim.Corruption.is_honest corruption i in
  let first_active = ref (-1) in
  Array.iteri
    (fun i out ->
      match out with
      | Mpc.Outcome.Abort _ -> ()
      | Mpc.Outcome.Output s ->
        if honest i then begin
          if !first_active < 0 then first_active := i;
          Util.Iset.iter
            (fun j ->
              if j < i && honest j && not aborted.(j) then begin
                let ri = find i and rj = find j in
                if ri <> rj then parent.(ri) <- rj
              end)
            s
        end)
    outs;
  if !first_active < 0 then true
  else begin
    let root = find !first_active in
    let ok = ref true in
    for i = 0 to n - 1 do
      if honest i && not aborted.(i) && find i <> root then ok := false
    done;
    !ok
  end

let test_union_find_matches_bfs () =
  let n = 200 in
  let rng0 = Util.Prng.create 31 in
  let cases =
    List.concat_map
      (fun h ->
        List.map
          (fun seed -> (h, seed, Netsim.Corruption.random rng0 ~n ~h))
          [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      [ 8; 50; 100 ]
    @ List.map
        (fun seed -> (20, seed, Netsim.Corruption.targeting rng0 ~n ~h:20 ~victim:3))
        [ 9; 10; 11 ]
  in
  List.iter
    (fun (h, seed, corruption) ->
      let net = Netsim.Net.create n in
      let rng = Util.Prng.create seed in
      let adv =
        if Netsim.Corruption.num_corrupted corruption > 0 && seed mod 3 = 0 then
          Mpc.Attacks.flood_victim ~victim:3
        else Mpc.Sparse_network.honest_adv
      in
      let outs = Mpc.Sparse_network.run net rng (params n h) ~corruption ~adv in
      checkb
        (Printf.sprintf "uf = bfs at h=%d seed=%d" h seed)
        (Mpc.Sparse_network.honest_subgraph_connected outs corruption)
        (uf_connected outs corruption))
    cases

(* run_iter's streaming order and contents against the materialized
   array. *)
let test_run_iter_matches_run () =
  let n = 60 and h = 20 in
  let rng0 = Util.Prng.create 13 in
  let corruption = Netsim.Corruption.random rng0 ~n ~h in
  let reference =
    let net = Netsim.Net.create n in
    let rng = Util.Prng.create 3 in
    norm_iset_outs
      (Mpc.Sparse_network.run net rng (params n h) ~corruption
         ~adv:Mpc.Sparse_network.honest_adv)
  in
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create 3 in
  let seen = ref [] in
  Mpc.Sparse_network.run_iter net rng (params n h) ~corruption
    ~adv:Mpc.Sparse_network.honest_adv ~f:(fun i out -> seen := (i, out) :: !seen);
  let ordered = List.rev !seen in
  checkb "run_iter visits 0..n-1 in order" true (List.map fst ordered = List.init n Fun.id);
  checkb "run_iter outcomes match run" true
    (norm_iset_outs (Array.of_list (List.map snd ordered)) = reference)

(* ---- SparseNetwork against its list-and-sort reference ---- *)

(* [run_iter] as it stood before outcomes were built by one merge:
   senders deduplicated with [List.sort_uniq], the out-hops added to the
   set one by one, hops sampled as lists. *)
module Reference = struct
  let notify_payload = Bytes.make 1 '\001'

  let outcome_of_inbox ~bound ~out_hops i inbox =
    let incoming = List.sort_uniq compare (List.map fst inbox) in
    if List.length incoming > bound then
      Mpc.Outcome.Abort (Mpc.Outcome.Flooded "incoming degree above 2d")
    else
      Mpc.Outcome.Output
        (Array.fold_left (fun s v -> Util.Iset.add v s) (Util.Iset.of_list incoming) out_hops.(i))

  let run_iter net rng params ~corruption ~(adv : Mpc.Sparse_network.adv) ~f =
    let n = Netsim.Net.n net in
    let d = Mpc.Params.sparse_degree params in
    let bound = Mpc.Params.degree_bound params in
    let out_hops =
      Array.init n (fun i ->
          let sample = Util.Prng.sample_without_replacement rng ~n:(n - 1) ~k:(min d (n - 1)) in
          let a = Array.of_list sample in
          for k = 0 to Array.length a - 1 do
            if a.(k) >= i then a.(k) <- a.(k) + 1
          done;
          a)
    in
    for i = 0 to n - 1 do
      if Netsim.Corruption.is_corrupted corruption i then begin
        let extra = match adv.extra_targets with Some f -> f ~me:i | None -> [] in
        let targets = List.sort_uniq compare (extra @ Array.to_list out_hops.(i)) in
        List.iter
          (fun dst ->
            if dst <> i then begin
              let dropped = match adv.drop_notify with Some f -> f ~me:i ~dst | None -> false in
              if not dropped then Netsim.Net.send net ~src:i ~dst notify_payload
            end)
          targets
      end
      else Array.iter (fun dst -> Netsim.Net.send net ~src:i ~dst notify_payload) out_hops.(i)
    done;
    Netsim.Net.step net;
    for i = 0 to n - 1 do
      f i (outcome_of_inbox ~bound ~out_hops i (Netsim.Net.recv net ~dst:i))
    done
end

(* n in [8, 300], h in [n/8, n], alpha 1 or 2; the adversary is honest,
   floods up to three victims (sometimes naming itself), or drops a
   pseudo-random third of its notifications. *)
let gen_sparse_case =
  QCheck.Gen.(
    int_range 8 300 >>= fun n ->
    int_range (max 1 (n / 8)) n >>= fun h ->
    quad (return (n, h)) (int_range 1 2) (pair small_nat small_nat)
      (pair (int_bound 2) (list_size (int_range 1 3) (int_bound (n - 1)))))

let prop_sparse_matches_reference =
  QCheck.Test.make ~count:200 ~name:"Sparse_network.run_iter = list-and-sort reference"
    (QCheck.make gen_sparse_case)
    (fun ((n, h), alpha, (seed, salt), (adv_kind, victims)) ->
      let params = Mpc.Params.make ~n ~h ~lambda:8 ~alpha () in
      let corruption = Netsim.Corruption.random (Util.Prng.create (seed + 1000)) ~n ~h in
      let adv =
        match adv_kind with
        | 0 -> Mpc.Sparse_network.honest_adv
        | 1 ->
          { Mpc.Sparse_network.honest_adv with extra_targets = Some (fun ~me -> me :: victims) }
        | _ ->
          {
            Mpc.Sparse_network.honest_adv with
            drop_notify = Some (fun ~me ~dst -> ((me * 31) + (dst * 17) + salt) mod 3 = 0);
          }
      in
      let observe run descending =
        let net =
          if descending then Netsim.Net.create ~transport:(Descending_transport.create ()) n
          else Netsim.Net.create n
        in
        let rng = Util.Prng.create seed in
        let seen = ref [] in
        run net rng params ~corruption ~adv ~f:(fun i o -> seen := (i, o) :: !seen);
        ( norm_iset_outs (Array.of_list (List.rev_map snd !seen)),
          List.rev_map fst !seen,
          Netsim.Net.total_bits net,
          Netsim.Net.messages_sent net,
          Netsim.Net.rounds net,
          Netsim.Net.max_locality net,
          Util.Prng.int rng 1_000_000 )
      in
      List.for_all
        (fun descending ->
          observe (fun net rng -> Mpc.Sparse_network.run_iter net rng) descending
          = observe Reference.run_iter descending)
        [ false; true ])

let () =
  Alcotest.run "sparse_gossip"
    [
      ( "sparse_network",
        [
          Alcotest.test_case "honest no abort" `Quick test_sparse_honest_no_abort;
          Alcotest.test_case "degree bound" `Quick test_sparse_degree_bound;
          Alcotest.test_case "honest connectivity" `Quick test_sparse_honest_connectivity;
          Alcotest.test_case "flood attack detected" `Quick test_sparse_flood_attack_detected;
          Alcotest.test_case "locality" `Quick test_sparse_locality;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "honest delivery" `Quick test_gossip_honest_delivery;
          Alcotest.test_case "subset sources" `Quick test_gossip_subset_sources;
          Alcotest.test_case "cost linear in sources" `Quick test_gossip_forward_once_cost;
          Alcotest.test_case "equivocation safe" `Quick test_gossip_equivocation_aborts;
          Alcotest.test_case "forged conflict" `Quick test_gossip_forged_conflict_detected;
          Alcotest.test_case "warning suppression" `Quick test_gossip_warning_suppression_still_safe;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "sparse_network honest" `Quick test_sparse_network_replays;
          Alcotest.test_case "sparse_network flood" `Quick test_sparse_network_flood_replays;
          Alcotest.test_case "gossip honest" `Quick test_gossip_replays;
          Alcotest.test_case "gossip adversarial" `Quick test_gossip_adversarial_replays;
          Alcotest.test_case "committee" `Quick test_committee_replays;
          Alcotest.test_case "local committee" `Quick test_local_committee_replays;
          Alcotest.test_case "theorem2" `Quick test_theorem2_replays;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "union-find = BFS" `Quick test_union_find_matches_bfs;
          Alcotest.test_case "run_iter = run" `Quick test_run_iter_matches_run;
          QCheck_alcotest.to_alcotest prop_sparse_matches_reference;
        ] );
    ]
