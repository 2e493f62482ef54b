type adv = {
  sparse : Sparse_network.adv;
  gossip : Gossip.adv;
  false_claim : (me:int -> bool) option;
  eq : Equality.adv;
}

let honest_adv =
  {
    sparse = Sparse_network.honest_adv;
    gossip = Gossip.honest_adv;
    false_claim = None;
    eq = Equality.honest_adv;
  }

type result = {
  views : Committee.view Outcome.t array;
  graph : Util.Iset.t array;
}

let claim_payload = Bytes.make 1 '\001'

(* Cost phases (see Analysis.Costs): the sparse routing network (closed
   form), the claim gossip over the sampled graph (gossip observables
   under [pre].gossip, claim payloads are 1 byte), then View_check's two
   rounds (observables under [pre].vc). *)
let cost_phases ~pre ~n ~h ~lambda ~alpha =
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let sparse = (Sparse_network.cost_spec ~n ~h ~lambda ~alpha).Analysis.Costs.phases in
  sparse
  @ Gossip.cost_phases ~pre:(jn "gossip") ~len:(Analysis.Costs.Const 1)
  @ View_check.cost_phases ~pre:(jn "vc") ~n ~lambda

let cost_spec ~n ~h ~lambda ~alpha =
  {
    Analysis.Costs.name = "local_committee.run";
    phases = cost_phases ~pre:"" ~n ~h ~lambda ~alpha;
    max_locality = None;
  }

let run ?obs net rng params ~corruption ~adv =
  let n = Netsim.Net.n net in
  let p = Params.local_committee_prob params in
  let bound = Params.local_committee_bound params in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Step 1: the routing network. *)
  let sparse_outs = Sparse_network.run net rng params ~corruption ~adv:adv.sparse in
  let graph =
    Array.map
      (function Outcome.Output s -> s | Outcome.Abort _ -> Util.Iset.empty)
      sparse_outs
  in
  let aborted = Array.map (fun o -> Outcome.is_abort o) sparse_outs in
  (* Step 2: coins with bias alpha*log n / sqrt(h). *)
  let coin = Array.init n (fun _ -> Util.Prng.bernoulli rng p) in
  let claims =
    Array.init n (fun i ->
        match adv.false_claim with
        | Some f when is_corrupt i -> f ~me:i
        | _ -> coin.(i))
  in
  (* Step 3: gossip the claims (null input for non-claimants). *)
  let sources =
    List.filter_map
      (fun i -> if claims.(i) && not aborted.(i) then Some (i, claim_payload) else None)
      (List.init n (fun i -> i))
  in
  let gossip_outs =
    Gossip.run
      ?obs:(Option.map (fun o -> Analysis.Costs.Obs.scoped o "gossip") obs)
      net rng params ~graph ~sources ~corruption ~adv:adv.gossip
  in
  let views = Array.make n [] in
  for i = 0 to n - 1 do
    match gossip_outs.(i) with
    | Outcome.Abort _ -> aborted.(i) <- true
    | Outcome.Output rumors ->
      (* C_i: the claims received for other parties. *)
      views.(i) <- List.filter_map (fun (origin, _) -> if origin <> i then Some origin else None) rumors;
      (* Step 4: too many claims → abort. *)
      if List.length views.(i) >= bound then aborted.(i) <- true
  done;
  (* Step 5: equality among mutually-known committee members over direct
     channels. *)
  View_check.run
    ?obs:(Option.map (fun o -> Analysis.Costs.Obs.scoped o "vc") obs)
    net rng params ~claims ~views ~corruption ~eq:adv.eq ~aborted;
  let view_outs =
    Array.init n (fun i ->
        if aborted.(i) then
          Outcome.Abort
            (match sparse_outs.(i) with
            | Outcome.Abort r -> r
            | Outcome.Output _ ->
              if List.length views.(i) >= bound then
                Outcome.Flooded "too many committee claims"
              else Outcome.Equality_failed "committee views differ or gossip warned")
        else
          Outcome.Output
            {
              Committee.committee = View_check.self_view ~claims ~views i;
              elected = claims.(i);
            })
  in
  { views = view_outs; graph }
