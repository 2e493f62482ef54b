type adv = {
  false_claim : (me:int -> bool) option;
  claim_subset : (me:int -> dst:int -> bool) option;
  eq : Equality.adv;
}

let honest_adv = { false_claim = None; claim_subset = None; eq = Equality.honest_adv }

type view = { committee : int list; elected : bool }

(* Shared one-byte claim notification (payloads are immutable by
   convention, so one buffer serves every send). *)
let claim_payload = Bytes.make 1 '\001'

(* Cost phases (see Analysis.Costs): one claim-notification round (K·(n−1)
   one-byte messages, K = the sampled number of claimants, recorded as
   observable [claims] under [pre]) followed by View_check's two rounds.
   Total rounds: 3, a constant — itself one of the paper's claims. *)
let cost_phases ~pre ~n ~lambda =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let claims = Var (jn "claims") in
  exact ~label:(jn "claims") ~edge:"claimant->all"
    ~bits:(Cost_expr.bits (Mul [ claims; Sub (n, Const 1) ]))
    ~messages:(Mul [ claims; Sub (n, Const 1) ])
    ~rounds:(Const 1)
  :: View_check.cost_phases ~pre:(jn "vc") ~n ~lambda

let cost_spec ~n ~lambda =
  let open Analysis.Costs in
  {
    name = "committee.run";
    phases = cost_phases ~pre:"" ~n ~lambda;
    (* Exact locality: a claimant notifies all n−1 peers, so with K ≥ 1
       claims some party touches everyone (and View_check's committee
       traffic is a subset of those peers); with K = 0 nothing is sent
       at all.  Exact under honest_adv even with corrupted parties. *)
    max_locality = Some (Mul [ Ge (Var "claims", Const 1); Sub (n, Const 1) ]);
  }

let run ?deadline ?obs net rng params ~corruption ~adv =
  let n = Netsim.Net.n net in
  let p = Params.committee_prob params in
  let bound = Params.committee_bound params in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Step 1: Bernoulli coins (corrupted parties may ignore theirs). *)
  let coin = Array.init n (fun _ -> Util.Prng.bernoulli rng p) in
  let claims =
    Array.init n (fun i ->
        match adv.false_claim with
        | Some f when is_corrupt i -> f ~me:i
        | _ -> coin.(i))
  in
  (match obs with
  | Some o ->
    Analysis.Costs.Obs.set o "claims"
      (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 claims)
  | None -> ());
  (* Step 2: election notification. *)
  for i = 0 to n - 1 do
    if claims.(i) then
      for dst = 0 to n - 1 do
        if dst <> i then begin
          let deliver =
            match adv.claim_subset with
            | Some f when is_corrupt i -> f ~me:i ~dst
            | _ -> true
          in
          if deliver then Netsim.Net.send net ~src:i ~dst claim_payload
        end
      done
  done;
  Netsim.Net.step_until_quiet ?deadline net;
  (* Step 3: collect views, abort on too many claims.  Only the active
     frontier is stepped; a party nobody claimed to sees the empty view
     it would have computed anyway, and the claim bound is >= 1 (ceil of
     a positive number) so the empty view never aborts — the restriction
     is exact. *)
  let views = Array.make n [] in
  let aborted = Array.make n false in
  List.iter
    (fun i ->
      let senders = List.map fst (Netsim.Net.recv net ~dst:i) |> List.sort_uniq compare in
      views.(i) <- senders;
      if List.length senders >= bound then aborted.(i) <- true)
    (Netsim.Net.active_parties net);
  (* Step 4: pairwise equality over committee views. *)
  View_check.run ?deadline
    ?obs:(Option.map (fun o -> Analysis.Costs.Obs.scoped o "vc") obs)
    net rng params ~claims ~views ~corruption ~eq:adv.eq ~aborted;
  Array.init n (fun i ->
      if aborted.(i) then
        Outcome.Abort
          (if List.length views.(i) >= bound then Outcome.Flooded "too many committee claims"
           else Outcome.Equality_failed "committee views differ")
      else
        Outcome.Output
          { committee = View_check.self_view ~claims ~views i; elected = claims.(i) })

let consistent_committee outs corruption =
  let honest_member_views =
    List.filter_map
      (fun i ->
        match outs.(i) with
        | Outcome.Output v when v.elected -> Some v.committee
        | _ -> None)
      (Netsim.Corruption.honest_list corruption)
  in
  match honest_member_views with
  | [] -> None
  | first :: rest -> if List.for_all (( = ) first) rest then Some first else None
