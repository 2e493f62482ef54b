type adv = {
  extra_targets : (me:int -> int list) option;
  drop_notify : (me:int -> dst:int -> bool) option;
}

let honest_adv = { extra_targets = None; drop_notify = None }

(* One shared notification payload: the simulator treats payloads as
   immutable, so every honest notification can ride the same byte string
   instead of allocating n·d fresh one-byte buffers. *)
let notify_payload = Bytes.make 1 '\001'

(* [shapes m] is [[| {}; {0}; {0, 1}; ...; {0, ..., m - 1} |]].  Stdlib
   sets have no linear-time builder from sorted input ([of_list] sorts
   again), but [Iset.map] of a strictly increasing function rebuilds its
   argument's balanced shape node for node, so mapping [shapes.(k)]
   through a sorted, distinct k-element array builds that array's set
   in O(k) allocation. *)
let shapes m =
  let a = Array.make (m + 1) Util.Iset.empty in
  for k = 1 to m do
    a.(k) <- Util.Iset.add (k - 1) a.(k - 1)
  done;
  a

(* Party [i]'s outcome from its delivered notifications: the distinct
   senders, checked against [bound], then merged once with the sorted,
   distinct [out_hops.(i)] into one set.  The senders arrive ascending
   under the sync transport, so they are sorted only when they do not. *)
let outcome_of_inbox ~bound ~out_hops ~shapes i inbox =
  let senders = Array.make (List.length inbox) 0 in
  List.iteri (fun k (src, _) -> senders.(k) <- src) inbox;
  let len = Array.length senders in
  let ascending = ref true in
  for k = 1 to len - 1 do
    if senders.(k - 1) > senders.(k) then ascending := false
  done;
  if not !ascending then Array.sort Int.compare senders;
  let m = ref (min len 1) in
  for k = 1 to len - 1 do
    if senders.(k) <> senders.(!m - 1) then begin
      senders.(!m) <- senders.(k);
      incr m
    end
  done;
  if !m > bound then Outcome.Abort (Outcome.Flooded "incoming degree above 2d")
  else begin
    let hops = out_hops.(i) in
    let h = Array.length hops in
    let merged = Array.make (!m + h) 0 in
    let a = ref 0 and b = ref 0 and w = ref 0 in
    while !a < !m || !b < h do
      if !b >= h || (!a < !m && senders.(!a) < hops.(!b)) then begin
        merged.(!w) <- senders.(!a);
        incr a
      end
      else begin
        if !a < !m && senders.(!a) = hops.(!b) then incr a;
        merged.(!w) <- hops.(!b);
        incr b
      end;
      incr w
    done;
    Outcome.Output (Util.Iset.map (fun j -> merged.(j)) shapes.(!w))
  end

(* Cost spec (see Analysis.Costs): fully closed-form — every party sends
   one 1-byte notification to each of its min(d, n−1) distinct sampled
   hops, in one round.  Under [honest_adv] this holds for corrupted
   parties too (the adversary hooks are inert), so the E7 sweeps audit
   exactly even with random corruption. *)
let cost_spec ~n ~h ~lambda ~alpha =
  let open Analysis.Costs in
  let deff = Cost_expr.sparse_degree ~n ~h ~lambda ~alpha in
  let sends = Mul [ n; deff ] in
  {
    name = "sparse_network.run";
    phases =
      [
        exact ~label:"notify" ~edge:"party->hops" ~bits:(Cost_expr.bits sends)
          ~messages:sends ~rounds:(Const 1);
      ];
    (* The hop graph is sampled, so the locality has no closed form in
       the public parameters alone; the exact value is the max union
       degree |out(i) ∪ in(i)| of the sampled graph, recorded by [run]
       as the structural observable [union_degmax] (computed from the
       hop arrays, never from wire traffic — a genuine cross-check).
       Exact under honest_adv. *)
    max_locality = Some (Var "union_degmax");
  }

(* Structural max union degree of the sampled hop graph: each party's
   peers are its own out-hops plus every party that sampled it.  Binary
   search keeps this O(n·d·log d) — the hop arrays are sorted by
   construction (sorted sample, order-preserving shift). *)
let union_degmax out_hops =
  let n = Array.length out_hops in
  let mem_sorted a v =
    let lo = ref 0 and hi = ref (Array.length a) in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length a && a.(!lo) = v
  in
  let extra_in = Array.make n 0 in
  Array.iteri
    (fun j hops ->
      Array.iter
        (fun dst ->
          if not (mem_sorted out_hops.(dst) j) then extra_in.(dst) <- extra_in.(dst) + 1)
        hops)
    out_hops;
  let best = ref 0 in
  for i = 0 to n - 1 do
    let d = Array.length out_hops.(i) + extra_in.(i) in
    if d > !best then best := d
  done;
  !best

let run_iter ?obs net rng params ~corruption ~adv ~f =
  let n = Netsim.Net.n net in
  let d = Params.sparse_degree params in
  let bound = Params.degree_bound params in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  (* Step 1: sample outgoing hops (distinct, excluding self).  Int arrays,
     not lists: at n = 10⁶ the three cons-cell words per hop alone cost
     ~1 GB where the flat arrays cost a third of that. *)
  let out_hops =
    Array.init n (fun i ->
        let a = Util.Prng.sample_array rng ~n:(n - 1) ~k:(min d (n - 1)) in
        (* Map [0, n-2] onto [0, n-1] \ {i}. *)
        for k = 0 to Array.length a - 1 do
          if a.(k) >= i then a.(k) <- a.(k) + 1
        done;
        a)
  in
  (match obs with
  | Some o -> Analysis.Costs.Obs.set o "union_degmax" (union_degmax out_hops)
  | None -> ());
  (* A set that passes the bound holds at most [bound] senders and [d]
     out-hops, none of them the party itself. *)
  let shapes = shapes (min (n - 1) (bound + d)) in
  (* Step 2: notification.  Corrupted parties may add extra targets (to
     flood a victim) or silently skip some notifications. *)
  for i = 0 to n - 1 do
    if is_corrupt i then begin
      let extra = match adv.extra_targets with Some f -> f ~me:i | None -> [] in
      let targets = List.sort_uniq compare (extra @ Array.to_list out_hops.(i)) in
      List.iter
        (fun dst ->
          if dst <> i then begin
            let dropped =
              match adv.drop_notify with Some f -> f ~me:i ~dst | None -> false
            in
            if not dropped then Netsim.Net.send net ~src:i ~dst notify_payload
          end)
        targets
    end
    else
      (* Honest hops exclude self by construction and arrive sorted. *)
      Array.iter
        (fun dst -> Netsim.Net.send net ~src:i ~dst notify_payload)
        out_hops.(i)
  done;
  Netsim.Net.step net;
  (* Step 3: collect incoming notifications; abort on a flooded inbox.
     (The paper's step 3 text garbles the inequality; per the proof of
     Claim 20 the abort condition is |N_in| exceeding twice the expected
     degree.)  Outcomes stream through [f] in ascending party order, and
     no more than one neighbor set is live at a time, which is what keeps
     the n = 10⁶ runs inside memory (n retained [Iset]s of degree d are
     gigabytes). *)
  for i = 0 to n - 1 do
    f i (outcome_of_inbox ~bound ~out_hops ~shapes i (Netsim.Net.recv net ~dst:i))
  done

let run ?obs net rng params ~corruption ~adv =
  let outs = Array.make (Netsim.Net.n net) (Outcome.Output Util.Iset.empty) in
  run_iter ?obs net rng params ~corruption ~adv ~f:(fun i o -> outs.(i) <- o);
  outs

let honest_subgraph_connected outs corruption =
  let honest_active =
    List.filter
      (fun i -> Outcome.is_output outs.(i))
      (Netsim.Corruption.honest_list corruption)
  in
  match honest_active with
  | [] -> true
  | start :: _ ->
    let neighbor_set i =
      match outs.(i) with Outcome.Output s -> s | Outcome.Abort _ -> Util.Iset.empty
    in
    let honest_set = Util.Iset.of_list honest_active in
    let visited = Hashtbl.create 64 in
    let rec bfs = function
      | [] -> ()
      | i :: rest ->
        if Hashtbl.mem visited i then bfs rest
        else begin
          Hashtbl.replace visited i ();
          let next =
            Util.Iset.fold
              (fun j acc ->
                if Util.Iset.mem j honest_set && not (Hashtbl.mem visited j) then j :: acc
                else acc)
              (neighbor_set i) []
          in
          bfs (next @ rest)
        end
    in
    bfs [ start ];
    List.for_all (Hashtbl.mem visited) honest_active

let max_degree outs =
  Array.fold_left
    (fun acc o ->
      match o with
      | Outcome.Output s -> max acc (Util.Iset.cardinal s)
      | Outcome.Abort _ -> acc)
    0 outs
