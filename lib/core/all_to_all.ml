type variant = Naive | Fingerprinted

type adv = {
  input_value : (me:int -> dst:int -> bytes) option;
  drop : (src:int -> dst:int -> bool) option;
  eq : Equality.adv;
}

let honest_adv = { input_value = None; drop = None; eq = Equality.honest_adv }

(* Cost phases (see Analysis.Costs) for an honest run over [k] members
   with uniform [len]-byte inputs.  [idsum] is Σ varint_size(id) over the
   member ids (the id column of the view encoding; callers with a prefix
   range use [Costs.sum_varint_below]).  Naive: distribute + batched echo
   (2 rounds).  Fingerprinted: distribute + Equality.pairwise over the
   encoded views (3 rounds). *)
let cost_phases ~variant ~pre ~k ~idsum ~len ~n ~lambda =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let ordered = Mul [ k; Sub (k, Const 1) ] in
  let distribute =
    exact ~label:(jn "distribute") ~edge:"member->member"
      ~bits:(Cost_expr.bits (Mul [ ordered; len ]))
      ~messages:ordered ~rounds:(Const 1)
  in
  match variant with
  | Naive ->
    (* Echo payload: presence bitmap + every present framed value; honest
       runs have all k present. *)
    let echo_payload =
      Add [ Ceil_div (k, Const 8); Mul [ k; Add [ varint_e len; len ] ] ]
    in
    [
      distribute;
      exact ~label:(jn "echo") ~edge:"member->member"
        ~bits:(Cost_expr.bits (Mul [ ordered; echo_payload ]))
        ~messages:ordered ~rounds:(Const 1);
    ]
  | Fingerprinted ->
    (* Equality.write_view: varint k, then per member varint id + option byte +
       framed value. *)
    let view_bytes =
      Add [ varint_e k; idsum; Mul [ k; Add [ Const 1; varint_e len; len ] ] ]
    in
    distribute
    :: Equality.cost_phases_pairwise ~pre:(jn "eq") ~k ~maxlen:view_bytes ~n ~lambda

let cost_spec ~variant ~k ~idsum ~len ~n ~lambda =
  {
    Analysis.Costs.name =
      (match variant with
      | Naive -> "all_to_all.naive"
      | Fingerprinted -> "all_to_all.fingerprinted");
    phases = cost_phases ~variant ~pre:"" ~k ~idsum ~len ~n ~lambda;
    max_locality = None;
  }

let run ?pool:_ ?deadline net rng params ~variant ~participants ~input ~corruption ~adv =
  (* Input thunks may consume randomness; evaluate once per participant,
     in member order before the first round, so the value sent, echoed
     and placed in views is identical. *)
  let input =
    let cache = Hashtbl.create 16 in
    fun i ->
      match Hashtbl.find_opt cache i with
      | Some v -> v
      | None ->
        let v = input i in
        Hashtbl.replace cache i v;
        v
  in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let should_drop ~src ~dst =
    is_corrupt src && match adv.drop with Some f -> f ~src ~dst | None -> false
  in
  let members = List.sort_uniq compare participants in
  List.iter (fun i -> ignore (input i)) members;
  (* Distribution round (both variants): everyone sends its (claimed) input
     to every other participant. *)
  let distribute () =
    List.iter
      (fun src ->
        let value = input src in
        List.iter
          (fun dst ->
            if dst <> src && not (should_drop ~src ~dst) then begin
              let v =
                match adv.input_value with
                | Some f when is_corrupt src -> f ~me:src ~dst
                | _ -> value
              in
              Netsim.Net.send net ~src ~dst v
            end)
          members)
      members;
    Netsim.Net.step_until_quiet ?deadline net
  in
  match variant with
  | Naive ->
    (* |S| parallel single-source broadcasts restricted to the subset, run
       simultaneously: one distribution round (raw values per ordered
       pair), then one echo round in which each party re-broadcasts its
       ENTIRE received vector as a single batched message — a Bitpack
       presence bitmap (one bit per sender in member order) followed by
       the present values.  Wire cost stays Θ(|S|³·ℓ) in the echoes (the
       naive baseline the fingerprinted variant beats), but the per-value
       option framing of the old one-message-per-sender echo collapses to
       one bit, and message count drops from O(|S|³) to O(|S|²). *)
    let member_arr = Array.of_list members in
    let n_members = Array.length member_arr in
    let index_of = Hashtbl.create n_members in
    Array.iteri (fun k m -> Hashtbl.replace index_of m k) member_arr;
    distribute ();
    (* Collection + echo round, one pass: each party drains its
       per-sender queues into its received row, then broadcasts the row as
       one batched echo message. *)
    let row_arr =
      Array.map
        (fun i ->
          let row =
            Array.map
              (fun sender ->
                if sender = i then Some (input sender)
                else Netsim.Net.recv_one net ~dst:i ~src:sender)
              member_arr
          in
          let w = Util.Codec.writer () in
          Bitpack.pack_into w (Array.map (fun v -> v <> None) row);
          Array.iter
            (function Some v -> Util.Codec.write_bytes w v | None -> ())
            row;
          let payload = Util.Codec.contents w in
          List.iter
            (fun dst ->
              if dst <> i && not (should_drop ~src:i ~dst) then
                Netsim.Net.send net ~src:i ~dst payload)
            members;
          row)
        member_arr
    in
    Netsim.Net.step_until_quiet ?deadline net;
    (* Zero-copy echo decode: the presence bitmap and every echoed value
       stay as views into the received payload (which is immutable once
       delivered — the Codec ownership contract), so decoding a Θ(|S|·ℓ)
       echo allocates Θ(|S|) small view records instead of copying every
       value back out of it. *)
    let decode_echo payload =
      match
        Util.Codec.decode
          (fun r ->
            let bitmap = Util.Codec.read_raw_view r ((n_members + 7) / 8) in
            let vec = Array.make n_members None in
            for k = 0 to n_members - 1 do
              if Bitpack.test bitmap k then vec.(k) <- Some (Util.Codec.read_bytes_view r)
            done;
            vec)
          payload
      with
      | vec -> Some vec
      | exception Util.Codec.Decode_error _ -> None
    in
    (* Output round: compare every echo against the own row, per party. *)
    List.map
      (fun i ->
        let mine_row = row_arr.(Hashtbl.find index_of i) in
        let echoes =
          List.filter_map
            (fun j ->
              if j = i then None
              else
                Some
                  (match Netsim.Net.recv_one net ~dst:i ~src:j with
                  | Some payload -> decode_echo payload
                  | None -> None))
            members
        in
        (* A silent or garbled peer voids every sender's consistency, as a
           peer silent in every per-sender phase did before batching. *)
        let all_echoed = List.for_all (fun e -> e <> None) echoes in
        let ok = ref all_echoed in
        let view = ref [] in
        for k = n_members - 1 downto 0 do
          let sender = member_arr.(k) in
          let mine = mine_row.(k) in
          let agreed =
            all_echoed
            && List.for_all
                 (fun e ->
                   match e with
                   | None -> false
                   | Some vec -> (
                     match (mine, vec.(k)) with
                     | Some a, Some b -> Util.Codec.view_equal_bytes b a
                     | None, None -> true
                     | _ -> false))
                 echoes
          in
          if not agreed then ok := false;
          match (if agreed then mine else None) with
          | Some v -> view := (sender, v) :: !view
          | None -> ()
        done;
        if !ok && List.length !view = n_members then (i, Outcome.Output !view)
        else (i, Outcome.Abort (Outcome.Equivocation "all-to-all naive mismatch")))
      members
  | Fingerprinted ->
    (* Round 1: everyone sends their input to every other participant. *)
    distribute ();
    let views = Hashtbl.create 16 in
    List.iter
      (fun i ->
        Hashtbl.replace views i
          (List.map
             (fun src ->
               if src = i then (src, Some (input src))
               else (src, Netsim.Net.recv_one net ~dst:i ~src))
             members))
      members;
    (* Round 2: pairwise equality over the concatenated views, a party's
       view being its own input plus what it heard from each other
       participant ([None] = silence). *)
    let verdicts =
      Equality.pairwise ?deadline net rng params ~members
        ~value:(Equality.view_value (Hashtbl.find views))
        ~corruption ~adv:adv.eq
    in
    List.map
      (fun (i, passed) ->
        let view = Hashtbl.find views i in
        let complete = List.for_all (fun (_, v) -> v <> None) view in
        if passed && complete then
          (i, Outcome.Output (List.map (fun (id, v) -> (id, Option.get v)) view))
        else if not complete then (i, Outcome.Abort (Outcome.Missing "silent participant"))
        else (i, Outcome.Abort (Outcome.Equality_failed "view fingerprints differ")))
      verdicts
