type config = {
  params : Params.t;
  pke : (module Crypto.Pke.S);
  circuit : Circuit.t;
  input_width : int;
}

let expected_output config ~inputs =
  let bits = Circuit.pack_inputs ~width:config.input_width (Array.to_list inputs) in
  Bitpack.pack (Circuit.eval config.circuit bits)

(* ------------------------------------------------------------------ *)
(* Theorem 2: MPC over gossip                                          *)
(* ------------------------------------------------------------------ *)

type theorem2_adv = {
  sparse : Sparse_network.adv;
  gossip_r1 : Gossip.adv;
  gossip_pdec : Gossip.adv;
  substitute_input : (me:int -> int -> int) option;
  tamper_pdec : (me:int -> bool) option;
}

let honest_theorem2_adv =
  {
    sparse = Sparse_network.honest_adv;
    gossip_r1 = Gossip.honest_adv;
    gossip_pdec = Gossip.honest_adv;
    substitute_input = None;
    tamper_pdec = None;
  }

(* Cost phases of [run_theorem2] (see Analysis.Costs): the routing
   network (closed form), then two gossip phases — the Theorem 9 round-1
   messages (observables under [pre].g1) and the partial decryptions
   (under [pre].g2).  Payload sizes are closed-form in λ, D and the
   input/output widths; everything is exact (gossip has no slack). *)
let cost_phases_theorem2 ~pre ~n ~h ~lambda ~alpha ~depth ~input_width ~out_bits =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let r1_len =
    Cost_expr.round1_bytes ~lambda ~depth
      ~input_bits:(Mul [ Const 8; Ceil_div (input_width, Const 8) ])
  in
  let pdec_len =
    Cost_expr.pdec_payload ~lambda ~depth ~out_bytes:(Ceil_div (out_bits, Const 8))
  in
  (Sparse_network.cost_spec ~n ~h ~lambda ~alpha).Analysis.Costs.phases
  @ Gossip.cost_phases ~pre:(jn "g1") ~len:r1_len
  @ Gossip.cost_phases ~pre:(jn "g2") ~len:pdec_len

let cost_spec_theorem2 ~n ~h ~lambda ~alpha ~depth ~input_width ~out_bits =
  {
    Analysis.Costs.name = "local_mpc.theorem2";
    phases = cost_phases_theorem2 ~pre:"" ~n ~h ~lambda ~alpha ~depth ~input_width ~out_bits;
    max_locality = None;
  }

let run_theorem2 ?obs net rng config ~corruption ~inputs ~adv =
  let params = config.params in
  let n = Netsim.Net.n net in
  let sub_obs name = Option.map (fun o -> Analysis.Costs.Obs.scoped o name) obs in
  if Array.length inputs <> n then invalid_arg "Local_mpc.run_theorem2: wrong input count";
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let depth = Circuit.depth config.circuit in
  let lambda = params.Params.lambda in
  (* Effective inputs after ideal-world substitution. *)
  let effective = Array.mapi (fun i x ->
      match adv.substitute_input with
      | Some f when is_corrupt i -> f ~me:i x
      | _ -> x)
      inputs
  in
  (* Phase 1: routing network. *)
  let sparse_outs = Sparse_network.run net rng params ~corruption ~adv:adv.sparse in
  let graph =
    Array.map
      (function Outcome.Output s -> s | Outcome.Abort _ -> Util.Iset.empty)
      sparse_outs
  in
  let aborted = Array.map Outcome.is_abort sparse_outs in
  (* Phase 2: gossip the Theorem 9 round-1 messages (key shares + encrypted
     inputs + NIZKs, sized by the cost model and bound to the sender's
     effective input). *)
  let r1_message i =
    let input_bytes = Bitpack.int_to_bytes effective.(i) ~width:config.input_width in
    let len =
      Cost_model.round1_bytes ~lambda ~depth ~input_bits:(8 * Bytes.length input_bytes)
    in
    let tag =
      Printf.sprintf "t2round1/%d/%s" i
        (Crypto.Sha256.to_hex (Crypto.Sha256.digest input_bytes))
    in
    Cost_model.filler ~tag ~len
  in
  let sources =
    List.filter_map
      (fun i -> if aborted.(i) then None else Some (i, r1_message i))
      (List.init n (fun i -> i))
  in
  let g1 =
    Gossip.run ?obs:(sub_obs "g1") net rng params ~graph ~sources ~corruption
      ~adv:adv.gossip_r1
  in
  let r1_views = Array.make n None in
  for i = 0 to n - 1 do
    match g1.(i) with
    | Outcome.Abort _ -> aborted.(i) <- true
    | Outcome.Output rumors ->
      if List.length rumors < n then aborted.(i) <- true
        (* a silent party means its round-1 message is missing: abort *)
      else r1_views.(i) <- Some rumors
  done;
  (* Phase 3: gossip the partial decryptions — one per party, covering the
     single public output of f (1 validity byte + poly(λ,D) per output
     bit). *)
  let out_bytes = (Circuit.num_outputs config.circuit + 7) / 8 in
  let pdec_message i =
    let per_block = Cost_model.partial_dec_bytes ~lambda ~depth in
    let body =
      Cost_model.filler ~tag:(Printf.sprintf "t2pdec/%d" i)
        ~len:(per_block * Cost_model.blocks (8 * out_bytes))
    in
    let tampered =
      is_corrupt i && match adv.tamper_pdec with Some f -> f ~me:i | None -> false
    in
    Bytes.cat (Bytes.make 1 (if tampered then '\001' else '\000')) body
  in
  let pdec_sources =
    List.filter_map
      (fun i -> if aborted.(i) then None else Some (i, pdec_message i))
      (List.init n (fun i -> i))
  in
  let g2 =
    Gossip.run ?obs:(sub_obs "g2") net rng params ~graph ~sources:pdec_sources
      ~corruption ~adv:adv.gossip_pdec
  in
  (* The ideal functionality's output on the effective inputs. *)
  let out =
    let bits = Circuit.pack_inputs ~width:config.input_width (Array.to_list effective) in
    Bitpack.pack (Circuit.eval config.circuit bits)
  in
  Array.init n (fun i ->
      if aborted.(i) then
        match sparse_outs.(i) with
        | Outcome.Abort r -> Outcome.Abort r
        | Outcome.Output _ -> Outcome.Abort (Outcome.Upstream "round-1 gossip")
      else
        match g2.(i) with
        | Outcome.Abort r -> Outcome.Abort r
        | Outcome.Output pdecs ->
          if List.length pdecs < n then Outcome.Abort (Outcome.Missing "partial decryption")
          else if
            List.exists
              (fun (_, payload) -> Bytes.length payload = 0 || Bytes.get payload 0 <> '\000')
              pdecs
          then Outcome.Abort (Outcome.Bad_proof "partial decryption NIZK")
          else Outcome.Output out)

(* ------------------------------------------------------------------ *)
(* Theorem 4: Algorithm 8                                              *)
(* ------------------------------------------------------------------ *)

type theorem4_adv = {
  election : Local_committee.adv;
  encf : Enc_func.adv;
  pk_forward : (me:int -> dst:int -> bytes -> bytes) option;
  input_ct : (me:int -> dst:int -> bytes -> bytes) option;
  exchange_tamper : (me:int -> dst:int -> party:int -> bytes -> bytes) option;
  eq : Equality.adv;
  out_forward : (me:int -> dst:int -> bytes -> bytes) option;
}

let honest_theorem4_adv =
  {
    election = Local_committee.honest_adv;
    encf = Enc_func.honest_adv;
    pk_forward = None;
    input_ct = None;
    exchange_tamper = None;
    eq = Equality.honest_adv;
    out_forward = None;
  }

type theorem4_costs = {
  election_bits : int;
  keygen_bits : int;
  cover_bits : int;
  exchange_bits : int;
  equality_bits : int;
  compute_bits : int;
  output_bits : int;
}

let encode_exchange entries =
  Util.Codec.encode
    (fun w ->
      Util.Codec.write_list w (fun w (id, ct) ->
          Util.Codec.write_varint w id;
          Util.Codec.write_bytes w ct))
    entries

let decode_exchange b =
  match
    Util.Codec.decode
      (fun r ->
        Util.Codec.read_list r (fun r ->
            let id = Util.Codec.read_varint r in
            let ct = Util.Codec.read_bytes r in
            (id, ct)))
      b
  with
  | v -> Some v
  | exception Util.Codec.Decode_error _ -> None

(* Cost phases of [run_theorem4] (see Analysis.Costs): the nine
   Algorithm 8 steps.  Observables recorded by [run_theorem4_metered
   ?obs] under [pre]: [members]/[memb_idsum] after election, [pk_sends]
   and [out_sends] (cover fan-outs, Σ_c |S_c \ {c}| over members holding
   the value), [input_sends] (step-5 submissions), the step-6 exchange
   structure ([exch_senders], [exch_hdr], [exch_idsum], [exch_entries] —
   the encode_exchange framing reconstructed arithmetically), [ctv_some]
   (populated entries in the widest merged view), plus sub-protocol
   observables under [pre].lc / [pre].gen / [pre].eq / [pre].comp.  The
   keygen/compute Enc_func runs are guarded on a nonempty committee and
   the step-7 equality on K ≥ 2; the step-4/5/6/9 [Net.step] calls are
   unconditional.  Only fingerprint residues carry slack. *)
let cost_phases_theorem4 ~pre ~pke ~depth ~input_width ~out_bits ~n ~h ~lambda ~alpha =
  let open Analysis.Costs in
  let jn s = if pre = "" then s else pre ^ "." ^ s in
  let v name = Var (jn name) in
  let k = v "members" in
  let idsum = v "memb_idsum" in
  let seed_bytes = Call ("seed_bytes", (fun a -> max 8 (a.(0) / 8)), [| lambda |]) in
  let seed_bits = Mul [ Const 8; seed_bytes ] in
  let pk_b = Cost_expr.pke_pk_bytes pke in
  let ct_b = Cost_expr.pke_ct_bytes pke ~plaintext_len:(Ceil_div (input_width, Const 8)) in
  let out_b = Ceil_div (out_bits, Const 8) in
  let eqv_b =
    Add
      [
        varint_e n;
        sum_varint_below n;
        n;
        Mul [ v "ctv_some"; Add [ varint_e ct_b; ct_b ] ];
      ]
  in
  let exch_msgs = Mul [ v "exch_senders"; Sub (v "exch_senders", Const 1) ] in
  let exch_payload_sum =
    Add [ v "exch_hdr"; v "exch_idsum"; Mul [ v "exch_entries"; Add [ varint_e ct_b; ct_b ] ] ]
  in
  let fan label sends payload_b =
    exact ~label:(jn label) ~edge:"member->cover"
      ~bits:(Cost_expr.bits (Mul [ sends; payload_b ]))
      ~messages:sends ~rounds:(Const 1)
  in
  Local_committee.cost_phases ~pre:(jn "lc") ~n ~h ~lambda ~alpha
  @ guard (Ge (k, Const 1))
      (Enc_func.cost_phases ~pre:(jn "gen") ~k ~idsum ~depth:(Const 1) ~inbits:seed_bits
         ~outbytes:(Const 1) ~recipients:(Const 0) ~n ~lambda)
  @ [
      fan "pk_cover" (v "pk_sends") pk_b;
      exact ~label:(jn "input") ~edge:"party->member"
        ~bits:(Cost_expr.bits (Mul [ v "input_sends"; ct_b ]))
        ~messages:(v "input_sends") ~rounds:(Const 1);
      (* Step 6: every active member sends its whole collected batch to
         each other active member — (K'−1) copies of Σ_c payload_c. *)
      exact ~label:(jn "exchange") ~edge:"member->member"
        ~bits:
          (Cost_expr.bits (Mul [ Sub (v "exch_senders", Const 1); exch_payload_sum ]))
        ~messages:exch_msgs ~rounds:(Const 1);
    ]
  @ guard (Ge (k, Const 2))
      (Equality.cost_phases_pairwise ~pre:(jn "eq") ~k ~maxlen:eqv_b ~n ~lambda)
  @ guard (Ge (k, Const 1))
      (Enc_func.cost_phases ~pre:(jn "comp") ~k ~idsum ~depth ~inbits:seed_bits
         ~outbytes:out_b ~recipients:k ~n ~lambda)
  @ [ fan "output" (v "out_sends") out_b ]

let cost_spec_theorem4 ~pke ~depth ~input_width ~out_bits ~n ~h ~lambda ~alpha =
  {
    Analysis.Costs.name = "local_mpc.theorem4";
    phases =
      cost_phases_theorem4 ~pre:"" ~pke ~depth ~input_width ~out_bits ~n ~h ~lambda ~alpha;
    max_locality = None;
  }

let run_theorem4_metered ?cover_size ?obs net rng config ~corruption ~inputs ~adv =
  let module P = (val config.pke : Crypto.Pke.S) in
  let params = config.params in
  let n = Netsim.Net.n net in
  let ob key value =
    match obs with Some o -> Analysis.Costs.Obs.set o key value | None -> ()
  in
  let sub_obs name = Option.map (fun o -> Analysis.Costs.Obs.scoped o name) obs in
  if Array.length inputs <> n then invalid_arg "Local_mpc.run_theorem4: wrong input count";
  if n * config.input_width <> config.circuit.Circuit.num_inputs then
    invalid_arg "Local_mpc.run_theorem4: circuit arity mismatch";
  let s = match cover_size with Some s -> max 1 (min n s) | None -> Params.cover_size params in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let mark () = Netsim.Net.snapshot net in
  let bits_since before =
    (Netsim.Net.diff_snapshot ~before ~after:(Netsim.Net.snapshot net)).Netsim.Net.snap_bits
  in
  let abort = Array.make n None in
  let set_abort i r = if abort.(i) = None then abort.(i) <- Some r in
  let active i = abort.(i) = None in

  (* ---- Step 1: local committee election ---- *)
  let s0 = mark () in
  let election =
    Local_committee.run ?obs:(sub_obs "lc") net rng params ~corruption
      ~adv:adv.election
  in
  Array.iteri
    (fun i o -> match o with Outcome.Abort r -> set_abort i r | Outcome.Output _ -> ())
    election.Local_committee.views;
  let my_view i =
    match election.Local_committee.views.(i) with
    | Outcome.Output v -> Some v
    | Outcome.Abort _ -> None
  in
  let members =
    List.filter
      (fun i ->
        active i && match my_view i with Some v -> v.Committee.elected | None -> false)
      (List.init n (fun i -> i))
  in
  ob "members" (List.length members);
  ob "memb_idsum" (List.fold_left (fun acc i -> acc + Util.Codec.varint_size i) 0 members);
  let election_bits = bits_since s0 in

  (* ---- Step 2: F_Gen inside the committee ---- *)
  let s1 = mark () in
  let keypair = ref None in
  let gen_results =
    if members = [] then []
    else
      Enc_func.run net rng params ~participants:members
        ~private_input:(fun i ->
          Crypto.Kdf.expand
            ~key:(Util.Prng.bytes rng 32)
            ~info:(Printf.sprintf "t4rgen/%d" i)
            (max 8 (params.Params.lambda / 8)))
        ~depth:1
        ~eval:(fun member_inputs ->
          let seed =
            List.fold_left
              (fun acc (_, r) -> Crypto.Sha256.digest (Bytes.cat acc r))
              (Bytes.of_string "t4-fgen") member_inputs
          in
          let pk, sk = P.keygen_seeded seed in
          keypair := Some (pk, sk);
          { Enc_func.public_output = P.public_key_bytes pk; private_outputs = [] })
        ~corruption ~adv:adv.encf
  in
  let member_pk = Hashtbl.create 8 in
  List.iter
    (fun (i, out) ->
      match out with
      | Outcome.Output (pkb, _) -> Hashtbl.replace member_pk i pkb
      | Outcome.Abort r -> set_abort i r)
    gen_results;
  let keygen_bits = bits_since s1 in

  (* ---- Steps 3-5: cover sampling, pk distribution, input collection ---- *)
  let s2 = mark () in
  let covers = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if active c then begin
        let sample = Util.Prng.sample_without_replacement rng ~n ~k:s in
        Hashtbl.replace covers c sample
      end)
    members;
  (* Step 4: forward pk to the cover, members in ascending id. *)
  let cover_sends holds =
    List.fold_left
      (fun acc c ->
        if active c && holds c then
          acc + List.length (List.filter (fun d -> d <> c) (Hashtbl.find covers c))
        else acc)
      0 members
  in
  ob "pk_sends" (cover_sends (Hashtbl.mem member_pk));
  List.iter
    (fun c ->
      if active c then
        match Hashtbl.find_opt member_pk c with
        | Some pkb ->
          List.iter
            (fun dst ->
              if dst <> c then begin
                let payload =
                  match adv.pk_forward with
                  | Some f when is_corrupt c -> f ~me:c ~dst pkb
                  | _ -> pkb
                in
                Netsim.Net.send net ~src:c ~dst payload
              end)
            (Hashtbl.find covers c)
        | None -> ())
    members;
  Netsim.Net.step net;
  (* Parties learn their responsible members and check pk consistency. *)
  let party_pk = Array.make n None in
  let responsible = Array.make n [] in
  for i = 0 to n - 1 do
    let msgs = Netsim.Net.recv net ~dst:i in
    responsible.(i) <- List.sort_uniq compare (List.map fst msgs);
    (* Committee members know pk directly. *)
    let copies = List.map snd msgs in
    let copies =
      match Hashtbl.find_opt member_pk i with Some own -> own :: copies | None -> copies
    in
    match copies with
    | [] -> () (* uncovered non-member: abort at the end *)
    | first :: rest ->
      if List.for_all (Bytes.equal first) rest then party_pk.(i) <- Some first
      else if active i then set_abort i (Outcome.Equivocation "conflicting public keys")
  done;
  (* Step 5: parties encrypt and send their input to responsible members. *)
  let input_bytes i = Bitpack.int_to_bytes inputs.(i) ~width:config.input_width in
  let own_ct = Hashtbl.create 8 in
  let input_sends = ref 0 in
  for i = 0 to n - 1 do
    if active i then
      match party_pk.(i) with
      | Some pkb -> (
        match P.public_key_of_bytes pkb with
        | None -> set_abort i (Outcome.Malformed "public key")
        | Some pk ->
          let ct = P.encrypt rng pk (input_bytes i) in
          if Hashtbl.mem member_pk i then Hashtbl.replace own_ct i ct;
          List.iter
            (fun c ->
              if c <> i then begin
                let payload =
                  match adv.input_ct with
                  | Some f when is_corrupt i -> f ~me:i ~dst:c ct
                  | _ -> ct
                in
                incr input_sends;
                Netsim.Net.send net ~src:i ~dst:c payload
              end)
            responsible.(i))
      | None -> ()
  done;
  ob "input_sends" !input_sends;
  Netsim.Net.step net;
  (* Input collection: each member filters its own inbox against its
     cover. *)
  let collected = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let msgs = Netsim.Net.recv net ~dst:c in
      let mine = Hashtbl.find covers c in
      let entries =
        List.filter_map
          (fun (src, ct) -> if List.mem src mine then Some (src, ct) else None)
          msgs
      in
      let entries =
        match Hashtbl.find_opt own_ct c with
        | Some ct when List.mem c mine -> (c, ct) :: entries
        | _ -> entries
      in
      Hashtbl.replace collected c (List.sort compare entries))
    (List.filter active members);
  let cover_bits = bits_since s2 in

  (* ---- Step 6: members exchange their collected inputs ---- *)
  let s3 = mark () in
  let active_members = List.filter active members in
  ob "exch_senders" (List.length active_members);
  let exch_hdr, exch_idsum, exch_entries =
    List.fold_left
      (fun (hdr, idsum, cnt) c ->
        let entries = Hashtbl.find collected c in
        ( hdr + Util.Codec.varint_size (List.length entries),
          idsum
          + List.fold_left (fun a (id, _) -> a + Util.Codec.varint_size id) 0 entries,
          cnt + List.length entries ))
      (0, 0, 0) active_members
  in
  ob "exch_hdr" exch_hdr;
  ob "exch_idsum" exch_idsum;
  ob "exch_entries" exch_entries;
  List.iter
    (fun c ->
      let entries = Hashtbl.find collected c in
      List.iter
        (fun c' ->
          if c' <> c then begin
            let entries =
              match adv.exchange_tamper with
              | Some f when is_corrupt c ->
                List.map (fun (party, ct) -> (party, f ~me:c ~dst:c' ~party ct)) entries
              | _ -> entries
            in
            Netsim.Net.send net ~src:c ~dst:c' (encode_exchange entries)
          end)
        active_members)
    active_members;
  Netsim.Net.step net;
  let merged = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let tbl = Hashtbl.create n in
      let conflict = ref false in
      let add (id, ct) =
        match Hashtbl.find_opt tbl id with
        | None -> Hashtbl.replace tbl id ct
        | Some prev -> if not (Bytes.equal prev ct) then conflict := true
      in
      List.iter add (Hashtbl.find collected c);
      List.iter
        (fun (_, payload) ->
          match decode_exchange payload with
          | Some entries -> List.iter add entries
          | None -> conflict := true)
        (Netsim.Net.recv net ~dst:c);
      if !conflict then set_abort c (Outcome.Equivocation "conflicting ciphertexts in exchange")
      else Hashtbl.replace merged c (List.init n (fun i -> (i, Hashtbl.find_opt tbl i))))
    active_members;
  let exchange_bits = bits_since s3 in

  (* ---- Step 7: pairwise equality on the merged views ---- *)
  let s4 = mark () in
  let eq_members = List.filter (fun c -> active c && Hashtbl.mem merged c) members in
  ob "ctv_some"
    (List.fold_left
       (fun acc c ->
         let view = Hashtbl.find merged c in
         max acc (List.length (List.filter (fun (_, ct) -> ct <> None) view)))
       0 eq_members);
  let verdicts =
    if List.length eq_members >= 2 then
      Equality.pairwise net rng params ~members:eq_members
        ~value:(Equality.view_value (Hashtbl.find merged))
        ~corruption ~adv:adv.eq
    else List.map (fun c -> (c, true)) eq_members
  in
  List.iter
    (fun (c, ok) ->
      if (not ok) && not (is_corrupt c) then
        set_abort c (Outcome.Equality_failed "merged ciphertext views differ"))
    verdicts;
  let equality_bits = bits_since s4 in

  (* ---- Step 8: F_Comp ---- *)
  let s5 = mark () in
  let comp_members = List.filter active members in
  let comp_results =
    if comp_members = [] then []
    else
      Enc_func.run net rng params ~participants:comp_members
        ~private_input:(fun c ->
          Crypto.Kdf.expand
            ~key:(Bytes.of_string (Printf.sprintf "t4skshare/%d" c))
            ~info:"share" (max 8 (params.Params.lambda / 8)))
        ~depth:(Circuit.depth config.circuit)
        ~eval:(fun _ ->
          let canonical =
            let honest_members =
              List.filter (fun c -> Netsim.Corruption.is_honest corruption c) comp_members
            in
            match (honest_members, comp_members) with
            | c :: _, _ -> ( match Hashtbl.find_opt merged c with Some v -> v | None -> [])
            | [], c :: _ -> ( match Hashtbl.find_opt merged c with Some v -> v | None -> [])
            | [], [] -> []
          in
          let sk = match !keypair with Some (_, sk) -> sk | None -> assert false in
          let bit_inputs =
            if canonical = [] then
              List.init (n * config.input_width) (fun _ -> false)
            else
              List.concat_map
                (fun (i, ct) ->
                  let value =
                    match ct with
                    | Some ct -> (
                      match P.decrypt sk ct with
                      | Some pt -> Bitpack.bytes_to_int pt ~width:config.input_width
                      | None -> 0)
                    | None -> if is_corrupt i then 0 else inputs.(i)
                  in
                  List.init config.input_width (fun k -> (value lsr k) land 1 = 1))
                canonical
          in
          let out = Circuit.eval config.circuit (Array.of_list bit_inputs) in
          let packed = Bitpack.pack out in
          {
            Enc_func.public_output = Bytes.empty;
            private_outputs = List.map (fun c -> (c, packed)) comp_members;
          })
        ~corruption ~adv:adv.encf
  in
  let member_out = Hashtbl.create 8 in
  List.iter
    (fun (c, out) ->
      match out with
      | Outcome.Output (_, o) -> Hashtbl.replace member_out c o
      | Outcome.Abort r -> set_abort c r)
    comp_results;
  let compute_bits = bits_since s5 in

  (* ---- Step 9: output to covers ---- *)
  (* Mirrors mpc_abort step 7: output fan-out, then per-party
     collection and classification. *)
  let s6 = mark () in
  ob "out_sends" (cover_sends (Hashtbl.mem member_out));
  List.iter
    (fun c ->
      if active c then
        match Hashtbl.find_opt member_out c with
        | Some out ->
          List.iter
            (fun dst ->
              if dst <> c then begin
                let payload =
                  match adv.out_forward with
                  | Some f when is_corrupt c -> f ~me:c ~dst out
                  | _ -> out
                in
                Netsim.Net.send net ~src:c ~dst payload
              end)
            (Hashtbl.find covers c)
        | None -> ())
    members;
  Netsim.Net.step net;
  let final =
    Array.init n (fun i ->
        let copies = List.map snd (Netsim.Net.recv net ~dst:i) in
        let copies =
          match Hashtbl.find_opt member_out i with Some own -> own :: copies | None -> copies
        in
        match (abort.(i), copies) with
        | Some r, _ -> Outcome.Abort r
        | None, [] -> Outcome.Abort (Outcome.Missing "no output received (uncovered)")
        | None, first :: rest ->
          if List.for_all (Bytes.equal first) rest then Outcome.Output first
          else Outcome.Abort (Outcome.Equivocation "conflicting outputs"))
  in
  let output_bits = bits_since s6 in
  ( final,
    {
      election_bits;
      keygen_bits;
      cover_bits;
      exchange_bits;
      equality_bits;
      compute_bits;
      output_bits;
    } )

let run_theorem4 ?obs net rng config ~corruption ~inputs ~adv =
  fst (run_theorem4_metered ?obs net rng config ~corruption ~inputs ~adv)
