type config = {
  params : Params.t;
  pke : (module Crypto.Pke.S);
  circuit : Circuit.t;
  input_width : int;
}

type adv = {
  committee : Committee.adv;
  encf : Enc_func.adv;
  pk_forward : (me:int -> dst:int -> bytes -> bytes) option;
  input_ct : (me:int -> dst:int -> bytes -> bytes) option;
  eq : Equality.adv;
  out_forward : (me:int -> dst:int -> bytes -> bytes) option;
}

let honest_adv =
  {
    committee = Committee.honest_adv;
    encf = Enc_func.honest_adv;
    pk_forward = None;
    input_ct = None;
    eq = Equality.honest_adv;
    out_forward = None;
  }

type phase_costs = {
  election_bits : int;
  keygen_bits : int;
  pk_forward_bits : int;
  input_bits : int;
  equality_bits : int;
  compute_bits : int;
  output_bits : int;
}

let expected_output config ~inputs =
  let bits = Circuit.pack_inputs ~width:config.input_width (Array.to_list inputs) in
  Bitpack.pack (Circuit.eval config.circuit bits)

(* Cost phases (see Analysis.Costs): the seven steps of Algorithm 3,
   composed from the sub-protocol specs.  Structural observables recorded
   by [run_metered ?obs] under [pre]: [members] (committee size K after
   election), [memb_idsum] (Σ varint_size over member ids), [pk_senders]
   and [out_senders] (members that actually fan out in steps 3/7),
   [input_sends] (ciphertext submissions of step 4), [ctv_some] (populated
   entries in the widest member ciphertext view of step 5), plus the
   sub-protocol observables under [pre].comm / [pre].gen / [pre].eq /
   [pre].comp.  Byte counts are reconstructed arithmetically from the
   encoders' framing; only fingerprint residues carry slack.  The keygen
   and compute {!Enc_func} runs are skipped when the committee is empty
   and the equality when K < 2 (guarded); the step-3/4/7 [Net.step] calls
   are unconditional, so those rounds are not. *)
let cost_phases ~pre ~pke ~depth ~input_width ~out_bits ~n ~lambda =
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
  (* m_c of step 5: Equality.write_view over all n parties (varint id ·
     write_option write_bytes ct); every entry costs its id varint plus
     one option byte, populated ones add the ciphertext with its length
     varint. *)
  let eqv_b =
    Add
      [
        varint_e n;
        sum_varint_below n;
        n;
        Mul [ v "ctv_some"; Add [ varint_e ct_b; ct_b ] ];
      ]
  in
  let fan label senders payload_b =
    exact ~label:(jn label) ~edge:"member->all"
      ~bits:(Cost_expr.bits (Mul [ senders; Sub (n, Const 1); payload_b ]))
      ~messages:(Mul [ senders; Sub (n, Const 1) ])
      ~rounds:(Const 1)
  in
  Committee.cost_phases ~pre:(jn "comm") ~n ~lambda
  @ guard (Ge (k, Const 1))
      (Enc_func.cost_phases ~pre:(jn "gen") ~k ~idsum ~depth:(Const 1) ~inbits:seed_bits
         ~outbytes:(Const 1) ~recipients:(Const 0) ~n ~lambda)
  @ [
      fan "pk_forward" (v "pk_senders") pk_b;
      exact ~label:(jn "input") ~edge:"party->member"
        ~bits:(Cost_expr.bits (Mul [ v "input_sends"; ct_b ]))
        ~messages:(v "input_sends") ~rounds:(Const 1);
    ]
  @ guard (Ge (k, Const 2))
      (Equality.cost_phases_pairwise ~pre:(jn "eq") ~k ~maxlen:eqv_b ~n ~lambda)
  @ guard (Ge (k, Const 1))
      (Enc_func.cost_phases ~pre:(jn "comp") ~k ~idsum ~depth ~inbits:seed_bits
         ~outbytes:out_b ~recipients:k ~n ~lambda)
  @ [ fan "output" (v "out_senders") out_b ]

let cost_spec ~pke ~depth ~input_width ~out_bits ~n ~lambda =
  {
    Analysis.Costs.name = "mpc_abort.run";
    phases = cost_phases ~pre:"" ~pke ~depth ~input_width ~out_bits ~n ~lambda;
    max_locality = None;
  }

let run_metered ?deadline ?obs net rng config ~corruption ~inputs ~adv =
  let module P = (val config.pke : Crypto.Pke.S) in
  let params = config.params in
  let n = Netsim.Net.n net in
  if Array.length inputs <> n then invalid_arg "Mpc_abort.run: wrong input count";
  if n * config.input_width <> config.circuit.Circuit.num_inputs then
    invalid_arg "Mpc_abort.run: circuit arity mismatch";
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let ob key value =
    match obs with Some o -> Analysis.Costs.Obs.set o key value | None -> ()
  in
  let sub_obs name = Option.map (fun o -> Analysis.Costs.Obs.scoped o name) obs in
  let mark_phase () = Netsim.Net.snapshot net in
  let phase_bits before =
    (Netsim.Net.diff_snapshot ~before ~after:(Netsim.Net.snapshot net)).Netsim.Net.snap_bits
  in

  let abort = Array.make n None in
  let set_abort i r = if abort.(i) = None then abort.(i) <- Some r in
  let active i = abort.(i) = None in

  (* ---- Step 1: committee election ---- *)
  let s0 = mark_phase () in
  let views = Committee.run ?deadline ?obs:(sub_obs "comm") net rng params ~corruption ~adv:adv.committee in
  Array.iteri
    (fun i o -> match o with Outcome.Abort r -> set_abort i r | Outcome.Output _ -> ())
    views;
  let my_view i =
    match views.(i) with Outcome.Output v -> Some v | Outcome.Abort _ -> None
  in
  let members =
    List.filter
      (fun i ->
        active i && match my_view i with Some v -> v.Committee.elected | None -> false)
      (List.init n (fun i -> i))
  in
  ob "members" (List.length members);
  ob "memb_idsum" (List.fold_left (fun acc i -> acc + Util.Codec.varint_size i) 0 members);
  let election_bits = phase_bits s0 in

  (* ---- Step 2: F_Gen — threshold key generation inside the committee ---- *)
  let s1 = mark_phase () in
  let keypair = ref None in
  let gen_results =
    if members = [] then []
    else
      Enc_func.run ?deadline net rng params ~participants:members
        ~private_input:(fun i ->
          Crypto.Kdf.expand
            ~key:(Util.Prng.bytes rng 32)
            ~info:(Printf.sprintf "rgen/%d" i)
            (max 8 (params.Params.lambda / 8)))
        ~depth:1
        ~eval:(fun member_inputs ->
          (* r := combination of all contributions; (pk, sk) := Gen(1^λ; r).
             The secret key exists only inside this closure — the ideal
             threshold functionality. *)
          let seed =
            List.fold_left
              (fun acc (_, r) -> Crypto.Sha256.digest (Bytes.cat acc r))
              (Bytes.of_string "fgen-seed") member_inputs
          in
          let pk, sk = P.keygen_seeded seed in
          keypair := Some (pk, sk);
          (* The joint public key is locally derivable from the round-1
             broadcast (TFHE key combination) — a public output. *)
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
  let keygen_bits = phase_bits s1 in

  (* ---- Step 3: pk forwarding to the whole network ---- *)
  (* The member fan-out (O(|C|·n) sends), then every party's conflict
     check. *)
  let s2 = mark_phase () in
  ob "pk_senders"
    (List.length (List.filter (fun c -> active c && Hashtbl.mem member_pk c) members));
  List.iter
    (fun c ->
      if active c then
        match Hashtbl.find_opt member_pk c with
        | Some pkb ->
          for dst = 0 to n - 1 do
            if dst <> c then begin
              let payload =
                match adv.pk_forward with
                | Some f when is_corrupt c -> f ~me:c ~dst pkb
                | _ -> pkb
              in
              Netsim.Net.send net ~src:c ~dst payload
            end
          done
        | None -> ())
    members;
  Netsim.Net.step_until_quiet ?deadline net;
  let party_pk = Array.make n None in
  for i = 0 to n - 1 do
    let copies = List.map snd (Netsim.Net.recv net ~dst:i) in
    let copies =
      match Hashtbl.find_opt member_pk i with Some own -> own :: copies | None -> copies
    in
    match copies with
    | [] -> if active i then set_abort i (Outcome.Missing "no public key received")
    | first :: rest ->
      if List.for_all (Bytes.equal first) rest then party_pk.(i) <- Some first
      else if active i then set_abort i (Outcome.Equivocation "conflicting public keys")
  done;
  let pk_forward_bits = phase_bits s2 in

  (* ---- Step 4: input encryption and submission ---- *)
  let s3 = mark_phase () in
  let input_bytes i = Bitpack.int_to_bytes inputs.(i) ~width:config.input_width in
  (* Committee members encrypt their own input locally (no transmission). *)
  let own_ct = Hashtbl.create 8 in
  let input_sends = ref 0 in
  for i = 0 to n - 1 do
    if active i then
      match (party_pk.(i), my_view i) with
      | Some pkb, Some v -> (
        match P.public_key_of_bytes pkb with
        | None -> set_abort i (Outcome.Malformed "public key")
        | Some pk ->
          let ct = P.encrypt rng pk (input_bytes i) in
          if List.mem i v.Committee.committee then Hashtbl.replace own_ct i ct;
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
            v.Committee.committee)
      | _ -> ()
  done;
  ob "input_sends" !input_sends;
  Netsim.Net.step_until_quiet ?deadline net;
  (* Each member assembles its view of every party's ciphertext. *)
  let member_cts = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let tbl = Hashtbl.create n in
      List.iter
        (fun (src, ct) ->
          match Hashtbl.find_opt tbl src with
          | None -> Hashtbl.replace tbl src (Some ct)
          | Some (Some prev) when Bytes.equal prev ct -> ()
          | Some _ -> Hashtbl.replace tbl src None)
        (Netsim.Net.recv net ~dst:c);
      (match Hashtbl.find_opt own_ct c with
      | Some ct -> Hashtbl.replace tbl c (Some ct)
      | None -> ());
      Hashtbl.replace member_cts c
        (List.init n (fun i ->
             (i, match Hashtbl.find_opt tbl i with Some (Some ct) -> Some ct | _ -> None))))
    (List.filter active members);
  let input_phase_bits = phase_bits s3 in

  (* ---- Step 5: pairwise equality on ciphertext views ---- *)
  (* m_c is a member's view of all parties' ciphertexts, sorted by party
     id with explicit missing markers, encoded by Equality.view_value. *)
  let s4 = mark_phase () in
  let eq_members = List.filter active members in
  ob "ctv_some"
    (List.fold_left
       (fun acc c ->
         let view = Hashtbl.find member_cts c in
         max acc (List.length (List.filter (fun (_, ct) -> ct <> None) view)))
       0 eq_members);
  let verdicts =
    if List.length eq_members >= 2 then
      Equality.pairwise ?deadline net rng params ~members:eq_members
        ~value:(Equality.view_value (Hashtbl.find member_cts))
        ~corruption ~adv:adv.eq
    else List.map (fun c -> (c, true)) eq_members
  in
  List.iter
    (fun (c, ok) ->
      if (not ok) && not (is_corrupt c) then
        set_abort c (Outcome.Equality_failed "ciphertext views differ"))
    verdicts;
  let equality_bits = phase_bits s4 in

  (* ---- Step 6: F_Comp — compute the output inside the committee ---- *)
  let s5 = mark_phase () in
  let comp_members = List.filter active members in
  let comp_results =
    if comp_members = [] then []
    else
      Enc_func.run ?deadline net rng params ~participants:comp_members
        ~private_input:(fun c ->
          Crypto.Kdf.expand
            ~key:(Bytes.of_string (Printf.sprintf "skshare/%d" c))
            ~info:"share" (max 8 (params.Params.lambda / 8)))
        ~depth:(Circuit.depth config.circuit)
        ~eval:(fun _ ->
          (* Trusted evaluation on the canonical ciphertext view: decrypt
             with the functionality's secret key and evaluate f.  All honest
             member views passed the equality test, so the lowest-id honest
             member's view is the committee's common view. *)
          let canonical =
            let honest_members =
              List.filter (fun c -> Netsim.Corruption.is_honest corruption c) comp_members
            in
            match (honest_members, comp_members) with
            | c :: _, _ -> Hashtbl.find member_cts c
            | [], c :: _ -> Hashtbl.find member_cts c
            | [], [] -> []
          in
          let sk = match !keypair with Some (_, sk) -> sk | None -> assert false in
          let bit_inputs =
            List.concat_map
              (fun (i, ct) ->
                (* A missing or undecryptable ciphertext becomes the default
                   input 0 — the ideal-world input substitution semantics. *)
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
          (* Out is a decrypted value: every member receives it as a private
             output, paying the partial-decryption traffic of Theorem 9. *)
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
  let compute_bits = phase_bits s5 in

  (* ---- Step 7: output forwarding ---- *)
  (* Same shape as step 3: the member fan-out, then every party's
     conflict check. *)
  let s6 = mark_phase () in
  ob "out_senders"
    (List.length (List.filter (fun c -> active c && Hashtbl.mem member_out c) members));
  List.iter
    (fun c ->
      if active c then
        match Hashtbl.find_opt member_out c with
        | Some out ->
          for dst = 0 to n - 1 do
            if dst <> c then begin
              let payload =
                match adv.out_forward with
                | Some f when is_corrupt c -> f ~me:c ~dst out
                | _ -> out
              in
              Netsim.Net.send net ~src:c ~dst payload
            end
          done
        | None -> ())
    members;
  Netsim.Net.step_until_quiet ?deadline net;
  let final =
    Array.init n (fun i ->
        let copies = List.map snd (Netsim.Net.recv net ~dst:i) in
        let copies =
          match Hashtbl.find_opt member_out i with Some own -> own :: copies | None -> copies
        in
        match (abort.(i), copies) with
        | Some r, _ -> Outcome.Abort r
        | None, [] -> Outcome.Abort (Outcome.Missing "no output received")
        | None, first :: rest ->
          if List.for_all (Bytes.equal first) rest then Outcome.Output first
          else Outcome.Abort (Outcome.Equivocation "conflicting outputs"))
  in
  let output_bits = phase_bits s6 in
  ( final,
    {
      election_bits;
      keygen_bits;
      pk_forward_bits;
      input_bits = input_phase_bits;
      equality_bits;
      compute_bits;
      output_bits;
    } )

let run ?deadline ?obs net rng config ~corruption ~inputs ~adv =
  fst (run_metered ?deadline ?obs net rng config ~corruption ~inputs ~adv)
