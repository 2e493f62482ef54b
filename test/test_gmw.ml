(* Tests for the GMW baseline: correctness on every circuit family, a
   differential oracle against the list-based implementation, cost
   shape (Θ(n²) per AND layer), and — crucially — the demonstration that
   plain GMW has NO abort guarantee: a single corrupted party silently
   corrupts everyone's output, which is exactly the failure mode the
   paper's protocols exist to prevent. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let run ?(seed = 1) ~n ~circuit ~input_width ~inputs ~corruption ~adv () =
  let net = Netsim.Net.create n in
  let rng = Util.Prng.create seed in
  let outs = Mpc.Gmw.run net rng ~circuit ~input_width ~inputs ~corruption ~adv in
  (net, outs)

let expected circuit width inputs =
  Mpc.Bitpack.pack (Circuit.eval circuit (Circuit.pack_inputs ~width (Array.to_list inputs)))

(* Every circuit family: name, circuit at n parties, input width, and the
   n the correctness test runs it at. *)
let families =
  [
    ("majority", (fun n -> Circuit.majority ~n), 1, 8);
    ("parity", (fun n -> Circuit.parity ~n), 1, 6);
    ("sum", (fun n -> Circuit.sum ~n ~width:3), 3, 5);
    ("maximum", (fun n -> Circuit.maximum ~n ~width:4), 4, 4);
    ("second price", (fun n -> Circuit.second_price_auction ~n ~width:3), 3, 4);
    ("equality", (fun n -> Circuit.equality_check ~n ~width:3), 3, 4);
  ]

let test_correct_on_families () =
  let rng = Util.Prng.create 7 in
  List.iter
    (fun (_, circuit, width, n) ->
      let circuit = circuit n in
      for seed = 1 to 5 do
        let inputs = Array.init n (fun _ -> Util.Prng.int rng (1 lsl width)) in
        let corruption = Netsim.Corruption.none ~n in
        let _, outs = run ~seed ~n ~circuit ~input_width:width ~inputs ~corruption ~adv:Mpc.Gmw.honest_adv () in
        let e = expected circuit width inputs in
        Array.iteri
          (fun i o -> checkb (Printf.sprintf "party %d" i) true (Bytes.equal o e))
          outs
      done)
    families

let test_two_parties_minimal () =
  let circuit = Circuit.sum ~n:2 ~width:4 in
  let inputs = [| 9; 5 |] in
  let corruption = Netsim.Corruption.none ~n:2 in
  let _, outs = run ~n:2 ~circuit ~input_width:4 ~inputs ~corruption ~adv:Mpc.Gmw.honest_adv () in
  checki "9+5" 14 (Mpc.Bitpack.bytes_to_int outs.(0) ~width:5);
  checki "9+5" 14 (Mpc.Bitpack.bytes_to_int outs.(1) ~width:5)

let test_triples_counted () =
  let circuit = Circuit.majority ~n:8 in
  let t = Mpc.Gmw.triples_used ~circuit in
  checkb "some multiplicative gates" true (t > 0);
  (* parity is XOR-only: zero triples. *)
  checki "parity needs no triples" 0 (Mpc.Gmw.triples_used ~circuit:(Circuit.parity ~n:8))

let test_xor_only_is_cheap () =
  (* Free-XOR structure: parity has no openings, so the only traffic is
     input sharing and output opening. *)
  let n = 10 in
  let corruption = Netsim.Corruption.none ~n in
  let inputs = Array.init n (fun i -> i land 1) in
  let net, _ =
    run ~n ~circuit:(Circuit.parity ~n) ~input_width:1 ~inputs ~corruption
      ~adv:Mpc.Gmw.honest_adv ()
  in
  (* input share: n*(n-1) bytes; output open: n*(n-1) bytes; nothing else. *)
  checkb "only sharing + opening" true (Netsim.Net.total_bits net <= 8 * 2 * n * (n - 1))

let test_cost_quadratic_in_n () =
  let cost n =
    let corruption = Netsim.Corruption.none ~n in
    let inputs = Array.init n (fun i -> i land 1) in
    let net, _ =
      run ~n ~circuit:(Circuit.majority ~n) ~input_width:1 ~inputs ~corruption
        ~adv:Mpc.Gmw.honest_adv ()
    in
    float_of_int (Netsim.Net.total_bits net)
  in
  (* #ANDs grows ~linearly in n and each costs Θ(n²): expect ~n³ total. *)
  let r = cost 24 /. cost 12 in
  checkb "super-quadratic growth" true (r > 5.0)

let test_full_locality () =
  (* The baseline talks to everyone — no locality at all. *)
  let n = 8 in
  let corruption = Netsim.Corruption.none ~n in
  let inputs = Array.make n 1 in
  let net, _ =
    run ~n ~circuit:(Circuit.majority ~n) ~input_width:1 ~inputs ~corruption
      ~adv:Mpc.Gmw.honest_adv ()
  in
  checki "clique locality" (n - 1) (Netsim.Net.max_locality net)

let test_share_flip_corrupts_silently () =
  (* The headline negative result: one corrupted party flips one share in
     one opening and every honest party computes a wrong output with no
     abort — plain GMW gives no agreement-or-abort guarantee in the
     malicious model.  (The paper's protocols detect exactly this.) *)
  let n = 8 in
  let circuit = Circuit.majority ~n in
  let inputs = Array.init n (fun i -> i land 1) in
  let corruption = Netsim.Corruption.make ~n ~corrupted:(Util.Iset.of_list [ 3 ]) in
  let adv = { Mpc.Gmw.flip_share = Some (fun ~me:_ ~gate_index:_ -> true) } in
  let corrupted_runs = ref 0 in
  for seed = 1 to 5 do
    let _, outs = run ~seed ~n ~circuit ~input_width:1 ~inputs ~corruption ~adv () in
    let e = expected circuit 1 inputs in
    if
      List.exists
        (fun i -> not (Bytes.equal outs.(i) e))
        (Netsim.Corruption.honest_list corruption)
    then incr corrupted_runs
  done;
  checkb "attack silently corrupts outputs" true (!corrupted_runs > 0)

let test_deterministic_given_seed () =
  let n = 6 in
  let circuit = Circuit.sum ~n ~width:2 in
  let inputs = [| 1; 2; 3; 0; 1; 2 |] in
  let corruption = Netsim.Corruption.none ~n in
  let _, o1 = run ~seed:9 ~n ~circuit ~input_width:2 ~inputs ~corruption ~adv:Mpc.Gmw.honest_adv () in
  let _, o2 = run ~seed:9 ~n ~circuit ~input_width:2 ~inputs ~corruption ~adv:Mpc.Gmw.honest_adv () in
  checkb "reproducible" true (Array.for_all2 Bytes.equal o1 o2)

let prop_random_inputs =
  QCheck.Test.make ~name:"gmw matches plain evaluation" ~count:30
    QCheck.(pair (int_range 2 8) (int_bound 100_000))
    (fun (n, seed) ->
      let rng = Util.Prng.create seed in
      let circuit = Circuit.sum ~n ~width:3 in
      let inputs = Array.init n (fun _ -> Util.Prng.int rng 8) in
      let corruption = Netsim.Corruption.none ~n in
      let _, outs =
        run ~seed ~n ~circuit ~input_width:3 ~inputs ~corruption ~adv:Mpc.Gmw.honest_adv ()
      in
      let e = expected circuit 3 inputs in
      Array.for_all (Bytes.equal e) outs)

(* ---- Differential oracle ----

   The list-based implementation that preceded the packed one: every
   share bit unpacked into lists, and each receiver's openings rebuilt as
   an n x 2m matrix.  The packed [Mpc.Gmw.run] must reproduce its
   transcript, outputs and accounting exactly, under any adversary and
   any delivery faults. *)
module Reference = struct
  type flat_gate =
    | FInput of int
    | FConst of bool
    | FNot of int
    | FXor of int * int
    | FAnd of int * int
    | FOr of int * int

  type flat = {
    gates : flat_gate array;
    depths : int array;
    outputs : int array; (* gate ids of the circuit outputs *)
  }

  let flatten (circuit : Circuit.t) : flat =
    let ids = Hashtbl.create 256 in
    let gates = ref [] in
    let depths = ref [] in
    let count = ref 0 in
    (* Physical identity memo, mirroring Circuit's internal Memo. *)
    let find g =
      let h = Hashtbl.hash g in
      let rec scan = function
        | [] -> None
        | (g', id) :: _ when g' == g -> Some id
        | _ :: rest -> scan rest
      in
      scan (Hashtbl.find_all ids h)
    in
    let add g id =
      let h = Hashtbl.hash g in
      Hashtbl.add ids h (g, id)
    in
    let rec go (g : Circuit.gate) =
      match find (Obj.repr g) with
      | Some id -> id
      | None ->
        let flat, depth =
          match g with
          | Circuit.Input i -> (FInput i, 0)
          | Circuit.Const b -> (FConst b, 0)
          | Circuit.Not a ->
            let ia = go a in
            (* Strictly increasing levels: a NOT above a multiplicative gate
               must evaluate after that gate's opening round. *)
            (FNot ia, 1 + List.nth !depths (!count - 1 - ia))
          | Circuit.Xor (a, b) ->
            let ia = go a in
            let ib = go b in
            let da = List.nth !depths (!count - 1 - ia) in
            let db = List.nth !depths (!count - 1 - ib) in
            (FXor (ia, ib), 1 + max da db)
          | Circuit.And (a, b) ->
            let ia = go a in
            let ib = go b in
            let da = List.nth !depths (!count - 1 - ia) in
            let db = List.nth !depths (!count - 1 - ib) in
            (FAnd (ia, ib), 1 + max da db)
          | Circuit.Or (a, b) ->
            let ia = go a in
            let ib = go b in
            let da = List.nth !depths (!count - 1 - ia) in
            let db = List.nth !depths (!count - 1 - ib) in
            (FOr (ia, ib), 1 + max da db)
        in
        let id = !count in
        incr count;
        gates := flat :: !gates;
        depths := depth :: !depths;
        add (Obj.repr g) id;
        id
    in
    let outputs = Array.of_list (List.map go circuit.Circuit.outputs) in
    {
      gates = Array.of_list (List.rev !gates);
      depths = Array.of_list (List.rev !depths);
      outputs;
    }

  (* ---- Bit-packing helpers for batched openings ---- *)

  let pack_bits bits =
    let n = List.length bits in
    let out = Bytes.make ((n + 7) / 8) '\000' in
    List.iteri
      (fun k b ->
        if b then
          Bytes.set out (k / 8) (Char.chr (Char.code (Bytes.get out (k / 8)) lor (1 lsl (k mod 8)))))
      bits;
    out

  let unpack_bits b ~count =
    List.init count (fun k ->
        k / 8 < Bytes.length b
        && (Char.code (Bytes.get b (k / 8)) lsr (k mod 8)) land 1 = 1)

  let run net rng ~circuit ~input_width ~inputs ~corruption ~adv =
    let n = Netsim.Net.n net in
    if Array.length inputs <> n then invalid_arg "Gmw.run: wrong input count";
    if n * input_width <> circuit.Circuit.num_inputs then
      invalid_arg "Gmw.run: circuit arity mismatch";
    let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
    let flat = flatten circuit in
    let num_gates = Array.length flat.gates in
    (* shares.(party).(gate) *)
    let shares = Array.init n (fun _ -> Array.make num_gates false) in

    (* ---- Input sharing ----
       Wire w = party (w / input_width)'s bit (w mod input_width).  The owner
       samples n-1 random shares, keeps the XOR-completion, and sends each
       other party one packed message with all its wire shares. *)
    let input_bit owner k = (inputs.(owner) lsr k) land 1 = 1 in
    let owner_shares =
      Array.init n (fun owner ->
          Array.init input_width (fun k ->
              let rand = Array.init n (fun _ -> Util.Prng.bool rng) in
              (* Overwrite the owner's slot so the XOR equals the true bit. *)
              let others = ref false in
              Array.iteri (fun j b -> if j <> owner then others := !others <> b) rand;
              rand.(owner) <- !others <> input_bit owner k;
              rand))
    in
    for owner = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if dst <> owner then
          Netsim.Net.send net ~src:owner ~dst
            (pack_bits (List.init input_width (fun k -> owner_shares.(owner).(k).(dst))))
      done
    done;
    Netsim.Net.step net;
    let wire_share = Array.make_matrix n circuit.Circuit.num_inputs false in
    for me = 0 to n - 1 do
      for owner = 0 to n - 1 do
        let bits =
          if owner = me then List.init input_width (fun k -> owner_shares.(me).(k).(me))
          else
            match Netsim.Net.recv_from net ~dst:me ~src:owner with
            | [ b ] -> unpack_bits b ~count:input_width
            | _ -> List.init input_width (fun _ -> false)
        in
        List.iteri (fun k b -> wire_share.(me).((owner * input_width) + k) <- b) bits
      done
    done;

    (* ---- Beaver triples from the trusted dealer ----
       triple.(gate) = per-party (a, b, c) shares with (⊕a)(⊕b) = ⊕c. *)
    let triples = Hashtbl.create 64 in
    Array.iteri
      (fun id g ->
        match g with
        | FAnd _ | FOr _ ->
          let a = Util.Prng.bool rng and b = Util.Prng.bool rng in
          let c = a && b in
          let sa = Array.init n (fun _ -> Util.Prng.bool rng) in
          let sb = Array.init n (fun _ -> Util.Prng.bool rng) in
          let sc = Array.init n (fun _ -> Util.Prng.bool rng) in
          let fix arr v =
            let x = ref false in
            for j = 1 to n - 1 do
              x := !x <> arr.(j)
            done;
            arr.(0) <- !x <> v
          in
          fix sa a;
          fix sb b;
          fix sc c;
          Hashtbl.replace triples id (sa, sb, sc)
        | _ -> ())
      flat.gates;

    (* ---- Layer-by-layer evaluation ---- *)
    let max_depth = Array.fold_left max 0 flat.depths in
    for layer = 0 to max_depth do
      (* Local gates of this layer first. *)
      Array.iteri
        (fun id g ->
          if flat.depths.(id) = layer then
            match g with
            | FInput w -> for p = 0 to n - 1 do shares.(p).(id) <- wire_share.(p).(w) done
            | FConst b ->
              for p = 0 to n - 1 do
                shares.(p).(id) <- (p = 0 && b)
              done
            | FNot a ->
              for p = 0 to n - 1 do
                shares.(p).(id) <- (if p = 0 then not shares.(p).(a) else shares.(p).(a))
              done
            | FXor (a, b) ->
              for p = 0 to n - 1 do
                shares.(p).(id) <- shares.(p).(a) <> shares.(p).(b)
              done
            | FAnd _ | FOr _ -> ())
        flat.gates;
      (* Beaver openings for this layer's multiplicative gates, batched. *)
      let layer_ands =
        let acc = ref [] in
        Array.iteri
          (fun id g ->
            if flat.depths.(id) = layer then
              match g with FAnd (a, b) | FOr (a, b) -> acc := (id, a, b) :: !acc | _ -> ())
          flat.gates;
        List.rev !acc
      in
      if layer_ands <> [] then begin
        (* Each party broadcasts (d_i, e_i) for every gate in the layer. *)
        let my_de = Array.make_matrix n (2 * List.length layer_ands) false in
        List.iteri
          (fun k (id, ga, gb) ->
            let sa, sb, _ = Hashtbl.find triples id in
            for p = 0 to n - 1 do
              (* For OR gates, the multiplication inputs are the raw shares;
                 the or-completion happens after. *)
              let xa = shares.(p).(ga) and xb = shares.(p).(gb) in
              let d = ref (xa <> sa.(p)) and e = ref (xb <> sb.(p)) in
              (if is_corrupt p then
                 match adv.Mpc.Gmw.flip_share with
                 | Some f when f ~me:p ~gate_index:id -> d := not !d
                 | _ -> ());
              my_de.(p).(2 * k) <- !d;
              my_de.(p).((2 * k) + 1) <- !e
            done)
          layer_ands;
        for src = 0 to n - 1 do
          let payload = pack_bits (Array.to_list my_de.(src)) in
          for dst = 0 to n - 1 do
            if dst <> src then Netsim.Net.send net ~src ~dst payload
          done
        done;
        Netsim.Net.step net;
        (* Everyone reconstructs the public d, e per gate. *)
        let received = Array.make n [||] in
        for me = 0 to n - 1 do
          let all = Array.make_matrix n (2 * List.length layer_ands) false in
          for src = 0 to n - 1 do
            let bits =
              if src = me then Array.to_list my_de.(me)
              else
                match Netsim.Net.recv_from net ~dst:me ~src with
                | [ b ] -> unpack_bits b ~count:(2 * List.length layer_ands)
                | _ -> List.init (2 * List.length layer_ands) (fun _ -> false)
            in
            List.iteri (fun j b -> all.(src).(j) <- b) bits
          done;
          received.(me) <- Array.init (2 * List.length layer_ands) (fun j ->
              let x = ref false in
              for src = 0 to n - 1 do
                x := !x <> all.(src).(j)
              done;
              !x)
        done;
        List.iteri
          (fun k (id, ga, gb) ->
            let sa, sb, sc = Hashtbl.find triples id in
            for p = 0 to n - 1 do
              let d = received.(p).(2 * k) and e = received.(p).((2 * k) + 1) in
              let z =
                sc.(p) <> (d && sb.(p)) <> (e && sa.(p)) <> (p = 0 && d && e)
              in
              let z =
                match flat.gates.(id) with
                | FOr _ ->
                  (* x or y = x ⊕ y ⊕ (x ∧ y) *)
                  shares.(p).(ga) <> shares.(p).(gb) <> z
                | _ -> z
              in
              shares.(p).(id) <- z
            done)
          layer_ands
      end
    done;

    (* ---- Output opening: exchange output-wire shares ---- *)
    let out_count = Array.length flat.outputs in
    for src = 0 to n - 1 do
      let payload =
        pack_bits (Array.to_list (Array.map (fun gid -> shares.(src).(gid)) flat.outputs))
      in
      for dst = 0 to n - 1 do
        if dst <> src then Netsim.Net.send net ~src ~dst payload
      done
    done;
    Netsim.Net.step net;
    Array.init n (fun me ->
        let acc = Array.map (fun gid -> shares.(me).(gid)) flat.outputs in
        for src = 0 to n - 1 do
          if src <> me then begin
            let bits =
              match Netsim.Net.recv_from net ~dst:me ~src with
              | [ b ] -> unpack_bits b ~count:out_count
              | _ -> List.init out_count (fun _ -> false)
            in
            List.iteri (fun j b -> acc.(j) <- acc.(j) <> b) bits
          end
        done;
        Mpc.Bitpack.pack acc)
end

(* A transport that logs every submission (src, dst, payload) before
   passing it on to [inner]. *)
let recording log (inner : Netsim.Transport.t) =
  {
    inner with
    submit =
      (fun ~src ~dst b ->
        log := (src, dst, Bytes.to_string b) :: !log;
        inner.submit ~src ~dst b);
  }

(* [session run_fn transport ...] — one run over a recording transport:
   the submission log, per-party outputs and (bits, messages, rounds). *)
let session run_fn transport ~seed ~circuit ~input_width ~inputs ~corruption ~adv =
  let log = ref [] in
  let n = Array.length inputs in
  let net = Netsim.Net.create ~transport:(recording log transport) n in
  let outs = run_fn net (Util.Prng.create seed) ~circuit ~input_width ~inputs ~corruption ~adv in
  ( List.rev !log,
    Array.map Bytes.to_string outs,
    Netsim.Net.(total_bits net, messages_sent net, rounds net) )

(* Adversaries by kind: honest; a pure [flip_share] predicate; and a
   stateful one that flips on every other call and logs the calls it
   saw, so the order of calls is observable. *)
let adversary kind =
  match kind with
  | 0 -> (Mpc.Gmw.honest_adv, fun () -> [])
  | 1 ->
    ( { Mpc.Gmw.flip_share = Some (fun ~me ~gate_index -> (me + gate_index) mod 3 = 0) },
      fun () -> [] )
  | _ ->
    let count = ref 0 and calls = ref [] in
    ( {
        Mpc.Gmw.flip_share =
          Some
            (fun ~me ~gate_index ->
              incr count;
              calls := (me, gate_index) :: !calls;
              !count mod 2 = 1);
      },
      fun () -> List.rev !calls )

let prop_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (triple (int_bound (List.length families - 1)) (int_range 2 9) (int_bound 1_000_000))
        (pair (int_bound 511) (int_bound 2)))
  in
  let print ((fam, n, seed), (mask, kind)) =
    let name, _, _, _ = List.nth families fam in
    Printf.sprintf "%s n=%d seed=%d corrupt=0x%x adversary=%d" name n seed mask kind
  in
  QCheck.Test.make ~name:"packed run = list-based reference" ~count:200
    (QCheck.make ~print gen)
    (fun ((fam, n, seed), (mask, kind)) ->
      let _, circuit, input_width, _ = List.nth families fam in
      let circuit = circuit n in
      let rng = Util.Prng.create (seed + 1) in
      let inputs = Array.init n (fun _ -> Util.Prng.int rng (1 lsl input_width)) in
      let corruption =
        Netsim.Corruption.make ~n
          ~corrupted:
            (Util.Iset.of_list (List.filter (fun i -> (mask lsr i) land 1 = 1) (List.init n Fun.id)))
      in
      let go run_fn =
        let adv, calls = adversary kind in
        let s =
          session run_fn (Netsim.Transport.sync ()) ~seed ~circuit ~input_width ~inputs ~corruption
            ~adv
        in
        (s, calls ())
      in
      go Mpc.Gmw.run = go Reference.run)

(* A transport that tampers with the submissions [faults] names by
   index and forwards the rest unchanged to a sync transport. *)
let faulty faults =
  let inner = Netsim.Transport.sync () in
  let i = ref (-1) in
  {
    inner with
    submit =
      (fun ~src ~dst b ->
        incr i;
        let fwd = inner.submit ~src ~dst in
        match List.assoc_opt !i faults with
        | None -> fwd b
        | Some `Drop -> ()
        | Some `Dup ->
          fwd b;
          fwd b
        | Some `Short -> fwd (Bytes.sub b 0 (Bytes.length b - 1))
        | Some `Long -> fwd (Bytes.cat b (Bytes.make 1 '\255'))
        | Some `Pad ->
          (* Sets the unused high bits of the last byte. *)
          let b = Bytes.copy b in
          let last = Bytes.length b - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lor 0xf0));
          fwd b);
  }

let test_faulty_delivery () =
  (* 10-bit inputs make input shares 2 bytes and the 12-bit sum makes
     output shares 2 bytes, so a truncated one keeps a byte; the output's
     last byte has 4 unused bits. *)
  let n = 4 and input_width = 10 in
  let circuit = Circuit.sum ~n ~width:input_width in
  let inputs = [| 1000; 517; 3; 771 |] in
  let corruption = Netsim.Corruption.none ~n in
  let adv = Mpc.Gmw.honest_adv in
  let go transport run_fn =
    session run_fn transport ~seed:5 ~circuit ~input_width ~inputs ~corruption ~adv
  in
  let clean, clean_outs, _ = go (Netsim.Transport.sync ()) Mpc.Gmw.run in
  (* Input sharing is the first n(n-1) submissions and the output opening
     the last n(n-1); the layer openings lie between. *)
  let total = List.length clean and pairs = n * (n - 1) in
  let faults =
    [
      (1, `Drop); (5, `Dup); (7, `Short);
      (pairs + 1, `Dup); (total - pairs - 2, `Long);
      (total - 8, `Short); (total - 3, `Pad);
    ]
  in
  let (_, outs, _) as packed = go (faulty faults) Mpc.Gmw.run in
  checkb "faults change some output" true (outs <> clean_outs);
  checkb "packed = reference under faults" true (packed = go (faulty faults) Reference.run)

let () =
  Alcotest.run "gmw"
    [
      ( "correctness",
        [
          Alcotest.test_case "all circuit families" `Quick test_correct_on_families;
          Alcotest.test_case "two parties" `Quick test_two_parties_minimal;
          Alcotest.test_case "triple counting" `Quick test_triples_counted;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          QCheck_alcotest.to_alcotest prop_random_inputs;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "faulty delivery" `Quick test_faulty_delivery;
        ] );
      ( "cost",
        [
          Alcotest.test_case "xor-only cheap" `Quick test_xor_only_is_cheap;
          Alcotest.test_case "quadratic per gate" `Quick test_cost_quadratic_in_n;
          Alcotest.test_case "no locality" `Quick test_full_locality;
        ] );
      ( "baseline weakness",
        [ Alcotest.test_case "share flip corrupts silently" `Quick test_share_flip_corrupts_silently ] );
    ]
