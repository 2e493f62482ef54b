type adv = { flip_share : (me:int -> gate_index:int -> bool) option }

let honest_adv = { flip_share = None }

(* ---- Circuit flattening ----

   Assign every physically-distinct gate a dense index in topological
   order, so shares can live in flat arrays and AND/OR gates can be batched
   by circuit depth (one opening round per layer). *)

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
  (* Physical identity memo, mirroring Circuit's internal Memo; each entry
     carries the gate's id and depth, so an operand's depth is read from
     the memo rather than searched for. *)
  let find g =
    let h = Hashtbl.hash g in
    let rec scan = function
      | [] -> None
      | (g', id_depth) :: _ when g' == g -> Some id_depth
      | _ :: rest -> scan rest
    in
    scan (Hashtbl.find_all ids h)
  in
  let add g id_depth =
    let h = Hashtbl.hash g in
    Hashtbl.add ids h (g, id_depth)
  in
  let rec go (g : Circuit.gate) =
    match find (Obj.repr g) with
    | Some id_depth -> id_depth
    | None ->
      let binary a b =
        let ia, da = go a in
        let ib, db = go b in
        (ia, ib, 1 + max da db)
      in
      let flat, depth =
        match g with
        | Circuit.Input i -> (FInput i, 0)
        | Circuit.Const b -> (FConst b, 0)
        | Circuit.Not a ->
          let ia, da = go a in
          (* Strictly increasing levels: a NOT above a multiplicative gate
             must evaluate after that gate's opening round. *)
          (FNot ia, 1 + da)
        | Circuit.Xor (a, b) ->
          let ia, ib, d = binary a b in
          (FXor (ia, ib), d)
        | Circuit.And (a, b) ->
          let ia, ib, d = binary a b in
          (FAnd (ia, ib), d)
        | Circuit.Or (a, b) ->
          let ia, ib, d = binary a b in
          (FOr (ia, ib), d)
      in
      let id = !count in
      incr count;
      gates := flat :: !gates;
      depths := depth :: !depths;
      add (Obj.repr g) (id, depth);
      (id, depth)
  in
  let outputs = Array.of_list (List.map (fun g -> fst (go g)) circuit.Circuit.outputs) in
  {
    gates = Array.of_list (List.rev !gates);
    depths = Array.of_list (List.rev !depths);
    outputs;
  }

let triples_used ~circuit =
  let f = flatten circuit in
  Array.fold_left
    (fun acc g -> match g with FAnd _ | FOr _ -> acc + 1 | _ -> acc)
    0 f.gates

(* Cost spec (see Analysis.Costs): fully closed-form given the circuit —
   input sharing, one batched Beaver opening per layer that actually
   contains multiplicative gates (layers without them neither send nor
   step), and the output opening.  Every phase is an all-pairs exchange
   of one packed message. *)
let cost_spec ~circuit ~input_width ~n =
  let open Analysis.Costs in
  let flat = flatten circuit in
  let layer_mults = Hashtbl.create 16 in
  Array.iteri
    (fun id g ->
      match g with
      | FAnd _ | FOr _ ->
        let l = flat.depths.(id) in
        Hashtbl.replace layer_mults l (1 + try Hashtbl.find layer_mults l with Not_found -> 0)
      | _ -> ())
    flat.gates;
  let layers =
    List.sort compare (Hashtbl.fold (fun l m acc -> (l, m) :: acc) layer_mults [])
  in
  let pairs = Mul [ n; Sub (n, Const 1) ] in
  let exchange label payload_bytes =
    exact ~label ~edge:"all-pairs"
      ~bits:(Mul [ Const 8; pairs; Const payload_bytes ])
      ~messages:pairs ~rounds:(Const 1)
  in
  {
    name = "gmw.run";
    phases =
      (exchange "input_share" ((input_width + 7) / 8)
      :: List.map
           (fun (l, m) -> exchange (Printf.sprintf "layer%d" l) (((2 * m) + 7) / 8))
           layers)
      @ [ exchange "output" ((Array.length flat.outputs + 7) / 8) ];
    max_locality = None;
  }

(* ---- Packed payloads and share vectors ----

   A payload is a bit vector in Bitpack's layout: bit k at byte k/8,
   position k mod 8.  A share vector holds every party's share of one
   gate, party p's at byte p as 0 or 1, so each evaluation loop runs over
   the parties of one gate. *)

let bit buf k = (Char.code (Bytes.get buf (k lsr 3)) lsr (k land 7)) land 1

let set_bit buf k =
  Bytes.set buf (k lsr 3) (Char.chr (Char.code (Bytes.get buf (k lsr 3)) lor (1 lsl (k land 7))))

(* [xor_into acc b] XORs [b] into [acc] over their common prefix: a short
   [b] reads as zero-padded, and bytes of [b] past [acc]'s length are
   ignored. *)
let xor_into acc b =
  for j = 0 to min (Bytes.length acc) (Bytes.length b) - 1 do
    Bytes.unsafe_set acc j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get acc j) lxor Char.code (Bytes.unsafe_get b j)))
  done

let share s p = Char.code (Bytes.get s p)
let share_vector n f = Bytes.init n (fun p -> Char.unsafe_chr (f p))

let run net rng ~circuit ~input_width ~inputs ~corruption ~adv =
  let n = Netsim.Net.n net in
  if Array.length inputs <> n then invalid_arg "Gmw.run: wrong input count";
  if n * input_width <> circuit.Circuit.num_inputs then
    invalid_arg "Gmw.run: circuit arity mismatch";
  let flips p id =
    match adv.flip_share with
    | Some f -> Netsim.Corruption.is_corrupted corruption p && f ~me:p ~gate_index:id
    | None -> false
  in
  let flat = flatten circuit in
  let num_gates = Array.length flat.gates in
  (* shares.(gate) is that gate's share vector. *)
  let shares = Array.make num_gates Bytes.empty in
  (* [open_all payload] — every party sends payload.(src) to every other
     party; party [me] then XORs the payloads it received into a copy of
     its own.  A missing or duplicated delivery adds nothing.  Delivered
     payloads are never written: one buffer goes to all recipients. *)
  let open_all payload =
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if dst <> src then Netsim.Net.send net ~src ~dst payload.(src)
      done
    done;
    Netsim.Net.step net;
    Array.init n (fun me ->
        let acc = Bytes.copy payload.(me) in
        for src = 0 to n - 1 do
          if src <> me then
            match Netsim.Net.recv_one net ~dst:me ~src with
            | Some b -> xor_into acc b
            | None -> ()
        done;
        acc)
  in

  (* ---- Input sharing ----
     Wire w = party (w / input_width)'s bit (w mod input_width).  The owner
     samples n-1 random shares, keeps the XOR-completion, and sends each
     other party one packed message with all its wire shares. *)
  let wire_bytes = (input_width + 7) / 8 in
  (* wires.(me) holds owner o's payload to [me] at bytes
     [o * wire_bytes, (o + 1) * wire_bytes), zero-padded. *)
  let wires = Array.init n (fun _ -> Bytes.make (n * wire_bytes) '\000') in
  let place me owner b =
    Bytes.blit b 0 wires.(me) (owner * wire_bytes) (min wire_bytes (Bytes.length b))
  in
  for owner = 0 to n - 1 do
    let msgs = Array.init n (fun _ -> Bytes.make wire_bytes '\000') in
    for k = 0 to input_width - 1 do
      (* n draws per wire; the owner's own draw is replaced by the
         completion, so the XOR equals the true bit. *)
      let others = ref 0 in
      for j = 0 to n - 1 do
        let b = Bool.to_int (Util.Prng.bool rng) in
        if j <> owner then begin
          others := !others lxor b;
          if b = 1 then set_bit msgs.(j) k
        end
      done;
      if !others lxor ((inputs.(owner) lsr k) land 1) = 1 then set_bit msgs.(owner) k
    done;
    place owner owner msgs.(owner);
    for dst = 0 to n - 1 do
      if dst <> owner then Netsim.Net.send net ~src:owner ~dst msgs.(dst)
    done
  done;
  Netsim.Net.step net;
  for me = 0 to n - 1 do
    for owner = 0 to n - 1 do
      if owner <> me then
        match Netsim.Net.recv_one net ~dst:me ~src:owner with
        | Some b -> place me owner b
        | None -> ()
    done
  done;

  (* ---- Beaver triples from the trusted dealer ----
     triples.(gate) = the (a, b, c) share vectors, with (⊕a)(⊕b) = ⊕c. *)
  let deal v =
    (* n draws; party 0's is then replaced by the XOR-completion of v. *)
    let s = Bytes.create n in
    let x = ref 0 in
    for j = 0 to n - 1 do
      let b = Bool.to_int (Util.Prng.bool rng) in
      Bytes.set s j (Char.unsafe_chr b);
      if j > 0 then x := !x lxor b
    done;
    Bytes.set s 0 (Char.unsafe_chr (!x lxor Bool.to_int v));
    s
  in
  let triples = Array.make num_gates (Bytes.empty, Bytes.empty, Bytes.empty) in
  Array.iteri
    (fun id g ->
      match g with
      | FAnd _ | FOr _ ->
        let a = Util.Prng.bool rng in
        let b = Util.Prng.bool rng in
        let sa = deal a in
        let sb = deal b in
        let sc = deal (a && b) in
        triples.(id) <- (sa, sb, sc)
      | _ -> ())
    flat.gates;

  (* ---- Layer-by-layer evaluation ----
     Gates bucketed by depth once, in id order: local gates first, then
     the multiplicative gates whose Beaver openings share one round. *)
  let max_depth = Array.fold_left max 0 flat.depths in
  let locals = Array.make (max_depth + 1) [] in
  let mults = Array.make (max_depth + 1) [] in
  for id = num_gates - 1 downto 0 do
    let l = flat.depths.(id) in
    match flat.gates.(id) with
    | FAnd (a, b) | FOr (a, b) -> mults.(l) <- (id, a, b) :: mults.(l)
    | _ -> locals.(l) <- id :: locals.(l)
  done;
  let eval_local id =
    shares.(id) <-
      (match flat.gates.(id) with
      | FInput w ->
        let k = ((w / input_width) * wire_bytes * 8) + (w mod input_width) in
        share_vector n (fun p -> bit wires.(p) k)
      | FConst b -> share_vector n (fun p -> Bool.to_int (p = 0 && b))
      | FNot a -> share_vector n (fun p -> share shares.(a) p lxor Bool.to_int (p = 0))
      | FXor (a, b) -> share_vector n (fun p -> share shares.(a) p lxor share shares.(b) p)
      | FAnd _ | FOr _ -> assert false)
  in
  let open_layer layer =
    (* Each party broadcasts (d_i, e_i) for every gate k in the layer, as
       bits 2k and 2k+1 of one payload.  Gate-major, so a stateful
       [flip_share] sees the calls in gate order. *)
    let len = ((2 * List.length layer) + 7) / 8 in
    let payload = Array.init n (fun _ -> Bytes.make len '\000') in
    List.iteri
      (fun k (id, ga, gb) ->
        let sa, sb, _ = triples.(id) in
        for p = 0 to n - 1 do
          (* For OR gates, the multiplication inputs are the raw shares;
             the or-completion happens after. *)
          let d = share shares.(ga) p lxor share sa p in
          let e = share shares.(gb) p lxor share sb p in
          if (d = 1) <> flips p id then set_bit payload.(p) (2 * k);
          if e = 1 then set_bit payload.(p) ((2 * k) + 1)
        done)
      layer;
    (* Everyone reconstructs the public d, e per gate. *)
    let opened = open_all payload in
    List.iteri
      (fun k (id, ga, gb) ->
        let sa, sb, sc = triples.(id) in
        let is_or = match flat.gates.(id) with FOr _ -> true | _ -> false in
        shares.(id) <-
          share_vector n (fun p ->
              let d = bit opened.(p) (2 * k) and e = bit opened.(p) ((2 * k) + 1) in
              let z =
                share sc p lxor (d land share sb p) lxor (e land share sa p)
                lxor Bool.to_int (p = 0 && d land e = 1)
              in
              (* x or y = x ⊕ y ⊕ (x ∧ y) *)
              if is_or then share shares.(ga) p lxor share shares.(gb) p lxor z else z))
      layer
  in
  for layer = 0 to max_depth do
    List.iter eval_local locals.(layer);
    if mults.(layer) <> [] then open_layer mults.(layer)
  done;

  (* ---- Output opening: exchange output-wire shares ---- *)
  let out_count = Array.length flat.outputs in
  let payload =
    Array.init n (fun src ->
        let b = Bytes.make ((out_count + 7) / 8) '\000' in
        Array.iteri (fun j gid -> if share shares.(gid) src = 1 then set_bit b j) flat.outputs;
        b)
  in
  let outs = open_all payload in
  (* Outputs are Bitpack-packed: clear the bits past [out_count] that a
     long or malformed payload may have set. *)
  if out_count land 7 <> 0 then begin
    let mask = (1 lsl (out_count land 7)) - 1 in
    Array.iter
      (fun o ->
        let last = Bytes.length o - 1 in
        Bytes.set o last (Char.chr (Char.code (Bytes.get o last) land mask)))
      outs
  end;
  outs
