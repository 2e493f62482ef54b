type variant = Naive | Fingerprinted

type adv = {
  sender_value : (dst:int -> bytes) option;
  echo_value : (me:int -> dst:int -> bytes -> bytes) option;
  drop : (src:int -> dst:int -> bool) option;
}

let honest_adv = { sender_value = None; echo_value = None; drop = None }

(* Echo payloads: either the full received value (naive) or a fingerprint
   of it (optimized).  "I received nothing" is an explicit marker so that a
   silent sender is detected. *)
let encode_echo_naive v = Util.Codec.encode (fun w -> Util.Codec.write_option w Util.Codec.write_bytes) v

(* Zero-copy decode: the echoed value stays a view into the received
   payload (immutable once delivered — the Codec ownership contract) and
   is compared in place, so a naive echo round at size ℓ no longer copies
   ℓ bytes per (echoer, checker) pair. *)
let decode_echo_naive b =
  match Util.Codec.decode (fun r -> Util.Codec.read_option r Util.Codec.read_bytes_view) b with
  | v -> Some v
  | exception Util.Codec.Decode_error _ -> None

let encode_echo_fp fp =
  Util.Codec.encode (fun w -> Util.Codec.write_option w Crypto.Fingerprint.encode) fp

let decode_echo_fp b =
  match Util.Codec.decode (fun r -> Util.Codec.read_option r Crypto.Fingerprint.decode) b with
  | v -> Some v
  | exception Util.Codec.Decode_error _ -> None

(* Cost spec (see Analysis.Costs) for an honest run over [n] parties and a
   [len]-byte value: the sender's fan-out round, then the all-to-all echo
   round — full framed value (naive) or option-framed fingerprint.  Two
   rounds in both variants. *)
let cost_spec ~variant ~n ~lambda ~len =
  let open Analysis.Costs in
  let nm1 = Sub (n, Const 1) in
  let send =
    exact ~label:"send" ~edge:"sender->all"
      ~bits:(Cost_expr.bits (Mul [ nm1; len ]))
      ~messages:nm1 ~rounds:(Const 1)
  in
  let echo_msgs = Mul [ n; nm1 ] in
  let echo =
    match variant with
    | Naive ->
      (* write_option Some + write_bytes: 1 + varint(len) + len. *)
      exact ~label:"echo" ~edge:"all->all"
        ~bits:(Cost_expr.bits (Mul [ echo_msgs; Add [ Const 1; varint_e len; len ] ]))
        ~messages:echo_msgs ~rounds:(Const 1)
    | Fingerprinted ->
      let t = Cost_expr.fp_t ~lambda ~n ~len:(Max (len, Const 1)) in
      bounded ~label:"echo" ~edge:"all->all"
        ~bits:
          (Cost_expr.bits (Mul [ echo_msgs; Add [ Const 1; Cost_expr.fp_bytes_hi t ] ]))
        ~slack:(Cost_expr.bits (Mul [ echo_msgs; Cost_expr.fp_slack_bytes t ]))
        ~reason:Cost_expr.fp_reason ~messages:echo_msgs ~rounds:(Const 1)
  in
  {
    name =
      (match variant with
      | Naive -> "broadcast.naive"
      | Fingerprinted -> "broadcast.fingerprinted");
    phases = [ send; echo ];
    max_locality = None;
  }

let run ?deadline net rng params ~variant ~sender ~value ~corruption ~adv =
  let n = Netsim.Net.n net in
  let is_corrupt i = Netsim.Corruption.is_corrupted corruption i in
  let should_drop ~src ~dst =
    is_corrupt src && match adv.drop with Some f -> f ~src ~dst | None -> false
  in
  (* Step 1: broadcast step. *)
  for dst = 0 to n - 1 do
    if dst <> sender && not (should_drop ~src:sender ~dst) then begin
      let v =
        match adv.sender_value with
        | Some f when is_corrupt sender -> f ~dst
        | _ -> value
      in
      Netsim.Net.send net ~src:sender ~dst v
    end
  done;
  Netsim.Net.step_until_quiet ?deadline net;
  let received =
    Array.init n (fun i ->
        if i = sender then Some value
        else
          match Netsim.Net.recv_from net ~dst:i ~src:sender with
          | [ v ] -> Some v
          | _ -> None)
  in
  (* Step 3, the output step, for either echo encoding: a party that
     heard fewer than n - 1 echoes, or an echo that does not match what
     it received, aborts. *)
  let aborted = Array.make n false in
  let check_echoes same =
    for i = 0 to n - 1 do
      let msgs = Netsim.Net.recv net ~dst:i in
      if
        List.length msgs < n - 1
        || List.exists (fun (_, payload) -> not (same received.(i) payload)) msgs
      then aborted.(i) <- true
    done
  in
  (* Step 2: verification step — every party tells every other what it
     received (full value or fingerprint). *)
  (match variant with
  | Naive ->
    for i = 0 to n - 1 do
      let honest_payload = encode_echo_naive received.(i) in
      for dst = 0 to n - 1 do
        if dst <> i && not (should_drop ~src:i ~dst) then begin
          let payload =
            match adv.echo_value with
            | Some f when is_corrupt i -> encode_echo_naive (Some (f ~me:i ~dst (Option.value received.(i) ~default:Bytes.empty)))
            | _ -> honest_payload
          in
          Netsim.Net.send net ~src:i ~dst payload
        end
      done
    done;
    Netsim.Net.step_until_quiet ?deadline net;
    check_echoes (fun mine payload ->
        match decode_echo_naive payload with
        | None -> false
        | Some theirs -> (
          match (mine, theirs) with
          | Some a, Some b -> Util.Codec.view_equal_bytes b a
          | None, None -> true
          | _ -> false))
  | Fingerprinted ->
    let t = Params.fingerprint_t params ~msg_len:(max 1 (Bytes.length value)) in
    (* The echo fan-out draws fingerprint keys from [rng] in party order. *)
    for i = 0 to n - 1 do
      let fp = Option.map (fun v -> Crypto.Fingerprint.make rng ~t v) received.(i) in
      let honest_payload = encode_echo_fp fp in
      for dst = 0 to n - 1 do
        if dst <> i && not (should_drop ~src:i ~dst) then begin
          let payload =
            match adv.echo_value with
            | Some f when is_corrupt i ->
              let fake = f ~me:i ~dst (Option.value received.(i) ~default:Bytes.empty) in
              encode_echo_fp (Some (Crypto.Fingerprint.make rng ~t fake))
            | _ -> honest_payload
          in
          Netsim.Net.send net ~src:i ~dst payload
        end
      done
    done;
    Netsim.Net.step_until_quiet ?deadline net;
    check_echoes (fun mine payload ->
        match decode_echo_fp payload with
        | None -> false
        | Some theirs -> (
          match (mine, theirs) with
          | Some v, Some fp -> Crypto.Fingerprint.check fp v
          | None, None -> true
          | _ -> false)));
  Array.init n (fun i ->
      if aborted.(i) then Outcome.Abort (Outcome.Equivocation "broadcast echo mismatch")
      else
        match received.(i) with
        | Some v -> Outcome.Output v
        | None -> Outcome.Abort (Outcome.Missing "no value from sender"))
