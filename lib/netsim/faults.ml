type kind = Drop | Duplicate | Flip | Truncate | Replay | Equivocate | Crash

let all_kinds = [ Drop; Duplicate; Flip; Truncate; Replay; Equivocate; Crash ]

let kind_to_string = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Flip -> "flip"
  | Truncate -> "truncate"
  | Replay -> "replay"
  | Equivocate -> "equivocate"
  | Crash -> "crash"

type spec = {
  drop : float;
  duplicate : float;
  flip : float;
  truncate : float;
  replay : float;
  equivocate : float;
  crash : float;
  crash_stage : int;
}

let honest =
  {
    drop = 0.0;
    duplicate = 0.0;
    flip = 0.0;
    truncate = 0.0;
    replay = 0.0;
    equivocate = 0.0;
    crash = 0.0;
    crash_stage = 8;
  }

let random_spec rng =
  (* Enabled kinds get a probability in [0.05, 0.5]: low enough that most
     messages still flow (the interesting executions are mostly-working
     ones), high enough that every enabled kind actually fires within a
     schedule. *)
  let p () = if Util.Prng.bool rng then 0.05 +. (0.45 *. Util.Prng.float rng) else 0.0 in
  let drop = p () in
  let duplicate = p () in
  let flip = p () in
  let truncate = p () in
  let replay = p () in
  let equivocate = p () in
  let crash = p () in
  let crash_stage = Util.Prng.int_in rng 1 8 in
  { drop; duplicate; flip; truncate; replay; equivocate; crash; crash_stage }

let prob s = function
  | Drop -> s.drop
  | Duplicate -> s.duplicate
  | Flip -> s.flip
  | Truncate -> s.truncate
  | Replay -> s.replay
  | Equivocate -> s.equivocate
  | Crash -> s.crash

let disable k s =
  match k with
  | Drop -> { s with drop = 0.0 }
  | Duplicate -> { s with duplicate = 0.0 }
  | Flip -> { s with flip = 0.0 }
  | Truncate -> { s with truncate = 0.0 }
  | Replay -> { s with replay = 0.0 }
  | Equivocate -> { s with equivocate = 0.0 }
  | Crash -> { s with crash = 0.0 }

let enabled s = List.filter (fun k -> prob s k > 0.0) all_kinds

let spec_to_string s =
  let parts =
    List.filter_map
      (fun k ->
        if prob s k = 0.0 then None
        else if k = Crash then Some (Printf.sprintf "crash=%.2f@<=%d" s.crash s.crash_stage)
        else Some (Printf.sprintf "%s=%.2f" (kind_to_string k) (prob s k)))
      all_kinds
  in
  if parts = [] then "honest" else String.concat " " parts

let value_prob s = min 1.0 (s.flip +. s.truncate +. s.replay +. s.equivocate)

type t = {
  base : Util.Prng.t; (* never advanced: decision streams derive from it *)
  sched : int;
  sp : spec;
  crash_at : int array; (* per party; max_int = never crashes *)
  last : bytes option array; (* per-party replay slot, owner-step mutated *)
}

(* Fold decision coordinates into one [derive] key.  [derive] pushes the
   key through two SplitMix64 steps, so a cheap multiply-xor combine is
   enough to separate slots; collisions merely correlate two decisions,
   they cannot break reproducibility. *)
let mix acc x = (acc * 0x9E3779B1) lxor (x + 0x7F4A7C15)

let key4 a b c d = mix (mix (mix (mix 0x5EED a) b) c) d

let make rng ~schedule ~n sp =
  if n <= 0 then invalid_arg "Faults.make: need at least one party";
  let base = Util.Prng.derive rng ~key:(mix 0x0FA17 schedule) in
  let crash_at =
    Array.init n (fun i ->
        let r = Util.Prng.derive base ~key:(key4 0 i 0 0) in
        if Util.Prng.bernoulli r sp.crash then Util.Prng.int_in r 1 (max 1 sp.crash_stage)
        else max_int)
  in
  { base; sched = schedule; sp; crash_at; last = Array.make n None }

let spec t = t.sp
let schedule t = t.sched
let n t = Array.length t.crash_at

let stream t ~stage ~me ~dst ~salt =
  Util.Prng.derive t.base ~key:(mix (key4 salt stage me dst) 1)

(* A slot no per-message decision uses: the whole-network scheduler is a
   property of the schedule, not of any (stage, party, recipient). *)
let scheduler_stream t = stream t ~stage:max_int ~me:(-1) ~dst:(-1) ~salt:0x5C4ED

let crashed t ~me ~stage =
  if me < 0 || me >= Array.length t.crash_at then false else stage >= t.crash_at.(me)

let drops t ~stage ~me ~dst =
  crashed t ~me ~stage
  || (t.sp.drop > 0.0 && Util.Prng.bernoulli (stream t ~stage ~me ~dst ~salt:1) t.sp.drop)

let decide t ~stage ~me ~dst ~p =
  p > 0.0 && Util.Prng.bernoulli (stream t ~stage ~me ~dst ~salt:2) p

let fresh_bytes t ~stage ~me ~dst ~len =
  Util.Prng.bytes (stream t ~stage ~me ~dst ~salt:3) (max 0 len)

let corrupt_payload t ?(replay = true) ~stage ~me ~dst payload =
  let len = Bytes.length payload in
  (* Payload-keyed streams: the same payload fanned out to many
     recipients draws the same shared coins (a consistent wrong value),
     while distinct payloads at the same slot decide independently. *)
  let ph = Hashtbl.hash payload in
  (* [rs] has no dst in its key — flip/truncate parameters are shared by
     every recipient; [rd] is per-recipient for equivocation. *)
  let rs = stream t ~stage ~me ~dst:(-1) ~salt:(mix 4 ph) in
  let rd = stream t ~stage ~me ~dst ~salt:(mix 5 ph) in
  let prev = if replay then t.last.(me) else None in
  let out =
    if Util.Prng.bernoulli rd t.sp.equivocate then Util.Prng.bytes rd len
    else if Util.Prng.bernoulli rs t.sp.flip && len > 0 then begin
      let pos = Util.Prng.int rs len in
      let mask = 1 + Util.Prng.int rs 255 in
      let out = Bytes.copy payload in
      Bytes.set out pos (Char.chr (Char.code (Bytes.get payload pos) lxor mask));
      out
    end
    else if Util.Prng.bernoulli rs t.sp.truncate && len > 0 then
      Bytes.sub payload 0 (Util.Prng.int rs len)
    else if replay && Util.Prng.bernoulli rs t.sp.replay then
      match prev with Some b -> b | None -> payload
    else payload
  in
  if replay then t.last.(me) <- Some payload;
  out

let transport t ~stage ~me ~dst payload ~push =
  if not (drops t ~stage ~me ~dst) then begin
    let p' = corrupt_payload t ~stage ~me ~dst payload in
    push p';
    if decide t ~stage ~me ~dst ~p:t.sp.duplicate then push p'
  end

let send t net ~stage ~src ~dst payload =
  transport t ~stage ~me:src ~dst payload ~push:(fun b -> Net.send net ~src ~dst b)
