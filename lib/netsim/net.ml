(* High-throughput core.

   The simulator used to keep one global [pending] list (stable-sorted on
   every [step]) and plain association lists for inboxes (re-reversed and
   partitioned on every [recv_from]).  At the sweep sizes the experiments
   run (n up to 512 and beyond), that bookkeeping dominated wall-clock.

   One representation now serves every n, from the unit tests' handful of
   parties to the giant tier's 10⁶, with resident state O(n) words plus
   what parties actually exchanged:

   - Sent-but-undelivered messages live in a {!Transport.t}.  [send] is
     O(1); the sync transport's [advance] delivers in the documented
     order (sender id, then send order).  [Net] keeps mailboxes,
     accounting, and the round clock; the transport keeps only the
     in-flight buffer and the delivery schedule, so an event-queue
     transport (Event_net) can delay and reorder under identical protocol
     code.
   - Bit counters are flat length-n int arrays, and each party's peers
     are one {!Util.Intset}.  [send] does not touch the peer sets: it
     appends the edge, packed [(src lsl 31) lor dst], to a log.  [step]
     and every peer query fold the log into the sets first, in two
     passes: the first counts each party's new entries, the second
     sizes each touched set once for all of them (capped at n - 1
     distinct peers) and inserts.  A receiver's set thus grows once per
     round instead of doubling its way up one message at a time.  The
     log holds one word per message sent since the last fold; its
     buffer grows by doubling and is kept for the next round.
   - A party's inbox record is created on its first delivery.  It keeps
     an arrival-order log as two parallel arrays (sender ids, payloads),
     so a delivery allocates nothing per message or per recipient–sender
     pair.  [recv] walks the log once.  [recv_from]/[recv_one] find a
     sender's messages by binary search over the log in sender order:
     while arrivals have ascended by sender — every sync step does, so a
     lockstep inbox drained once per round always does — the log is its
     own index.  Otherwise the first [recv_from]/[recv_one] since the
     last arrival builds a per-sender index (the live log positions,
     stably sorted by sender), and the index is dropped when the inbox
     drains; [recv]-only protocols never build one.  A payload drained
     by one view is overwritten with a sentinel so the other view skips
     it.

   Delivery order, accounting, and the external API are identical to the
   original list-based implementation (see test_netsim's model
   property). *)

(* Accepted by [create] and ignored; see net.mli. *)
type backend = Dense | Sparse

(* Marks a drained log slot.  Never returned to a caller, so no payload a
   protocol holds can be physically equal to it. *)
let drained = Bytes.make 1 '\000'

type inbox = {
  mutable srcs : int array; (* arrival order; indices < len are valid *)
  mutable payloads : bytes array; (* [drained] once read *)
  mutable len : int;
  mutable live : int; (* number of undrained slots in the log *)
  mutable sorted : bool; (* srcs.(0 .. len-1) ascend: the log is its own index *)
  mutable index : int array; (* when not [sorted]: live positions by sender *)
  mutable indexed : int; (* [len] when [index] was built, -1 for none *)
}

(* Every party's inbox until its first delivery.  Never written: each
   receive path returns before touching an inbox with [live = 0]. *)
let no_inbox =
  { srcs = [||]; payloads = [||]; len = 0; live = 0; sorted = true; index = [||]; indexed = -1 }

(* Every party's peer set until its first fold.  Never written:
   [add_peer] replaces it before adding. *)
let no_peers = Util.Intset.create ()

(* An edge in the send log: [(src lsl 31) lor dst]. *)
let dst_mask = (1 lsl 31) - 1

exception Livelock of { rounds : int; max_rounds : int }

let () =
  Printexc.register_printer (function
    | Livelock { rounds; max_rounds } ->
      Some
        (Printf.sprintf "Netsim.Net.Livelock: round clock hit %d (max_rounds = %d)" rounds
           max_rounds)
    | _ -> None)

type t = {
  num_parties : int;
  mutable max_rounds : int option; (* mutable for [with_round_limit] *)
  transport : Transport.t; (* owns sent-but-undelivered messages *)
  deliver : src:int -> dst:int -> bytes -> unit; (* into [inboxes] *)
  inboxes : inbox array;
  sent_bits : int array;
  recv_bits : int array;
  peers : Util.Intset.t array; (* up to date only after [fold_edges] *)
  mutable edges : int array; (* edges sent since the last fold *)
  mutable num_edges : int;
  fresh : int array; (* per-party entries in the log; zero between folds *)
  mutable round : int;
  mutable total_messages : int;
  mutable total_sent_bits : int; (* running sum, so [total_bits] is O(1) *)
}

let n t = t.num_parties

let check_party t i name =
  if i < 0 || i >= t.num_parties then
    invalid_arg (Printf.sprintf "Net.%s: party %d out of range" name i)

(* ---- Sending --------------------------------------------------------- *)

let send t ~src ~dst payload =
  check_party t src "send";
  check_party t dst "send";
  if src = dst then invalid_arg "Net.send: self-send";
  let bits = 8 * Bytes.length payload in
  t.sent_bits.(src) <- t.sent_bits.(src) + bits;
  t.recv_bits.(dst) <- t.recv_bits.(dst) + bits;
  let k = t.num_edges in
  if k = Array.length t.edges then begin
    let edges = Array.make (max 64 (2 * k)) 0 in
    Array.blit t.edges 0 edges 0 k;
    t.edges <- edges
  end;
  Array.unsafe_set t.edges k ((src lsl 31) lor dst);
  t.num_edges <- k + 1;
  (* Metering happens at send time regardless of when (or in what order)
     the transport chooses to deliver — cost is a property of what the
     protocol said, not of the schedule. *)
  t.transport.Transport.submit ~src ~dst payload;
  t.total_sent_bits <- t.total_sent_bits + bits;
  t.total_messages <- t.total_messages + 1

(* ---- Peer sets ------------------------------------------------------- *)

(* [i]'s side of one logged edge.  The first time the second pass meets
   [i], its set is sized for all [fresh.(i)] of its new entries at once
   and the count is cleared, so later edges of [i] only insert.  A set
   that already holds all n - 1 other parties is left alone. *)
let add_peer t i j =
  let most = t.num_parties - 1 in
  let c = Array.unsafe_get t.fresh i in
  if c > 0 then begin
    Array.unsafe_set t.fresh i 0;
    let s = Array.unsafe_get t.peers i in
    if s == no_peers then Array.unsafe_set t.peers i (Util.Intset.create ~capacity:(min c most) ())
    else Util.Intset.reserve s (min (Util.Intset.cardinal s + c) most)
  end;
  let s = Array.unsafe_get t.peers i in
  if Util.Intset.cardinal s < most then Util.Intset.add s j

let fold_edges t =
  let m = t.num_edges in
  if m > 0 then begin
    let edges = t.edges and fresh = t.fresh in
    for k = 0 to m - 1 do
      let e = Array.unsafe_get edges k in
      let src = e lsr 31 and dst = e land dst_mask in
      Array.unsafe_set fresh src (Array.unsafe_get fresh src + 1);
      Array.unsafe_set fresh dst (Array.unsafe_get fresh dst + 1)
    done;
    for k = 0 to m - 1 do
      let e = Array.unsafe_get edges k in
      let src = e lsr 31 and dst = e land dst_mask in
      add_peer t src dst;
      add_peer t dst src
    done;
    t.num_edges <- 0
  end

(* ---- Delivery -------------------------------------------------------- *)

let deliver inboxes ~src ~dst payload =
  let ib =
    let ib = inboxes.(dst) in
    if ib != no_inbox then ib
    else begin
      let ib = { no_inbox with srcs = Array.make 8 0; payloads = Array.make 8 drained } in
      inboxes.(dst) <- ib;
      ib
    end
  in
  let k = ib.len in
  if k = Array.length ib.srcs then begin
    let srcs = Array.make (2 * k) 0 and payloads = Array.make (2 * k) drained in
    Array.blit ib.srcs 0 srcs 0 k;
    Array.blit ib.payloads 0 payloads 0 k;
    ib.srcs <- srcs;
    ib.payloads <- payloads
  end;
  if k > 0 && Array.unsafe_get ib.srcs (k - 1) > src then ib.sorted <- false;
  ib.srcs.(k) <- src;
  ib.payloads.(k) <- payload;
  ib.len <- k + 1;
  ib.live <- ib.live + 1

let create ?backend:_ ?transport ?max_rounds num_parties =
  if num_parties <= 0 then invalid_arg "Net.create: need at least one party";
  if num_parties > dst_mask + 1 then invalid_arg "Net.create: more than 2^31 parties";
  (match max_rounds with
  | Some m when m <= 0 -> invalid_arg "Net.create: max_rounds must be positive"
  | _ -> ());
  let inboxes = Array.make num_parties no_inbox in
  {
    num_parties;
    max_rounds;
    transport = (match transport with Some tr -> tr | None -> Transport.sync ());
    deliver = (fun ~src ~dst payload -> deliver inboxes ~src ~dst payload);
    inboxes;
    sent_bits = Array.make num_parties 0;
    recv_bits = Array.make num_parties 0;
    peers = Array.make num_parties no_peers;
    edges = [||];
    num_edges = 0;
    fresh = Array.make num_parties 0;
    round = 0;
    total_messages = 0;
    total_sent_bits = 0;
  }

let step t =
  (* Livelock watchdog: a fuzzed adversary that keeps a protocol loop
     alive forever should fail diagnosably, not hang CI.  The clock a
     [max_rounds] bound counts is the same virtual clock the transports
     tick on (one tick per [step]), so under the event transport this is
     a virtual-time bound on the whole schedule, not just on lockstep
     rounds.  Checked before delivery so the raise leaves the clock and
     mailboxes untouched. *)
  (match t.max_rounds with
  | Some m when t.round >= m -> raise (Livelock { rounds = t.round; max_rounds = m })
  | _ -> ());
  fold_edges t;
  (* One transport tick.  The sync transport delivers everything in
     flight in the canonical order (ascending sender id, then send
     order); the event transport releases whatever its schedule says is
     due.  Skipped entirely when nothing is in flight, so idle steps
     stay O(1). *)
  if t.transport.Transport.in_flight () > 0 then t.transport.Transport.advance ~deliver:t.deliver;
  t.round <- t.round + 1

let in_flight t = t.transport.Transport.in_flight ()

let step_until_quiet ?(deadline = 1) t =
  if deadline < 1 then invalid_arg "Net.step_until_quiet: deadline must be >= 1";
  step t;
  let steps = ref 1 in
  while !steps < deadline && in_flight t > 0 do
    step t;
    incr steps
  done

let steps_remaining t =
  match t.max_rounds with Some m -> max 0 (m - t.round) | None -> max_int

let with_round_limit t ~extra f =
  if extra <= 0 then invalid_arg "Net.with_round_limit: extra must be positive";
  let saved = t.max_rounds in
  let cap = t.round + extra in
  (* Only ever tighten: a create-time bound stays authoritative. *)
  t.max_rounds <- Some (match saved with Some m -> min m cap | None -> cap);
  Fun.protect ~finally:(fun () -> t.max_rounds <- saved) f

(* ---- Receiving ------------------------------------------------------- *)

let reset_inbox ib =
  (* Drop payload references so drained messages can be collected. *)
  Array.fill ib.payloads 0 ib.len drained;
  ib.len <- 0;
  ib.live <- 0;
  ib.sorted <- true;
  ib.index <- [||];
  ib.indexed <- -1

let recv t ~dst =
  check_party t dst "recv";
  let ib = t.inboxes.(dst) in
  if ib.live = 0 then []
  else begin
    let acc = ref [] in
    for k = ib.len - 1 downto 0 do
      let p = ib.payloads.(k) in
      if p != drained then acc := (ib.srcs.(k), p) :: !acc
    done;
    reset_inbox ib;
    !acc
  end

(* Log position of the message at rank [r] in sender order. *)
let[@inline] position ib r = if ib.sorted then r else Array.unsafe_get ib.index r

(* [f] folded over [src]'s undrained payloads in arrival order, draining
   them.  Requires [ib.live > 0], so [no_inbox] is never written. *)
let drain_sender ib src f init =
  if (not ib.sorted) && ib.indexed <> ib.len then begin
    let index = Array.make ib.live 0 and j = ref 0 in
    for k = 0 to ib.len - 1 do
      if ib.payloads.(k) != drained then begin
        index.(!j) <- k;
        incr j
      end
    done;
    let srcs = ib.srcs in
    Array.stable_sort (fun a b -> Int.compare srcs.(a) srcs.(b)) index;
    ib.index <- index;
    ib.indexed <- ib.len
  end;
  let ranks = if ib.sorted then ib.len else Array.length ib.index in
  (* First rank whose sender is >= [src]. *)
  let lo = ref 0 and hi = ref ranks in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ib.srcs.(position ib mid) < src then lo := mid + 1 else hi := mid
  done;
  let acc = ref init and taken = ref 0 and r = ref !lo in
  while !r < ranks && ib.srcs.(position ib !r) = src do
    let k = position ib !r in
    let p = ib.payloads.(k) in
    if p != drained then begin
      acc := f p !acc;
      ib.payloads.(k) <- drained;
      incr taken
    end;
    incr r
  done;
  if !taken > 0 then begin
    ib.live <- ib.live - !taken;
    if ib.live = 0 then reset_inbox ib
  end;
  !acc

let recv_from t ~dst ~src =
  check_party t dst "recv_from";
  let ib = t.inboxes.(dst) in
  if ib.live = 0 then [] else List.rev (drain_sender ib src (fun p acc -> p :: acc) [])

(* A second sentinel: [recv_one]'s fold has seen more than one message. *)
let several = Bytes.make 1 '\000'

(* [Some payload] iff exactly one message is queued — the lockstep common
   case — draining the sender either way, so network state afterwards is
   identical to [recv_from] matched against [[v]].  The fold's
   accumulator is [drained] (none yet), the payload, or [several], so
   the call allocates only its [Some]. *)
let recv_one t ~dst ~src =
  check_party t dst "recv_one";
  let ib = t.inboxes.(dst) in
  if ib.live = 0 then None
  else
    let r = drain_sender ib src (fun p acc -> if acc == drained then p else several) drained in
    if r == drained || r == several then None else Some r

let peek t ~dst =
  check_party t dst "peek";
  let ib = t.inboxes.(dst) in
  let acc = ref [] in
  for k = ib.len - 1 downto 0 do
    let p = ib.payloads.(k) in
    if p != drained then acc := (ib.srcs.(k), p) :: !acc
  done;
  !acc

(* ---- Accounting ------------------------------------------------------ *)

let rounds t = t.round

let bits_sent t i =
  check_party t i "bits_sent";
  t.sent_bits.(i)

let bits_received t i =
  check_party t i "bits_received";
  t.recv_bits.(i)

let total_bits t = t.total_sent_bits
let total_bits_of t parties = List.fold_left (fun acc i -> acc + bits_sent t i) 0 parties

let peers t i =
  check_party t i "peers";
  fold_edges t;
  Util.Intset.to_iset t.peers.(i)

let locality t i =
  check_party t i "locality";
  fold_edges t;
  Util.Intset.cardinal t.peers.(i)

let max_locality t =
  fold_edges t;
  Array.fold_left (fun acc s -> max acc (Util.Intset.cardinal s)) 0 t.peers

let messages_sent t = t.total_messages

let active_parties t =
  let acc = ref [] in
  for i = t.num_parties - 1 downto 0 do
    if t.inboxes.(i).live > 0 then acc := i :: !acc
  done;
  !acc

type snapshot = { snap_bits : int; snap_msgs : int; snap_rounds : int }

let snapshot t =
  { snap_bits = total_bits t; snap_msgs = t.total_messages; snap_rounds = t.round }

let diff_snapshot ~before ~after =
  {
    snap_bits = after.snap_bits - before.snap_bits;
    snap_msgs = after.snap_msgs - before.snap_msgs;
    snap_rounds = after.snap_rounds - before.snap_rounds;
  }
